"""Parser for the bundle-expression language used by the CLI and file formats.

Grammar:

    expr    := term ('+' term)*
    term    := factor ('*' factor)*
    factor  := ('Sym' INT | 'Wedge' INT | 'dual')* primary ('(' INT ')')*
    primary := NAME | WEIGHT | '(' expr ')'
    NAME    := O | U | Uv | R | Rv | W | T | That | Thatv | Ktilde | Ktildev
    WEIGHT  := ('D5' | 'B4') '[' INT (',' INT)* ']'

Postfix twists bind to the whole prefixed factor, so `Sym2 Uv (2)` is the
second symmetric power twisted by 2.  Schur functors apply only to (twists
of) the tautological generators U, Uv, R, Rv.  A B4 weight literal whose
unmarked coordinates are zero, `B4 [0,0,0,k]`, reads as O(k), which lives
on D5/P4 (see bundles); a sum or product of it with a B4/Q4 bundle is
taken on B4/Q4.

parse_bundle keeps each object it returns for the rest of the process,
keyed by the text it was parsed from, as bundles.ATOMS keeps the atoms:
bundle objects are immutable values, and a session asks for the same few
strings again and again.  A failed parse is never kept, so a bad string raises on
every call.  The limit is the one of the atoms: a fault injected into
roots.dualize_levi, or anything else a parse calls, after a string was
first parsed does not reach that string's object, and one injected before
stays in it.  The table grows by one entry per distinct string parsed.

The printed form that this parser reads back is bundles.bundle_expr, the
repr of every bundle object.
"""

from __future__ import annotations

import re

from . import bundles
from .bundles import ATOMS, BundleObject, Sum
from .roots import B4_Q4, D5_P4, DomainError

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>-?\d+)|(?P<sym>[()\[\],+*]))")

_SCHUR = re.compile(r"(Sym|Wedge)(\d+)")

_PARSED: dict[str, BundleObject] = {}


class BundleSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # "name" | "int" | "sym" | "end"
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while (m := _TOKEN.match(text, pos)) is not None:
        kind = m.lastgroup
        out.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise BundleSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None, text: str | None = None) -> _Token:
        tok = self.tokens[self.i]
        if kind and tok.kind != kind:
            raise BundleSyntaxError(f"expected {kind}, found {tok.text!r}", tok.pos)
        if text and tok.text != text:
            raise BundleSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self) -> BundleObject:
        obj = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise BundleSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return obj

    def expr(self) -> BundleObject:
        obj = self.term()
        while self.peek().text == "+":
            op = self.take()
            rhs = self.term()
            if not (isinstance(obj, Sum) and isinstance(rhs, Sum)):
                raise BundleSyntaxError("direct sums of named objects are not supported", op.pos)
            try:
                obj = bundles.direct_sum(obj, rhs)
            except DomainError as e:
                raise BundleSyntaxError(str(e), op.pos) from None
        return obj

    def term(self) -> BundleObject:
        obj = self.factor()
        while self.peek().text == "*":
            op = self.take()
            rhs = self.factor()
            if not (isinstance(obj, Sum) and isinstance(rhs, Sum) and bundles.common_parts(obj, rhs)):
                raise BundleSyntaxError("tensor products need two sums in one description", op.pos)
            obj = bundles.tensor(obj, rhs)
        return obj

    def factor(self) -> BundleObject:
        return self._twists(self.prefixed())

    def prefixed(self) -> BundleObject:
        # prefix operators bind before any postfix twist: `Sym2 Uv (2)` is
        # the symmetric square, twisted by 2
        tok = self.peek()
        if tok.kind == "name" and (tok.text == "dual" or _schur_op(tok.text) or tok.text in ("Sym", "Wedge")):
            op = self.take().text
            power = _schur_op(op)
            if op in ("Sym", "Wedge"):
                power = (op, int(self.take("int").text))
            inner = self.prefixed()
            if op == "dual":
                return bundles.dual(inner)
            return _apply_schur(power, inner, tok.pos)
        return self.primary()

    def _twists(self, obj: BundleObject) -> BundleObject:
        while self.peek().text == "(" and self.tokens[self.i + 1].kind == "int":
            self.take()
            k = int(self.take("int").text)
            self.take(text=")")
            obj = bundles.twist(obj, k)
        return obj

    def primary(self) -> BundleObject:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            obj = self.expr()
            self.take(text=")")
            return obj
        if tok.kind == "name":
            if tok.text in ("D5", "B4"):
                return self.weight_literal()
            if tok.text in ATOMS:
                self.take()
                return ATOMS[tok.text]
            raise BundleSyntaxError(f"unknown bundle name {tok.text!r}", tok.pos)
        raise BundleSyntaxError(f"expected a bundle expression, found {tok.text!r}", tok.pos)

    def weight_literal(self) -> Sum:
        datum_tok = self.take("name")
        space = D5_P4 if datum_tok.text == "D5" else B4_Q4
        self.take(text="[")
        coords = [int(self.take("int").text)]
        while self.peek().text == ",":
            self.take()
            coords.append(int(self.take("int").text))
        self.take(text="]")
        try:
            return bundles.irr(space, tuple(coords))
        except DomainError as e:
            raise BundleSyntaxError(str(e), datum_tok.pos) from None


def _schur_op(text: str) -> tuple[str, int] | None:
    m = _SCHUR.fullmatch(text)
    if m:
        return m.group(1), int(m.group(2))
    return None


def _apply_schur(power: tuple[str, int], inner: BundleObject, pos: int) -> Sum:
    op, r = power
    # Schur_r(E(t)) = Schur_r(E)(r*t) for a line-bundle twist of a generator
    for gen in bundles.GENERATORS:
        atom = ATOMS[gen]
        if inner.base is atom.base:
            try:
                return bundles.schur(gen, op, r, r * (inner.level - atom.level))
            except DomainError as e:
                raise BundleSyntaxError(str(e), pos) from None
    raise BundleSyntaxError("Schur functors apply only to tautological generators", pos)


def parse_bundle(text: str) -> BundleObject:
    """Parse one bundle expression; raises BundleSyntaxError with a position."""
    obj = _PARSED.get(text)
    if obj is None:
        obj = _PARSED[text] = _Parser(text).parse()
    return obj


def parse_collection(text: str) -> list[BundleObject]:
    """One expression per line; '#' starts a comment."""
    objs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            objs.append(parse_bundle(line))
        except BundleSyntaxError as e:
            raise BundleSyntaxError(f"line {lineno}: {e.message}", e.position) from None
    return objs
