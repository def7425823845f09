"""Objects of the derived category of the spinor tenfold.

A bundle is either a direct sum of irreducible homogeneous summands in one
of the two descriptions (D5/P4 or B4/Q4), or a named filtered object that
only exists through registered exact sequences (the affine tangent bundle,
its dual, and the kernel bundle of the evaluation on quadratic sections).

The registry holds the exact sequences the computations run on.  Each is
stored once at a reference twist; matching against a query object detects
the common twist.  Terms may carry a representation of the full group as a
coefficient (multiplicity space).  Eleven base sequences are written out
term by term (base_sequences); the other eleven are derived from them by
three generic operations, so a derived entry has no coefficient of its own
to mistype: dual_sequence (the duals, one at a twist), tensor_sequence (a
twist, or a tensor by a bundle) and splice (the paper's four- and five-term
resolutions, joined at a common term).  `kclass` gives an object's class
in K_0.

The vocabulary of the bundle language lives here, for the parser that
reads it and the printer that writes it: ATOMS, the named bundles, and
GENERATORS, the tautological bundles whose Schur powers `schur` builds.
Every object prints in one form, bundle_expr, which is also the repr of Sum
and Named: an expression of the bundle language that parser.parse_bundle
reads back to the same object.  An irreducible prints as the first familiar
bundle it is a twist of (the atoms on its space, then the Schur powers of
the generators there), else as a weight literal such as `D5 [1,2,0,-3,1]`.

O(1) is one line bundle on both descriptions, so a sum of its twists is one
object however it is spelled: Sum keeps every sum whose parts are all
twists of O on D5/P4, and rewrites one written on B4/Q4 there when it is
built.  A twist of O prints as a B4/Q4 weight literal only as a part of a
B4/Q4 sum, one with a part that is not a twist of O.

Sum, Named and Term, like LieDatum and Parabolic, keep one object per value
(roots.Interned), so the engine's tables compare their keys by identity.
Each class has a table from constructor arguments to the stored object,
which lives for the process and is filled by every caller; a B4/Q4 sum of
twists of O is stored under its own arguments as well as under those of
its D5/P4 form.  Sum accepts only the form make_sum gives (nonempty, sorted,
each weight once) and Named only a registered name with an integer twist.
A construction that raises stores nothing.  Named checks the type of its
twist on every call, since 7.0 and True find the keys of 7 and 1.  Sum
checks its weights (roots.check_levi_dominant, through roots.check_weight:
one int per node) and multiplicities (an int of at least 1) only when its
arguments are not in the table yet, and make_sum each multiplicity before
it merges them.  So no number that is not an int is ever stored, and
arguments equal to stored ones, such as 7.0 or 1.0 where the stored
object has 7 or 1, return the stored object.  A fault injected into the
checks reaches only the values not yet stored, as for levi._PRODUCTS.
Identity hashes vary from process to process, so no output may iterate a
set of these objects: the engine's one such set, ExtEngine._stack, is only
tested for membership.

Every object is a twist of one at level zero: Sum.__new__ and
Named.__new__ set, when they store an object, its level (the marked
coordinate of its first part, or its twist) and its base, the stored
object at level zero that it is the twist by level of.  So E and F are
twists of each other exactly when E.base is F.base, and twist goes
through the constructors like every other route to a Sum.
"""

from __future__ import annotations

from functools import lru_cache

from . import bbw, levi, roots
from .roots import (
    B4, B4_Q4, D5, D5_P4, DomainError, Frozen, Interned, InternalConsistencyError, LieDatum, Parabolic, Weight,
)

RepFactor = tuple[LieDatum, Weight]
Coeff = tuple[tuple[RepFactor, int], ...]  # multiset of full-group weights
Parts = tuple[tuple[Weight, int], ...]  # (Levi weight, multiplicity) pairs


class Sum(Interned):
    """Direct sum of irreducible homogeneous bundles, all in one description;
    a sum of twists of O is always on D5/P4.  Besides its fields it has a
    level and a base (see the module docstring)."""

    _fields = ("space", "parts")
    _table: dict[tuple[Parabolic, Parts], Sum] = {}

    def __new__(cls, space: Parabolic, parts: Parts) -> Sum:
        self = cls._table.get((space, parts))
        if self is None:
            if not parts:
                raise DomainError("empty direct sum")
            for w, m in parts:
                roots.check_levi_dominant(space, w)
                _check_multiplicity(m)
            if any(v >= w for (v, _), (w, _) in zip(parts, parts[1:])):
                raise DomainError("the parts of a sum must be sorted, each weight once")
            self = cls._build(space, parts)
            on_d5 = convert_twist(self, D5_P4) if space is B4_Q4 else None
            if on_d5 is not None:  # a sum of twists of O lives on D5/P4 only
                self = cls(D5_P4, on_d5)
            else:
                k = parts[0][0][space.marked[0] - 1]
                object.__setattr__(self, "level", k)
                object.__setattr__(self, "base", cls(space, _shifted(space, parts, -k)) if k else self)
            self = cls._table.setdefault((space, parts), self)
        return self

    def __repr__(self) -> str:
        return bundle_expr(self)


class Named(Interned):
    """A filtered object known only through its registered resolutions; its
    level is its twist, and its base the object at twist 0."""

    _fields = ("name", "twist")
    _table: dict[tuple[str, int], Named] = {}

    def __new__(cls, name: str, twist: int) -> Named:
        # Checked before the lookup: 7.0 and True find the keys of 7 and 1.
        if type(twist) is not int:
            raise DomainError(f"twist {twist!r} is not an integer")
        self = cls._table.get((name, twist))
        if self is None:
            if name not in _NAMED_DUALS:
                raise DomainError(f"no named object {name!r}")
            self = cls._build(name, twist)
            object.__setattr__(self, "level", twist)
            object.__setattr__(self, "base", cls(name, 0) if twist else self)
            self = cls._table.setdefault((name, twist), self)
        return self

    def __repr__(self) -> str:
        return bundle_expr(self)


BundleObject = Sum | Named

_NAMED_DUALS = {"That": "Thatv", "Thatv": "That", "Ktilde": "Ktildev", "Ktildev": "Ktilde"}


def _check_multiplicity(m: int) -> None:
    """Raise DomainError unless m is a Python int of at least 1: no float or bool."""
    if type(m) is not int or m < 1:
        raise DomainError(f"multiplicity {m!r} is not an integer of at least 1")


def make_sum(space: Parabolic, parts: dict[Weight, int] | list[tuple[Weight, int]]) -> Sum:
    items = parts.items() if isinstance(parts, dict) else parts
    merged: dict[Weight, int] = {}
    for w, m in items:
        _check_multiplicity(m)  # before merging: 0 + True is the int 1
        merged[w] = merged.get(w, 0) + m
    return Sum(space, tuple(sorted(merged.items())))


def irr(space: Parabolic, w: Weight) -> Sum:
    return make_sum(space, {tuple(w): 1})


def _shifted(space: Parabolic, parts: Parts, k: int) -> Parts:
    # Adding k times the marked fundamental weight moves every part by one
    # vector, so the parts stay sorted, distinct and Levi-dominant.
    i = space.marked[0] - 1
    return tuple((w[:i] + (w[i] + k,) + w[i + 1 :], m) for w, m in parts)


def twist(obj: BundleObject, k: int) -> BundleObject:
    if k == 0:
        return obj
    if isinstance(obj, Named):
        return Named(obj.name, obj.twist + k)
    return Sum(obj.space, _shifted(obj.space, obj.parts, k))


def dual(obj: BundleObject) -> BundleObject:
    if isinstance(obj, Named):
        return Named(_NAMED_DUALS[obj.name], -obj.twist)
    return make_sum(obj.space, [(roots.dualize_levi(obj.space, w), m) for w, m in obj.parts])


def tensor(a: Sum, b: Sum) -> Sum:
    common = common_parts(a, b)
    if common is None:
        raise DomainError("tensor product needs a common description")
    space, a_parts, b_parts = common
    acc: dict[Weight, int] = {}
    for w1, m1 in a_parts:
        for w2, m2 in b_parts:
            for nu, m in levi.tensor_decompose(space, w1, w2).items():
                acc[nu] = acc.get(nu, 0) + m1 * m2 * m
    return make_sum(space, acc)


def direct_sum(a: Sum, b: Sum) -> Sum:
    common = common_parts(a, b)
    if common is None:
        raise DomainError("direct sum needs a common description")
    space, a_parts, b_parts = common
    return make_sum(space, a_parts + b_parts)


def convert_twist(obj: Sum, space: Parabolic) -> Parts | None:
    """The parts of obj on space: its own when it lives there, those of a
    line-bundle sum (every part a twist of O) on the other space, else None."""
    if obj.space == space:
        return obj.parts
    i = obj.space.marked[0] - 1
    if any(any(w[:i]) or any(w[i + 1 :]) for w, _ in obj.parts):
        return None
    j, zero = space.marked[0] - 1, (0,) * space.rank
    return tuple((zero[:j] + (w[i],) + zero[j + 1 :], m) for w, m in obj.parts)


def common_parts(a: Sum, b: Sum) -> tuple[Parabolic, Parts, Parts] | None:
    """A description that a and b both live on, with their parts there:
    theirs when they share one, else that of the side that is not a
    line-bundle sum (convert_twist); None when neither side is one."""
    for space in (a.space, b.space):
        a_parts, b_parts = convert_twist(a, space), convert_twist(b, space)
        if a_parts is not None and b_parts is not None:
            return space, a_parts, b_parts
    return None


KClass = dict[tuple[Parabolic, Weight], int]  # virtual multiset of Levi irreducibles


def kclass(obj: BundleObject) -> KClass:
    """The class of obj in K_0, through the ring map R(L) -> K_0: a Sum is its
    parts; a named object is the signed sum of the other terms of its first
    registered sequence, each coefficient counted by its dimension (V (x) O = O^dim V)."""
    if isinstance(obj, Sum):
        return {(obj.space, w): m for w, m in obj.parts}
    seq, idx, t = _any_match(obj)
    out: KClass = {}
    for j, term in enumerate(seq.terms):
        if j != idx:
            sign = 1 if (j - idx) % 2 else -1
            n = sign * coeff_dim(term.coeff)
            for piece, m in kclass(twist(term.obj, t)).items():
                out[piece] = out.get(piece, 0) + n * m
    return {piece: m for piece, m in out.items() if m}


# --- sequences -------------------------------------------------------------


class Term(Interned):
    _fields = ("obj", "coeff")
    _table: dict[tuple[BundleObject, Coeff], Term] = {}

    def __new__(cls, obj: BundleObject, coeff: Coeff = ()) -> Term:
        self = cls._table.get((obj, coeff))
        if self is None:
            self = cls._table.setdefault((obj, coeff), cls._build(obj, coeff))
        return self


class Sequence(Frozen):
    """An exact sequence 0 -> T_0 -> ... -> T_{n-1} -> 0 at a reference twist."""

    _fields = ("name", "terms")

    def __init__(self, name: str, terms: tuple[Term, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "terms", terms)


def coeff_dim(coeff: Coeff) -> int:
    if not coeff:
        return 1
    return sum(m * bbw.weyl_dim(datum, w) for (datum, w), m in coeff)


def coeff_dual(coeff: Coeff) -> Coeff:
    return tuple(sorted(((datum, roots.dual_weight(datum, w)), m) for (datum, w), m in coeff))


# --- the concrete bundles on the spinor tenfold ----------------------------

_ZERO5: Weight = (0, 0, 0, 0, 0)


def O(k: int = 0) -> Sum:
    return twist(irr(D5_P4, _ZERO5), k)


def Uv(k: int = 0) -> Sum:
    return twist(irr(D5_P4, (1, 0, 0, 0, 0)), k)


def U(k: int = 0) -> Sum:
    return twist(dual(Uv()), k)


def sym_Uv(r: int, k: int = 0) -> Sum:
    return schur("Uv", "Sym", r, k)


def wedge_Uv(r: int, k: int = 0) -> Sum:
    return schur("Uv", "Wedge", r, k)


def sym_U(r: int, k: int = 0) -> Sum:
    return schur("U", "Sym", r, k)


def wedge_U(r: int, k: int = 0) -> Sum:
    return schur("U", "Wedge", r, k)


def Rv(k: int = 0) -> Sum:
    return twist(irr(B4_Q4, (1, 0, 0, 0)), k)


def R(k: int = 0) -> Sum:
    return twist(dual(Rv()), k)


# The generators the Schur functors apply to: name -> (space, dualized).
GENERATORS = {"Uv": (D5_P4, False), "U": (D5_P4, True), "Rv": (B4_Q4, False), "R": (B4_Q4, True)}


def schur(gen: str, op: str, r: int, k: int = 0) -> Sum:
    """Sym^r (op "Sym") or Wedge^r (op "Wedge") of the generator gen, twisted by k."""
    space, dualized = GENERATORS[gen]
    out = irr(space, levi.sym_power(space, r) if op == "Sym" else levi.wedge_power(space, r))
    return twist(dual(out) if dualized else out, k)


def sym_Rv(r: int, k: int = 0) -> Sum:
    return schur("Rv", "Sym", r, k)


def wedge_Rv(r: int, k: int = 0) -> Sum:
    return schur("Rv", "Wedge", r, k)


def sym_R(r: int, k: int = 0) -> Sum:
    return schur("R", "Sym", r, k)


def wedge_R(r: int, k: int = 0) -> Sum:
    return schur("R", "Wedge", r, k)


def T(k: int = 0) -> Sum:
    # The tangent bundle is the second wedge of the dual tautological bundle.
    return wedge_Uv(2, k)


def W(k: int = 0) -> Sum:
    # The rank-4 quotient bundle is isomorphic to the dual tautological bundle.
    return Uv(k)


def That(k: int = 0) -> Named:
    return Named("That", k)


def Thatv(k: int = 0) -> Named:
    return Named("Thatv", k)


def Ktilde(k: int = 0) -> Named:
    return Named("Ktilde", k)


def Ktildev(k: int = 0) -> Named:
    return Named("Ktildev", k)


# The names of the bundle language, each built once: U and R would otherwise
# go through roots.dualize_levi on every parse.  The printer names an
# irreducible by the first sum here that it is a twist of.
ATOMS = {
    "O": O(), "U": U(), "Uv": Uv(), "R": R(), "Rv": Rv(), "W": W(), "T": T(),
    "That": That(), "Thatv": Thatv(), "Ktilde": Ktilde(), "Ktildev": Ktildev(),
}


# --- the printed form --------------------------------------------------------

# space -> {Levi weight without its marked coordinate: (name, marked
# coordinate of the named bundle)}, built on the first bundle_expr there.
_NAMES: dict[Parabolic, dict[Weight, tuple[str, int]]] = {}


def _named_irreducibles(space: Parabolic) -> list[tuple[str, Sum]]:
    # The familiar bundles bundle_expr names an irreducible by, in order of
    # preference: the atoms on space, so Uv before its alias W and T before
    # Wedge2 Uv, then the Schur powers of its generators.  O is named on
    # D5/P4 only, where every sum of its twists lives; a twist of O that is
    # a part of a B4/Q4 sum prints as a weight.
    named = [(name, obj) for name, obj in ATOMS.items() if isinstance(obj, Sum) and obj.space == space]
    gens = [gen for gen, (on, _) in GENERATORS.items() if on == space]
    for r in range(2, levi.levi_rank(space)):
        for gen in gens:
            named += [(f"{op}{r} {gen}", schur(gen, op, r)) for op in ("Sym", "Wedge")]
    return named


def _irr_expr(space: Parabolic, w: Weight) -> str:
    i = space.marked[0] - 1
    names = _NAMES.get(space)
    if names is None:
        names = _NAMES[space] = {}
        for name, obj in _named_irreducibles(space):
            ((v, _),) = obj.parts
            names.setdefault(v[:i] + v[i + 1 :], (name, v[i]))
    hit = names.get(w[:i] + w[i + 1 :])
    if hit is None:
        return f"{space.datum} {roots.format_weight(w)}"
    name, k = hit
    return name + (f" ({w[i] - k})" if w[i] != k else "")


def bundle_expr(obj: BundleObject) -> str:
    """The printed form of an object: an expression parser.parse_bundle reads
    back to it, naming each irreducible by a familiar bundle when one fits."""
    if isinstance(obj, Named):
        return f"{obj.name}({obj.twist})" if obj.twist else obj.name
    return " + ".join(_irr_expr(obj.space, w) for w, m in obj.parts for _ in range(m))


def _rep(datum: LieDatum, *weights: Weight) -> Coeff:
    merged: dict[RepFactor, int] = {}
    for w in weights:
        merged[(datum, w)] = merged.get((datum, w), 0) + 1
    return tuple(sorted(merged.items()))


def dual_sequence(name: str, seq: Sequence, k: int = 0) -> Sequence:
    """The dual of seq twisted by k: every term and coefficient dualized, in
    reverse order."""
    terms = tuple(Term(twist(dual(t.obj), k), coeff_dual(t.coeff)) for t in reversed(seq.terms))
    return Sequence(name, terms)


def tensor_sequence(name: str, seq: Sequence, by: int | Sum) -> Sequence:
    """seq twisted by O(by) for an integer by, else tensored by the bundle by;
    a named term can only be twisted."""

    def move(obj: BundleObject) -> BundleObject:
        if isinstance(by, int):
            return twist(obj, by)
        if isinstance(obj, Named):
            raise DomainError(f"{obj} twists, but is tensored by no bundle")
        return tensor(obj, by)

    return Sequence(name, tuple(Term(move(t.obj), t.coeff) for t in seq.terms))


def splice(name: str, first: Sequence, second: Sequence) -> Sequence:
    """0 -> A_0 -> ... -> A_m -> B_1 -> ... -> B_n -> 0, joined from first,
    0 -> A_0 -> ... -> A_m -> X -> 0, and second, 0 -> X -> B_1 -> ... -> 0."""
    if first.terms[-1] != second.terms[0]:
        raise InternalConsistencyError(f"{first.name} does not end where {second.name} starts")
    return Sequence(name, first.terms[:-1] + second.terms[1:])


def base_sequences() -> tuple[Sequence, ...]:
    """The resolutions stated term by term; standard_sequences derives the rest."""
    V1 = _rep(D5, (1, 0, 0, 0, 0))
    V2 = _rep(D5, (0, 1, 0, 0, 0))
    V11 = _rep(D5, (2, 0, 0, 0, 0))  # Cartan piece of Sym^2 V_10
    SYM2V = _rep(D5, (2, 0, 0, 0, 0), _ZERO5)  # Sym^2 V_10 = V_{2w1} + trivial
    VS5 = _rep(D5, (0, 0, 0, 0, 1))
    V9 = _rep(B4, (1, 0, 0, 0))

    def S(name: str, *terms: Term | BundleObject) -> Sequence:
        return Sequence(name, tuple(t if isinstance(t, Term) else Term(t) for t in terms))

    return (
        # 0 -> U -> V_10 (x) O -> U^ -> 0
        S("taut-rank5", U(), Term(O(), V1), Uv()),
        # 0 -> R -> U -> O -> 0
        S("taut-chain", R(), U(), O()),
        # 0 -> R -> V_9 (x) O -> U^ -> 0   (quotient W identified with U^)
        S("taut-rank4", R(), Term(O(), V9), Uv()),
        # 0 -> R^ -> T -> wedge^2 R^ -> 0
        S("tangent-ext", Rv(), T(), wedge_Rv(2)),
        # 0 -> O(-1) -> That -> T(-1) -> 0
        S("affine-ext", O(-1), That(), T(-1)),
        # 0 -> That -> V_{w5} (x) O -> U(1) -> 0
        S("affine-kernel", That(), Term(O(), VS5), U(1)),
        # 0 -> Ktilde(2) -> V_{2w1} (x) O(2) -> Sym^2 U^ (2) -> 0
        S("quadric-kernel", Ktilde(2), Term(O(2), V11), sym_Uv(2, 2)),
        # 0 -> Thatv(1) -> V_{w1} (x) U(2) -> Ktilde(2) -> 0
        S("quadric-coker", Thatv(1), Term(U(2), V1), Ktilde(2)),
        # 0 -> U^ -> Sym^2 U^ -> Sym^2 R^ -> 0
        S("sym2-dual-chain", Uv(), sym_Uv(2), sym_Rv(2)),
        # Koszul resolutions of the Schur squares of the rank-5 sequence
        S("koszul-wedge2U", wedge_U(2), Term(U(), V1), Term(O(), SYM2V), sym_Uv(2)),
        S("koszul-sym2U", sym_U(2), Term(U(), V1), Term(O(), V2), wedge_Uv(2)),
    )


@lru_cache(maxsize=None)
def standard_sequences() -> tuple[Sequence, ...]:
    """The registry: the base sequences and those derived from them by
    duality, twist, tensor and splice, in a fixed order.  A named object's
    class (kclass) reads its first match, and routes run in this order."""
    rank5, chain, rank4, tangent, affine, kernel, quadric, coker, sym2, kw2, ks2 = base_sequences()
    kernel_dual = dual_sequence("affine-kernel-dual", kernel)
    koszul_dual = dual_sequence("koszul-sym2U-dual", kw2, -1)
    # The paper's resolutions, joined at Ktilde and at Thatv(1)
    four = splice("four-term", tensor_sequence("quadric-coker(-2)", coker, -2),
                  tensor_sequence("quadric-kernel(-2)", quadric, -2))
    five = splice("five-term", tensor_sequence("affine-kernel-dual(1)", kernel_dual, 1),
                  tensor_sequence("four-term(2)", four, 2))
    return (
        rank5,
        chain, dual_sequence("taut-chain-dual", chain),
        rank4, tangent,
        affine, dual_sequence("affine-ext-dual", affine),
        kernel, kernel_dual,
        quadric, dual_sequence("quadric-kernel-dual", quadric),
        coker, dual_sequence("quadric-coker-dual", coker),
        sym2, dual_sequence("sym2-chain", sym2),  # 0 -> Sym^2 R -> Sym^2 U -> U -> 0
        dual_sequence("wedge2-chain", tangent),  # 0 -> wedge^2 R -> wedge^2 U -> R -> 0
        kw2, ks2, koszul_dual, tensor_sequence("koszul-sym2U-dual-twisted", koszul_dual, Uv(-1)),
        four,  # 0 -> Thatv(-1) -> V_{w1} (x) U -> V_{2w1} (x) O -> Sym^2 U^ -> 0
        five,  # 0 -> U^ -> V_{w4} (x) O(1) -> V_{w1} (x) U(2) -> V_{2w1} (x) O(2) -> Sym^2 U^(2) -> 0
    )


@lru_cache(maxsize=None)
def _terms_at_level_zero() -> dict[BundleObject, list[tuple[Sequence, int, int]]]:
    """Each registered term at level zero -> its (sequence, index, level), in registry order."""
    index: dict[BundleObject, list[tuple[Sequence, int, int]]] = {}
    for seq in standard_sequences():
        for idx, term in enumerate(seq.terms):
            index.setdefault(term.obj.base, []).append((seq, idx, term.obj.level))
    return index


@lru_cache(maxsize=None)
def sequence_matches(obj: BundleObject) -> tuple[tuple[Sequence, int, int], ...]:
    """All (sequence, index, twist) triples realizing obj as a sequence term,
    in registry order: the twisted term and obj have one base."""
    k = obj.level
    return tuple((seq, idx, k - k0) for seq, idx, k0 in _terms_at_level_zero().get(obj.base, ()))


def _any_match(obj: BundleObject) -> tuple[Sequence, int, int]:
    matches = sequence_matches(obj)
    if not matches:
        raise DomainError(f"no registered resolution for {obj}")
    return matches[0]
