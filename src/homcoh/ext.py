"""Graded Ext groups between bundle objects.

Ext is additive over the summands of two direct sums.  In a common
description each pair of irreducibles reduces to the Borel-Bott-Weil walk
after a Brauer-Klimyk decomposition of E-dual tensor F
(levi.tensor_decompose); everything else is chased through the long exact
sequences of the registered resolutions.

A chase is accepted only when the long exact sequence degenerates for
dimension reasons: every connecting map between two known columns has a
zero source or target in every degree.  Otherwise the result is reported
as Ambiguous, which still carries the exact Euler characteristic.

The Euler characteristic takes no route, so it checks the chases from
outside: chi(E, F) pairs the K-classes of bundles.kclass, a sum of direct
BBW terms chi(L1-dual (x) L2) over their Levi pieces, on B4/Q4 when a piece
lives there (D5/P4 pieces branched by levi.branch_levi).  An engine keeps
each object's class as pieces on both descriptions and each chi(L1-dual (x)
L2) once per twist class, with L1 at level zero, so a pairing of objects
already seen reads one table entry per pair of pieces and computes nothing.

An Ext answer has one shape, the flat multiset of its graded pieces: an
ExtResult holds them as (degree, entry, mult) tuples sorted by (degree,
entry), none with multiplicity zero, and a Graded dict (degree, entry) ->
mult accumulates them while an answer is built.  An entry is a formal
tensor of full-group irreducibles; a coefficient representation
multiplying a nontrivial cohomology representation stays unexpanded
(tensor product decompositions of the full group are never required).
Only Spin(9) acts on a pair with a side on B4/Q4 (never a sum of twists
of O, which bundles.Sum keeps on D5/P4), so every D5 factor of its answer
is branched to B4 before the routes are compared: such a pair is labelled
by B4 irreducibles alone.

Ext(E(k), F(k)) = Ext(E, F), labels included, so an engine computes and
keeps one Ext per twist class of pairs, under the pair with E at level
zero (E.base, see bundles), Ambiguous answers included when no cycle was
cut while computing them (see ExtEngine), their reasons naming no pair.
A chase that fails gives None, not an answer: every Ambiguous carries the
exact Euler characteristic, except the cycle cut, which only a chase
inside another computation meets.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator

from . import bbw, bundles, levi, roots
from .bundles import BundleObject, Named, Sequence, Sum, Term
from .roots import Frozen, InternalConsistencyError

Entry = tuple[bundles.RepFactor, ...]
Graded = dict[tuple[int, Entry], int]  # (degree, entry) -> multiplicity
Route = tuple[Sequence, int, int, bool]  # a chase: sequence, index, twist, contravariant


def _entry(*factors: bundles.RepFactor) -> Entry:
    kept = tuple(sorted((d, w) for d, w in factors if any(w)))
    return kept


def entry_dim(entry: Entry) -> int:
    d = 1
    for datum, w in entry:
        d *= bbw.weyl_dim(datum, w)
    return d


_MISSING = object()


def _lookup(table: dict, fn: Callable, *args):
    """fn(*args), computed on the first call with these args and kept in table."""
    value = table.get(args, _MISSING)
    if value is _MISSING:
        value = table[args] = fn(*args)
    return value


def add_piece(graded: Graded, degree: int, entry: Entry, mult: int) -> None:
    key = degree, entry
    total = graded.get(key, 0) + mult
    if total:
        graded[key] = total
    else:
        graded.pop(key, None)


class ExtResult(Frozen):
    """Exact graded Ext as its flat pieces (see the module docstring)."""

    _fields = ("pieces",)

    def __init__(self, pieces: tuple[tuple[int, Entry, int], ...]) -> None:
        object.__setattr__(self, "pieces", pieces)

    def __eq__(self, other):
        # Written out: the engine compares the answers of its strategies, and
        # the corpus and the mutations compare answers with expected ones.
        if other.__class__ is self.__class__:
            return self.pieces == other.pieces
        return NotImplemented

    __hash__ = Frozen.__hash__

    @staticmethod
    def from_dict(graded: Graded) -> "ExtResult":
        return ExtResult(tuple((p, e, m) for (p, e), m in sorted(graded.items()) if m))

    def dims(self) -> dict[int, int]:
        """The dimension of each degree that has a piece."""
        out: dict[int, int] = {}
        for p, e, m in self.pieces:
            out[p] = out.get(p, 0) + m * entry_dim(e)
        return out

    def euler(self) -> int:
        return sum((-1) ** p * m * entry_dim(e) for p, e, m in self.pieces)

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    @property
    def is_decomposed(self) -> bool:
        """True when no graded piece carries an unexpanded tensor factor."""
        return all(len(entry) <= 1 for _, entry, _ in self.pieces)

    def invariant_part(self) -> "ExtResult":
        """The equivariant answer: per degree p, C^m[-p] with m the multiplicity
        of the trivial B4 representation (levi.invariant_multiplicity_entry)."""
        acc: Graded = {}
        for p, entry, m in self.pieces:
            add_piece(acc, p, (), m * levi.invariant_multiplicity_entry(entry))
        return ExtResult.from_dict(acc)

    def __repr__(self) -> str:
        return " + ".join(format_graded(self))


class Ambiguous(Frozen):
    """The chase did not degenerate; only the Euler characteristic is known."""

    _fields = ("euler", "reason")

    def __init__(self, euler: int, reason: str = "") -> None:
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "reason", reason)

    def __repr__(self) -> str:
        return f"ambiguous ({self.reason}; chi = {self.euler})"


def trivial_result(*degrees: int) -> ExtResult:
    acc: Graded = {}
    for p in degrees:
        add_piece(acc, p, (), 1)
    return ExtResult.from_dict(acc)


def rep_result(datum: roots.LieDatum, spec: dict[int, list]) -> ExtResult:
    """Build an expected value: degree -> list of weights (or (weight, mult))."""
    acc: Graded = {}
    for p, items in spec.items():
        for item in items:
            w, m = item if isinstance(item[0], tuple) else (item, 1)
            add_piece(acc, p, _entry((datum, tuple(w))), m)
    return ExtResult.from_dict(acc)


def format_graded(res: ExtResult) -> list[str]:
    """The graded pieces of res in order, one string each; ["0"] when it vanishes."""
    if res.is_zero:
        return ["0"]
    pieces = []
    for p, entry, m in res.pieces:
        if not entry:
            label = "C" if m == 1 else f"C^{m}"
            pieces.append(f"{label}[{-p}]")
        else:
            reps = " * ".join(f"V{roots.format_weight(w)}" for _, w in entry)
            prefix = f"{m}*" if m > 1 else ""
            pieces.append(f"{prefix}{reps} @ {p}")
    return pieces


def _branch_to_b4(res: ExtResult) -> ExtResult:
    """res with every D5 factor of every entry branched to its B4 irreducibles."""
    acc: Graded = {}
    for p, entry, m in res.pieces:
        for combo in itertools.product(*(levi.b4_content(d, w) for d, w in entry)):
            mult = m * math.prod(c for _, c in combo)
            add_piece(acc, p, _entry(*((roots.B4, w) for w, _ in combo)), mult)
    return ExtResult.from_dict(acc)


def _on_space(pb: roots.Parabolic, cls: bundles.KClass) -> dict[roots.Weight, int]:
    """A class as Levi weights on pb, its D5/P4 pieces branched when pb is B4/Q4."""
    out: dict[roots.Weight, int] = {}
    for (space, w), n in cls.items():
        for v in (w,) if space == pb else levi.branch_levi(w):
            out[v] = out.get(v, 0) + n
    return out


def _class_pieces(obj: BundleObject) -> tuple[bundles.Parts | None, bundles.Parts]:
    """The class of obj (bundles.kclass) as nonzero (Levi weight, n) pieces
    twice: on D5/P4, or None when a piece lives on B4/Q4; and on B4/Q4, its
    D5/P4 pieces branched (_on_space)."""
    cls = bundles.kclass(obj)
    on_b4 = tuple((w, n) for w, n in _on_space(bundles.B4_Q4, cls).items() if n)
    if any(space == bundles.B4_Q4 for space, _ in cls):
        return None, on_b4
    return tuple((w, n) for (_, w), n in cls.items()), on_b4


def _tensor_coeff(res: ExtResult, coeff: bundles.Coeff) -> ExtResult:
    if not coeff:
        return res
    acc: Graded = {}
    for p, entry, m in res.pieces:
        for factor, cm in coeff:
            add_piece(acc, p, _entry(*entry, factor), m * cm)
    return ExtResult.from_dict(acc)


class ExtEngine:
    """Memoizing Ext calculator over a fixed sequence registry.

    The Ext memo holds each answer under one key, the pair at level zero:
    E.base, and F twisted by minus E's level (bundles).  Every registered
    sequence matches at every twist, so the routes of (E(k), F(k)) and
    (E, F) correspond one to one and give equal answers.  An ExtResult is
    always memoized, also when a cut happened below it.  An Ambiguous is
    memoized only when _cuts did not move while it was computed: _cuts
    counts the cycle cuts, the "cyclic dependency" placeholder answered to
    a pair already on the stack, which is never stored.  It is the one
    placeholder the engine builds, and a call at the top level, with an
    empty stack, never meets it.

    Besides the Ext memo, an engine keeps six kernel tables of pure values,
    each filled on its first lookup through _lookup and keyed by the
    arguments of the function that fills it:

    - _pairs: (pb, w1, w2) -> the direct BBW answer Ext(E_w1, E_w2) for two
      irreducibles, an ExtResult (_pair_pieces);
    - _levi_chis: (pb, w1, w2) -> chi(E_w1-dual (x) E_w2), the Euler
      characteristic of the _pairs answer (_levi_chi), for the Euler form.
      Like the Ext memo, it keeps one key per twist class, the pair with
      w1 at level zero, to which euler moves each pair of pieces;
    - _levi_duals: (pb, w) -> roots.dualize_levi(pb, w);
    - _cohomology: (pb, nu) -> bbw.bbw_cohomology(pb, nu);
    - _terms: (term, t, contravariant) -> the term's object twisted by t
      and its coefficient, dualized when contravariant (_term_at, through
      bundles.coeff_dual), for chase columns;
    - _classes: (obj,) -> the K-class of obj (one bundles.kclass call) as
      (weight, n) pieces on D5/P4, or None when a piece lives on B4/Q4,
      and as pieces on B4/Q4, branched once (_class_pieces): the classes
      the Euler form pairs.

    The tables start empty and live exactly as long as the engine; they
    are not module-level caches.  A fresh engine recomputes through the
    roots, bbw and levi functions installed at that moment, so a fault
    injected into them, or a tracer wrapped around them, is seen by the
    next engine even when another engine is already warm.  And their
    memory is held only while the engine is alive and only for what it
    asked.
    """

    def __init__(self) -> None:
        self._memo: dict = {}
        self._stack: set = set()  # membership only: its order varies by process
        self._cuts = 0  # "cyclic dependency" placeholders handed out
        self._pairs: dict = {}
        self._levi_chis: dict = {}
        self._levi_duals: dict = {}
        self._cohomology: dict = {}
        self._terms: dict = {}
        self._classes: dict = {}
        self.kform = None  # the Euler form on K-theory, built by mutations.KForm.standard

    # -- public surface ------------------------------------------------

    def ext(self, E: BundleObject, F: BundleObject) -> ExtResult | Ambiguous:
        key = E, F = E.base, bundles.twist(F, -E.level)
        result = self._memo.get(key, _MISSING)
        if result is not _MISSING:
            return result
        if key in self._stack:
            self._cuts += 1
            return Ambiguous(0, "cyclic dependency")
        self._stack.add(key)
        cuts = self._cuts
        try:
            result = self._compute(E, F)
        finally:
            self._stack.discard(key)
        if isinstance(result, ExtResult) or self._cuts == cuts:
            self._memo[key] = result
        return result

    def cohomology(self, E: BundleObject) -> ExtResult | Ambiguous:
        return self.ext(bundles.O(), E)

    def ext_equivariant(self, E: BundleObject, F: BundleObject) -> dict[int, int] | Ambiguous:
        """The dimensions of ext(E, F).invariant_part(), degree by degree."""
        res = self.ext(E, F)
        if isinstance(res, Ambiguous):
            return res
        return res.invariant_part().dims()

    def euler(self, E: BundleObject, F: BundleObject) -> int:
        """chi(E, F): the sum of a b chi(L1-dual (x) L2) over the pieces a L1 of the
        class of E and b L2 of that of F, on D5/P4 unless a piece lives on B4/Q4.

        chi(L1(k)-dual (x) L2(k)) = chi(L1-dual (x) L2), so each pair of
        pieces is read, or computed once, with L1 at level zero.  A warm
        pairing reads two _classes entries and one _levi_chis entry per pair
        of pieces, and computes nothing."""
        classes = self._classes
        a, a_b4 = classes.get((E,)) or _lookup(classes, _class_pieces, E)
        b, b_b4 = classes.get((F,)) or _lookup(classes, _class_pieces, F)
        if a is None or b is None:
            pb, a, b = bundles.B4_Q4, a_b4, b_b4
        else:
            pb = bundles.D5_P4
        i = pb.marked[0] - 1
        chis = self._levi_chis
        total = 0
        for w1, n1 in a:
            k = w1[i]
            w1 = w1[:i] + (0,) + w1[i + 1 :]
            for w2, n2 in b:
                key = pb, w1, w2[:i] + (w2[i] - k,) + w2[i + 1 :]
                chi = chis.get(key)
                if chi is None:
                    chi = _lookup(chis, self._levi_chi, *key)
                total += n1 * n2 * chi
        return total

    # -- strategies ------------------------------------------------------

    def _routes(self, E: BundleObject, F: BundleObject) -> Iterator[Route]:
        """Every registered chase of (E, F), through E, then through F, as
        (sequence, index, twist, contravariant), in registry order.  Chasing
        is restricted to objects that genuinely need a resolution: named
        objects, and the B4-side factor of a cross-description pair.
        Resolving those strictly reduces toward same-description pairs, so
        the recursion terminates.
        """
        cross = isinstance(E, Sum) and isinstance(F, Sum) and E.space != F.space
        for obj, contravariant in ((E, True), (F, False)):
            if isinstance(obj, Named) or (cross and obj.space == bundles.B4_Q4):
                for seq, idx, t in bundles.sequence_matches(obj):
                    yield seq, idx, t, contravariant

    def _compute(self, E: BundleObject, F: BundleObject) -> ExtResult | Ambiguous:
        direct = self._direct(E, F)
        if direct is not None:
            return direct

        # Only Spin(9) acts on a pair with a side on B4/Q4 (never a sum of
        # twists of O, which bundles.Sum keeps on D5/P4), and both half-spin
        # representations of Spin(10) restrict to its spin representation:
        # label such an Ext by B4 irreducibles, or the D5 labels would depend
        # on the route.
        on_b4 = any(isinstance(X, Sum) and X.space == bundles.B4_Q4 for X in (E, F))
        results: list[ExtResult] = []
        for seq, idx, t, contravariant in self._routes(E, F):
            res = self._chase(seq, idx, t, F if contravariant else E, contravariant=contravariant)
            if res is not None:
                results.append(_branch_to_b4(res) if on_b4 else res)

        if results:
            first = results[0]
            for other in results[1:]:
                if other.dims() != first.dims():
                    raise InternalConsistencyError(
                        f"strategies disagree for Ext({E}, {F}): {first} vs {other}"
                    )
            # Different routes may present the same answer with or without
            # unexpanded coefficient factors; prefer a fully decomposed one,
            # and demand exact agreement between decomposed candidates.
            plain = [r for r in results if r.is_decomposed]
            if plain:
                for other in plain[1:]:
                    if other != plain[0]:
                        raise InternalConsistencyError(
                            f"strategies disagree for Ext({E}, {F}): {plain[0]} vs {other}"
                        )
                return plain[0]
            return first
        return Ambiguous(self.euler(E, F), "no degenerate chase")

    def _direct(self, E: BundleObject, F: BundleObject) -> ExtResult | None:
        """Ext of two sums as the sum over their pairs of irreducibles: on a
        common description the direct BBW answers (_pairs), else, when the
        two sides hold more than two summands, the Ext of each pair,
        branched to B4.  None for any other pair, or when a pair is
        Ambiguous, so that the chases run."""
        if not (isinstance(E, Sum) and isinstance(F, Sum)):
            return None
        common = bundles.common_parts(E, F)
        if common is not None:
            pb, e_parts, f_parts = common
            pair = functools.partial(_lookup, self._pairs, self._pair_pieces, pb)
        elif sum(m for _, m in E.parts + F.parts) > 2:
            e_parts, f_parts = E.parts, F.parts

            def pair(w1: roots.Weight, w2: roots.Weight) -> ExtResult | Ambiguous:
                return self.ext(bundles.irr(E.space, w1), bundles.irr(F.space, w2))
        else:
            return None
        acc: Graded = {}
        for w1, m1 in e_parts:
            for w2, m2 in f_parts:
                sub = pair(w1, w2)
                if isinstance(sub, Ambiguous):
                    return None
                for p, entry, m in sub.pieces:
                    add_piece(acc, p, entry, m1 * m2 * m)
        res = ExtResult.from_dict(acc)
        return res if common else _branch_to_b4(res)

    def _pair_pieces(self, pb: roots.Parabolic, w1: roots.Weight, w2: roots.Weight) -> ExtResult:
        """The direct answer Ext(E_w1, E_w2): the BBW cohomology of each Levi
        piece of E_w1-dual tensor E_w2, repeated (degree, entry) keys merged."""
        datum = pb.datum
        w1d = _lookup(self._levi_duals, roots.dualize_levi, pb, w1)
        acc: Graded = {}
        for nu, mult in levi.tensor_decompose(pb, w1d, w2).items():
            coh = _lookup(self._cohomology, bbw.bbw_cohomology, pb, nu)
            if not coh.vanishes:
                add_piece(acc, coh.degree, _entry((datum, coh.weight)), mult)
        return ExtResult.from_dict(acc)

    # -- chase machinery ---------------------------------------------------

    def _column(self, term: Term, t: int, partner: BundleObject, contravariant: bool) -> ExtResult | None:
        obj, coeff = _lookup(self._terms, self._term_at, term, t, contravariant)
        res = self.ext(obj, partner) if contravariant else self.ext(partner, obj)
        if isinstance(res, Ambiguous):
            return None
        return _tensor_coeff(res, coeff)

    def _term_at(self, term: Term, t: int, contravariant: bool) -> tuple[BundleObject, bundles.Coeff]:
        """The term twisted by t, and its coefficient, dualized when contravariant."""
        return bundles.twist(term.obj, t), bundles.coeff_dual(term.coeff) if contravariant else term.coeff

    def _chase(
        self, seq: Sequence, idx: int, t: int, partner: BundleObject, contravariant: bool
    ) -> ExtResult | None:
        """The unknown column of seq at twist t against partner, or None when
        a column is ambiguous or the long exact sequence does not degenerate."""
        cols: list[ExtResult | None] = []
        for j, term in enumerate(seq.terms):
            if j == idx:
                cols.append(None)
            else:
                col = self._column(term, t, partner, contravariant)
                if col is None:
                    return None
                cols.append(col)
        if contravariant:
            cols = cols[::-1]
            idx = len(cols) - 1 - idx
        return _solve_exact_sequence(cols, idx)

    # -- Euler characteristics --------------------------------------------

    def _levi_chi(self, pb: roots.Parabolic, w1: roots.Weight, w2: roots.Weight) -> int:
        """chi(E_w1-dual (x) E_w2) for two irreducibles, from their direct BBW answer."""
        return _lookup(self._pairs, self._pair_pieces, pb, w1, w2).euler()


def _merge(target: Graded, col: ExtResult, shift: int) -> None:
    for p, entry, m in col.pieces:
        add_piece(target, p + shift, entry, m)


def _solve_ses(cols: list[ExtResult | None], idx: int) -> ExtResult | None:
    """Solve one short exact sequence column-wise.

    cols follow covariant LES order: ... -> c0^p -> c1^p -> c2^p -> c0^{p+1} -> ...
    The unknown column U = cols[idx] is followed by x = cols[idx + 1] and
    preceded by y = cols[idx + 2] (indices mod 3), and the map x -> y raises
    the degree by one exactly when it wraps from c2 to c0 (idx == 1).  When
    that map is forced to vanish in every degree, U is y, shifted up by one
    when U is c0, plus x, shifted down by one when U is c2.  A map is forced
    to vanish unless both its source and its target are nonzero, so the
    degrees of its source column are the only ones to walk.
    """
    x, y = cols[(idx + 1) % 3], cols[(idx + 2) % 3]
    y_dims = y.dims()
    if any(d and y_dims.get(p + (idx == 1)) for p, d in x.dims().items()):
        return None
    out: Graded = {}
    _merge(out, y, int(idx == 0))
    _merge(out, x, -int(idx == 2))
    return ExtResult.from_dict(out)


def _solve_exact_sequence(cols: list[ExtResult | None], idx: int) -> ExtResult | None:
    """Solve an n-term exact sequence with one unknown column (covariant order).

    Longer sequences are split into short exact sequences through their
    anonymous kernels, peeling from the end away from the unknown.
    """
    if len(cols) == 2:
        return cols[1 - idx]  # 0 -> A -> B -> 0: an isomorphism
    while len(cols) > 3:
        if idx >= 2:
            # peel 0 -> c0 -> c1 -> K -> 0 with K joining the rest
            k_col = _solve_ses([cols[0], cols[1], None], 2)
            cols, idx = [k_col] + cols[2:], idx - 1
        else:
            # unknown near the front: peel from the back, 0 -> K -> c_{n-2} -> c_{n-1} -> 0
            k_col = _solve_ses([None, cols[-2], cols[-1]], 0)
            cols = cols[:-2] + [k_col]
        if k_col is None:
            return None
    return _solve_ses(cols, idx)


def ls_chase(
    seq: Sequence, target: BundleObject, unknown: int, engine: ExtEngine, variance: str = "onto"
) -> ExtResult | Ambiguous:
    """Solve a registered sequence, at its reference twist, for the Ext of one
    unknown term.

    With variance "onto" the columns are Ext(term, target); with "from"
    they are Ext(target, term), so target O recovers the cohomology chase.
    All other terms must have unambiguous graded Ext; the answer is exact
    when the long exact sequence degenerates, otherwise an Ambiguous value
    carrying the (always exact) Euler characteristic.
    """
    if variance not in ("onto", "from"):
        raise roots.DomainError(f"variance {variance!r} is neither 'onto' nor 'from'")
    contravariant = variance == "onto"
    res = engine._chase(seq, unknown, 0, target, contravariant=contravariant)
    if res is None:
        obj = seq.terms[unknown].obj
        pair = (obj, target) if contravariant else (target, obj)
        return Ambiguous(engine.euler(*pair), f"no degenerate chase over {seq.name}")
    return res


_default_engine: ExtEngine | None = None


def get_engine() -> ExtEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = ExtEngine()
    return _default_engine


def reset_engine() -> None:
    global _default_engine
    _default_engine = None
