"""Graded Ext groups between bundle objects.

Direct sums of irreducibles in a common description reduce to the
Borel-Bott-Weil walk after a Littlewood-Richardson decomposition of
E-dual tensor F; everything else is chased through the long exact
sequences of the registered resolutions.

A chase is accepted only when the long exact sequence degenerates for
dimension reasons: every connecting map between two known columns has a
zero source or target in every degree.  Otherwise the result is reported
as Ambiguous, which still carries the exact Euler characteristic.

The Euler characteristic takes no route, so it checks the chases from
outside: chi(E, F) pairs the K-classes of bundles.kclass, a sum of direct
BBW terms chi(L1-dual (x) L2) over their Levi pieces, on B4/Q4 when a piece
lives there (D5/P4 pieces branched by levi.branch_levi).

Graded pieces are stored as multisets of formal tensors of full-group
irreducibles; a coefficient representation multiplying a nontrivial
cohomology representation stays unexpanded (tensor product decompositions
of the full group are never required).  Only Spin(9) acts on a pair with
a B4/Q4 summand that is not a twist of O, so every D5 factor of its
answer is branched to B4 before the routes are compared: such a pair is
labelled by B4 irreducibles alone.

Ext(E(k), F(k)) = Ext(E, F), labels included, so an engine's Ext memo
holds one entry per twist class, Ambiguous answers included when no cycle
was cut while computing them (see ExtEngine), their reasons naming no pair.

A chase asks for the same pure values many times: the BBW pieces of one
pair of irreducibles, a Levi dual, a BBW walk, a sequence term at a twist.
Each ExtEngine keeps them in its own tables (see ExtEngine), keyed by
hashable values, created empty with the engine and dropped with it.  They
are per engine, not module-level caches, for two reasons.  A fresh engine
recomputes through the roots, bbw and levi functions installed at that
moment, so a fault injected into them, or a tracer wrapped around them,
is seen by the next engine even when another engine is already warm.  And
their memory is held only while an engine is alive and only for what it
asked.  Below them, levi.tensor_decompose keeps one table of its own for
the process, the Levi products of each pair of partitions at central
charge 0: every caller fills it, in an engine or not (the tensor command,
bundles.tensor), and a fault in the Brauer-Klimyk loop reaches only the
pairs it has not yet seen.  The branchings of levi.branch_levi and
levi.b4_content are kept for the process in the same way.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import bbw, bundles, levi, roots
from .bundles import BundleObject, Named, Sequence, Sum, Term
from .roots import InternalConsistencyError

Entry = tuple[bundles.RepFactor, ...]
Graded = dict[int, dict[Entry, int]]
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
    if mult == 0:
        return
    layer = graded.setdefault(degree, {})
    layer[entry] = layer.get(entry, 0) + mult
    if layer[entry] == 0:
        del layer[entry]
    if not layer:
        del graded[degree]


@dataclass(frozen=True)
class ExtResult:
    """Exact graded Ext, entries keyed by formal tensors of irreducibles."""

    graded: tuple[tuple[int, tuple[tuple[Entry, int], ...]], ...]

    @staticmethod
    def from_dict(graded: Graded) -> "ExtResult":
        return ExtResult(
            tuple(
                (p, tuple(sorted(layer.items())))
                for p, layer in sorted(graded.items())
                if layer
            )
        )

    def as_dict(self) -> Graded:
        return {p: dict(layer) for p, layer in self.graded}

    def dims(self) -> dict[int, int]:
        return {
            p: sum(m * entry_dim(e) for e, m in layer)
            for p, layer in self.graded
            if layer
        }

    def euler(self) -> int:
        return sum((-1) ** p * d for p, d in self.dims().items())

    @property
    def is_zero(self) -> bool:
        return not self.graded

    @property
    def is_decomposed(self) -> bool:
        """True when no graded piece carries an unexpanded tensor factor."""
        return all(len(entry) <= 1 for _, layer in self.graded for entry, _ in layer)

    def invariants(self) -> dict[int, int]:
        return levi.invariant_multiplicity(self.as_dict())

    def __repr__(self) -> str:
        return " + ".join(format_graded(self))


@dataclass(frozen=True)
class Ambiguous:
    """The chase did not degenerate; only the Euler characteristic is known."""

    euler: int
    reason: str = ""

    @property
    def is_zero(self) -> bool:
        return False


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


def format_weight(w: roots.Weight) -> str:
    return "[" + ",".join(map(str, w)) + "]"


def format_graded(res: ExtResult) -> list[str]:
    """The graded pieces of res in order, one string each; ["0"] when it vanishes."""
    if res.is_zero:
        return ["0"]
    pieces = []
    for p, layer in res.graded:
        for entry, m in layer:
            if not entry:
                label = "C" if m == 1 else f"C^{m}"
                pieces.append(f"{label}[{-p}]")
            else:
                reps = " * ".join(f"V{format_weight(w)}" for _, w in entry)
                prefix = f"{m}*" if m > 1 else ""
                pieces.append(f"{prefix}{reps} @ {p}")
    return pieces


def _at_level_zero(E: BundleObject, F: BundleObject) -> tuple[BundleObject, BundleObject]:
    """(E, F) twisted by -k, where k is the level of E: its twist when named,
    else the marked coordinate of its first part.  Ext(E(k), F(k)) = Ext(E, F)."""
    if isinstance(E, Named):
        k = E.twist
    else:
        (m,) = E.space.marked
        k = E.parts[0][0][m - 1]
    return (bundles.twist(E, -k), bundles.twist(F, -k)) if k else (E, F)


def _branch_to_b4(res: ExtResult) -> ExtResult:
    """res with every D5 factor of every entry branched to its B4 irreducibles."""
    acc: Graded = {}
    for p, layer in res.graded:
        for entry, m in layer:
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


def _tensor_coeff(graded: Graded, coeff: bundles.Coeff) -> Graded:
    if not coeff:
        return graded
    out: Graded = {}
    for p, layer in graded.items():
        for entry, m in layer.items():
            for factor, cm in coeff:
                add_piece(out, p, _entry(*entry, factor), m * cm)
    return out


class ExtEngine:
    """Memoizing Ext calculator over a fixed sequence registry.

    The Ext memo is keyed by the pair twisted to level zero (_at_level_zero:
    E's twist when named, else the marked coordinate of its first part).
    O(1) is the same line bundle on D5/P4 and B4/Q4, and every registered
    sequence matches at every twist, so the routes of (E(k), F(k)) and
    (E, F) correspond one to one and give equal answers.  An ExtResult is
    always memoized, also when a cut happened below it.  An Ambiguous is
    memoized only when _cuts did not move while it was computed: _cuts
    counts the cycle cuts, the "cyclic dependency" placeholder answered to a
    pair already on the stack, which is never stored.

    Besides the Ext and Euler memos, an engine keeps six kernel tables of
    pure values, each filled on its first lookup through _lookup and keyed
    by the arguments of the function that fills it:

    - _pairs: (pb, w1, w2) -> the direct BBW pieces of Ext(E_w1, E_w2) for
      two irreducibles, as (degree, entry, mult) tuples (_pair_pieces);
    - _levi_chis: (pb, w1, w2) -> chi(E_w1-dual (x) E_w2), summed over the
      _pairs pieces (_levi_chi), with w1 at level zero, for the Euler form;
    - _levi_duals: (pb, w) -> roots.dualize_levi(pb, w);
    - _cohomology: (pb, nu) -> bbw.bbw_cohomology(pb, nu);
    - _terms: (term, t, contravariant) -> the term's object twisted by t
      and its coefficient, dualized when contravariant (_term_at), for
      chase columns;
    - _duals: (datum, w) -> roots.dual_weight(datum, w), for coefficients.

    The tables start empty and live exactly as long as the engine, so a
    fault injected into roots, bbw or levi reaches every engine built
    after it, and their memory goes with the engine (see the module
    docstring).
    """

    def __init__(self) -> None:
        self._memo: dict = {}
        self._euler_memo: dict = {}
        self._stack: set = set()
        self._cuts = 0  # "cyclic dependency" placeholders handed out
        self._pairs: dict = {}
        self._levi_chis: dict = {}
        self._levi_duals: dict = {}
        self._cohomology: dict = {}
        self._terms: dict = {}
        self._duals: dict = {}
        self.kform = None  # the Euler form on K-theory, built by mutations.KForm.standard

    # -- public surface ------------------------------------------------

    def ext(self, E: BundleObject, F: BundleObject) -> ExtResult | Ambiguous:
        E, F = _at_level_zero(E, F)
        key = (E, F)
        if key in self._memo:
            return self._memo[key]
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
        space = E.space if isinstance(E, Sum) else bundles.D5_P4
        return self.ext(bundles.O(0, space), E)

    def ext_equivariant(self, E: BundleObject, F: BundleObject) -> dict[int, int] | Ambiguous:
        res = self.ext(E, F)
        if isinstance(res, Ambiguous):
            return res
        return res.invariants()

    def euler(self, E: BundleObject, F: BundleObject) -> int:
        return _lookup(self._euler_memo, self._pairing, E, F)

    # -- strategies ------------------------------------------------------

    def _routes(self, E: BundleObject, F: BundleObject) -> Iterator[Route | None]:
        """Every reduction of (E, F) other than the direct BBW route, in order.

        First None, standing for additivity over the summands of a
        cross-description pair in which some side has more than one summand
        (counted with multiplicity); then every registered chase through E,
        then through F, as (sequence, index, twist, contravariant).  Chasing
        is restricted to objects that genuinely need a resolution: named
        objects, and the B4-side factor of a cross-description pair.
        Resolving those strictly reduces toward same-description pairs, so
        the recursion terminates.
        """
        cross = isinstance(E, Sum) and isinstance(F, Sum) and E.space != F.space
        if cross and sum(m for _, m in E.parts + F.parts) > 2:
            yield None
        for obj, contravariant in ((E, True), (F, False)):
            if isinstance(obj, Named) or (cross and obj.space == bundles.B4_Q4):
                for seq, idx, t in bundles.sequence_matches(obj):
                    yield seq, idx, t, contravariant

    def _compute(self, E: BundleObject, F: BundleObject) -> ExtResult | Ambiguous:
        direct = self._direct(E, F)
        if direct is not None:
            return direct

        # Only Spin(9) acts on a pair with a B4/Q4 summand that is not a twist
        # of O, and both half-spin representations of Spin(10) restrict to its
        # spin representation: label such an Ext by B4 irreducibles, or the
        # D5 labels would depend on the route.
        on_b4 = any(
            isinstance(X, Sum) and X.space == bundles.B4_Q4 and X.twist_amount() is None for X in (E, F)
        )
        results: list[ExtResult] = []
        for route in self._routes(E, F):
            if route is None:
                res = self._cross_split(E, F)
            else:
                seq, idx, t, contravariant = route
                res = self._chase(seq, idx, t, F if contravariant else E, contravariant=contravariant)
            if isinstance(res, ExtResult):
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

    def _cross_split(self, E: Sum, F: Sum) -> ExtResult | None:
        """Additivity over summands for a cross-description pair."""
        acc: Graded = {}
        for w1, m1 in E.parts:
            for w2, m2 in F.parts:
                sub = self.ext(bundles.irr(E.space, w1), bundles.irr(F.space, w2))
                if isinstance(sub, Ambiguous):
                    return None
                for p, layer in sub.as_dict().items():
                    for entry, m in layer.items():
                        add_piece(acc, p, entry, m1 * m2 * m)
        return ExtResult.from_dict(acc)

    def _direct(self, E: BundleObject, F: BundleObject) -> ExtResult | None:
        if not (isinstance(E, Sum) and isinstance(F, Sum)):
            return None
        if E.space != F.space:
            other = bundles.convert_twist(E, F.space)
            if other is not None:
                E = other
            else:
                other = bundles.convert_twist(F, E.space)
                if other is None:
                    return None
                F = other
        pb = E.space
        acc: Graded = {}
        for w1, m1 in E.parts:
            for w2, m2 in F.parts:
                for degree, entry, mult in _lookup(self._pairs, self._pair_pieces, pb, w1, w2):
                    add_piece(acc, degree, entry, m1 * m2 * mult)
        return ExtResult.from_dict(acc)

    def _pair_pieces(
        self, pb: roots.Parabolic, w1: roots.Weight, w2: roots.Weight
    ) -> tuple[tuple[int, Entry, int], ...]:
        """BBW of E_w1-dual tensor E_w2, one (degree, entry, mult) per nonvanishing piece."""
        datum = pb.datum
        w1d = _lookup(self._levi_duals, roots.dualize_levi, pb, w1)
        pieces = []
        for nu, mult in levi.tensor_decompose(pb, w1d, w2).items():
            coh = _lookup(self._cohomology, bbw.bbw_cohomology, pb, nu)
            if not coh.vanishes:
                pieces.append((coh.degree, _entry((datum, coh.weight)), mult))
        return tuple(pieces)

    # -- chase machinery ---------------------------------------------------

    def _column(self, term: Term, t: int, partner: BundleObject, contravariant: bool) -> Graded | None:
        obj, coeff = _lookup(self._terms, self._term_at, term, t, contravariant)
        res = self.ext(obj, partner) if contravariant else self.ext(partner, obj)
        if isinstance(res, Ambiguous):
            return None
        return _tensor_coeff(res.as_dict(), coeff)

    def _term_at(self, term: Term, t: int, contravariant: bool) -> tuple[BundleObject, bundles.Coeff]:
        """The term twisted by t, and its coefficient, dualized when contravariant."""
        obj = bundles.twist(term.obj, t)
        if not contravariant:
            return obj, term.coeff
        return obj, tuple(((d, _lookup(self._duals, roots.dual_weight, d, w)), m) for (d, w), m in term.coeff)

    def _chase(
        self, seq: Sequence, idx: int, t: int, partner: BundleObject, contravariant: bool
    ) -> ExtResult | Ambiguous:
        cols: list[Graded | None] = []
        for j, term in enumerate(seq.terms):
            if j == idx:
                cols.append(None)
            else:
                col = self._column(term, t, partner, contravariant)
                if col is None:
                    return Ambiguous(0, f"column {j} of {seq.name} is ambiguous")
                cols.append(col)
        if contravariant:
            cols = cols[::-1]
            idx = len(cols) - 1 - idx
        solved = _solve_exact_sequence(cols, idx)
        if solved is None:
            return Ambiguous(0, f"chase over {seq.name} does not degenerate")
        return ExtResult.from_dict(solved)

    # -- Euler characteristics --------------------------------------------

    def _pairing(self, E: BundleObject, F: BundleObject) -> int:
        """chi(E, F): the sum of a b chi(L1-dual (x) L2) over the pieces a L1 of the
        class of E and b L2 of that of F, on D5/P4 unless a piece lives on B4/Q4."""
        classes = bundles.kclass(E), bundles.kclass(F)
        on_b4 = any(space == bundles.B4_Q4 for cls in classes for space, _ in cls)
        pb = bundles.B4_Q4 if on_b4 else bundles.D5_P4
        a, b = (_on_space(pb, cls) for cls in classes)
        i = pb.marked[0] - 1
        total = 0
        for w1, n1 in a.items():
            # chi(L1(k)-dual (x) L2(k)) = chi(L1-dual (x) L2): read each pair with L1 at level zero.
            k = w1[i]
            for w2, n2 in b.items():
                key = (w1[:i] + (0,) + w1[i + 1 :], w2[:i] + (w2[i] - k,) + w2[i + 1 :])
                total += n1 * n2 * _lookup(self._levi_chis, self._levi_chi, pb, *key)
        return total

    def _levi_chi(self, pb: roots.Parabolic, w1: roots.Weight, w2: roots.Weight) -> int:
        """chi(E_w1-dual (x) E_w2) for two irreducibles, from their direct BBW pieces."""
        pieces = _lookup(self._pairs, self._pair_pieces, pb, w1, w2)
        return sum((-1) ** p * mult * entry_dim(entry) for p, entry, mult in pieces)


def _dims_at(col: Graded, p: int) -> int:
    layer = col.get(p, {})
    return sum(m * entry_dim(e) for e, m in layer.items())


def _merge(target: Graded, col: Graded, shift: int) -> None:
    for p, layer in col.items():
        for entry, m in layer.items():
            add_piece(target, p + shift, entry, m)


def _solve_ses(cols: list[Graded | None], idx: int) -> Graded | None:
    """Solve one short exact sequence column-wise.

    cols follow covariant LES order: ... -> c0^p -> c1^p -> c2^p -> c0^{p+1} -> ...
    The unknown column is determined when every map between the two known
    columns is forced to vanish degree-by-degree.
    """
    a, b, c = cols
    if idx == 0:
        # adjacency b^p -> c^p
        if any(_dims_at(b, p) and _dims_at(c, p) for p in _degrees(b, c)):
            return None
        out: Graded = {}
        _merge(out, c, +1)
        _merge(out, b, 0)
        return out
    if idx == 1:
        # adjacency c^p -> a^{p+1}
        if any(_dims_at(c, p) and _dims_at(a, p + 1) for p in _degrees(c, a)):
            return None
        out = {}
        _merge(out, a, 0)
        _merge(out, c, 0)
        return out
    # adjacency a^p -> b^p
    if any(_dims_at(a, p) and _dims_at(b, p) for p in _degrees(a, b)):
        return None
    out = {}
    _merge(out, b, 0)
    _merge(out, a, -1)
    return out


def _degrees(*cols: Graded) -> set[int]:
    out: set[int] = set()
    for col in cols:
        out.update(col.keys())
        out.update(p + 1 for p in col.keys())
        out.update(p - 1 for p in col.keys())
    return out


def _solve_exact_sequence(cols: list[Graded | None], idx: int) -> Graded | None:
    """Solve an n-term exact sequence with one unknown column (covariant order).

    Longer sequences are split into short exact sequences through their
    anonymous kernels, peeling from the end away from the unknown.
    """
    n = len(cols)
    if n == 2:
        # 0 -> A -> B -> 0: isomorphism
        return dict(cols[1 - idx])  # type: ignore[arg-type]
    if n == 3:
        return _solve_ses(cols, idx)
    if idx >= 2:
        # peel 0 -> c0 -> c1 -> K -> 0 with K joining the rest
        k_col = _solve_ses([cols[0], cols[1], None], 2)
        if k_col is None:
            return None
        return _solve_exact_sequence([k_col] + cols[2:], idx - 1)
    # unknown near the front: peel from the back, 0 -> K -> c_{n-2} -> c_{n-1} -> 0
    k_col = _solve_ses([None, cols[n - 2], cols[n - 1]], 0)
    if k_col is None:
        return None
    return _solve_exact_sequence(cols[: n - 2] + [k_col], idx)


def ls_chase(
    seq: Sequence,
    target: BundleObject,
    unknown: int,
    engine: ExtEngine | None = None,
    twist_by: int = 0,
    variance: str = "onto",
) -> ExtResult | Ambiguous:
    """Solve a registered sequence for the Ext of one unknown term.

    With variance "onto" the columns are Ext(term, target); with "from"
    they are Ext(target, term), so target O recovers the cohomology chase.
    All other terms must have unambiguous graded Ext; the answer is exact
    when the long exact sequence degenerates, otherwise an Ambiguous value
    carrying the (always exact) Euler characteristic.
    """
    eng = engine if engine is not None else get_engine()
    contravariant = variance == "onto"
    res = eng._chase(seq, unknown, twist_by, target, contravariant=contravariant)
    if isinstance(res, Ambiguous):
        obj = bundles.twist(seq.terms[unknown].obj, twist_by)
        pair = (obj, target) if contravariant else (target, obj)
        return Ambiguous(eng.euler(*pair), res.reason)
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
