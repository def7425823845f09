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

The Euler characteristic takes no route and no BBW walk, so it checks the
chases and the walks from outside: chi(E, F) pairs the K-classes of
bundles.kclass, each an object's pieces (weight at level zero, charge, n) on
the one description it lives on, as a sum of terms chi(L1-dual (x) L2) over
pairs of pieces: on the common description, else on B4/Q4, the class on
D5/P4 branched by levi.branch_levi.  A term is the sum of Weyl's polynomial
(bbw.euler_characteristic, by Bott's theorem) over the Levi pieces of
L1-dual (x) L2 (levi.tensor_decompose).  An engine keeps each object's class
as kclass gives it, and a class on D5/P4 also branched to B4/Q4 once a
pairing first needs it there.  It keeps each chi(L1-dual (x) L2) once per
twist class, an int under the two weights at level zero and the difference
of their charges, in the one table that the direct Ext of two sums writes
too: the direct Ext records the chi of each pair's BBW answer there, and that
chi must be the one the table held, Weyl's.  The answers themselves live
only in the Ext memo.  So a pairing of objects already seen builds one small
key per pair of pieces, reads one table entry for it, and computes nothing.

An Ext answer has one shape, the flat multiset of its graded pieces: an
ExtResult holds them as (degree, entry, mult) tuples sorted by (degree,
entry), none with multiplicity zero, and ExtResult.collect builds every
answer from its pieces given in any order.  An entry is a formal tensor of
full-group irreducibles; a coefficient representation multiplying a
nontrivial cohomology representation stays unexpanded (tensor product
decompositions of the full group are never required).
Only Spin(9) acts on a pair with a side on B4/Q4 (never a sum of twists
of O, which bundles.Sum keeps on D5/P4), so every D5 factor of its answer
is branched to B4 before the routes are compared: such a pair is labelled
by B4 irreducibles alone.

Ext(E(k), F(k)) = Ext(E, F), labels included, so an engine computes and
keeps one Ext per twist class of pairs, Ambiguous answers included when no
cycle was cut while computing them (see ExtEngine), their reasons naming no
pair.  It keys the class by the two bases and the difference of the two
levels (see bundles), which it reads off the pair without building a
bundle, and computes the pair with E at level zero only on a miss.
A chase that fails gives None, not an answer: every Ambiguous carries the
exact Euler characteristic, except the cycle cut (None), which only a
chase inside another computation meets.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from . import bbw, bundles, levi, roots
from .bundles import BundleObject, Named, Pieces, Sequence, Sum, Term
from .roots import Frozen, InternalConsistencyError

Entry = tuple[bundles.RepFactor, ...]
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
    def collect(pieces: list[tuple[int, Entry, int]]) -> "ExtResult":
        """The answer of (degree, entry, mult) pieces given in any order: the
        multiplicities of equal (degree, entry) summed, sorted, zeros dropped."""
        if len(pieces) < 2:  # nothing to sum or sort
            return ExtResult(tuple(pieces) if not pieces or pieces[0][2] else ())
        acc: dict[tuple[int, Entry], int] = {}
        get = acc.get
        for p, e, m in pieces:
            key = p, e
            acc[key] = get(key, 0) + m
        return ExtResult(tuple(sorted([(p, e, m) for (p, e), m in acc.items() if m])))

    def dims(self) -> dict[int, int]:
        """The dimension of each degree that has a piece."""
        out: dict[int, int] = {}
        for p, e, m in self.pieces:
            out[p] = out.get(p, 0) + m * entry_dim(e)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    @property
    def is_decomposed(self) -> bool:
        """True when no graded piece carries an unexpanded tensor factor."""
        return all(len(entry) <= 1 for _, entry, _ in self.pieces)

    def invariant_dims(self) -> dict[int, int]:
        """Per degree p, the multiplicity m of the trivial B4 representation
        (levi.invariant_multiplicity_entry): degrees ascending, none with m = 0."""
        out: dict[int, int] = {}
        for p, entry, m in self.pieces:
            n = m * levi.invariant_multiplicity_entry(entry)
            if n:
                out[p] = out.get(p, 0) + n
        return out

    def invariant_part(self) -> "ExtResult":
        """The equivariant answer: per degree p, C^m[-p] (invariant_dims)."""
        return ExtResult(tuple((p, (), m) for p, m in self.invariant_dims().items()))

    def __repr__(self) -> str:
        return " + ".join(format_graded(self))


class Ambiguous(Frozen):
    """The chase did not degenerate; only the Euler characteristic is known (None for a cycle cut)."""

    _fields = ("euler", "reason")

    def __init__(self, euler: int | None, reason: str = "") -> None:
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "reason", reason)

    def __repr__(self) -> str:
        return f"ambiguous ({self.reason}; chi = {self.euler})"


def trivial_result(*degrees: int) -> ExtResult:
    return ExtResult.collect([(p, (), 1) for p in degrees])


def rep_result(datum: roots.LieDatum, spec: dict[int, list]) -> ExtResult:
    """Build an expected value: degree -> list of weights, each once."""
    return ExtResult.collect([(p, _entry((datum, tuple(w))), 1) for p, weights in spec.items() for w in weights])


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
    """res with every D5 factor of every entry branched to its B4 irreducibles,
    each once (levi.b4_content)."""
    return ExtResult.collect([
        (p, _entry(*((roots.B4, w) for w in combo)), m)
        for p, entry, m in res.pieces
        for combo in itertools.product(*(levi.b4_content(d, w) for d, w in entry))
    ])


def _branched(pieces: Pieces) -> Pieces:
    """The pieces of a class on D5/P4 as its pieces on B4/Q4, each Levi
    weight branched by levi.branch_levi."""
    i = bundles.D5_P4.marked[0] - 1
    acc: dict[roots.Weight, int] = {}
    for w, k, n in pieces:
        for v in levi.branch_levi(w[:i] + (k,) + w[i + 1 :]):
            acc[v] = acc.get(v, 0) + n
    return bundles.split_charges(bundles.B4_Q4, acc.items())


def _tensor_coeff(res: ExtResult, coeff: bundles.Coeff) -> ExtResult:
    if not coeff or not res.pieces:
        return res
    return ExtResult.collect([
        (p, _entry(*entry, factor), m * cm) for p, entry, m in res.pieces for factor, cm in coeff
    ])


class ExtEngine:
    """Memoizing Ext calculator over a fixed sequence registry.

    The Ext memo holds each answer under one key per twist class:
    (E.base, F.base, F.level - E.level), which names the pair at level
    zero, E.base and F twisted by minus E's level (bundles), one to one.
    A lookup builds no bundle; only a miss builds that pair, for _compute.
    Every registered sequence matches at every twist, so the routes of
    (E(k), F(k)) and (E, F) correspond one to one and give equal answers.
    An ExtResult is always memoized, also when a cut happened below it.
    An Ambiguous is memoized only when _cuts did not move while it was
    computed: _cuts counts the cycle cuts, the "cyclic dependency"
    Ambiguous, with no Euler characteristic (None), answered to a pair
    already on the stack, which is never stored.  It is the one such answer
    the engine builds, and a call at the top level, with an empty stack,
    never meets it.

    Besides the Ext memo, an engine keeps five kernel tables of pure values,
    each filled on its first lookup (through _lookup but for _pairs and
    _classes) and keyed by the arguments of the function that fills it:

    - _pairs: (pb, w1, w2, d) -> the Euler characteristic chi(E_w1-dual (x)
      E_w2'), an int, for two irreducibles, w1 and w2 at level zero and
      w2' = w2 at charge d.  Like the Ext memo, it keeps one key per twist
      class: d is the charge of the second piece minus that of the first.
      euler fills a missing entry with Weyl's chi (_pair_chi).  _direct
      fills a missing entry with the chi of the BBW answer it builds, and
      raises InternalConsistencyError when that chi is not the one the
      entry held.  No answer is kept here: the Ext memo keeps them;
    - _levi_duals: (pb, w) -> roots.dualize_levi(pb, w);
    - _cohomology: (pb, nu) -> bbw.bbw_cohomology(pb, nu);
    - _terms: (term, t, contravariant) -> the term's object twisted by t
      and its coefficient, dualized when contravariant (_term_at, through
      bundles.coeff_dual), for chase columns;
    - _classes: (obj,) -> bundles.kclass(obj), the description of obj's
      class and its pieces there; and (obj, B4_Q4) -> the pieces of a class
      on D5/P4 branched to B4/Q4 (_branched), filled when a pairing with a
      class on B4/Q4 first needs them: the classes the Euler form pairs.

    One more table, which no Ext or Euler query reads, is mutations':
    - kclasses: obj -> KForm.kclass(obj, engine), the tuple of Euler
      pairings chi(b, obj) over the basis b of the Kuznetsov collection.

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
        self._levi_duals: dict = {}
        self._cohomology: dict = {}
        self._terms: dict = {}
        self._classes: dict = {}
        self.kclasses: dict = {}

    # -- public surface ------------------------------------------------

    def ext(self, E: BundleObject, F: BundleObject) -> ExtResult | Ambiguous:
        key = E.base, F.base, F.level - E.level
        result = self._memo.get(key, _MISSING)
        if result is not _MISSING:
            return result
        if key in self._stack:
            self._cuts += 1
            return Ambiguous(None, "cyclic dependency")
        self._stack.add(key)
        cuts = self._cuts
        try:
            result = self._compute(E.base, bundles.twist(F, -E.level))
        finally:
            self._stack.discard(key)
        if isinstance(result, ExtResult) or self._cuts == cuts:
            self._memo[key] = result
        return result

    def cohomology(self, E: BundleObject) -> ExtResult | Ambiguous:
        return self.ext(bundles.O(), E)

    def ext_equivariant(self, E: BundleObject, F: BundleObject) -> dict[int, int] | Ambiguous:
        """The dimensions of ext(E, F).invariant_part(), degree by degree, read
        from the Ext answer without building it (ExtResult.invariant_dims)."""
        res = self.ext(E, F)
        if isinstance(res, Ambiguous):
            return res
        return res.invariant_dims()

    def euler(self, E: BundleObject, F: BundleObject) -> int:
        """chi(E, F): the sum of a b chi(L1-dual (x) L2) over the pieces a L1 of the
        class of E and b L2 of that of F, on their common description, else on B4/Q4.

        chi(L1(k)-dual (x) L2(k)) = chi(L1-dual (x) L2), so each pair of
        pieces is read, or computed once, from the _pairs entry of its weights
        at level zero and the difference of their charges, an int that
        _direct writes too; a missing entry is Weyl's chi, with no BBW walk
        (_pair_chi).  A warm pairing reads two _classes entries, a third for
        the branched class when the two descriptions differ, and one _pairs
        entry per pair of pieces; it builds no weight and computes nothing."""
        classes = self._classes
        sa, a = classes.get((E,)) or classes.setdefault((E,), bundles.kclass(E))
        sb, b = classes.get((F,)) or classes.setdefault((F,), bundles.kclass(F))
        pb = sa
        if sb is not sa:  # one class on each description: pair them on B4/Q4
            pb = bundles.B4_Q4
            obj = E if sa is not pb else F
            on_b4 = classes.get((obj, pb))
            if on_b4 is None:
                on_b4 = classes[obj, pb] = _branched(a if obj is E else b)
            a, b = (on_b4, b) if obj is E else (a, on_b4)
        pairs = self._pairs
        total = 0
        for w1, k1, n1 in a:
            for w2, k2, n2 in b:
                key = pb, w1, w2, k2 - k1
                chi = pairs.get(key)
                if chi is None:
                    chi = pairs[key] = self._pair_chi(*key)
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
        common description the BBW cohomology of the Levi pieces of each
        pair's E_w1-dual tensor E_w2', the chi of each pair recorded in
        _pairs (InternalConsistencyError when euler held another one there),
        else, when the two sides hold more than two summands, the Ext of each
        pair, branched to B4.  None for any other pair, or when a pair is
        Ambiguous, so that the chases run.

        A BBW answer is one (degree, entry, mult) piece, its entry the one
        factor (datum, weight), or () for the trivial weight, as _entry
        gives it."""
        if not (isinstance(E, Sum) and isinstance(F, Sum)):
            return None
        pieces: list[tuple[int, Entry, int]] = []
        common = bundles.common_parts(E, F)
        if common is not None:
            pb, e_parts, f_parts = common
            a = E.pieces if E.space == pb else bundles.split_charges(pb, e_parts)
            b = F.pieces if F.space == pb else bundles.split_charges(pb, f_parts)
            datum, pairs, cohomology = pb.datum, self._pairs, self._cohomology
            for w1, k1, n1 in a:
                for w2, k2, n2 in b:
                    key = pb, w1, w2, k2 - k1
                    chi = 0
                    for nu, mult in self._levi_pieces(*key).items():
                        coh = _lookup(cohomology, bbw.bbw_cohomology, pb, nu)
                        if not coh.vanishes:
                            entry = ((datum, coh.weight),) if any(coh.weight) else ()
                            pieces.append((coh.degree, entry, n1 * n2 * mult))
                            chi += -mult * coh.dim if coh.degree & 1 else mult * coh.dim
                    held = pairs.setdefault(key, chi)
                    if held != chi:
                        raise InternalConsistencyError(
                            f"chi of {key}: {held} by Weyl's polynomial, {chi} by the BBW walk"
                        )
            return ExtResult.collect(pieces)
        if sum(m for _, m in E.parts + F.parts) <= 2:
            return None
        for w1, m1 in E.parts:
            for w2, m2 in F.parts:
                sub = self.ext(bundles.irr(E.space, w1), bundles.irr(F.space, w2))
                if isinstance(sub, Ambiguous):
                    return None
                pieces += [(p, e, m1 * m2 * m) for p, e, m in sub.pieces]
        return _branch_to_b4(ExtResult.collect(pieces))

    def _levi_pieces(self, pb: roots.Parabolic, w1: roots.Weight, w2: roots.Weight, d: int) -> dict:
        """The Levi pieces of E_w1-dual tensor E_w2' for w2' = w2 at charge d."""
        i = pb.marked[0] - 1
        w1d = _lookup(self._levi_duals, roots.dualize_levi, pb, w1)
        return levi.tensor_decompose(pb, w1d, w2[:i] + (d,) + w2[i + 1 :])

    def _pair_chi(self, pb: roots.Parabolic, w1: roots.Weight, w2: roots.Weight, d: int) -> int:
        """The _pairs entry euler fills: chi(E_w1-dual (x) E_w2'), an int, each
        Levi piece's chi Weyl's polynomial at its weight (bbw.euler_characteristic):
        no BBW walk."""
        datum = pb.datum
        chi = bbw.euler_characteristic
        return sum(mult * chi(datum, nu) for nu, mult in self._levi_pieces(pb, w1, w2, d).items())

    # -- chase machinery ---------------------------------------------------

    def _column(self, term: Term, t: int, partner: BundleObject, contravariant: bool) -> ExtResult | None:
        terms = self._terms
        obj, coeff = terms.get((term, t, contravariant)) or _lookup(terms, self._term_at, term, t, contravariant)
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


def _shift(col: ExtResult, shift: int) -> ExtResult:
    """col with every degree moved by shift: its pieces stay sorted and nonzero."""
    return ExtResult(tuple((p + shift, e, m) for p, e, m in col.pieces)) if shift else col


def _solve_ses(cols: list[ExtResult | None], idx: int) -> ExtResult | None:
    """Solve one short exact sequence column-wise.

    cols follow covariant LES order: ... -> c0^p -> c1^p -> c2^p -> c0^{p+1} -> ...
    The unknown column U = cols[idx] is followed by x = cols[idx + 1] and
    preceded by y = cols[idx + 2] (indices mod 3), and the map x -> y raises
    the degree by one exactly when it wraps from c2 to c0 (idx == 1).  When
    that map is forced to vanish in every degree, U is y, shifted up by one
    when U is c0, plus x, shifted down by one when U is c2.  A map is forced
    to vanish unless both its source and its target are nonzero, so the
    degrees of its source column are the only ones to walk.  A degree of a
    column is nonzero exactly when the column has a piece there, since every
    piece has a positive multiplicity and a positive dimension: the test
    reads the degree supports, not the dimensions.  When x or y is zero, U is
    the other one, shifted, with nothing to collect.
    """
    x, y = cols[(idx + 1) % 3], cols[(idx + 2) % 3]
    if not x.pieces:
        return _shift(y, int(idx == 0))
    if not y.pieces:
        return _shift(x, -int(idx == 2))
    y_degrees = {p for p, _, _ in y.pieces}
    if any(p + (idx == 1) in y_degrees for p, _, _ in x.pieces):
        return None
    sy, sx = int(idx == 0), int(idx == 2)
    return ExtResult.collect([(p + sy, e, m) for p, e, m in y.pieces] + [(p - sx, e, m) for p, e, m in x.pieces])


def _solve_exact_sequence(cols: list[ExtResult | None], idx: int) -> ExtResult | None:
    """Solve an n-term exact sequence, n >= 3, with one unknown column
    (covariant order); every registered sequence has three terms or more.

    Longer sequences are split into short exact sequences through their
    anonymous kernels, peeling from the end away from the unknown.
    """
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
    # An index past the end or below 0 names no term, and True would read term 1.
    if type(unknown) is not int or not 0 <= unknown < len(seq.terms):
        raise roots.DomainError(f"unknown {unknown!r} is not a term of {seq.name}: 0..{len(seq.terms) - 1}")
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
