"""The representation ring of the Levi subgroup.

Supported parabolics are the two homogeneous descriptions of the spinor
tenfold: D5/P4 (Levi SL(5) x C*) and B4/Q4 (Levi SL(4) x C*).  Both Levis
are type A with a one-dimensional center, so a Levi-dominant weight maps
to a weakly decreasing GL vector, a partition plus a central charge.
Tensor products multiply the partitions by Brauer-Klimyk on GL(n): the
Kostka numbers of one factor's dominant weights, from Gelfand-Tsetlin
patterns, straightened against the other factor by the dot action of the
symmetric group; the central charges add.  GL entries lie in (1/2)Z, all
congruent mod 1, so the module works on twice the GL vector, an integer
vector; `to_gl`/`from_gl` give the exact rational view.

Four tables live for the process, filled on first use by every caller,
each on a miss only by a filler looked up on the module at fill time.
`_split` reads `_SPLITS`, keyed by (pb, w): the partition and doubled
charge of w, stored after `roots.check_levi_dominant`.  `tensor_decompose`
reads `_PRODUCTS`, keyed by the two partitions (pb, p1, p2) of `_split` in
sorted order, since the product is symmetric: the product's Levi weights
at central charge 0, filled once per unordered pair, to whose marked
coordinate a call adds the summed doubled charge.  Its fills read each
partition's weight from `_READBACKS`, keyed by (pb, nu), filled by
`_weight`.  `_brauer_klimyk` reads `_KOSTKA`, keyed by the weight-side
partition: its dominant weights with their Kostka numbers, filled by
`_kostka`.  So in `tensor_decompose` a fault injected into `_gl2`,
`_brauer_klimyk`, `_weight` or `_kostka` reaches only the keys not yet in
`_SPLITS`, `_PRODUCTS`, `_READBACKS` or `_KOSTKA` respectively; a faulty
entry stays for the process.  `lr_multiply` keeps its own lru_cache and
shares `_KOSTKA`.

The lattice check lives in `_from_gl2`, for `from_gl`.  `branch_levi`
(GL(5) -> GL(4)) gives the graded pieces of a D5/P4 fibre as a Q4-module,
its class on B4/Q4; `branch_d5_to_b4` is so(10) -> so(9), and
`b4_content`, which reads it, keeps an lru_cache of its sorted terms.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction as Q
from functools import lru_cache

from . import roots
from .roots import B4_Q4, D5_P4, DomainError, InternalConsistencyError, Parabolic, Weight

Partition = tuple[int, ...]
GLVector = tuple[Q, ...]

# Each Levi is GL(n) on a chain of unmarked nodes: consecutive GL entries
# differ by the label of the chain node between them, and the marked node
# fixes the last entry.  Per Levi: the chain, and twice the last GL entry as
# integer coefficients on the labels (coefficient 1 at the marked node).
#   D5/P4: GL = (e1, e2, e3, e4, -e5), chain 1-2-3-5, 2 gl_5 = w4 - w5.
#   B4/Q4: GL = (e1, e2, e3, e4),      chain 1-2-3,   2 gl_4 = w4.
_LEVI = {
    D5_P4: ((1, 2, 3, 5), (0, 0, 0, 1, -1)),
    B4_Q4: ((1, 2, 3), (0, 0, 0, 1)),
}


class UnsupportedLevi(DomainError):
    """The operation is only implemented for the two spinor-tenfold parabolics."""


def _require_supported(pb: Parabolic) -> None:
    if pb not in _LEVI:
        raise UnsupportedLevi(f"Levi operations not implemented for {pb}")


def _gl2(pb: Parabolic, w: Weight) -> tuple[int, ...]:
    # Twice the GL vector of w.
    chain, last = _LEVI[pb]
    v = [sum(c * x for c, x in zip(last, w))]
    for node in reversed(chain):
        v.append(v[-1] + 2 * w[node - 1])
    return tuple(reversed(v))


def _read_back(pb: Parabolic) -> tuple[operator.itemgetter, tuple[int, ...]]:
    # For _weight: each coordinate of the weight as an index into the chain
    # labels followed by the marked label, and the chain labels' coefficients
    # in twice the last GL entry.
    chain, last = _LEVI[pb]
    (m,) = pb.marked
    order = [0] * pb.rank
    for k, node in enumerate(chain):
        order[node - 1] = k
    order[m - 1] = len(chain)
    return operator.itemgetter(*order), tuple(last[node - 1] for node in chain)


_READ_BACK = {pb: _read_back(pb) for pb in _LEVI}


def _weight(pb: Parabolic, labels, last2: int) -> Weight:
    # The weight with these labels on the chain and twice the last GL entry last2.
    pick, coefficients = _READ_BACK[pb]
    labels = tuple(labels)
    return pick(labels + (last2 - sum(map(operator.mul, coefficients, labels)),))


def _from_gl2(pb: Parabolic, v: tuple[int, ...]) -> Weight:
    # The weight whose doubled GL vector is v.
    steps = list(map(operator.sub, v, v[1:]))
    if any(c % 2 for c in steps):
        raise InternalConsistencyError(f"GL vector {v}/2 is not in the weight lattice")
    return _weight(pb, [c // 2 for c in steps], v[-1])


def levi_rank(pb: Parabolic) -> int:
    """Size of the GL factor: 5 for D5/P4, 4 for B4/Q4."""
    _require_supported(pb)
    return len(_LEVI[pb][0]) + 1


def to_gl(pb: Parabolic, w: Weight) -> GLVector:
    """GL-vector of a weight; weakly decreasing exactly when Levi-dominant."""
    _require_supported(pb)
    roots.check_weight(pb.datum, w)
    return tuple(Q(c, 2) for c in _gl2(pb, w))


def from_gl(pb: Parabolic, v: GLVector) -> Weight:
    _require_supported(pb)
    doubled = [2 * Q(c) for c in v]
    if any(c.denominator != 1 for c in doubled):
        raise InternalConsistencyError(f"GL vector {v} is not in the weight lattice")
    return _from_gl2(pb, tuple(int(c) for c in doubled))


def _split(pb: Parabolic, w: Weight) -> tuple[Partition, int]:
    # 2 GL(w) = 2p + s(1,...,1) with p a partition ending in 0.  A miss is
    # checked, so only an int weight is stored; 7.0 or True finds 7 or 1.
    w = tuple(w)
    got = _SPLITS.get((pb, w))
    if got is None:
        roots.check_levi_dominant(pb, w)
        v = _gl2(pb, w)
        got = _SPLITS[pb, w] = tuple((c - v[-1]) // 2 for c in v), v[-1]
    return got


def _kostka(mu: Partition) -> dict[Partition, int]:
    """Dominant weights of the GL(n) irreducible mu with their Kostka numbers.

    Counts Gelfand-Tsetlin patterns with top row mu, peeled from the top:
    each row interlaces the row above it, and the size it loses is the
    weight entry at that row's position, read from the last entry up.  A
    dominant weight is weakly decreasing, so a chain survives only while
    the removed sizes weakly increase toward the bottom and the rest of the
    row can still pay at least the last removed size per entry.
    """
    level = {(mu, ()): 1}
    for k in range(len(mu) - 1, -1, -1):
        nxt: dict[tuple[Partition, Partition], int] = {}
        for (row, tail), count in level.items():
            size = sum(row)
            floor = tail[0] if tail else 0
            spans = (range(row[i + 1], row[i] + 1) for i in range(k))
            for below in itertools.product(*spans):
                removed = size - sum(below)
                if removed >= floor and size - removed >= removed * k:
                    key = (below, (removed,) + tail)
                    nxt[key] = nxt.get(key, 0) + count
        level = nxt
    return {tail: count for (_, tail), count in level.items()}


# The two process tables of the Brauer-Klimyk fills (see the module docstring).
# mu -> ((dominant weight, Kostka number), ...) of the GL(len(mu)) irreducible
# mu, as _kostka gives them: the weight side of every fill that reads mu.
_KOSTKA: dict[Partition, tuple[tuple[Partition, int], ...]] = {}
# (pb, p1, p2) with p1 <= p2 -> ((weight, multiplicity), ...) of V_p1 (x) V_p2
# at central charge 0.  _brauer_klimyk sorts its terms, so both orders of a
# pair would fill the same tuple.
_PRODUCTS: dict[tuple[Parabolic, Partition, Partition], tuple[tuple[Weight, int], ...]] = {}
# (pb, nu) -> the Levi weight of the GL partition nu at central charge 0.
_READBACKS: dict[tuple[Parabolic, Partition], Weight] = {}
# (pb, w) -> _split(pb, w) of a Levi-dominant weight w.
_SPLITS: dict[tuple[Parabolic, Weight], tuple[Partition, int]] = {}


def _brauer_klimyk(lam: Partition, mu: Partition, n: int) -> dict[Partition, int]:
    """s_lam * s_mu on GL(n) as sorted n-entry partitions; trailing zeros are ignored.

    Brauer-Klimyk: every weight of the factor with the smaller size, counted
    by its Kostka number, is added to the other factor's lam + rho.  A sum
    with a repeated entry cancels; any other is sorted to a strictly
    decreasing vector, with the sign of the sorting permutation, and shifted
    back by rho.
    """
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    rho = range(n - 1, -1, -1)
    shifted = [c + r for c, r in zip(lam + (0,) * n, rho)]
    # A dominant weight of mu has at most |mu| nonzero entries, and its
    # Kostka number does not depend on the zeros after them; its other
    # weights are the distinct orderings of it, padded with zeros to n rows.
    rows = min(n, sum(mu))
    side = (mu + (0,) * rows)[:rows]
    weights = _KOSTKA.get(side)
    if weights is None:
        weights = _KOSTKA[side] = tuple(_kostka(side).items())
    pad = (0,) * (n - rows)
    # Keyed by nu + rho; adding rho keeps the lexicographic order.
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for weight, count in weights:
        for orbit_weight in set(itertools.permutations(weight + pad)):
            v = list(map(operator.add, shifted, orbit_weight))
            if len(set(v)) < n:
                continue
            ordered = sorted(v, reverse=True)
            key = tuple(ordered)
            if ordered != v and sum(itertools.starmap(operator.lt, itertools.combinations(v, 2))) % 2:
                out[key] = get(key, 0) - count
            else:
                out[key] = get(key, 0) + count
    if any(c < 0 for c in out.values()):
        raise InternalConsistencyError(f"negative Brauer-Klimyk coefficient in {lam} * {mu}")
    return {tuple(map(operator.sub, key, rho)): c for key, c in sorted(out.items()) if c}


@lru_cache(maxsize=None)
def lr_multiply(lam: Partition, mu: Partition, max_rows: int) -> tuple[tuple[Partition, int], ...]:
    """Littlewood-Richardson expansion of s_lam * s_mu in max_rows rows, zeros stripped."""
    for p in (lam, mu):
        if any(type(c) is not int for c in p) or any(map(operator.lt, p, p[1:])) or min(p, default=0) < 0:
            raise DomainError(f"{p!r} is not a partition")
    lam = tuple(c for c in lam if c)
    mu = tuple(c for c in mu if c)
    if len(lam) > max_rows or len(mu) > max_rows:
        raise DomainError("partition has more rows than max_rows")
    return tuple((tuple(c for c in nu if c), m) for nu, m in _brauer_klimyk(lam, mu, max_rows).items())


def tensor_decompose(pb: Parabolic, w1: Weight, w2: Weight) -> dict[Weight, int]:
    """Decompose the tensor product of two irreducible Levi representations."""
    _require_supported(pb)
    (p1, s1), (p2, s2) = _split(pb, w1), _split(pb, w2)
    if p2 < p1:
        p1, p2 = p2, p1
    terms = _PRODUCTS.get((pb, p1, p2))
    if terms is None:
        fill = []
        for nu, mult in _brauer_klimyk(p1, p2, len(p1)).items():
            w = _READBACKS.get((pb, nu))
            if w is None:
                # The chain labels are the differences of nu, those of 2*nu
                # halved: _from_gl2's parity test could not fail on them.
                w = _READBACKS[pb, nu] = _weight(pb, map(operator.sub, nu, nu[1:]), 2 * nu[-1])
            fill.append((w, mult))
        terms = _PRODUCTS[pb, p1, p2] = tuple(fill)
    (m,) = pb.marked
    s = s1 + s2
    return {w[: m - 1] + (w[m - 1] + s,) + w[m:]: mult for w, mult in terms}


def _check_power(r: int) -> None:
    # A Schur functor's power is a Python int: no float or bool.
    if type(r) is not int:
        raise DomainError(f"power {r!r} is not an integer")


def sym_power(pb: Parabolic, r: int) -> Weight:
    """Weight of Sym^r of the dual tautological bundle (U-dual / R-dual)."""
    _require_supported(pb)
    _check_power(r)
    if r < 0:
        raise DomainError("negative symmetric power")
    n = levi_rank(pb)
    return _from_gl2(pb, (2 * r,) + (0,) * (n - 1))


def wedge_power(pb: Parabolic, r: int) -> Weight:
    """Weight of the r-th wedge of the dual tautological bundle; r <= rank."""
    _require_supported(pb)
    _check_power(r)
    n = levi_rank(pb)
    if not 0 <= r <= n:
        raise DomainError(f"wedge power {r} out of range 0..{n}")
    return _from_gl2(pb, (2,) * r + (0,) * (n - r))


def branch_d5_to_b4(mu: Weight) -> dict[Weight, int]:
    """so(10) -> so(9) restriction by the interlacing rule; multiplicity-free.

    The D5 epsilon vector of mu is its D5/P4 GL vector up to the sign of the
    last entry, which interlacing reads only through its absolute value, and
    the B4/Q4 GL vector is the B4 epsilon vector: this is branch_levi of the
    D5/P4 weight whose GL vector ends in that absolute value.
    """
    roots.check_dominant(roots.D5, mu)
    lam = _gl2(D5_P4, mu)
    return dict.fromkeys(branch_levi(_from_gl2(D5_P4, lam[:4] + (abs(lam[4]),))), 1)


@lru_cache(maxsize=None)
def branch_levi(w: Weight) -> tuple[Weight, ...]:
    """GL(5) -> GL(4) restriction of a D5/P4 Levi irreducible to B4/Q4; multiplicity-free.

    Q4 = P4 meets Spin(9), whose torus drops the fifth epsilon coordinate:
    the doubled GL vectors of the pieces interlace that of w, in steps of 2.
    """
    roots.check_levi_dominant(D5_P4, w)
    lam = _gl2(D5_P4, w)
    nus = itertools.product(*(range(lo, hi + 1, 2) for lo, hi in zip(lam[1:], lam)))
    return tuple(_from_gl2(B4_Q4, nu) for nu in nus)


@lru_cache(maxsize=None)
def b4_content(group: roots.LieDatum, w: Weight) -> tuple[tuple[Weight, int], ...]:
    """View a D5 or B4 representation as a multiset of B4 irreducibles."""
    if group == roots.B4:
        roots.check_dominant(group, w)
        return ((w, 1),)
    if group == roots.D5:
        return tuple(sorted(branch_d5_to_b4(w).items()))
    raise DomainError(f"no branching to B4 from {group}")


def invariant_multiplicity_entry(factors: tuple[tuple[roots.LieDatum, Weight], ...]) -> int:
    """Multiplicity of the trivial B4 representation in a formal tensor product.

    Handles zero, one or two nontrivial factors; every B4 irreducible is
    self-dual, so a two-factor product has invariants equal to the overlap
    of the two branched multiplicity vectors.
    """
    nontrivial = [(g, w) for g, w in factors if any(w)]
    if len(nontrivial) == 0:
        return 1
    if len(nontrivial) == 1:
        g, w = nontrivial[0]
        return dict(b4_content(g, w)).get((0, 0, 0, 0), 0)
    if len(nontrivial) == 2:
        a = dict(b4_content(*nontrivial[0]))
        b = dict(b4_content(*nontrivial[1]))
        return sum(m * b.get(t, 0) for t, m in a.items())
    raise InternalConsistencyError("invariants of >2 formal tensor factors not supported")
