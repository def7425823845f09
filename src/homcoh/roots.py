"""Exact root-system and weight combinatorics for the classical families.

Weights are integer vectors in the fundamental-weight basis (omega-basis)
of a fixed Lie datum, and positive roots are integer vectors of
simple-root coordinates grown from the integer Cartan matrix; every table
the other layers use is integral.  Epsilon coordinates (the orthonormal
realization) are a derived view for display and tests, with exact
rational entries: spin weights of types B and D have denominator 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache

Weight = tuple[int, ...]
EpsVector = tuple[Q, ...]


class InvalidDatum(ValueError):
    """Family/rank/marking combination that does not define a parabolic."""


class DomainError(ValueError):
    """Input weight outside the domain of the requested operation."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant failed; indicates a bug, not bad input."""


@dataclass(frozen=True, order=True)
class LieDatum:
    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "B", "C", "D"):
            raise InvalidDatum(f"unsupported family {self.family!r}")
        if self.rank < 1:
            raise InvalidDatum("rank must be positive")
        if self.family == "D" and self.rank < 3:
            raise InvalidDatum("family D needs rank >= 3")
        # Data, parabolics and bundles key every memo table of the engine:
        # each hashes its fields once and keeps the value outside them.
        object.__setattr__(self, "_hash", hash((self.family, self.rank)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Parabolic:
    """A marked Dynkin diagram: the datum plus the crossed-out nodes."""

    datum: LieDatum
    marked: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.marked:
            raise InvalidDatum("a parabolic needs at least one marked node")
        if list(self.marked) != sorted(set(self.marked)):
            raise InvalidDatum("marked nodes must be strictly increasing")
        if any(i < 1 or i > self.datum.rank for i in self.marked):
            raise InvalidDatum("marked node out of range")
        object.__setattr__(self, "_hash", hash((self.datum, self.marked)))
        unmarked = tuple(i for i in range(1, self.datum.rank + 1) if i not in self.marked)
        object.__setattr__(self, "_unmarked", unmarked)

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return self.datum.rank

    def unmarked(self) -> tuple[int, ...]:
        return self._unmarked

    def __repr__(self) -> str:
        # Q names the parabolic of B4 that meets the P4 of D5: B4/Q4.
        letter = "Q" if (self.datum, self.marked) == (B4, (4,)) else "P"
        nodes = ",".join(str(i) for i in self.marked)
        return f"{self.datum}/{letter}{nodes}"


D5 = LieDatum("D", 5)
B4 = LieDatum("B", 4)
D5_P4 = Parabolic(D5, (4,))
B4_Q4 = Parabolic(B4, (4,))


def _dot(x: EpsVector, y: EpsVector) -> Q:
    return sum((a * b for a, b in zip(x, y)), Q(0))


def _eps_dim(datum: LieDatum) -> int:
    # Type A uses the GL-style ambient space with one extra coordinate.
    return datum.rank + 1 if datum.family == "A" else datum.rank


@lru_cache(maxsize=None)
def simple_roots_eps(datum: LieDatum) -> tuple[EpsVector, ...]:
    """Simple roots in epsilon coordinates, Bourbaki node order."""
    n, dim = datum.rank, _eps_dim(datum)

    def e(i: int) -> list[Q]:
        v = [Q(0)] * dim
        v[i] = Q(1)
        return v

    roots: list[EpsVector] = []
    for i in range(n - 1):
        v = e(i)
        v[i + 1] = Q(-1)
        roots.append(tuple(v))
    if datum.family == "A":
        v = e(n - 1)
        v[n] = Q(-1)
        roots.append(tuple(v))
    elif datum.family == "B":
        roots.append(tuple(e(n - 1)))
    elif datum.family == "C":
        v = e(n - 1)
        v[n - 1] = Q(2)
        roots.append(tuple(v))
    else:  # D: the fork, alpha_n = e_{n-1} + e_n
        v = e(n - 2)
        v[n - 1] = Q(1)
        roots.append(tuple(v))
    return tuple(roots)


@lru_cache(maxsize=None)
def cartan_matrix(datum: LieDatum) -> tuple[tuple[int, ...], ...]:
    """Row i holds alpha_i written in the omega-basis."""
    simple = simple_roots_eps(datum)
    rows = []
    for a in simple:
        row = []
        for b in simple:
            val = 2 * _dot(a, b) / _dot(b, b)
            if val.denominator != 1:
                raise InternalConsistencyError("non-integral Cartan entry")
            row.append(int(val))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def positive_roots(datum: LieDatum) -> tuple[tuple[int, ...], ...]:
    """Positive roots in simple-root coordinates, lowest height first.

    Grown by alpha_i-strings: for a root beta != alpha_i, beta + alpha_i is
    a root exactly when p - <beta, alpha_i^vee> > 0, where p counts the
    roots beta - alpha_i, beta - 2 alpha_i, ... already found below it.
    """
    cartan = cartan_matrix(datum)
    n = datum.rank
    level = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    out = list(level)
    while level:
        grown = []
        for beta in level:
            for i in range(n):
                down = list(beta)
                down[i] -= 1
                while tuple(down) in out:
                    down[i] -= 1
                p = beta[i] - down[i] - 1
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                if p > sum(c * cartan[k][i] for k, c in enumerate(beta)) and up not in grown:
                    grown.append(up)
        out.extend(grown)
        level = grown
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_rows(datum: LieDatum) -> tuple[tuple[int, ...], ...]:
    """Per positive root beta = sum c_k alpha_k, the row c_k |alpha_k|^2.

    Since (omega_j, alpha_k) = delta_jk |alpha_k|^2 / 2, the row's dot
    product with a weight lam in the omega-basis is 2 (lam, beta).
    """
    norms = [int(_dot(a, a)) for a in simple_roots_eps(datum)]
    return tuple(tuple(c * d for c, d in zip(beta, norms)) for beta in positive_roots(datum))


@lru_cache(maxsize=None)
def positive_roots_eps(datum: LieDatum) -> tuple[EpsVector, ...]:
    """The positive roots as epsilon vectors: the view sum c_k alpha_k."""
    simple = simple_roots_eps(datum)
    return tuple(
        tuple(sum((c * a[k] for c, a in zip(beta, simple)), Q(0)) for k in range(_eps_dim(datum)))
        for beta in positive_roots(datum)
    )


def _solve_exact(matrix: list[list[Q]], rhs: list[Q]) -> list[Q]:
    # Gaussian elimination over the rationals; the system is square and regular.
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = Q(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


@lru_cache(maxsize=None)
def fundamental_weights_eps(datum: LieDatum) -> tuple[EpsVector, ...]:
    """omega_j in epsilon coordinates: 2(omega_j, alpha_i)/(alpha_i, alpha_i) = delta_ij.

    For type A the ambient space has one extra dimension; the sum-zero
    representative is chosen so the map is well defined.
    """
    simple = simple_roots_eps(datum)
    n, dim = datum.rank, _eps_dim(datum)
    out = []
    for j in range(n):
        rows = [[2 * a[k] / _dot(a, a) for k in range(dim)] for a in simple]
        rhs = [Q(1) if i == j else Q(0) for i in range(n)]
        if dim > n:
            rows.append([Q(1)] * dim)
            rhs.append(Q(0))
        out.append(tuple(_solve_exact(rows, rhs)))
    return tuple(out)


def omega_to_eps(datum: LieDatum, w: Weight) -> EpsVector:
    fw = fundamental_weights_eps(datum)
    dim = _eps_dim(datum)
    acc = [Q(0)] * dim
    for c, vec in zip(w, fw):
        for k in range(dim):
            acc[k] += c * vec[k]
    return tuple(acc)


def eps_to_omega(datum: LieDatum, v: EpsVector) -> Weight:
    coords = []
    for a in simple_roots_eps(datum):
        val = 2 * _dot(v, a) / _dot(a, a)
        if val.denominator != 1:
            raise InternalConsistencyError("weight not in the weight lattice")
        coords.append(int(val))
    return tuple(coords)


def rho(datum: LieDatum) -> Weight:
    return (1,) * datum.rank


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def simple_reflection(datum: LieDatum, i: int, w: Weight) -> Weight:
    """s_i(w) = w - w_i * alpha_i, with alpha_i in the omega-basis."""
    if not 1 <= i <= datum.rank:
        raise DomainError(f"node {i} out of range for {datum}")
    row = cartan_matrix(datum)[i - 1]
    c = w[i - 1]
    return tuple(w[k] - c * row[k] for k in range(datum.rank))


def dominant_conjugate(datum: LieDatum, w: Weight) -> tuple[Weight, int]:
    """The dominant Weyl-orbit representative and the number of reflections used."""
    v = tuple(w)
    count = 0
    bound = 2 * len(positive_roots(datum)) + 1
    while not is_dominant(v):
        i = next(k + 1 for k, c in enumerate(v) if c < 0)
        v = simple_reflection(datum, i, v)
        count += 1
        if count > bound:
            raise InternalConsistencyError("dominant conjugation did not terminate")
    return v, count


def dual_weight(datum: LieDatum, w: Weight) -> Weight:
    """Highest weight of the dual representation, -w0(w), for dominant w."""
    if not is_dominant(w):
        raise DomainError("dual_weight needs a dominant weight")
    return dominant_conjugate(datum, tuple(-c for c in w))[0]


def format_weight(w: Weight) -> str:
    """The printed form of a weight, [a1,...,an], as the bundle parser reads it."""
    return "[" + ",".join(map(str, w)) + "]"


def is_levi_dominant(pb: Parabolic, w: Weight) -> bool:
    return all(w[i - 1] >= 0 for i in pb.unmarked())


def dualize_levi(pb: Parabolic, w: Weight) -> Weight:
    """-w0^L(w): the highest weight of the dual of the Levi representation.

    Computed by iterated descent: reflect -w at unmarked nodes carrying a
    negative coefficient until Levi-dominant.
    """
    if not is_levi_dominant(pb, w):
        raise DomainError(f"{format_weight(w)} is not Levi-dominant on {pb}")
    datum = pb.datum
    v = tuple(-c for c in w)
    count = 0
    bound = 2 * len(positive_roots(datum)) + 1
    while True:
        neg = [i for i in pb.unmarked() if v[i - 1] < 0]
        if not neg:
            return v
        v = simple_reflection(datum, neg[0], v)
        count += 1
        if count > bound:
            raise InternalConsistencyError("Levi dualization did not terminate")


def _roots_outside_levi(pb: Parabolic) -> list[tuple[int, ...]]:
    return [beta for beta in positive_roots(pb.datum) if any(beta[i - 1] for i in pb.marked)]


def canonical_weight(pb: Parabolic) -> Weight:
    """Weight of the canonical bundle: minus the sum of roots outside the Levi."""
    cartan = cartan_matrix(pb.datum)
    total = [0] * pb.rank
    for beta in _roots_outside_levi(pb):
        for c, row in zip(beta, cartan):
            for k in range(pb.rank):
                total[k] -= c * row[k]
    return tuple(total)


def homogeneous_dimension(pb: Parabolic) -> int:
    """dim G/P = number of positive roots outside the Levi."""
    return len(_roots_outside_levi(pb))
