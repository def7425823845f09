"""Exact root-system and weight combinatorics for the classical families.

Weights are integer vectors in the fundamental-weight basis (omega-basis)
of a fixed Lie datum, and positive roots are integer vectors of
simple-root coordinates grown from the integer Cartan matrix of families
A, B, C and D.  Dominant conjugates, the BBW walk and Levi duals come
from one descent that subtracts Cartan rows.  Epsilon coordinates (the
orthonormal realization) are a derived view for the tests and the bench
tracer: the two closed-form maps omega_to_eps and eps_to_omega (Bourbaki,
ch. VI, Planches I-IV), the only code here with Fraction entries, which
spin weights of types B and D need.  As the lowest module it also holds
the package's errors and Record, Frozen and Interned, the bases of its
value classes.

It owns the one check of a weight: check_weight (a Python int per node;
7.0, True and 1/2 are no coordinates), check_dominant and
check_levi_dominant.  Every public function of the package that takes a
weight calls one of them before it fills a table, and no other module
decides what a weight is.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from functools import lru_cache, total_ordering

Weight = tuple[int, ...]
EpsVector = tuple[Q, ...]


class InvalidDatum(ValueError):
    """Family/rank/marking combination that does not define a parabolic."""


class DomainError(ValueError):
    """Input weight outside the domain of the requested operation."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant failed; indicates a bug, not bad input."""


class Record:
    """Base of homcoh's records.  A subclass names its fields in _fields, in
    the order of its constructor, and sets them in __init__.  Two records
    are equal when they are of one class and their fields are equal, and a
    record prints as Class(field=value, ...).  A mutable record does not
    hash.  The values that key the engine's tables are Interned and compare
    by identity.  Any other class compared on a hot path writes its own
    __eq__ out field by field: one shared body, generic over _fields,
    measured slower on the bench (ROADMAP.md, cold start), likely because
    CPython 3.11 specializes attribute reads per code object and a shared
    body sees every class."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Frozen(Record):
    """A record that never changes: its fields are set through
    object.__setattr__, and any later assignment or deletion raises
    AttributeError.  It hashes by its fields; a class that defines __eq__
    must define __hash__ too (or set __hash__ = Frozen.__hash__), or Python
    makes it unhashable."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Interned(Frozen):
    """A frozen record with one object per value.  Each subclass keeps its
    own class-level _table from constructor arguments to the object they
    built, and its __new__ looks the arguments up there; only on a miss does
    it validate them, then build and store the object, so a construction
    that raises stores nothing.  It stores with dict.setdefault and returns
    what the table holds, so of two threads that build one value both get
    the object stored first: the keys hash in C, so setdefault runs under
    one hold of the interpreter lock.  Equal values being one object, records
    compare and hash by identity, in C, with no Python __eq__ or __hash__,
    and a copy or an unpickled record is the stored object itself:
    __reduce__ rebuilds it through the constructor.  Identity hashes vary
    from process to process, so no output may depend on the order of a set
    of interned records."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def _build(cls, *values) -> Interned:
        # A new object with these fields, neither checked nor stored.
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):
        return type(self), self._values()


@total_ordering
class LieDatum(Interned):
    """A simple Lie algebra by family and rank; data order by the pair."""

    _fields = ("family", "rank")
    _table: dict[tuple[str, int], LieDatum] = {}

    def __new__(cls, family: str, rank: int) -> LieDatum:
        self = cls._table.get((family, rank))
        if self is None:
            if family not in ("A", "B", "C", "D"):
                raise InvalidDatum(f"unsupported family {family!r}")
            if rank < 1:
                raise InvalidDatum("rank must be positive")
            if family == "D" and rank < 3:
                raise InvalidDatum("family D needs rank >= 3")
            self = cls._table.setdefault((family, rank), cls._build(family, rank))
        return self

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.rank) < (other.family, other.rank)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{self.family}{self.rank}"


class Parabolic(Interned):
    """A marked Dynkin diagram: the datum plus the crossed-out nodes."""

    _fields = ("datum", "marked")
    _table: dict[tuple[LieDatum, tuple[int, ...]], Parabolic] = {}

    def __new__(cls, datum: LieDatum, marked: tuple[int, ...]) -> Parabolic:
        self = cls._table.get((datum, marked))
        if self is None:
            if not marked:
                raise InvalidDatum("a parabolic needs at least one marked node")
            if list(marked) != sorted(set(marked)):
                raise InvalidDatum("marked nodes must be strictly increasing")
            if any(i < 1 or i > datum.rank for i in marked):
                raise InvalidDatum("marked node out of range")
            self = cls._build(datum, marked)
            unmarked = tuple(i for i in range(1, datum.rank + 1) if i not in marked)
            object.__setattr__(self, "_unmarked", unmarked)
            # 0-based, for is_levi_dominant, which every Sum build and BBW walk asks.
            object.__setattr__(self, "_levi_indices", tuple(i - 1 for i in unmarked))
            self = cls._table.setdefault((datum, marked), self)
        return self

    @property
    def rank(self) -> int:
        return self.datum.rank

    def unmarked(self) -> tuple[int, ...]:
        return self._unmarked

    def __repr__(self) -> str:
        # Q names the parabolic of B4 that meets the P4 of D5: B4/Q4.
        letter = "Q" if self is B4_Q4 else "P"
        nodes = ",".join(str(i) for i in self.marked)
        return f"{self.datum}/{letter}{nodes}"


D5 = LieDatum("D", 5)
B4 = LieDatum("B", 4)
D5_P4 = Parabolic(D5, (4,))
B4_Q4 = Parabolic(B4, (4,))


@lru_cache(maxsize=None)
def cartan_matrix(datum: LieDatum) -> tuple[tuple[int, ...], ...]:
    """Row i holds alpha_i written in the omega-basis.

    Entry (i, j) is 2 (alpha_i, alpha_j) / (alpha_j, alpha_j): 2 on the
    diagonal, -1 per Dynkin edge, except at the double bond of types B and C,
    whose entry in the column of the short root is -2: (n - 1, n) in type B,
    where alpha_n is short, and (n, n - 1) in type C, where it is long.
    """
    n = datum.rank
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    if datum.family == "D":
        edges[-1] = (n - 3, n - 1)  # the fork: alpha_n hangs off alpha_{n-2}
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    if n > 1 and datum.family == "B":
        rows[n - 2][n - 1] = -2
    elif n > 1 and datum.family == "C":
        rows[n - 1][n - 2] = -2
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def positive_roots(datum: LieDatum) -> tuple[tuple[int, ...], ...]:
    """Positive roots in simple-root coordinates, by (height, coordinates).

    The closure of the simple roots under each s_i(beta) = beta - <beta,
    alpha_i^vee> alpha_i that raises the height, where <beta, alpha_i^vee>
    = sum_k beta_k cartan[k][i]: a positive root that is not simple pairs
    positively with some alpha_i^vee, and that s_i lowers its height.
    """
    cartan = cartan_matrix(datum)
    n = datum.rank
    todo = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    found = set(todo)
    for beta in todo:  # todo grows while it is read
        for i in range(n):
            pairing = sum(c * cartan[k][i] for k, c in enumerate(beta))
            up = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
            if pairing < 0 and up not in found:
                found.add(up)
                todo.append(up)
    return tuple(sorted(found, key=lambda beta: (sum(beta), beta)))


def rho(datum: LieDatum) -> Weight:
    return (1,) * datum.rank


def is_dominant(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def format_weight(w: Weight) -> str:
    """The printed form of a weight, [a1,...,an], as the bundle parser reads it."""
    return "[" + ",".join(map(str, w)) + "]"


def is_levi_dominant(pb: Parabolic, w: Weight) -> bool:
    for i in pb._levi_indices:
        if w[i] < 0:
            return False
    return True


def check_weight(datum: LieDatum, w: Weight) -> None:
    """Raise DomainError unless w has one Python int per node of datum: a
    float, a bool or a Fraction is no weight, even when it equals one."""
    if len(w) != datum.rank:
        raise DomainError(f"weight length {len(w)} != rank {datum.rank}")
    for c in w:
        if type(c) is not int:
            raise DomainError(f"weight coordinate {c!r} is not an integer")


def check_dominant(datum: LieDatum, w: Weight) -> None:
    """check_weight, then raise DomainError unless w is dominant."""
    check_weight(datum, w)
    if not is_dominant(w):
        raise DomainError(f"{format_weight(w)} is not dominant")


def check_levi_dominant(pb: Parabolic, w: Weight) -> None:
    """check_weight, then raise DomainError unless w is Levi-dominant on pb."""
    check_weight(pb.datum, w)
    if not is_levi_dominant(pb, w):
        raise DomainError(f"{format_weight(w)} is not Levi-dominant on {pb}")


def omega_to_eps(datum: LieDatum, w: Weight) -> EpsVector:
    """w in epsilon coordinates, from the closed forms of the fundamental weights.

    omega_j = e_1 + ... + e_j, but at the spin nodes: omega_n = (e_1 + ... +
    e_n)/2 in types B and D, and omega_{n-1} = (e_1 + ... + e_{n-1} - e_n)/2
    in type D.  Type A has n + 1 coordinates and takes the representative
    whose coordinates sum to zero.
    """
    check_weight(datum, w)
    # t[j] multiplies e_1 + ... + e_{j+1}, so coordinate k sums t[k:].
    t = [Q(c) for c in w]
    if datum.family == "B":
        t[-1] /= 2
    elif datum.family == "D":
        t[-1] = (t[-1] - t[-2]) / 2
    elif datum.family == "A":
        t.append(Q(0))
    v = list(itertools.accumulate(reversed(t)))[::-1]
    shift = sum(v) / len(v) if datum.family == "A" else 0
    return tuple(x - shift for x in v)


def eps_to_omega(datum: LieDatum, v: EpsVector) -> Weight:
    """The omega-coordinates 2 (v, alpha_i) / (alpha_i, alpha_i) of an epsilon vector.

    They are v_i - v_{i+1} at every node but the last, where they are
    v_n - v_{n+1} (A), 2 v_n (B), v_n (C) or v_{n-1} + v_n (D).
    """
    family = datum.family
    dim = datum.rank + 1 if family == "A" else datum.rank
    if len(v) != dim:
        raise DomainError(f"epsilon vector length {len(v)} != {dim} for {datum}")
    coords = [Q(a - b) for a, b in zip(v, v[1:])]
    if family == "B":
        coords.append(Q(2 * v[-1]))
    elif family == "C":
        coords.append(Q(v[-1]))
    elif family == "D":
        coords.append(Q(v[-2] + v[-1]))
    if any(c.denominator != 1 for c in coords):
        raise InternalConsistencyError("weight not in the weight lattice")
    return tuple(map(int, coords))


def _descend(datum: LieDatum, nodes: range | tuple[int, ...], v: Weight) -> tuple[Weight, int]:
    # Reflect at the first of the nodes with a negative coefficient, by
    # subtracting that multiple of its Cartan row, until there is none.  Each
    # reflection takes one positive root out of those that pair negatively
    # with v, so there are at most |positive roots| of them.
    cartan = cartan_matrix(datum)
    for count in range(len(positive_roots(datum)) + 1):
        for i in nodes:
            c = v[i - 1]
            if c < 0:
                break
        else:
            return v, count
        v = tuple([a - c * r for a, r in zip(v, cartan[i - 1])])
    raise InternalConsistencyError(f"descent on nodes {tuple(nodes)} of {datum} did not terminate")


def dominant_conjugate(datum: LieDatum, w: Weight) -> tuple[Weight, int]:
    """The dominant Weyl-orbit representative and the number of reflections used."""
    check_weight(datum, w)
    return _descend(datum, range(1, datum.rank + 1), tuple(w))


def dual_weight(datum: LieDatum, w: Weight) -> Weight:
    """Highest weight of the dual representation, -w0(w), for dominant w."""
    check_dominant(datum, w)
    return dominant_conjugate(datum, tuple(-c for c in w))[0]


def dualize_levi(pb: Parabolic, w: Weight) -> Weight:
    """-w0^L(w): the highest weight of the dual of the Levi representation,
    the descent of -w over the unmarked nodes."""
    check_levi_dominant(pb, w)
    return _descend(pb.datum, pb.unmarked(), tuple(-c for c in w))[0]


def canonical_weight(pb: Parabolic) -> Weight:
    """Weight of the canonical bundle: minus the sum of roots outside the Levi."""
    cartan = cartan_matrix(pb.datum)
    total = [0] * pb.rank
    for beta in positive_roots(pb.datum):
        if any(beta[i - 1] for i in pb.marked):
            for c, row in zip(beta, cartan):
                total = [t - c * r for t, r in zip(total, row)]
    return tuple(total)
