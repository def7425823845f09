"""The Borel-Bott-Weil algorithm and the Weyl dimension formula.

Cohomology of an irreducible homogeneous bundle is a single irreducible
representation of the full group concentrated in a single degree, or zero.
The degree is the number of simple reflections needed to move the
rho-shifted weight into the strictly dominant chamber; a zero coefficient
anywhere along the way kills all cohomology.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import roots
from .roots import (
    DomainError,
    InternalConsistencyError,
    LieDatum,
    Parabolic,
    Weight,
)


@lru_cache(maxsize=None)
def _weyl_table(datum: LieDatum) -> tuple[tuple[tuple[int, ...], ...], int]:
    # The rows of roots.weyl_rows and their constant denominator: the
    # product of the rows' dot products with rho, which are their sums.
    rows = roots.weyl_rows(datum)
    return rows, math.prod(map(sum, rows))


@lru_cache(maxsize=None)
def weyl_dim(datum: LieDatum, mu: Weight) -> int:
    """Exact dimension of the irreducible module with dominant highest weight mu.

    Weyl's product over the positive roots beta of (mu + rho, beta) / (rho, beta),
    taken on the integer rows of roots.weyl_rows.
    """
    if len(mu) != datum.rank:
        raise DomainError(f"weight length {len(mu)} != rank {datum.rank}")
    if not roots.is_dominant(mu):
        raise DomainError(f"{roots.format_weight(mu)} is not dominant")
    rows, den = _weyl_table(datum)
    shifted = [m + 1 for m in mu]
    num = 1
    for row in rows:
        num *= sum(map(operator.mul, row, shifted))
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise InternalConsistencyError("Weyl dimension is not a positive integer")
    return dim


@dataclass(frozen=True)
class Cohomology:
    """Either no cohomology at all, or one representation in one degree."""

    degree: Optional[int]
    weight: Optional[Weight]
    dim: int

    @property
    def vanishes(self) -> bool:
        return self.degree is None

    def __repr__(self) -> str:
        if self.vanishes:
            return "0"
        return f"V{roots.format_weight(self.weight)} @ {self.degree} (dim {self.dim})"


# The one vanishing answer, shared: a frozen dataclass cannot be changed.
_ZERO = Cohomology(None, None, 0)


def bbw_cohomology(
    pb: Parabolic,
    weight: Weight,
    choose_node: Optional[Callable[[list[int]], int]] = None,
) -> Cohomology:
    """Run the reflection walk on weight + rho.

    `choose_node` picks which strictly negative node to reflect at when
    several are available; the result is independent of the choice (the
    default takes the smallest index).  rho and the Cartan matrix are read
    from roots once per call, and each reflection subtracts a multiple of
    one Cartan row.
    """
    datum = pb.datum
    if len(weight) != datum.rank:
        raise DomainError(f"weight length {len(weight)} != rank {datum.rank}")
    if not roots.is_levi_dominant(pb, weight):
        raise DomainError(f"{roots.format_weight(weight)} is not Levi-dominant on {pb}")
    cartan = roots.cartan_matrix(datum)
    bound = len(roots.positive_roots(datum))
    v = tuple(map(operator.add, weight, roots.rho(datum)))
    for steps in range(bound + 1):
        if 0 in v:
            return _ZERO
        i = None
        if choose_node is None:
            for k, c in enumerate(v):
                if c < 0:
                    i = k
                    break
        else:
            negatives = [k + 1 for k, c in enumerate(v) if c < 0]
            if negatives:
                node = choose_node(negatives)
                if node not in negatives:
                    raise DomainError("choose_node must return a strictly negative node")
                i = node - 1
        if i is None:
            mu = tuple(c - 1 for c in v)
            return Cohomology(steps, mu, weyl_dim(datum, mu))
        c = v[i]
        v = tuple([x - c * r for x, r in zip(v, cartan[i])])
    raise InternalConsistencyError("reflection walk exceeded |positive roots|")
