"""The Borel-Bott-Weil algorithm and the Weyl dimension formula.

Cohomology of an irreducible homogeneous bundle is a single irreducible
representation of the full group concentrated in a single degree, or zero.
The degree is the number of simple reflections needed to move the
rho-shifted weight into the dominant chamber, by the one descent of
roots.dominant_conjugate; a weight on a wall stays on one along the walk,
so a zero coefficient at its end kills all cohomology.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from . import roots
from .roots import Frozen, InternalConsistencyError, LieDatum, Parabolic, Weight


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
    roots.check_dominant(datum, mu)
    rows, den = _weyl_table(datum)
    shifted = [m + 1 for m in mu]
    num = 1
    for row in rows:
        num *= sum(map(operator.mul, row, shifted))
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise InternalConsistencyError("Weyl dimension is not a positive integer")
    return dim


class Cohomology(Frozen):
    """Either no cohomology at all, or one representation in one degree."""

    _fields = ("degree", "weight", "dim")

    def __init__(self, degree: int | None, weight: Weight | None, dim: int) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "dim", dim)

    @property
    def vanishes(self) -> bool:
        return self.degree is None

    def __repr__(self) -> str:
        if self.vanishes:
            return "0"
        return f"V{roots.format_weight(self.weight)} @ {self.degree} (dim {self.dim})"


# The one vanishing answer, shared: a Cohomology is Frozen, so no caller can change it.
_ZERO = Cohomology(None, None, 0)


def bbw_cohomology(pb: Parabolic, weight: Weight) -> Cohomology:
    """The walk of weight + rho to its dominant conjugate; see the module docstring."""
    roots.check_levi_dominant(pb, weight)
    datum = pb.datum
    v, steps = roots.dominant_conjugate(datum, tuple(map(operator.add, weight, roots.rho(datum))))
    if 0 in v:
        return _ZERO
    mu = tuple(c - 1 for c in v)
    return Cohomology(steps, mu, weyl_dim(datum, mu))
