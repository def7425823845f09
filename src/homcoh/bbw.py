"""The Borel-Bott-Weil algorithm and the Weyl dimension formula.

Cohomology of an irreducible homogeneous bundle is a single irreducible
representation of the full group concentrated in a single degree, or zero.
The degree is the number of simple reflections needed to move the
rho-shifted weight into the strictly dominant chamber; a zero coefficient
anywhere along the way kills all cohomology.
"""

from __future__ import annotations

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
def weyl_dim(datum: LieDatum, mu: Weight) -> int:
    """Exact dimension of the irreducible module with dominant highest weight mu.

    Weyl's product over the positive roots beta of (mu + rho, beta) / (rho, beta),
    taken on the integer rows of roots.weyl_rows.
    """
    if not roots.is_dominant(mu):
        raise DomainError(f"{roots.format_weight(mu)} is not dominant")
    num, den = 1, 1
    for row in roots.weyl_rows(datum):
        num *= sum(r * (m + 1) for r, m in zip(row, mu))
        den *= sum(row)
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

    @staticmethod
    def zero() -> "Cohomology":
        return Cohomology(None, None, 0)

    def __repr__(self) -> str:
        if self.vanishes:
            return "0"
        return f"V{roots.format_weight(self.weight)} @ {self.degree} (dim {self.dim})"


def bbw_cohomology(
    pb: Parabolic,
    weight: Weight,
    choose_node: Optional[Callable[[list[int]], int]] = None,
) -> Cohomology:
    """Run the reflection walk on weight + rho.

    `choose_node` picks which strictly negative node to reflect at when
    several are available; the result is independent of the choice (the
    default takes the smallest index).
    """
    datum = pb.datum
    if len(weight) != datum.rank:
        raise DomainError(f"weight length {len(weight)} != rank {datum.rank}")
    if not roots.is_levi_dominant(pb, weight):
        raise DomainError(f"{roots.format_weight(weight)} is not Levi-dominant on {pb}")
    v = tuple(w + r for w, r in zip(weight, roots.rho(datum)))
    steps = 0
    bound = len(roots.positive_roots(datum))
    while True:
        if any(c == 0 for c in v):
            return Cohomology.zero()
        negatives = [i + 1 for i, c in enumerate(v) if c < 0]
        if not negatives:
            mu = tuple(c - 1 for c in v)
            return Cohomology(steps, mu, weyl_dim(datum, mu))
        node = negatives[0] if choose_node is None else choose_node(negatives)
        if node not in negatives:
            raise DomainError("choose_node must return a strictly negative node")
        v = roots.simple_reflection(datum, node, v)
        steps += 1
        if steps > bound:
            raise InternalConsistencyError("reflection walk exceeded |positive roots|")
