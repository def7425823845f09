"""The Borel-Bott-Weil algorithm and the Weyl dimension formula.

Cohomology of an irreducible homogeneous bundle is a single irreducible
representation of the full group concentrated in a single degree, or zero.
The degree is the number of simple reflections needed to move the
rho-shifted weight into the dominant chamber, by the one descent of
roots.dominant_conjugate; a weight on a wall stays on one along the walk,
so a zero coefficient at its end kills all cohomology.

So, by Bott's theorem, the Euler characteristic of the bundle of any
integral weight lam is Weyl's dimension polynomial at lam, the product
over the positive roots beta of (lam + rho, beta) / (rho, beta): a
reflection of lam + rho flips the sign of the product, and it vanishes on
a wall (Bott, Ann. Math. 1957; Fulton-Harris, Lecture 24).
euler_characteristic computes it with no walk, and weyl_dim is the same
polynomial at a dominant weight.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from . import roots
from .roots import Frozen, InternalConsistencyError, LieDatum, Parabolic, Weight


def _root_product(steps: tuple[tuple[int, int], ...], values: list[int]) -> int:
    # values holds 2 (lam, alpha_k) per simple root alpha_k; each step appends
    # the value of the next positive root, a lower root's plus a simple root's.
    append = values.append
    for lower, k in steps:
        append(values[lower] + values[k])
    return math.prod(values)


@lru_cache(maxsize=None)
def _weyl_table(datum: LieDatum) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]:
    """The recurrence of Weyl's polynomial over the positive roots of datum.

    2 (lam, beta) is linear in beta, and a positive root beta of height more
    than 1 is a lower positive root plus a simple root alpha_k.  Values are
    indexed with the simple roots first, by k, then the other roots in
    roots.positive_roots' order (by height).  Returns one step (index of the
    lower root, k) per root of height more than 1; the norms |alpha_k|^2 =
    2 (omega_k, alpha_k), so that 2 (lam, alpha_k) = |alpha_k|^2 lam_k; and
    the denominator, the product of the values at lam = rho.
    """
    pos = roots.positive_roots(datum)
    n = datum.rank
    index = {}
    steps = []
    for j, beta in enumerate(pos):
        if j < n:  # height 1: the simple roots
            index[beta] = beta.index(1)
            continue
        index[beta] = j
        for k, c in enumerate(beta):
            lower = index.get(beta[:k] + (c - 1,) + beta[k + 1 :]) if c else None
            if lower is not None:
                steps.append((lower, k))
                break
    # |alpha_k|^2 is 2, but for the last simple root of B (e_n) and C (2 e_n).
    norms = (2,) * (n - 1) + ({"B": 1, "C": 4}.get(datum.family, 2),)
    steps = tuple(steps)
    return steps, norms, _root_product(steps, list(norms))


def _weyl_polynomial(datum: LieDatum, lam: Weight) -> int:
    # Weyl's product over the positive roots beta of (lam + rho, beta) / (rho,
    # beta), each 2 (lam + rho, beta) from a lower root's by the recurrence of
    # _weyl_table.
    steps, norms, den = _weyl_table(datum)
    value, rest = divmod(_root_product(steps, [d * (m + 1) for d, m in zip(norms, lam)]), den)
    if rest:
        raise InternalConsistencyError("Weyl's polynomial is not an integer")
    return value


def euler_characteristic(datum: LieDatum, weight: Weight) -> int:
    """The Euler characteristic of the irreducible homogeneous bundle of any
    integral weight: Weyl's dimension polynomial there (see the module
    docstring), (-1)^degree dim of its BBW cohomology, 0 on a wall."""
    roots.check_weight(datum, weight)
    return _weyl_polynomial(datum, weight)


@lru_cache(maxsize=None)
def weyl_dim(datum: LieDatum, mu: Weight) -> int:
    """Exact dimension of the irreducible module with dominant highest weight
    mu: Weyl's polynomial at mu, as euler_characteristic computes it."""
    roots.check_dominant(datum, mu)
    dim = _weyl_polynomial(datum, mu)
    if dim <= 0:
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
