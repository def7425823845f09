import itertools
import random
from fractions import Fraction as Q

import pytest

from homcoh import bbw, roots
from homcoh.bbw import bbw_cohomology, weyl_dim
from homcoh.roots import B4, B4_Q4, D5, D5_P4, LieDatum, Parabolic


def test_weyl_dim_vector_and_spinors():
    assert weyl_dim(D5, (1, 0, 0, 0, 0)) == 10
    assert weyl_dim(D5, (0, 0, 0, 1, 0)) == 16
    assert weyl_dim(D5, (0, 0, 0, 0, 1)) == 16
    assert weyl_dim(B4, (1, 0, 0, 0)) == 9
    assert weyl_dim(B4, (0, 0, 0, 1)) == 16
    assert weyl_dim(D5, (0, 0, 0, 0, 0)) == 1


def test_weyl_dim_sym_square_oracle():
    # Sym^2 of the 10-dimensional vector representation splits off one
    # invariant line; enumerate the symmetric square directly as the oracle.
    sym2 = len(list(itertools.combinations_with_replacement(range(10), 2)))
    assert sym2 == 55
    assert weyl_dim(D5, (2, 0, 0, 0, 0)) == sym2 - 1


def test_weyl_dim_wedge_oracle():
    assert weyl_dim(D5, (0, 1, 0, 0, 0)) == len(list(itertools.combinations(range(10), 2)))
    assert weyl_dim(D5, (0, 0, 1, 0, 0)) == len(list(itertools.combinations(range(10), 3)))


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(roots.DomainError):
        weyl_dim(D5, (0, 0, 1, -2, 0))


def test_walkthrough_degree_one():
    coh = bbw_cohomology(D5_P4, (0, 0, 1, -2, 0))
    assert (coh.degree, coh.weight, coh.dim) == (1, (0, 0, 0, 0, 0), 1)


def test_tautological_sub_has_no_cohomology():
    assert bbw_cohomology(D5_P4, (0, 0, 0, -1, 1)).vanishes


def test_rank4_walkthrough():
    coh = bbw_cohomology(B4_Q4, (0, 0, 1, -2))
    assert (coh.degree, coh.weight, coh.dim) == (1, (0, 0, 0, 0), 1)
    assert bbw_cohomology(B4_Q4, (1, 1, 0, -2)).vanishes


def test_dominant_stays_in_degree_zero():
    rng = random.Random(5)
    for _ in range(50):
        w = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4), 0, rng.randint(0, 4))
        coh = bbw_cohomology(D5_P4, w)
        assert coh.degree == 0 and coh.weight == w


def test_canonical_walk_lands_in_top_degree():
    for pb, w in ((D5_P4, (0, 0, 0, -8, 0)), (B4_Q4, (0, 0, 0, -8))):
        coh = bbw_cohomology(pb, w)
        assert coh.degree == 10 and coh.dim == 1
        assert all(c == 0 for c in coh.weight)


def test_degree_bounded_by_positive_roots():
    rng = random.Random(9)
    for _ in range(300):
        w = tuple(rng.randint(-8, 8) if i == 3 else rng.randint(0, 8) for i in range(5))
        coh = bbw_cohomology(D5_P4, w)
        if not coh.vanishes:
            assert 0 <= coh.degree <= 20


def test_levi_dominance_required():
    with pytest.raises(roots.DomainError):
        bbw_cohomology(D5_P4, (-1, 0, 0, 0, 0))
    with pytest.raises(roots.DomainError):
        bbw_cohomology(D5_P4, (0, 0, 0))


def _random_levi_dominant(rng, pb, bound):
    return tuple(
        rng.randint(0, bound) if i + 1 != pb.marked[0] else rng.randint(-bound, bound)
        for i in range(pb.rank)
    )


def test_node_choice_independence_sample():
    rng = random.Random(17)
    for pb in (D5_P4, B4_Q4):
        for _ in range(200):
            w = _random_levi_dominant(rng, pb, 8)
            base = bbw_cohomology(pb, w)
            pick = random.Random(rng.randint(0, 10**6))
            alt = _reference_walk(pb, w, choose_node=lambda neg: pick.choice(neg))
            assert (base.degree, base.weight, base.dim) == alt


def test_serre_duality_sample():
    rng = random.Random(29)
    canonical = roots.canonical_weight(D5_P4)
    for _ in range(120):
        w = _random_levi_dominant(rng, D5_P4, 6)
        a = bbw_cohomology(D5_P4, w)
        dual_w = tuple(x + y for x, y in zip(roots.dualize_levi(D5_P4, w), canonical))
        b = bbw_cohomology(D5_P4, dual_w)
        if a.vanishes:
            assert b.vanishes
        else:
            assert b.degree == 10 - a.degree
            assert b.weight == roots.dual_weight(D5, a.weight)
            assert b.dim == a.dim


def test_twist_in_the_ample_direction_preserves_sections():
    rng = random.Random(41)
    for _ in range(60):
        w = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        for k in range(4):
            tw = tuple(c + (k if i == 3 else 0) for i, c in enumerate(w))
            assert bbw_cohomology(D5_P4, tw).degree == 0


# Epsilon-coordinate tables, written out independently of homcoh.roots: the
# fundamental weights (partial sums of e_i, halved spin weights for B and D;
# type A in GL coordinates, which Weyl's product does not distinguish from
# the trace-free ones) and the classical positive roots.
def _eps_tables(family, n):
    dim = n + 1 if family == "A" else n
    omegas = [[Q(int(k <= j)) for k in range(dim)] for j in range(n)]
    if family == "B":
        omegas[n - 1] = [Q(1, 2)] * n
    if family == "D":
        omegas[n - 2] = [Q(1, 2)] * (n - 1) + [Q(-1, 2)]
        omegas[n - 1] = [Q(1, 2)] * n
    pos = []
    for i in range(dim):
        for j in range(i + 1, dim):
            pos.append([int(k == i) - int(k == j) for k in range(dim)])
            if family != "A":
                pos.append([int(k == i) + int(k == j) for k in range(dim)])
    if family in "BC":
        pos += [[(1 if family == "B" else 2) * int(k == i) for k in range(dim)] for i in range(n)]
    return omegas, pos


def test_weyl_dim_matches_epsilon_product_oracle():
    for family, n in (("D", 5), ("B", 4), ("A", 3), ("C", 3)):
        omegas, pos = _eps_tables(family, n)
        datum = LieDatum(family, n)
        for mu in itertools.product(range(3), repeat=n):
            shifted = [sum((m + 1) * w[k] for m, w in zip(mu, omegas)) for k in range(len(omegas[0]))]
            rho = [sum(w[k] for w in omegas) for k in range(len(omegas[0]))]
            val = Q(1)
            for beta in pos:
                val *= sum(x * b for x, b in zip(shifted, beta)) / sum(x * b for x, b in zip(rho, beta))
            assert bbw.weyl_dim(datum, mu) == val, (datum, mu)



def test_weights_of_the_wrong_length_are_domain_errors():
    for w in ((1, 0, 0, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(roots.DomainError, match=f"^weight length {len(w)} != rank 5$"):
            weyl_dim(D5, w)


def _reflect(datum, i, w):
    # s_i(w) = w - w_i alpha_i, alpha_i in the omega basis being row i of the
    # Cartan matrix (the hand-written D5 and B4 tables of test_roots check them).
    row = roots.cartan_matrix(datum)[i - 1]
    return tuple(a - w[i - 1] * r for a, r in zip(w, row))


def _reference_walk(pb, weight, choose_node=None):
    # The walk as it was before it read rho and the Cartan matrix once per
    # call: one reflection per step, which reads its row anew.
    datum = pb.datum
    v = tuple(w + r for w, r in zip(weight, roots.rho(datum)))
    steps = 0
    while True:
        if any(c == 0 for c in v):
            return None, None, 0
        negatives = [i + 1 for i, c in enumerate(v) if c < 0]
        if not negatives:
            mu = tuple(c - 1 for c in v)
            return steps, mu, weyl_dim(datum, mu)
        node = negatives[0] if choose_node is None else choose_node(negatives)
        v = _reflect(datum, node, v)
        steps += 1


WALK_BOXES = (
    (D5_P4, -10), (B4_Q4, -9),
    (Parabolic(LieDatum("A", 3), (2,)), -6), (Parabolic(LieDatum("C", 3), (3,)), -7),
    (Parabolic(LieDatum("B", 2), (1,)), -6), (Parabolic(LieDatum("D", 4), (1,)), -9),
)


def _box(pb, low):
    # Every Levi-dominant weight with unmarked coordinates in 0..2 and the
    # marked one in low..2: the walks from no step up to dim G/P steps.
    ranges = [range(low, 3) if i + 1 in pb.marked else range(3) for i in range(pb.rank)]
    return itertools.product(*ranges)


def test_walk_matches_the_reference_walk_on_a_box():
    rng = random.Random(23)
    for pb, low in WALK_BOXES:
        degrees = set()
        for w in _box(pb, low):
            expected = _reference_walk(pb, w)
            coh = bbw_cohomology(pb, w)
            assert (coh.degree, coh.weight, coh.dim) == expected, (pb, w)
            assert _reference_walk(pb, w, choose_node=rng.choice) == expected, (pb, w)
            degrees.add(coh.degree)
        dim = sum(any(beta[i - 1] for i in pb.marked) for beta in roots.positive_roots(pb.datum))
        assert {None, 0, dim} <= degrees, pb


def test_walk_reads_rho_and_the_cartan_matrix_once_per_call(monkeypatch):
    calls = []
    for name in ("rho", "cartan_matrix"):
        real = getattr(roots, name)

        def counted(datum, real=real, name=name):
            calls.append(name)
            return real(datum)

        monkeypatch.setattr(roots, name, counted)
    coh = bbw_cohomology(D5_P4, (0, 0, 0, -8, 0))
    assert coh.degree == 10
    assert sorted(calls) == ["cartan_matrix", "rho"]

