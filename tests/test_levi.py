import random
from fractions import Fraction as Q

import pytest

from homcoh import bbw, levi, roots
from homcoh.roots import B4, B4_Q4, D5, D5_P4, LieDatum, Parabolic


def test_lr_pinned_gl3_adjoint_square():
    # s_{21} * s_{21} in three rows: the classical 8 (x) 8 pattern
    assert dict(levi.lr_multiply((2, 1), (2, 1), 3)) == {
        (2, 2, 2): 1,
        (3, 2, 1): 2,
        (3, 3): 1,
        (4, 1, 1): 1,
        (4, 2): 1,
    }


def test_lr_pieri_column():
    assert dict(levi.lr_multiply((1,), (1, 1), 5)) == {(2, 1): 1, (1, 1, 1): 1}


def test_tensor_examples():
    w1 = (1, 0, 0, 0, 0)
    assert levi.tensor_decompose(D5_P4, w1, w1) == {(2, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 1}
    # stated with an out-of-range node index in one source line; node 4 forced
    assert levi.tensor_decompose(B4_Q4, (0, 1, 0, 0), (1, 0, 0, 0)) == {
        (1, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
    }
    lam = (2, 0, 1, -3, 0)
    assert levi.tensor_decompose(D5_P4, lam, (0, 0, 0, 0, 0)) == {lam: 1}


def _random_levi_dominant(rng, pb, bound=3):
    return tuple(
        rng.randint(0, bound) if i + 1 != pb.marked[0] else rng.randint(-bound, bound)
        for i in range(pb.rank)
    )


def test_tensor_commutative_and_dimensional():
    rng = random.Random(13)
    for pb in (D5_P4, B4_Q4):
        for _ in range(30):
            a = _random_levi_dominant(rng, pb)
            b = _random_levi_dominant(rng, pb)
            dec = levi.tensor_decompose(pb, a, b)
            assert dec == levi.tensor_decompose(pb, b, a)
            total = sum(m * levi.levi_dim(pb, w) for w, m in dec.items())
            assert total == levi.levi_dim(pb, a) * levi.levi_dim(pb, b)


def test_tensor_self_duality():
    rng = random.Random(19)
    for pb in (D5_P4, B4_Q4):
        for _ in range(25):
            a = _random_levi_dominant(rng, pb)
            b = _random_levi_dominant(rng, pb)
            dec = levi.tensor_decompose(pb, a, b)
            dual_dec = levi.tensor_decompose(
                pb, roots.dualize_levi(pb, a), roots.dualize_levi(pb, b)
            )
            remapped = {}
            for w, m in dec.items():
                remapped[roots.dualize_levi(pb, w)] = m
            assert remapped == dual_dec


def test_schur_power_weights():
    assert levi.wedge_power(D5_P4, 4) == (0, 0, 0, 1, 1)
    assert levi.wedge_power(D5_P4, 5) == (0, 0, 0, 2, 0)  # the determinant twist
    assert levi.sym_power(B4_Q4, 3) == (3, 0, 0, 0)
    assert levi.sym_power(D5_P4, 0) == (0, 0, 0, 0, 0)
    assert levi.wedge_power(B4_Q4, 4) == (0, 0, 0, 2)
    with pytest.raises(roots.DomainError):
        levi.wedge_power(D5_P4, 6)
    with pytest.raises(roots.DomainError):
        levi.sym_power(D5_P4, -1)


def test_sym_plus_wedge_matches_square():
    w1 = (1, 0, 0, 0, 0)
    square = levi.tensor_decompose(D5_P4, w1, w1)
    pieces = {levi.sym_power(D5_P4, 2): 1, levi.wedge_power(D5_P4, 2): 1}
    assert square == pieces


def test_branching_examples():
    assert levi.branch_d5_to_b4((1, 0, 0, 0, 0)) == {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}
    assert levi.branch_d5_to_b4((0, 0, 0, 1, 0)) == {(0, 0, 0, 1): 1}
    assert levi.branch_d5_to_b4((0, 0, 0, 0, 1)) == {(0, 0, 0, 1): 1}
    assert levi.branch_d5_to_b4((0, 0, 0, 0, 0)) == {(0, 0, 0, 0): 1}


def test_branching_preserves_dimension_small_cases():
    # exhaustive over coefficients <= 2 in the first four nodes, <= 1 in the last
    for a in range(3):
        for b in range(2):
            for c in range(2):
                for d in range(3):
                    for e in range(2):
                        mu = (a, b, c, d, e)
                        total = sum(
                            m * bbw.weyl_dim(B4, nu)
                            for nu, m in levi.branch_d5_to_b4(mu).items()
                        )
                        assert total == bbw.weyl_dim(D5, mu), mu


def test_branching_rejects_non_dominant():
    with pytest.raises(roots.DomainError):
        levi.branch_d5_to_b4((0, 0, 1, -2, 0))


def test_invariant_multiplicity_examples():
    V_w1 = ((D5, (1, 0, 0, 0, 0)),)
    triv_b4 = ((B4, (0, 0, 0, 0)),)
    assert levi.invariant_multiplicity({1: {V_w1: 1}}) == {1: 1}
    assert levi.invariant_multiplicity({1: {triv_b4: 1}}) == {1: 1}
    assert levi.invariant_multiplicity({0: {(): 1}}) == {0: 1}
    assert levi.invariant_multiplicity({}) == {}
    # the 16-dimensional spin representation has no invariants
    assert levi.invariant_multiplicity({0: {((D5, (0, 0, 0, 1, 0)),): 1}}) == {}
    # a formal pair has invariants equal to the branched overlap
    pair = ((D5, (0, 0, 0, 1, 0)), (D5, (0, 0, 0, 0, 1)))
    assert levi.invariant_multiplicity({2: {pair: 1}}) == {2: 1}


def test_unsupported_levi_rejected():
    with pytest.raises(levi.UnsupportedLevi):
        levi.tensor_decompose(Parabolic(LieDatum("D", 5), (1,)), (0, 1, 0, 0, 0), (0, 1, 0, 0, 0))
    with pytest.raises(levi.UnsupportedLevi):
        levi.sym_power(Parabolic(LieDatum("B", 4), (2,)), 2)


def test_gl_vector_roundtrip():
    rng = random.Random(31)
    for pb in (D5_P4, B4_Q4):
        for _ in range(50):
            w = _random_levi_dominant(rng, pb, 5)
            assert levi.from_gl(pb, levi.to_gl(pb, w)) == w


def test_to_gl_is_the_epsilon_view():
    # The Levi GL vector is the epsilon vector, with D5's last entry negated.
    rng = random.Random(37)
    for pb in (D5_P4, B4_Q4):
        for _ in range(80):
            w = _random_levi_dominant(rng, pb, 6)
            eps = roots.omega_to_eps(pb.datum, w)
            want = eps[:4] + (-eps[4],) if pb == D5_P4 else eps
            assert levi.to_gl(pb, w) == want


def test_from_gl_rejects_off_lattice_vectors():
    with pytest.raises(roots.InternalConsistencyError):
        levi.from_gl(D5_P4, (Q(1, 4),) * 5)
    with pytest.raises(roots.InternalConsistencyError):
        levi.from_gl(B4_Q4, (Q(3, 4), Q(1, 4), Q(1, 4), Q(1, 4)))
    with pytest.raises(roots.InternalConsistencyError):
        levi.from_gl(B4_Q4, (Q(1), Q(1, 2), Q(1, 2), Q(1, 2)))  # entries not congruent mod 1
