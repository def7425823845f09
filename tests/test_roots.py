import random
from fractions import Fraction as Q

import pytest

from homcoh import roots
from homcoh.roots import B4, B4_Q4, D5, D5_P4, InvalidDatum, LieDatum, Parabolic

# Orthonormal-coordinate tables for the two data in play; the tests expand
# everything from these independently of the library's own generator.
D5_SIMPLE = [
    (1, -1, 0, 0, 0),
    (0, 1, -1, 0, 0),
    (0, 0, 1, -1, 0),
    (0, 0, 0, 1, -1),
    (0, 0, 0, 1, 1),
]
B4_SIMPLE = [
    (1, -1, 0, 0),
    (0, 1, -1, 0),
    (0, 0, 1, -1),
    (0, 0, 0, 1),
]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _oracle_cartan(simple):
    return tuple(
        tuple(2 * Q(_dot(a, b), _dot(b, b)) for b in simple) for a in simple
    )


def _simple_eps(family, n):
    # Bourbaki's simple roots: e_i - e_{i+1}, then e_n (B), 2 e_n (C),
    # e_{n-1} + e_n (D), or e_n - e_{n+1} in the n + 1 coordinates of type A.
    dim = n + 1 if family == "A" else n

    def vec(*entries):
        v = [0] * dim
        for i, c in entries:
            v[i] += c
        return tuple(v)

    last = {
        "A": ((n - 1, 1), (n, -1)),
        "B": ((n - 1, 1),),
        "C": ((n - 1, 2),),
        "D": ((n - 2, 1), (n - 1, 1)),
    }[family]
    return [vec((i, 1), (i + 1, -1)) for i in range(n - 1)] + [vec(*last)]


ORACLE_DATA = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(3, 7)]
)


def test_cartan_matrix_matches_epsilon_oracle():
    assert _simple_eps("D", 5) == D5_SIMPLE and _simple_eps("B", 4) == B4_SIMPLE
    for family, n in ORACLE_DATA:
        datum = LieDatum(family, n)
        assert roots.cartan_matrix(datum) == _oracle_cartan(_simple_eps(family, n)), datum


def test_weyl_rows_match_epsilon_oracle():
    # Row c_k |alpha_k|^2 of beta = sum c_k alpha_k: dividing by the norms of
    # this file's simple roots and expanding must give each classical
    # positive root once.
    for family, n in ORACLE_DATA:
        simple = _simple_eps(family, n)
        norms = [_dot(a, a) for a in simple]
        rows = roots.weyl_rows(LieDatum(family, n))
        assert all(r % d == 0 for row in rows for r, d in zip(row, norms))
        expanded = [
            tuple(sum(r // d * a[k] for r, d, a in zip(row, norms, simple)) for k in range(len(simple[0])))
            for row in rows
        ]
        assert len(set(expanded)) == len(expanded)
        assert set(expanded) == _eps_positive_roots(family, n), (family, n)


def test_cartan_d5_third_row():
    assert roots.cartan_matrix(D5)[2] == (0, -1, 2, -1, -1)


def test_cartan_b4_orientation():
    # row 3 must reproduce the doubled entry at the short node
    assert roots.cartan_matrix(B4)[2] == (0, -1, 2, -2)
    assert roots.cartan_matrix(B4)[3] == (0, 0, -1, 2)


def test_cartan_a1():
    assert roots.cartan_matrix(LieDatum("A", 1)) == ((2,),)


def _d5_reflection_table(i, a):
    # The five reflections written out coefficientwise.  The second row
    # carries the a2-term on the third node forced by the Dynkin adjacency
    # (dropping it breaks the canonical-bundle walk).
    a1, a2, a3, a4, a5 = a
    return [
        (-a1, a2 + a1, a3, a4, a5),
        (a1 + a2, -a2, a3 + a2, a4, a5),
        (a1, a2 + a3, -a3, a4 + a3, a5 + a3),
        (a1, a2, a3 + a4, -a4, a5),
        (a1, a2, a3 + a5, a4, -a5),
    ][i - 1]


def _b4_reflection_table(i, b):
    b1, b2, b3, b4 = b
    return [
        (-b1, b2 + b1, b3, b4),
        (b1 + b2, -b2, b3 + b2, b4),
        (b1, b2 + b3, -b3, b4 + 2 * b3),
        (b1, b2, b3 + b4, -b4),
    ][i - 1]


def test_reflection_tables_on_random_vectors():
    rng = random.Random(7)
    for _ in range(120):
        a = tuple(rng.randint(-9, 9) for _ in range(5))
        for i in range(1, 6):
            assert roots.simple_reflection(D5, i, a) == _d5_reflection_table(i, a)
        b = tuple(rng.randint(-9, 9) for _ in range(4))
        for i in range(1, 5):
            assert roots.simple_reflection(B4, i, b) == _b4_reflection_table(i, b)


def test_reflections_are_involutions():
    rng = random.Random(11)
    for datum in (D5, B4, LieDatum("A", 3), LieDatum("C", 4)):
        for _ in range(60):
            w = tuple(rng.randint(-6, 6) for _ in range(datum.rank))
            for i in range(1, datum.rank + 1):
                assert roots.simple_reflection(datum, i, roots.simple_reflection(datum, i, w)) == w
                if w[i - 1] == 0:
                    assert roots.simple_reflection(datum, i, w) == w


def test_omega_eps_roundtrip_is_exact():
    rng = random.Random(3)
    for datum in (D5, B4, LieDatum("A", 4), LieDatum("C", 3), LieDatum("B", 2)):
        for _ in range(80):
            w = tuple(rng.randint(-7, 7) for _ in range(datum.rank))
            assert roots.eps_to_omega(datum, roots.omega_to_eps(datum, w)) == w


def test_spin_weights_have_denominator_two():
    eps = roots.omega_to_eps(D5, (0, 0, 0, 1, 0))
    assert eps == (Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2), Q(-1, 2))
    eps5 = roots.omega_to_eps(D5, (0, 0, 0, 0, 1))
    assert eps5 == (Q(1, 2),) * 5
    nu4 = roots.omega_to_eps(B4, (0, 0, 0, 1))
    assert nu4 == (Q(1, 2),) * 4


def test_positive_root_counts():
    assert len(roots.positive_roots_eps(D5)) == 20
    assert len(roots.positive_roots_eps(B4)) == 16


def test_positive_roots_dominant_conjugates():
    for datum in (D5, B4):
        for root in roots.positive_roots_eps(datum):
            w = roots.eps_to_omega(datum, root)
            dom, _ = roots.dominant_conjugate(datum, w)
            assert roots.is_dominant(dom)


def test_rho_and_dominance():
    assert roots.rho(D5) == (1, 1, 1, 1, 1)
    assert roots.rho(B4) == (1, 1, 1, 1)
    assert roots.rho(LieDatum("A", 1)) == (1,)
    assert roots.is_dominant((1, 0, 0, 0, 0))
    assert not roots.is_dominant((0, 0, 1, -2, 0))
    assert roots.is_dominant((0, 0, 0, 0, 0))


def test_dualize_levi_examples():
    assert roots.dualize_levi(D5_P4, (1, 0, 0, 0, 0)) == (0, 0, 0, -1, 1)
    assert roots.dualize_levi(B4_Q4, (1, 0, 0, 0)) == (0, 0, 1, -2)
    assert roots.dualize_levi(D5_P4, (0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0)


def test_dualize_levi_involution():
    rng = random.Random(23)
    for pb in (D5_P4, B4_Q4):
        for _ in range(100):
            w = tuple(
                rng.randint(0, 5) if i + 1 != pb.marked[0] else rng.randint(-5, 5)
                for i in range(pb.rank)
            )
            v = roots.dualize_levi(pb, w)
            assert roots.is_levi_dominant(pb, v)
            assert roots.dualize_levi(pb, v) == w


def test_dualize_levi_rejects_bad_input():
    with pytest.raises(roots.DomainError):
        roots.dualize_levi(D5_P4, (-1, 0, 0, 0, 0))


def _oracle_canonical(pb, simple):
    # independent expansion: sum positive roots whose simple-root coordinates
    # touch a marked node, using exact elimination over the hardcoded tables
    datum = pb.datum
    total = [Q(0)] * len(simple[0])
    for root in roots.positive_roots_eps(datum):
        gram = [[Q(_dot(simple[k], simple[j])) for k in range(datum.rank)] for j in range(datum.rank)]
        rhs = [Q(_dot(root, simple[j])) for j in range(datum.rank)]
        coords = roots._solve_exact(gram, rhs)
        if any(coords[m - 1] != 0 for m in pb.marked):
            for k in range(len(total)):
                total[k] += root[k]
    return roots.eps_to_omega(datum, tuple(-t for t in total))


def test_canonical_weights():
    assert roots.canonical_weight(D5_P4) == (0, 0, 0, -8, 0)
    assert roots.canonical_weight(B4_Q4) == (0, 0, 0, -8)
    assert roots.canonical_weight(D5_P4) == _oracle_canonical(D5_P4, D5_SIMPLE)
    assert roots.canonical_weight(B4_Q4) == _oracle_canonical(B4_Q4, B4_SIMPLE)
    assert roots.canonical_weight(Parabolic(LieDatum("A", 1), (1,))) == (-2,)


def test_homogeneous_dimension():
    assert roots.homogeneous_dimension(D5_P4) == 10
    assert roots.homogeneous_dimension(B4_Q4) == 10
    assert roots.homogeneous_dimension(Parabolic(LieDatum("A", 1), (1,))) == 1


def test_invalid_data_rejected():
    with pytest.raises(InvalidDatum):
        LieDatum("E", 6)
    with pytest.raises(InvalidDatum):
        LieDatum("D", 2)
    with pytest.raises(InvalidDatum):
        LieDatum("A", 0)
    with pytest.raises(InvalidDatum):
        Parabolic(D5, (6,))
    with pytest.raises(InvalidDatum):
        Parabolic(D5, ())


def test_dual_weight_swaps_spin_nodes():
    assert roots.dual_weight(D5, (0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)
    assert roots.dual_weight(D5, (0, 0, 0, 0, 1)) == (0, 0, 0, 1, 0)
    assert roots.dual_weight(D5, (1, 0, 0, 0, 0)) == (1, 0, 0, 0, 0)
    assert roots.dual_weight(B4, (0, 1, 0, 1)) == (0, 1, 0, 1)


def _eps_positive_roots(family, n):
    # The classical positive roots written out: e_i - e_j and, outside type A,
    # e_i + e_j, plus e_i (type B) or 2 e_i (type C).
    dim = n + 1 if family == "A" else n

    def vec(*entries):
        v = [0] * dim
        for i, c in entries:
            v[i] += c
        return tuple(v)

    out = {vec((i, 1), (j, -1)) for i in range(dim) for j in range(i + 1, dim)}
    if family != "A":
        out |= {vec((i, 1), (j, 1)) for i in range(n) for j in range(i + 1, n)}
    if family == "B":
        out |= {vec((i, 1)) for i in range(n)}
    if family == "C":
        out |= {vec((i, 2)) for i in range(n)}
    return out


A4_SIMPLE = [(1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1)]
C3_SIMPLE = [(1, -1, 0), (0, 1, -1), (0, 0, 2)]


def test_positive_roots_match_epsilon_enumeration():
    # positive_roots grows the roots from the Cartan matrix alone; expanded
    # over this file's own simple roots they must be the classical list.
    cases = (("A", 4, A4_SIMPLE), ("B", 4, B4_SIMPLE), ("C", 3, C3_SIMPLE), ("D", 5, D5_SIMPLE))
    for family, n, simple in cases:
        coords = roots.positive_roots(LieDatum(family, n))
        assert all(c >= 0 for beta in coords for c in beta)
        dim = len(simple[0])
        expanded = [tuple(sum(c * a[k] for c, a in zip(beta, simple)) for k in range(dim)) for beta in coords]
        assert len(set(expanded)) == len(expanded)
        assert set(expanded) == _eps_positive_roots(family, n)
        assert set(roots.positive_roots_eps(LieDatum(family, n))) == _eps_positive_roots(family, n)


def test_weight_format_stays_behind_roots_and_levi():
    # Weights are integer omega-vectors; the Fraction view lives in roots and
    # levi only, so the layers above never build a Fraction.
    import ast
    import inspect

    from homcoh import bbw, bundles, ext, mutations

    for module in (bbw, bundles, ext, mutations):
        tree = ast.parse(inspect.getsource(module))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "fractions" not in imported, module.__name__


def test_equal_parabolics_are_one_key_and_data_keep_their_order():
    datum = LieDatum("D", 5)
    assert datum is not D5 and datum == D5 and hash(datum) == hash(D5)
    pb = Parabolic(datum, (4,))
    assert pb is not D5_P4 and pb == D5_P4 and hash(pb) == hash(D5_P4)
    assert {D5_P4: "P4"}[pb] == "P4"
    assert len({D5_P4, Parabolic(D5, (5,)), Parabolic(D5, (4, 5)), B4_Q4}) == 4
    assert sorted([D5, B4, LieDatum("A", 4), LieDatum("B", 2)]) == [
        LieDatum("A", 4), LieDatum("B", 2), B4, D5,
    ]
    assert pb.unmarked() == (1, 2, 3, 5)
    assert Parabolic(D5, (1, 4)).unmarked() == (2, 3, 5)
    assert B4_Q4.unmarked() == (1, 2, 3)
