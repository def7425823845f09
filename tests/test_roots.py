import ast
import inspect
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


def test_closed_form_views_match_the_epsilon_oracle():
    # The round trip below cannot see an error both maps share: each map is
    # checked against this file's own simple roots instead.
    for family, n in ORACLE_DATA:
        datum, simple = LieDatum(family, n), _simple_eps(family, n)
        for j in range(n):
            omega = roots.omega_to_eps(datum, tuple(int(k == j) for k in range(n)))
            pairings = [2 * Q(_dot(omega, a), _dot(a, a)) for a in simple]
            assert pairings == [int(i == j) for i in range(n)], (datum, j)
            if family == "A":
                assert sum(omega) == 0
        cartan = _oracle_cartan(simple)
        assert tuple(roots.eps_to_omega(datum, a) for a in simple) == cartan, datum


def test_omega_to_eps_rejects_wrong_length():
    for w in ((1, 0, 0, 0, 0, 0), (1,)):
        with pytest.raises(roots.DomainError, match=f"^weight length {len(w)} != rank 5$"):
            roots.omega_to_eps(D5, w)


def test_eps_to_omega_rejects_wrong_length():
    for v in ((1, 0), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(roots.DomainError, match=f"^epsilon vector length {len(v)} != 5 for D5$"):
            roots.eps_to_omega(D5, v)
    with pytest.raises(roots.DomainError, match="^epsilon vector length 4 != 5 for A4$"):
        roots.eps_to_omega(LieDatum("A", 4), (1, 0, 0, 0))


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


def _reflect(datum, i, w):
    # s_i(w) = w - w_i alpha_i, alpha_i in the omega basis being row i of the
    # Cartan matrix: the step the descent walks of roots and bbw take.
    row = roots.cartan_matrix(datum)[i - 1]
    return tuple(a - w[i - 1] * r for a, r in zip(w, row))


def test_reflection_tables_on_random_vectors():
    rng = random.Random(7)
    for _ in range(120):
        a = tuple(rng.randint(-9, 9) for _ in range(5))
        for i in range(1, 6):
            assert _reflect(D5, i, a) == _d5_reflection_table(i, a)
        b = tuple(rng.randint(-9, 9) for _ in range(4))
        for i in range(1, 5):
            assert _reflect(B4, i, b) == _b4_reflection_table(i, b)


def test_reflections_are_involutions():
    rng = random.Random(11)
    for datum in (D5, B4, LieDatum("A", 3), LieDatum("C", 4)):
        for _ in range(60):
            w = tuple(rng.randint(-6, 6) for _ in range(datum.rank))
            for i in range(1, datum.rank + 1):
                assert _reflect(datum, i, _reflect(datum, i, w)) == w
                if w[i - 1] == 0:
                    assert _reflect(datum, i, w) == w


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
    assert len(roots.positive_roots(D5)) == 20
    assert len(roots.positive_roots(B4)) == 16


def test_positive_roots_dominant_conjugates():
    for datum in (D5, B4):
        for root in _eps_positive_roots(datum.family, datum.rank):
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


def test_dualize_levi_rejects_wrong_length():
    for w in ((1, 0, 0, 0, 0, 0), (1, 0)):
        with pytest.raises(roots.DomainError, match=f"^weight length {len(w)} != rank 5$"):
            roots.dualize_levi(D5_P4, w)


def _solve(matrix, rhs):
    # Gaussian elimination over the rationals; the system is square and regular.
    n = len(matrix)
    m = [[Q(x) for x in row] + [Q(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _oracle_canonical(pb, simple):
    # independent expansion: sum positive roots whose simple-root coordinates
    # touch a marked node, using exact elimination over the hardcoded tables
    datum = pb.datum
    total = [Q(0)] * len(simple[0])
    for root in _eps_positive_roots(datum.family, datum.rank):
        gram = [[_dot(simple[k], simple[j]) for k in range(datum.rank)] for j in range(datum.rank)]
        rhs = [_dot(root, simple[j]) for j in range(datum.rank)]
        coords = _solve(gram, rhs)
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


def test_dual_weight_rejects_wrong_length():
    for w in ((1, 0, 0, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(roots.DomainError, match=f"^weight length {len(w)} != rank 5$"):
            roots.dual_weight(D5, w)


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


def test_positive_roots_have_the_classical_counts():
    # |Phi+| is n(n+1)/2 in type A, n^2 in types B and C, n(n-1) in type D;
    # the roots come lowest height first.
    counts = {
        "A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "C": lambda n: n * n, "D": lambda n: n * (n - 1),
    }
    for family, count in counts.items():
        for n in range(3 if family == "D" else 1, 9):
            coords = roots.positive_roots(LieDatum(family, n))
            assert len(set(coords)) == len(coords) == count(n), (family, n)
            heights = [sum(beta) for beta in coords]
            assert heights == sorted(heights) and heights.count(1) == n, (family, n)


def test_weight_format_stays_behind_roots_and_levi():
    # Weights are integer omega-vectors; the Fraction view lives in roots and
    # levi only, so the layers above never build a Fraction.
    from homcoh import bbw, bundles, cli, corpus, ext, mutations, parser

    for module in (bbw, bundles, ext, mutations, parser, corpus, cli):
        tree = ast.parse(inspect.getsource(module))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "fractions" not in imported, module.__name__


def test_fraction_stays_inside_the_two_epsilon_views():
    # Inside roots, Fraction names only the EpsVector alias and appears in
    # the bodies of the two closed-form views, so no epsilon table grows back.
    tree = ast.parse(inspect.getsource(roots))
    (alias,) = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for a in node.names
    ]
    users = {
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else ast.unparse(node)
        for node in tree.body
        if any(isinstance(n, ast.Name) and n.id == alias for n in ast.walk(node))
    }
    assert users == {f"EpsVector = tuple[{alias}, ...]", "omega_to_eps", "eps_to_omega"}


def test_equal_parabolics_are_one_key_and_data_keep_their_order():
    datum = LieDatum("D", 5)
    assert datum is D5 and datum == D5 and hash(datum) == hash(D5)
    pb = Parabolic(datum, (4,))
    assert pb is D5_P4 and pb == D5_P4 and hash(pb) == hash(D5_P4)
    assert {D5_P4: "P4"}[pb] == "P4"
    assert len({D5_P4, Parabolic(D5, (5,)), Parabolic(D5, (4, 5)), B4_Q4}) == 4
    assert sorted([D5, B4, LieDatum("A", 4), LieDatum("B", 2)]) == [
        LieDatum("A", 4), LieDatum("B", 2), B4, D5,
    ]
    assert pb.unmarked() == (1, 2, 3, 5)
    assert Parabolic(D5, (1, 4)).unmarked() == (2, 3, 5)
    assert B4_Q4.unmarked() == (1, 2, 3)


# Run in a fresh interpreter: before one check decided what a weight is, a
# float coordinate was stored in the process tables, and the integer
# queries that found its key afterwards answered with floats.
_NON_INTEGER_WEIGHTS = r'''
import contextlib, io, json
from homcoh import bbw, bundles, cli, levi, roots
from homcoh.roots import B4, B4_Q4, D5, D5_P4

def d5(v):  # v at the marked node of a weight the import builds nothing for
    return (0, 0, 2, v, 0)

ENTRIES = {
    "roots.dominant_conjugate": lambda v: roots.dominant_conjugate(D5, d5(v)),
    "roots.dual_weight": lambda v: roots.dual_weight(D5, d5(v)),
    "roots.dualize_levi": lambda v: roots.dualize_levi(D5_P4, d5(v)),
    "roots.omega_to_eps": lambda v: roots.omega_to_eps(D5, d5(v)),
    "bbw.weyl_dim": lambda v: bbw.weyl_dim(D5, (v, 0, 0, 0, 0)),
    "bbw.bbw_cohomology": lambda v: bbw.bbw_cohomology(D5_P4, d5(v)),
    "levi.to_gl": lambda v: levi.to_gl(D5_P4, d5(v)),
    "levi.tensor_decompose": lambda v: levi.tensor_decompose(D5_P4, (v, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
    "levi.branch_levi": lambda v: levi.branch_levi(d5(v)),
    "levi.branch_d5_to_b4": lambda v: levi.branch_d5_to_b4(d5(v)),
    "levi.b4_content": lambda v: levi.b4_content(B4, (0, 0, 2, v)),
    "bundles.Sum on D5/P4": lambda v: bundles.irr(D5_P4, (0, 0, 0, v, 0)),
    "bundles.Sum on B4/Q4": lambda v: bundles.irr(B4_Q4, (0, 0, 2, v)),
}
raised = {}
for name, call in ENTRIES.items():
    for v in (7.0, 1.0, True, 0.5):
        try:
            raised[f"{name} {v!r}"] = repr(call(v))
        except Exception as e:
            raised[f"{name} {v!r}"] = type(e).__name__
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["tensor", "D5", "P4", "[1,0,0,0,0]", "[1,0,0,0,0]"])
print(json.dumps({
    "raised": raised,
    "tensor": out.getvalue(),
    "weyl_dim_is_int": type(bbw.weyl_dim(D5, (1, 0, 0, 0, 0))) is int,
    "O(7)": repr(bundles.O(7)),
    "answers": {f"{name} {v}": repr(call(v)) for name, call in ENTRIES.items() for v in (7, 1)},
}))
'''


def test_no_entry_takes_a_weight_that_is_not_made_of_ints():
    import json
    import subprocess
    import sys
    from pathlib import Path

    env = {"PYTHONPATH": str(Path(roots.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _NON_INTEGER_WEIGHTS], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    assert len(found["raised"]) == 13 * 4
    assert {call: got for call, got in found["raised"].items() if got != "DomainError"} == {}
    assert found["tensor"] == "E[0,1,0,0,0]\nE[2,0,0,0,0]\n"
    assert found["weyl_dim_is_int"]
    assert found["O(7)"] == "O (7)"
    assert [a for a in found["answers"].values() if "." in a or "True" in a] == []
