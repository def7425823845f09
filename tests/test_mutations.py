import random

import pytest

from homcoh import bundles as B
from homcoh import ext as X
from homcoh import mutations as M
from homcoh.ext import ExtEngine
from homcoh.mutations import Collection, KOnly
from homcoh.roots import InternalConsistencyError


@pytest.fixture(scope="module")
def eng():
    return ExtEngine()


@pytest.fixture(scope="module")
def form(eng):
    return M.KForm.standard(eng)


def test_verify_kp_collection(eng):
    report = M.verify_exceptional(M.kp_collection(), eng)
    assert report.passed
    assert not report.ambiguous_pairs
    assert len(report.checks) == 16 + 120


def test_verify_kuznetsov_collection(eng):
    report = M.verify_exceptional(M.kuznetsov_collection(), eng)
    assert report.passed and not report.ambiguous_pairs


def test_verify_fails_on_repeated_object(eng):
    col = Collection((B.O(), B.O()), "bad")
    report = M.verify_exceptional(col, eng)
    assert not report.passed
    bad = [c for c in report.checks if not c.ok]
    assert bad and bad[0].expected == "zero"


def test_left_mutation_through_twist(eng):
    col = Collection((B.O(2), B.Uv(2)))
    new, step = M.mutate(col, "L", 0, eng)
    assert step.recipe == "left-kernel"
    assert step.result == B.U(2)
    assert new.objects == (B.U(2), B.O(2))
    assert step.shift == 1


def test_right_mutation_through_twist(eng):
    col = Collection((B.U(3), B.O(3)))
    new, step = M.mutate(col, "R", 0, eng)
    assert step.recipe == "right-cokernel"
    assert step.result == B.Uv(3)
    assert new.objects == (B.O(3), B.Uv(3))
    assert step.shift == -1


def test_right_mutation_of_affine_tangent(eng):
    col = Collection((B.That(6), B.O(6)))
    _, step = M.mutate(col, "R", 0, eng)
    assert step.result == B.U(7)
    assert step.hypothesis.dims() == {0: 16}


def test_left_mutation_producing_dual_affine(eng):
    col = Collection((B.U(2), B.Ktilde(2)))
    _, step = M.mutate(col, "L", 0, eng)
    assert step.result == B.Thatv(1)
    assert step.hypothesis.dims() == {0: 10}


def test_transposition_on_zero_ext(eng):
    col = Collection((B.U(6), B.Uv(5)))
    new, step = M.mutate(col, "R", 0, eng)
    assert step.recipe == "transposition"
    assert new.objects == (B.Uv(5), B.U(6))


def test_k_only_fallback(eng, form):
    col = Collection((B.O(0), B.O(1)))
    new, step = M.mutate(col, "R", 0, eng)
    assert isinstance(step.result, KOnly)
    k_o = form.kclass(B.O(0), eng)
    k_o1 = form.kclass(B.O(1), eng)
    assert step.result.kclass == tuple(a - 16 * b for a, b in zip(k_o, k_o1))


def test_k_only_hypothesis_carries_the_exact_euler_characteristic(eng, form):
    col = Collection((B.sym_Rv(2, 2), B.Rv(2), B.O(3)))
    col, first = M.mutate(col, "R", 0, eng)
    assert isinstance(first.result, KOnly)
    k_only, o3 = col.objects[1], col.objects[2]
    _, step = M.mutate(col, "R", 1, eng)
    assert isinstance(step.hypothesis, X.Ambiguous)
    chi = form.chi(k_only.kclass, form.kclass(o3, eng))
    assert step.hypothesis.euler == chi == -16
    report = M.verify_exceptional(col, eng)
    for check in report.checks:
        a, b = col.objects[check.row], col.objects[check.col]
        if isinstance(a, KOnly) or isinstance(b, KOnly):
            assert check.value.euler == form.chi(M._kclass_of(a, form, eng), M._kclass_of(b, form, eng))


def test_mutation_rejects_bad_positions(eng):
    col = M.kuznetsov_collection()
    with pytest.raises(Exception):
        M.mutate(col, "R", 15, eng)
    with pytest.raises(Exception):
        M.mutate(col, "X", 0, eng)


def test_ambiguous_mutation_raises(eng):
    col = Collection((B.Rv(), B.Uv()))
    with pytest.raises(M.AmbiguousMutation):
        M.mutate(col, "R", 0, eng)


def test_right_dual_block_with_wedge(eng):
    block = Collection((B.wedge_Rv(2), B.Rv(), B.O()), "A4-base", equivariant=True)
    dualized, steps = M.right_dual(block, eng)
    assert dualized.objects == (B.O(), B.Uv(), B.That(1))
    assert len(steps) == 3


def test_right_dual_block_with_sym(eng):
    block = Collection((B.sym_Rv(2), B.Rv(), B.O()), "A2-base", equivariant=True)
    dualized, _ = M.right_dual(block, eng)
    assert dualized.objects == (B.O(), B.Uv(), B.sym_Uv(2))


def test_right_dual_singleton(eng):
    block = Collection((B.O(7),), "A7", equivariant=True)
    dualized, steps = M.right_dual(block, eng)
    assert dualized.objects == (B.O(7),) and steps == []


def test_kp_blocks_list():
    blocks = M.kp_blocks()
    assert [b.label for b in blocks] == [f"A{i}" for i in range(8)]
    assert blocks[2].objects == (B.sym_Rv(2, 2), B.Rv(2), B.O(2))
    assert blocks[4].objects == (B.wedge_Rv(2, 4), B.Rv(4), B.O(4))
    assert blocks[0].objects == (B.O(0),)
    assert all(b.equivariant for b in blocks)


def test_blocks_are_equivariantly_exceptional(eng):
    for block in M.kp_blocks():
        report = M.verify_exceptional(block, eng)
        assert report.passed and not report.ambiguous_pairs, block.label


def test_assembled_collection_matches_literal(eng):
    assembled, _ = M.assemble_kp_collection(eng)
    assert assembled.objects == M.kp_collection().objects


def test_gram_kuznetsov_structure(eng):
    g = M.gram_matrix(M.kuznetsov_collection(), eng)
    n = len(g)
    assert all(g[i][i] == 1 for i in range(n))
    assert all(g[i][j] == 0 for i in range(n) for j in range(i))
    assert g[0][2] == 16  # chi(O, O(1))


def test_replay_reaches_kuznetsov(eng):
    rr = M.replay_main_proof(eng)
    assert len(rr.steps) == 16
    assert rr.final_matches and rr.gram_matches


def test_replay_swap_steps_report_both_directions(eng):
    rr = M.replay_main_proof(eng)
    swaps = [s for s in rr.steps if s.recipe == "transposition"]
    assert len(swaps) == 2
    for s in swaps:
        assert any("reverse direction" in note and "= 0" in note for note in s.notes)


def test_k_mutation_involutivity(eng, form):
    rng = random.Random(4)
    for col in (M.kp_collection(), M.kuznetsov_collection()):
        vectors = [form.kclass(o, eng) for o in col.objects]
        for _ in range(30):
            i = rng.randrange(len(vectors) - 1)
            assert M.k_mutate_left(M.k_mutate_right(vectors, i, form), i, form) == vectors
            assert M.k_mutate_right(M.k_mutate_left(vectors, i, form), i, form) == vectors


def hermite_normal_form(rows):
    """Row-style Hermite normal form over the integers."""
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivot_row = 0
    for col in range(n_cols):
        # find a nonzero entry at or below pivot_row
        nz = [r for r in range(pivot_row, n_rows) if m[r][col] != 0]
        if not nz:
            continue
        while True:
            nz = [r for r in range(pivot_row, n_rows) if m[r][col] != 0]
            if len(nz) == 1:
                break
            nz.sort(key=lambda r: abs(m[r][col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = m[r][col] // m[r0][col]
                m[r] = [a - q * b for a, b in zip(m[r], m[r0])]
        r0 = nz[0]
        m[pivot_row], m[r0] = m[r0], m[pivot_row]
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-a for a in m[pivot_row]]
        for r in range(pivot_row):
            q = m[r][col] // m[pivot_row][col]
            m[r] = [a - q * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return tuple(tuple(r) for r in m)


def test_k_lattice_preserved_under_mutation(eng, form):
    rng = random.Random(8)
    vectors = [form.kclass(o, eng) for o in M.kp_collection().objects]
    base = hermite_normal_form(vectors)
    current = vectors
    for _ in range(25):
        i = rng.randrange(len(current) - 1)
        current = (M.k_mutate_right if rng.random() < 0.5 else M.k_mutate_left)(current, i, form)
        assert hermite_normal_form(current) == base


def test_object_mutation_matches_cone_class(eng, form):
    # the engine asserts this internally; spot-check one case by hand
    col = Collection((B.O(2), B.sym_Uv(2, 2)))
    _, step = M.mutate(col, "L", 0, eng)
    assert step.result == B.Ktilde(2)
    k_res = form.kclass(B.Ktilde(2), eng)
    k_o = form.kclass(B.O(2), eng)
    k_s = form.kclass(B.sym_Uv(2, 2), eng)
    chi = form.chi(k_o, k_s)
    assert tuple(-x for x in k_res) == tuple(b - chi * a for a, b in zip(k_o, k_s))


def test_registered_sequences_vanish_in_k_theory(eng, form):
    # The Kuznetsov collection is full, so its 16 pairings determine a class.
    # A named object's class is its first sequence's alternating sum, so only
    # that sequence cancels by construction; the 7 sequences with a B4/Q4
    # term check the Levi branching.
    for seq in B.standard_sequences():
        total = [0] * len(form.basis)
        for j, term in enumerate(seq.terms):
            n = (-1) ** j * B.coeff_dim(term.coeff)
            total = [t + n * k for t, k in zip(total, form.kclass(term.obj, eng))]
        assert not any(total), seq.name


def test_hermite_normal_form_basics():
    assert hermite_normal_form([(2, 0), (0, 2)]) == ((2, 0), (0, 2))
    assert hermite_normal_form([(0, 1), (1, 0)]) == ((1, 0), (0, 1))
    assert hermite_normal_form([(2, 2), (2, -2)]) == ((2, 2), (0, 4))


def test_kform_inverse_by_back_substitution(form):
    n = len(form.gram)
    inv, gram = form.gram_inv, form.gram
    product = [[sum(inv[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_kform_rejects_gram_that_is_not_unitriangular(form):
    lower = [list(row) for row in form.gram]
    lower[3][1] = 1  # a backward pairing: the basis would not be exceptional
    diagonal = [list(row) for row in form.gram]
    diagonal[2][2] = 2
    for gram in (lower, diagonal):
        with pytest.raises(InternalConsistencyError):
            M.KForm.from_gram(form.basis, tuple(map(tuple, gram)))


COLLECTIONS = (M.kp_collection, M.kuznetsov_collection)


def test_gram_matrix_is_the_table_of_euler_pairings(eng):
    # The oracle pairs the objects through the engine, without KForm.
    for make in COLLECTIONS:
        objs = make().objects
        assert M.gram_matrix(make(), eng) == tuple(tuple(eng.euler(a, b) for b in objs) for a in objs)


def test_gram_matrix_reads_k_only_objects_by_their_class(eng, form):
    for make in COLLECTIONS:
        col = make()
        expected = M.gram_matrix(col, eng)
        for i in (0, 5, len(col) - 1):
            k_only = KOnly(form.kclass(col.objects[i], eng))
            objs = col.objects[:i] + (k_only,) + col.objects[i + 1:]
            assert M.gram_matrix(Collection(objs), eng) == expected, (col.label, i)


def test_gram_matrix_computes_each_kclass_once(eng, form, monkeypatch):
    calls = []
    kclass = M.KForm.kclass

    def counted(self, obj, engine):
        calls.append(obj)
        return kclass(self, obj, engine)

    monkeypatch.setattr(M.KForm, "kclass", counted)
    col = M.kuznetsov_collection()
    M.gram_matrix(col, eng)
    assert calls == list(col.objects)


def test_step_kclass_is_the_class_of_the_result(eng, form):
    # Transpositions in both directions, an object-level recipe and a K-only cone.
    steps = [s for s in M.replay_main_proof(eng).steps]
    steps.append(M.mutate(Collection((B.U(6), B.Uv(5))), "L", 0, eng)[1])
    steps.append(M.mutate(Collection((B.O(0), B.O(1))), "R", 0, eng)[1])
    assert {s.recipe for s in steps} == {"transposition", "left-kernel", "right-cokernel", "k-only"}
    assert {s.direction for s in steps if s.recipe == "transposition"} == {"L", "R"}
    for s in steps:
        assert s.kclass == M._kclass_of(s.result, form, eng)


def test_replay_computes_each_class_once_per_form(monkeypatch):
    # Every KForm.kclass call after an object's first reads the form's table:
    # it asks the engine for no Euler pairing.
    eng = ExtEngine()
    form = M.KForm.standard(eng)
    asked = []
    per_object = {}
    euler, kclass = ExtEngine.euler, M.KForm.kclass

    def counted_euler(self, E, F):
        asked.append((E, F))
        return euler(self, E, F)

    def counted_kclass(self, obj, engine):
        before = len(asked)
        k = kclass(self, obj, engine)
        per_object.setdefault(obj, []).append(len(asked) - before)
        return k

    monkeypatch.setattr(ExtEngine, "euler", counted_euler)
    monkeypatch.setattr(M.KForm, "kclass", counted_kclass)
    M.replay_main_proof(eng)
    assert set(per_object) == set(form._classes)
    assert {obj: counts[0] for obj, counts in per_object.items()} == dict.fromkeys(per_object, 16)
    assert not any(c for counts in per_object.values() for c in counts[1:])
    assert sum(len(counts) - 1 for counts in per_object.values()) > len(per_object)

    fresh = ExtEngine()
    for obj, k in form._classes.items():
        assert k == tuple(fresh.euler(b, obj) for b in form.basis), obj
    for k, coords in form._coords.items():
        assert coords == tuple(sum(r * x for r, x in zip(row, k)) for row in form.gram_inv)
    asked.clear()
    M.replay_main_proof(eng)
    assert asked == []


def test_kclass_fault_reaches_a_fresh_engine_after_another_form_is_warm(monkeypatch):
    # The form's tables live with its engine: a warm form keeps the classes
    # it computed, and a fresh engine's form sees the fault.
    warm = ExtEngine()
    col = M.kp_collection()
    before = M.gram_matrix(col, warm)
    real = B.kclass

    def faulty(obj):
        cls = real(obj)
        return cls if isinstance(obj, B.Sum) else {piece: -m for piece, m in cls.items()}

    monkeypatch.setattr(B, "kclass", faulty)
    assert M.gram_matrix(col, warm) == before
    fresh = ExtEngine()
    form = M.KForm.standard(fresh)
    assert form.gram == M.KForm.standard(warm).gram
    assert form.kclass(B.That(5), fresh) == tuple(-c for c in warm.kform.kclass(B.That(5), warm))
    assert M.gram_matrix(col, fresh) != before
