import random

import pytest

from homcoh import bbw, levi, roots
from homcoh import bundles as B
from homcoh import ext as X
from homcoh import mutations as M
from homcoh.ext import ExtEngine
from homcoh.mutations import Collection, KOnly
from homcoh.parser import parse_bundle
from homcoh.roots import DomainError
from test_bundles import _twist_delta


@pytest.fixture(scope="module")
def eng():
    return ExtEngine()


@pytest.fixture(scope="module")
def form(eng):
    return M.KForm.standard(eng)


class ReferenceForm:
    """The Euler form as the package once paired K-only classes, kept as
    the reference: the Kuznetsov Gram matrix through ExtEngine.euler,
    inverted by integer back substitution (it is upper unitriangular).  A
    class k = (chi(b, E) for b in the basis) has coordinates gram_inv * k,
    and chi(E, F) = coords(E) . kclass(F), which is exact because
    Kuznetsov's collection is full."""

    def __init__(self, eng):
        basis = M.kuznetsov_collection().objects
        gram = [[eng.euler(a, b) for b in basis] for a in basis]
        n = len(gram)
        inv = [[int(i == j) for j in range(n)] for i in range(n)]
        for c in range(n):
            for r in range(c - 1, -1, -1):
                inv[r][c] = -sum(gram[r][k] * inv[k][c] for k in range(r + 1, c + 1))
        self.gram, self.gram_inv = gram, inv

    def chi(self, ka, kb):
        coords = [sum(x * y for x, y in zip(row, ka)) for row in self.gram_inv]
        return sum(x * y for x, y in zip(coords, kb))


@pytest.fixture(scope="module")
def ref(eng):
    return ReferenceForm(eng)


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
    col = Collection((B.Named("That", 6), B.O(6)))
    _, step = M.mutate(col, "R", 0, eng)
    assert step.result == B.U(7)
    assert step.hypothesis.dims() == {0: 16}


def test_left_mutation_producing_dual_affine(eng):
    col = Collection((B.U(2), B.Named("Ktilde", 2)))
    _, step = M.mutate(col, "L", 0, eng)
    assert step.result == B.Named("Thatv", 1)
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


def test_k_only_hypothesis_carries_the_exact_euler_characteristic(eng, form, ref):
    col = Collection((B.schur("Rv", "Sym", 2, 2), B.Rv(2), B.O(3)))
    col, first = M.mutate(col, "R", 0, eng)
    assert isinstance(first.result, KOnly)
    k_only, o3 = col.objects[1], col.objects[2]
    _, step = M.mutate(col, "R", 1, eng)
    assert isinstance(step.hypothesis, X.Ambiguous)
    chi = M.KForm.chi(k_only, o3, eng)
    assert step.hypothesis.euler == chi == ref.chi(k_only.kclass, form.kclass(o3, eng)) == -16
    report = M.verify_exceptional(col, eng)
    for check in report.checks:
        a, b = col.objects[check.row], col.objects[check.col]
        if isinstance(a, KOnly) or isinstance(b, KOnly):
            assert check.value.euler == ref.chi(form.kclass(a, eng), form.kclass(b, eng))


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
    block = Collection((B.schur("Rv", "Wedge", 2), B.Rv(), B.O()), "A4-base", equivariant=True)
    dualized, steps = M.right_dual(block, eng)
    assert dualized.objects == (B.O(), B.Uv(), B.Named("That", 1))
    assert len(steps) == 3


def test_right_dual_block_with_sym(eng):
    block = Collection((B.schur("Rv", "Sym", 2), B.Rv(), B.O()), "A2-base", equivariant=True)
    dualized, _ = M.right_dual(block, eng)
    assert dualized.objects == (B.O(), B.Uv(), B.schur("Uv", "Sym", 2))


def test_right_dual_singleton(eng):
    block = Collection((B.O(7),), "A7", equivariant=True)
    dualized, steps = M.right_dual(block, eng)
    assert dualized.objects == (B.O(7),) and steps == []


def test_kp_blocks_list():
    blocks = M.kp_blocks()
    assert [b.label for b in blocks] == [f"A{i}" for i in range(8)]
    assert blocks[2].objects == (B.schur("Rv", "Sym", 2, 2), B.Rv(2), B.O(2))
    assert blocks[4].objects == (B.schur("Rv", "Wedge", 2, 4), B.Rv(4), B.O(4))
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
    assert rr.final_matches
    assert M.gram_matrix(rr.final, eng) == M.gram_matrix(M.kuznetsov_collection(), eng)


def test_replay_builds_no_gram_matrix(monkeypatch):
    # The verdict is final_matches: equal collections are the same interned
    # objects, so a Gram comparison could not change it.
    calls = []
    gram_matrix = M.gram_matrix

    def counted(col, engine):
        calls.append(col.label)
        return gram_matrix(col, engine)

    monkeypatch.setattr(M, "gram_matrix", counted)
    rr = M.replay_main_proof(ExtEngine())
    assert rr.final_matches and calls == []
    assert M.ReplayResult._fields == ("steps", "final")


def test_the_cold_replay_walks_only_for_the_answers_it_reads(monkeypatch):
    # The replay reads Ext answers and Euler pairings.  A pairing fills its
    # _pairs entries with Weyl's chi alone, so a fresh engine walks once per
    # distinct Levi piece of the pairs that _direct reads for an answer, and
    # no more.  Every object of the replay lives on D5/P4, so ext branches
    # nothing to B4/Q4 (b4_content unwrapped so that its cache hides no
    # branching).
    walks, direct_keys, in_direct = [], set(), []

    def walk(pb, nu, bbw_cohomology=bbw.bbw_cohomology):
        walks.append((pb, nu))
        return bbw_cohomology(pb, nu)

    def no_branching(w):
        raise AssertionError(f"the replay branched {w} to B4/Q4")

    def direct(self, E, F, method=ExtEngine._direct):
        in_direct.append((E, F))
        try:
            return method(self, E, F)
        finally:
            in_direct.pop()

    def levi_pieces(self, *key, method=ExtEngine._levi_pieces):
        if in_direct:
            direct_keys.add(key)
        return method(self, *key)

    monkeypatch.setattr(bbw, "bbw_cohomology", walk)
    monkeypatch.setattr(levi, "branch_levi", no_branching)
    monkeypatch.setattr(levi, "b4_content", levi.b4_content.__wrapped__)
    monkeypatch.setattr(ExtEngine, "_direct", direct)
    monkeypatch.setattr(ExtEngine, "_levi_pieces", levi_pieces)
    eng = ExtEngine()
    assert M.replay_main_proof(eng).final_matches
    assert direct_keys and direct_keys < set(eng._pairs)

    def pieces(keys):
        out = set()
        for pb, w1, w2, d in keys:
            i = pb.marked[0] - 1
            nus = levi.tensor_decompose(pb, roots.dualize_levi(pb, w1), w2[:i] + (d,) + w2[i + 1 :])
            out.update((pb, nu) for nu in nus)
        return out

    assert len(walks) == len(set(walks)) and set(walks) == set(eng._cohomology) == pieces(direct_keys)
    assert set(walks) < pieces(eng._pairs)


def test_replay_swap_steps_report_both_directions(eng):
    rr = M.replay_main_proof(eng)
    swaps = [s for s in rr.steps if s.recipe == "transposition"]
    assert len(swaps) == 2
    for s in swaps:
        assert any("reverse direction" in note and "= 0" in note for note in s.notes)


def k_mutated(vectors, direction, i, ref):
    """The classes after mutating the pair at i, chi taken from the
    reference: (b, a - chi b) to the right, (b - chi a, a) to the left."""
    a, b = vectors[i], vectors[i + 1]
    chi = ref.chi(a, b)
    if direction == "R":
        return vectors[:i] + [b, tuple(x - chi * y for x, y in zip(a, b))] + vectors[i + 2 :]
    return vectors[:i] + [tuple(y - chi * x for x, y in zip(a, b)), a] + vectors[i + 2 :]


def test_k_mutation_involutivity(eng, form, ref):
    rng = random.Random(4)
    for col in (M.kp_collection(), M.kuznetsov_collection()):
        vectors = [form.kclass(o, eng) for o in col.objects]
        for _ in range(30):
            i = rng.randrange(len(vectors) - 1)
            assert k_mutated(k_mutated(vectors, "R", i, ref), "L", i, ref) == vectors
            assert k_mutated(k_mutated(vectors, "L", i, ref), "R", i, ref) == vectors


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


def test_k_lattice_preserved_under_mutation(eng, form, ref):
    rng = random.Random(8)
    vectors = [form.kclass(o, eng) for o in M.kp_collection().objects]
    base = hermite_normal_form(vectors)
    current = vectors
    for _ in range(25):
        i = rng.randrange(len(current) - 1)
        current = k_mutated(current, "R" if rng.random() < 0.5 else "L", i, ref)
        assert hermite_normal_form(current) == base


def test_object_mutation_matches_cone_class(eng, form, ref):
    # the engine asserts this internally; spot-check one case by hand
    col = Collection((B.O(2), B.schur("Uv", "Sym", 2, 2)))
    _, step = M.mutate(col, "L", 0, eng)
    assert step.result == B.Named("Ktilde", 2)
    k_res = form.kclass(B.Named("Ktilde", 2), eng)
    k_o = form.kclass(B.O(2), eng)
    k_s = form.kclass(B.schur("Uv", "Sym", 2, 2), eng)
    chi = M.KForm.chi(B.O(2), B.schur("Uv", "Sym", 2, 2), eng)
    assert chi == ref.chi(k_o, k_s)
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


def test_kform_inverse_by_back_substitution(ref):
    n = len(ref.gram)
    inv, gram = ref.gram_inv, ref.gram
    product = [[sum(inv[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


COLLECTIONS = (M.kp_collection, M.kuznetsov_collection)


def test_gram_matrix_is_the_table_of_euler_pairings(monkeypatch):
    # The oracle pairs the objects through the engine.  The K-form's
    # classes name mutation results; no pairing of two bundles reads them.
    final = M.replay_main_proof(ExtEngine()).final

    def forbidden(*args):
        raise AssertionError("a bundle pairing read the K-form")

    monkeypatch.setattr(M.KForm, "standard", forbidden)
    monkeypatch.setattr(M.KForm, "kclass", forbidden)
    eng = ExtEngine()
    for col in (M.kp_collection(), M.kuznetsov_collection(), final):
        assert M.verify_exceptional(col, eng).passed
        objs = col.objects
        assert M.gram_matrix(col, eng) == tuple(tuple(eng.euler(a, b) for b in objs) for a in objs)


def class_of_terms(terms, form, eng):
    """The class of a signed sum of bundles: the sum of their classes."""
    total = [0] * len(form.basis)
    for m, x in terms:
        total = [t + m * c for t, c in zip(total, form.kclass(x, eng))]
    return tuple(total)


def k_only_by_relation(obj, form, eng):
    """obj as a K-only object: the first registered sequence that has obj as
    a term without coefficient, solved for that term in K-theory; so U(k)
    is 10 O(k) - Uv(k), from taut-rank5."""
    for seq, idx, t in B.sequence_matches(obj):
        if not seq.terms[idx].coeff:
            terms = tuple(
                ((-1) ** (j - idx + 1) * B.coeff_dim(term.coeff), B.twist(term.obj, t))
                for j, term in enumerate(seq.terms)
                if j != idx
            )
            kclass = class_of_terms(terms, form, eng)
            assert kclass == form.kclass(obj, eng), (obj, seq.name)
            return KOnly(kclass, terms)
    raise AssertionError(f"no relation solves for {obj}")


def test_gram_matrix_reads_k_only_objects_by_their_class(eng, form):
    for make in COLLECTIONS:
        col = make()
        expected = M.gram_matrix(col, eng)
        for i in (0, 5, len(col) - 1):
            k_only = k_only_by_relation(col.objects[i], form, eng)
            objs = col.objects[:i] + (k_only,) + col.objects[i + 1:]
            assert M.gram_matrix(Collection(objs), eng) == expected, (col.label, i)


def test_gram_matrix_of_bundles_builds_no_kform(monkeypatch):
    calls = []
    kclass = M.KForm.kclass

    def counted(self, obj, engine):
        calls.append(obj)
        return kclass(self, obj, engine)

    monkeypatch.setattr(M.KForm, "kclass", counted)
    eng = ExtEngine()
    for make in COLLECTIONS:
        M.gram_matrix(make(), eng)
    assert calls == [] and eng.kform is None


def test_cone_chi_is_the_k_form_pairing_of_the_classes(eng, form, ref, monkeypatch):
    # Every cone of the paper's mutations pairs two bundles through the
    # engine; the reference reads the same chi(E1, E2) through the
    # coordinates of E1's class in the Kuznetsov basis.
    cones = []
    k_cone = M.k_cone

    def recorded(direction, a, b, chi):
        cones.append((a, b, chi))
        return k_cone(direction, a, b, chi)

    monkeypatch.setattr(M, "k_cone", recorded)
    steps = M.replay_main_proof(eng).steps
    assert len(cones) == sum(s.recipe != "transposition" for s in steps) == 14
    for blocks in M.assemble_kp_collection(eng)[1]:
        steps += blocks
    assert len(cones) >= sum(s.recipe != "transposition" for s in steps) > 14
    for a, b, chi in cones:
        assert chi == eng.euler(a, b) == ref.chi(form.kclass(a, eng), form.kclass(b, eng)), (a, b)


WALK_OBJECTS = ("O({})", "Uv({})", "U({})", "That({})", "Sym2 Uv({})", "Rv({})", "Sym2 Rv(2)", "Wedge2 Rv(4)")


def random_walks(rng, count, steps):
    """Collections of two to five objects of WALK_OBJECTS at twists 0..5,
    each with `steps` random mutations."""
    for _ in range(count):
        size = rng.randint(2, 5)
        objs = tuple(parse_bundle(rng.choice(WALK_OBJECTS).format(rng.randint(0, 5))) for _ in range(size))
        yield Collection(objs, "walk"), [(rng.choice("LR"), rng.randrange(size - 1)) for _ in range(steps)]


def test_k_only_terms_sum_to_the_class_and_pair_as_the_reference(eng, form, ref):
    # Random mutation walks make K-only results of K-only pairs too.  Each
    # result's class is the reference's cone and the sum of its terms, and
    # every pairing, with a K-only side or in the Gram matrix of a walk's
    # last collection, is the reference's.
    k_only_results = k_only_pairs = refused = 0
    for col, moves in random_walks(random.Random(0), 300, 4):
        for direction, position in moves:
            try:
                col, step = M.mutate(col, direction, position, eng)
            except M.AmbiguousMutation:
                continue
            except DomainError:
                # Refused: the pair's cone has no terms, so its class is 0.
                a, b = col.objects[position : position + 2]
                assert M.k_cone(direction, a, b, M.KForm.chi(a, b, eng)) == (), (a, b)
                refused += 1
                continue
            a, b = step.pair
            if isinstance(a, KOnly) or isinstance(b, KOnly):
                k_only_pairs += 1
                assert step.hypothesis.euler == ref.chi(form.kclass(a, eng), form.kclass(b, eng)), step.pair
            if isinstance(step.result, KOnly):
                k_only_results += 1
                cone = k_mutated([form.kclass(a, eng), form.kclass(b, eng)], direction, 0, ref)
                assert step.result.kclass == cone[1 if direction == "R" else 0], step.pair
                terms = step.result.terms
                assert all(m and not isinstance(x, KOnly) for m, x in terms)
                assert len({x for _, x in terms}) == len(terms)
                assert class_of_terms(terms, form, eng) == step.result.kclass, step.pair
        classes = [form.kclass(x, eng) for x in col.objects]
        assert M.gram_matrix(col, eng) == tuple(tuple(ref.chi(ka, kb) for kb in classes) for ka in classes)
    assert k_only_results > 500 and k_only_pairs > 200 and refused


def test_a_pair_whose_cone_cancels_is_refused(eng):
    # chi(O(2), O(2)) = 1, so both cones are O(2) - O(2): no terms, class 0,
    # which no exceptional object has.  A pair with a nonzero cone still mutates.
    twice = Collection((B.O(2), B.O(2)))
    for direction in ("R", "L"):
        assert M.k_cone(direction, B.O(2), B.O(2), M.KForm.chi(B.O(2), B.O(2), eng)) == ()
        with pytest.raises(DomainError, match=f"the {direction} mutation of .* has class 0"):
            M.mutate(twice, direction, 0, eng)
    assert M.mutate(Collection((B.O(2), B.O(3))), "R", 0, eng)[1].recipe == "k-only"


def test_step_kclass_is_the_class_of_the_result(eng, form):
    # Transpositions in both directions, an object-level recipe and a K-only cone.
    steps = [s for s in M.replay_main_proof(eng).steps]
    steps.append(M.mutate(Collection((B.U(6), B.Uv(5))), "L", 0, eng)[1])
    steps.append(M.mutate(Collection((B.O(0), B.O(1))), "R", 0, eng)[1])
    assert {s.recipe for s in steps} == {"transposition", "left-kernel", "right-cokernel", "k-only"}
    assert {s.direction for s in steps if s.recipe == "transposition"} == {"L", "R"}
    for s in steps:
        assert s.kclass == form.kclass(s.result, eng)


def test_replay_computes_each_class_once_per_form(monkeypatch):
    # An object's class costs its 16 basis pairings on its first read, basis
    # objects included, and every KForm.kclass call after that reads the
    # form's table without asking the engine for an Euler pairing.
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
    for obj in M.kuznetsov_collection().objects:
        form.kclass(obj, eng)
    assert set(per_object) == set(form._classes)
    assert set(form.basis) <= set(per_object)
    first_reads = {obj: counts[0] for obj, counts in per_object.items()}
    assert first_reads == {obj: 16 for obj in per_object}
    assert not any(c for counts in per_object.values() for c in counts[1:])
    assert sum(len(counts) - 1 for counts in per_object.values()) > len(per_object)

    fresh = ExtEngine()
    for obj, k in form._classes.items():
        assert k == tuple(fresh.euler(b, obj) for b in form.basis), obj
    # A warm replay asks only each cone's chi(E1, E2), and computes nothing.
    computed = []
    monkeypatch.setattr(ExtEngine, "_compute", lambda self, E, F: computed.append((E, F)))
    sizes = {name: len(table) for name, table in vars(eng).items() if isinstance(table, dict)}
    known = len(form._classes)
    asked.clear()
    steps = M.replay_main_proof(eng).steps
    assert asked == [s.pair for s in steps if s.recipe != "transposition"]
    assert computed == []
    assert {name: len(table) for name, table in vars(eng).items() if isinstance(table, dict)} == sizes
    assert len(form._classes) == known


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
    basis = form.basis
    assert [form.kclass(b, fresh) for b in basis] == [M.KForm.standard(warm).kclass(b, warm) for b in basis]
    that5 = B.Named("That", 5)
    assert form.kclass(that5, fresh) == tuple(-c for c in warm.kform.kclass(that5, warm))
    assert M.gram_matrix(col, fresh) != before


# The recipe reader as it was before one table replaced its three loops,
# kept as the reference for the table.
def _reference_rep_multiset(res, degree):
    out = {}
    for entry, m in ((e, m) for p, e, m in res.pieces if p == degree):
        if len(entry) != 1:
            return None
        out[entry[0]] = out.get(entry[0], 0) + m
    return tuple(sorted(out.items()))


def _reference_match_plain(term, obj, t):
    if isinstance(obj, KOnly) or term.coeff:
        return False
    return B.twist(term.obj, t) == obj


def _reference_coeff_matches(coeff, hyp, dualize):
    reps = _reference_rep_multiset(hyp, 0)
    if reps is None:
        return False
    return reps == (B.coeff_dual(coeff) if dualize else tuple(sorted(coeff)))


def _reference_find_recipe(direction, E1, E2, hyp):
    degrees = [p for p, d in hyp.dims().items() if d]
    if len(degrees) != 1:
        return None
    three_term = [s for s in B.standard_sequences() if len(s.terms) == 3]
    if hyp == X.trivial_result(1):
        for seq in three_term:
            a, b, c = seq.terms
            if b.coeff or a.coeff or c.coeff:
                continue
            t = _twist_delta(a.obj, E2)
            if t is not None and _reference_match_plain(c, E1, t):
                return ("extension", B.twist(b.obj, t), 0)
        return None
    if degrees[0] != 0:
        return None
    for seq in three_term:
        a, b, c = seq.terms
        if a.coeff or c.coeff or not b.coeff:
            continue
        if direction == "L":
            t = _twist_delta(c.obj, E2)
            if t is not None and _reference_match_plain(B.Term(b.obj), E1, t):
                if _reference_coeff_matches(b.coeff, hyp, dualize=False):
                    return ("left-kernel", B.twist(a.obj, t), 1)
        else:
            t = _twist_delta(a.obj, E1)
            if t is not None and _reference_match_plain(B.Term(b.obj), E2, t):
                if _reference_coeff_matches(b.coeff, hyp, dualize=True):
                    return ("right-cokernel", B.twist(c.obj, t), -1)
    return None


RECIPE_GENERATORS = (
    "O", "U", "Uv", "R", "Rv", "T", "That", "Thatv", "Ktilde", "Ktildev",
    "Sym2 Uv", "Sym2 Rv", "Wedge2 Rv", "Sym2 R", "Wedge2 R",
)


def test_recipe_table_agrees_with_the_reference_reader():
    # Every nonzero exact Ext between the generators at twists -2..2, as
    # asked and as its invariant part, in both directions.
    from homcoh.parser import parse_bundle

    eng = ExtEngine()
    objs = [parse_bundle(f"{g}({t})") for g in RECIPE_GENERATORS for t in range(-2, 3)]
    fired = {}
    for E1 in objs:
        for E2 in objs:
            res = eng.ext(E1, E2)
            if isinstance(res, X.Ambiguous) or res.is_zero:
                continue
            for hyp in (res, res.invariant_part()):
                for direction in ("L", "R"):
                    want = _reference_find_recipe(direction, E1, E2, hyp)
                    assert M._find_recipe(direction, E1, E2, hyp) == want, (direction, E1, E2, hyp)
                    if want is not None:
                        fired[want[0]] = fired.get(want[0], 0) + 1
    assert set(fired) == {"extension", "left-kernel", "right-cokernel"}, fired
