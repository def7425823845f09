import random

import pytest

from homcoh import bbw
from homcoh import bundles as B
from homcoh import ext as X
from homcoh import roots
from homcoh.ext import Ambiguous, ExtEngine, ExtResult, ls_chase, rep_result, trivial_result
from homcoh.parser import parse_bundle
from homcoh.roots import B4, D5, D5_P4, InternalConsistencyError


@pytest.fixture(scope="module")
def eng():
    return ExtEngine()


def test_structure_sheaf_is_exceptional(eng):
    assert eng.ext(B.O(), B.O()) == trivial_result(0)


def test_sections_of_dual_tautological(eng):
    assert eng.cohomology(B.Uv()) == rep_result(D5, {0: [(1, 0, 0, 0, 0)]})


def test_orthogonality_example(eng):
    assert eng.ext(B.U(1), B.Uv()).is_zero


def test_ext_with_shift_three(eng):
    assert eng.ext(B.sym_Uv(2, 2), B.Uv()) == trivial_result(3)


def test_sub_extension_class(eng):
    assert eng.ext(B.O(0, roots.B4_Q4), B.R()) == trivial_result(1)
    assert eng.ext(B.O(), B.R()) == trivial_result(1)  # through the twist bridge


def test_dual_affine_tangent_sections(eng):
    assert eng.cohomology(B.Thatv()) == rep_result(D5, {0: [(0, 0, 0, 1, 0)]})


def test_affine_tangent_acyclic(eng):
    assert eng.cohomology(B.That()).is_zero


def test_sym2_rank4_acyclic(eng):
    assert eng.cohomology(B.sym_R(2)).is_zero


def test_equivariant_examples(eng):
    assert eng.ext_equivariant(B.sym_Rv(2), B.Uv()) == {1: 1}
    assert eng.ext_equivariant(B.wedge_Rv(2), B.Rv()) == {1: 1}
    for obj in (B.Rv(2), B.sym_Rv(2, 2), B.wedge_Rv(2, 4), B.O(3), B.Uv(1)):
        assert eng.ext_equivariant(obj, obj) == {0: 1}, obj


def test_euler_examples(eng):
    assert eng.euler(B.O(), B.O(1)) == 16
    assert eng.euler(B.O(), B.U()) + eng.euler(B.O(), B.Uv()) == 10
    for obj in (B.O(2), B.Uv(5), B.That(6), B.Ktilde(2)):
        assert eng.euler(obj, obj) == 1, obj


def test_dualization_coherence(eng):
    rng = random.Random(37)
    for _ in range(30):
        w = tuple(
            rng.randint(0, 3) if i != 3 else rng.randint(-3, 3) for i in range(5)
        )
        lhs = eng.ext(B.irr(D5_P4, w), B.O())
        rhs = eng.cohomology(B.irr(D5_P4, roots.dualize_levi(D5_P4, w)))
        assert lhs.dims() == rhs.dims(), w


def test_ambiguous_pair_still_has_exact_euler(eng):
    res = eng.ext(B.Rv(), B.Uv())
    assert isinstance(res, Ambiguous)
    # forced by additivity along the tautological chain
    assert res.euler == eng.euler(B.Rv(), B.Uv()) == -9


def test_ls_chase_affine_kernel_for_dual_sections(eng):
    seq = next(s for s in B.standard_sequences() if s.name == "affine-kernel")
    res = ls_chase(seq, B.O(6), unknown=0, engine=eng, twist_by=6)
    assert res == rep_result(D5, {0: [(0, 0, 0, 1, 0)]})


def test_ls_chase_five_term_consistency(eng):
    five = next(s for s in B.standard_sequences() if s.name == "five-term")
    assert ls_chase(five, B.Uv(), unknown=0, engine=eng) == trivial_result(0)


def test_ls_chase_split_sequence_additivity(eng):
    split = B.Sequence(
        "split-demo",
        (
            B.Term(B.U()),
            B.Term(B.direct_sum(B.U(), B.O())),
            B.Term(B.O()),
        ),
    )
    target = B.Uv(-1)
    middle = ls_chase(split, target, unknown=1, engine=eng)
    outer_a = eng.ext(B.U(), target)
    outer_c = eng.ext(B.O(), target)
    merged = {}
    for part in (outer_a.as_dict(), outer_c.as_dict()):
        for p, layer in part.items():
            for entry, m in layer.items():
                merged.setdefault(p, {})
                merged[p][entry] = merged[p].get(entry, 0) + m
    assert middle.as_dict() == {p: layer for p, layer in merged.items() if layer}


def test_engine_memoization_is_stable(eng):
    first = eng.ext(B.That(6), B.O(6))
    second = eng.ext(B.That(6), B.O(6))
    assert first == second == rep_result(D5, {0: [(0, 0, 0, 1, 0)]})


def test_formal_products_report_dimensions(eng):
    res = eng.ext(B.O(), B.That(5))
    assert not isinstance(res, Ambiguous)
    dims = res.dims()
    assert all(d > 0 for d in dims.values())
    assert res.euler() == eng.euler(B.O(), B.That(5))


def test_cross_description_multi_part(eng):
    lhs = B.direct_sum(B.sym_Rv(2), B.sym_Rv(2, 1))
    res = eng.ext(lhs, B.Uv())
    assert not isinstance(res, Ambiguous)
    assert res.dims() == {1: 1}


# Direct pairs, covariant and contravariant chases, coefficient columns
# (the affine and quadric sequences) and cross-description pairs.
TABLE_QUERIES = (
    ("Sym2 Uv", "Uv(-2)"), ("O", "That(5)"), ("That", "O(-1)"), ("Thatv", "Ktilde(1)"),
    ("Ktilde", "Uv"), ("Ktildev", "O(1)"), ("Rv", "Uv"), ("Sym2 Rv", "Uv"),
    ("U", "Sym2 Uv(1)"), ("Wedge2 Rv", "Rv"),
)


def _log_calls(monkeypatch, module, name: str, log: list) -> None:
    original = getattr(module, name)

    def counting(*args):
        log.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)


def test_kernel_tables_compute_each_key_once_per_engine(monkeypatch):
    calls = {"bbw_cohomology": [], "dual_weight": []}
    _log_calls(monkeypatch, bbw, "bbw_cohomology", calls["bbw_cohomology"])
    _log_calls(monkeypatch, roots, "dual_weight", calls["dual_weight"])
    pairs = [(parse_bundle(e), parse_bundle(f)) for e, f in TABLE_QUERIES]

    def run_fresh_engine():
        for keys in calls.values():
            keys.clear()
        eng = ExtEngine()
        for E, F in pairs:
            eng.ext(E, F)
            eng.euler(E, F)
        return {name: list(keys) for name, keys in calls.items()}

    first = run_fresh_engine()
    for name, keys in first.items():
        assert keys, f"{name} was never reached"
        assert len(keys) == len(set(keys)), f"{name}: {len(keys)} calls for {len(set(keys))} keys"
    # The tables belong to the engine: a second one computes everything again.
    assert run_fresh_engine() == first


# Direct pairs on both descriptions and two chases.
RHO_FAULT_QUERIES = (
    ("O", "O"), ("Uv", "Uv"), ("R", "R"), ("O", "Sym2 Rv"), ("Sym2 Uv", "Uv(-2)"), ("U", "Sym2 Uv(1)"),
)


def test_bbw_fault_reaches_a_fresh_engine_after_another_engine_is_warm(monkeypatch):
    # A wrong rho reaches only the BBW walk: the Levi duals and products of
    # these pairs stay as they were, so a fresh engine sees the fault only
    # if no BBW result outlives the engine that computed it.
    pairs = [(parse_bundle(e), parse_bundle(f)) for e, f in RHO_FAULT_QUERIES]
    warm = ExtEngine()
    before = [warm.ext(E, F) for E, F in pairs]
    monkeypatch.setattr(roots, "rho", lambda datum: (2,) + (1,) * (datum.rank - 1))
    fresh = ExtEngine()
    for (E, F), answer in zip(pairs, before):
        assert fresh.ext(E, F) != answer, (E, F)


GRID_GENERATORS = (
    "O", "U", "Uv", "R", "Rv", "T", "That", "Thatv", "Ktilde", "Ktildev",
    "Sym2 Uv", "Sym2 Rv", "Wedge2 Rv",
)
# Pairs whose routes disagree: none, since a pair with a B4/Q4 summand that
# is not a twist of O is labelled by B4 irreducibles on every route.
KNOWN_DISAGREEING: set = set()


def test_generator_grid_is_consistent():
    # A fresh engine queried in a fixed order: which pairs disagree depends
    # on what the engine has already memoized.
    eng = ExtEngine()
    exact = {}
    disagreeing = set()
    for e in GRID_GENERATORS:
        for f in GRID_GENERATORS:
            for t in (-1, 0, 1):
                E, F = parse_bundle(e), parse_bundle(f"{f}({t})")
                try:
                    res = eng.ext(E, F)
                except InternalConsistencyError:
                    disagreeing.add((e, f"{f}({t})"))
                    continue
                if isinstance(res, Ambiguous):
                    assert res.euler == eng.euler(E, F), (e, f, t)
                else:
                    assert res.euler() == eng.euler(E, F), (e, f, t)
                    exact[(e, f, t)] = res
    assert disagreeing == KNOWN_DISAGREEING
    # Serre duality on the tenfold (dimension 10, canonical bundle O(-8)):
    # Ext^p(E, F) = Ext^{10-p}(F, E(-8))^*, checked wherever both are exact.
    for (e, f, t), res in exact.items():
        dual = eng.ext(parse_bundle(f"{f}({t})"), parse_bundle(f"{e}(-8)"))
        if isinstance(dual, ExtResult):
            assert res.dims() == {10 - p: d for p, d in dual.dims().items()}, (e, f, t)


GRID = [(e, f"{f}({t})") for e in GRID_GENERATORS for f in GRID_GENERATORS for t in (-1, 0, 1)]


def test_euler_form_takes_no_route(monkeypatch):
    # The Euler form pairs K-classes, so it checks the chases from outside:
    # an engine that can take no route gives every exact answer's Euler
    # characteristic, and every Ambiguous one's.
    def no_route(*args, **kwargs):
        raise AssertionError("the Euler form took a route")

    routeless = ExtEngine()
    for name in ("_routes", "_chase", "_compute"):
        monkeypatch.setattr(routeless, name, no_route)
    eng = ExtEngine()
    for e, f in GRID:
        E, F = parse_bundle(e), parse_bundle(f)
        res = eng.ext(E, F)
        chi = res.euler() if isinstance(res, ExtResult) else res.euler
        assert routeless.euler(E, F) == eng.euler(E, F) == chi, (e, f)


def test_euler_form_is_serre_dual():
    # chi(E, F) = chi(F, E (x) K) on the tenfold, K = O(-8), dimension 10.
    eng = ExtEngine()
    for e, f in GRID:
        chi = eng.euler(parse_bundle(e), parse_bundle(f))
        assert chi == eng.euler(parse_bundle(f), parse_bundle(f"{e}(-8)")), (e, f)


def _answer_grid(order):
    """Every grid pair on a fresh engine, queried in this order, as reprs.

    Also checks the memo rule on every query that computed: an exact answer
    is kept, and an Ambiguous one exactly when no cycle was cut while it
    was computed."""
    eng = ExtEngine()
    answers = {}
    for e, f in order:
        E, F = parse_bundle(e), parse_bundle(f)
        key = X._at_level_zero(E, F)
        computed, cuts = key not in eng._memo, eng._cuts
        res = eng.ext(E, F)
        answers[(e, f)] = repr(res)
        if computed:
            kept = isinstance(res, ExtResult) or eng._cuts == cuts
            assert (key in eng._memo) == kept, (e, f)
    assert not any(getattr(v, "reason", "") == "cyclic dependency" for v in eng._memo.values())
    return answers


def test_grid_answers_do_not_depend_on_the_query_order():
    fixed = _answer_grid(GRID)
    for seed in (1, 2, 3):
        shuffled = _answer_grid(random.Random(seed).sample(GRID, len(GRID)))
        assert shuffled == fixed, [pair for pair in GRID if shuffled[pair] != fixed[pair]]


TWIST_CLASS_PAIRS = (
    ("That", "Uv"),  # a named object
    ("T", "R(1)"),  # a cross-description pair
    ("Rv", "Ktilde(1)"),  # a B4/Q4 bundle against a named object
    ("Sym2 Rv + Sym2 Rv(1)", "Uv"),  # a Sum with several parts
)


@pytest.mark.parametrize("e,f", TWIST_CLASS_PAIRS)
def test_ext_is_constant_on_twist_classes(e, f):
    E, F = parse_bundle(e), parse_bundle(f)
    want = ExtEngine().ext(E, F)
    assert isinstance(want, ExtResult), want
    for k in range(-3, 4):
        assert ExtEngine().ext(B.twist(E, k), B.twist(F, k)) == want, k


def test_uncut_ambiguous_answer_is_kept_with_its_euler_characteristic(monkeypatch):
    computed = []
    _log_calls(monkeypatch, ExtEngine, "_compute", computed)
    eng = ExtEngine()
    first = eng.ext(B.Uv(), B.sym_Rv(2))
    # No cycle was cut on the way (Ext(Rv, Uv) would see two cuts).
    assert isinstance(first, Ambiguous) and eng._cuts == 0
    before = len(computed)
    assert eng.ext(B.Uv(), B.sym_Rv(2)) is first
    assert eng.ext(B.Uv(-2), B.sym_Rv(2, -2)) is first
    assert len(computed) == before
    assert first.euler == ExtEngine().euler(B.Uv(), B.sym_Rv(2)) == 9
