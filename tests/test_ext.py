import random

import ledger
import pytest

from homcoh import bbw, levi
from homcoh import bundles as B
from homcoh import ext as X
from homcoh import roots
from homcoh.ext import Ambiguous, ExtEngine, ExtResult, ls_chase, rep_result, trivial_result
from homcoh.parser import parse_bundle
from homcoh.roots import B4, D5, D5_P4, InternalConsistencyError


@pytest.fixture(scope="module")
def eng():
    return ExtEngine()


def _chi(res):
    """The Euler characteristic of an exact answer, from its dimensions."""
    return sum(-d if p & 1 else d for p, d in res.dims().items())


def test_structure_sheaf_is_exceptional(eng):
    assert eng.ext(B.O(), B.O()) == trivial_result(0)


def test_sections_of_dual_tautological(eng):
    assert eng.cohomology(B.Uv()) == rep_result(D5, {0: [(1, 0, 0, 0, 0)]})


def test_orthogonality_example(eng):
    assert eng.ext(B.U(1), B.Uv()).is_zero


def test_ext_with_shift_three(eng):
    assert eng.ext(B.schur("Uv", "Sym", 2, 2), B.Uv()) == trivial_result(3)


def test_sub_extension_class(eng):
    # O spelled on B4/Q4 is O, so one answer, taken on B4/Q4 by _direct
    assert eng.ext(B.irr(roots.B4_Q4, (0, 0, 0, 0)), B.R()) == trivial_result(1)
    assert eng.ext(B.O(), B.R()) == trivial_result(1)


def test_dual_affine_tangent_sections(eng):
    assert eng.cohomology(B.Named("Thatv", 0)) == rep_result(D5, {0: [(0, 0, 0, 1, 0)]})


def test_affine_tangent_acyclic(eng):
    assert eng.cohomology(B.Named("That", 0)).is_zero


def test_sym2_rank4_acyclic(eng):
    assert eng.cohomology(B.schur("R", "Sym", 2)).is_zero


def test_equivariant_examples(eng):
    assert eng.ext_equivariant(B.schur("Rv", "Sym", 2), B.Uv()) == {1: 1}
    assert eng.ext_equivariant(B.schur("Rv", "Wedge", 2), B.Rv()) == {1: 1}
    # the spin representation V[0,0,0,1,0] @ 0 has no invariants: no degree is left
    assert eng.ext_equivariant(B.Named("That", 6), B.O(6)) == {}
    for obj in (B.Rv(2), B.schur("Rv", "Sym", 2, 2), B.schur("Rv", "Wedge", 2, 4), B.O(3), B.Uv(1)):
        assert eng.ext_equivariant(obj, obj) == {0: 1}, obj


def test_euler_examples(eng):
    assert eng.euler(B.O(), B.O(1)) == 16
    assert eng.euler(B.O(), B.U()) + eng.euler(B.O(), B.Uv()) == 10
    for obj in (B.O(2), B.Uv(5), B.Named("That", 6), B.Named("Ktilde", 2)):
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
    # Ext(That(6), O(6)) = Ext(That, O).
    res = ls_chase(seq, B.O(), unknown=0, engine=eng)
    assert res == rep_result(D5, {0: [(0, 0, 0, 1, 0)]})


def test_ls_chase_rejects_an_unknown_variance(eng):
    seq = next(s for s in B.standard_sequences() if s.name == "affine-kernel")
    with pytest.raises(roots.DomainError, match="variance 'Onto'"):
        ls_chase(seq, B.O(), unknown=0, engine=eng, variance="Onto")


def test_ls_chase_five_term_consistency(eng):
    five = next(s for s in B.standard_sequences() if s.name == "five-term")
    assert ls_chase(five, B.Uv(), unknown=0, engine=eng) == trivial_result(0)


def test_ls_chase_that_does_not_degenerate_carries_the_exact_euler():
    # A chase that fails is None; ls_chase answers it with the one Ambiguous,
    # the Euler characteristic of the unknown term against the target.
    # Ext(U, O(1)) = Ext(U(-1), O).
    eng = ExtEngine()
    seq = next(s for s in B.standard_sequences() if s.name == "taut-rank5")
    res = ls_chase(seq, B.O(1), unknown=0, engine=eng)
    assert isinstance(res, Ambiguous)
    assert res.reason == "no degenerate chase over taut-rank5"
    exact = eng.ext(B.U(-1), B.O())
    assert exact == rep_result(D5, {0: [(1, 0, 0, 1, 0)]})
    assert res.euler == eng.euler(B.U(-1), B.O()) == _chi(exact) == 144


def test_ls_chase_split_sequence_additivity(eng):
    split = B.Sequence(
        "split-demo",
        (
            B.Term(B.U()),
            B.Term(B.direct_sum(B.U(), B.O())),
            B.Term(B.O()),
        ),
    )
    # Against Uv(-1) both outer answers vanish; against Uv and O neither does,
    # so the solver must add two nonzero columns.
    for target, nonzero in ((B.Uv(-1), False), (B.Uv(), True), (B.O(), True)):
        middle = ls_chase(split, target, unknown=1, engine=eng)
        outer_a = eng.ext(B.U(), target)
        outer_c = eng.ext(B.O(), target)
        assert {outer_a.is_zero, outer_c.is_zero} == {not nonzero}, target
        merged = {}
        for part in (outer_a, outer_c):
            for p, e, m in part.pieces:
                merged[p, e] = merged.get((p, e), 0) + m
        assert {(p, e): m for p, e, m in middle.pieces} == merged, target


def test_engine_memoization_is_stable(eng):
    first = eng.ext(B.Named("That", 6), B.O(6))
    second = eng.ext(B.Named("That", 6), B.O(6))
    assert first == second == rep_result(D5, {0: [(0, 0, 0, 1, 0)]})


def test_formal_products_report_dimensions(eng):
    res = eng.ext(B.O(), B.Named("That", 5))
    assert not isinstance(res, Ambiguous)
    dims = res.dims()
    assert all(d > 0 for d in dims.values())
    assert _chi(res) == eng.euler(B.O(), B.Named("That", 5))


def test_cross_description_multi_part(eng):
    lhs = B.direct_sum(B.schur("Rv", "Sym", 2), B.schur("Rv", "Sym", 2, 1))
    res = eng.ext(lhs, B.Uv())
    assert not isinstance(res, Ambiguous)
    assert res.dims() == {1: 1}


def test_cross_sums_add_over_their_summands():
    # (Rv, Uv) is an Ambiguous grid pair and (Rv, Uv(1)) an exact one: their
    # sum is Ambiguous, with the exact Euler characteristic.
    eng = ExtEngine()
    mixed = eng.ext(B.Rv(), B.direct_sum(B.Uv(), B.Uv(1)))
    assert isinstance(eng.ext(B.Rv(), B.Uv()), Ambiguous) and isinstance(eng.ext(B.Rv(), B.Uv(1)), ExtResult)
    assert isinstance(mixed, Ambiguous)
    assert mixed.euler == eng.euler(B.Rv(), B.direct_sum(B.Uv(), B.Uv(1)))
    # An all-exact cross sum, asked on a fresh engine, is the sum of its
    # summands' answers.
    whole = ExtEngine().ext(B.Rv(), B.direct_sum(B.Uv(-1), B.Uv(1)))
    parts = [piece for F in (B.Uv(-1), B.Uv(1)) for piece in eng.ext(B.Rv(), F).pieces]
    assert not whole.is_zero and whole == ExtResult.collect(parts)


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


def _log_outer_calls(monkeypatch, module, name: str, log: list) -> None:
    """_log_calls, leaving out calls made while another call to name runs."""
    original = getattr(module, name)
    running = []

    def counting(*args):
        if not running:
            log.append(args)
        running.append(args)
        try:
            return original(*args)
        finally:
            running.pop()

    monkeypatch.setattr(module, name, counting)


def test_kernel_tables_compute_each_key_once_per_engine(monkeypatch):
    calls = {"bbw_cohomology": [], "kclass": []}
    _log_calls(monkeypatch, bbw, "bbw_cohomology", calls["bbw_cohomology"])
    # kclass of a named object recurses into the terms of its sequence:
    # count only the classes the engine asks for.
    _log_outer_calls(monkeypatch, B, "kclass", calls["kclass"])
    # Two methods, logged with their arguments and not the engine.
    for name in ("_pair_chi", "_term_at"):
        calls[name] = []

        def logged(self, *args, log=calls[name], method=getattr(ExtEngine, name)):
            log.append(args)
            return method(self, *args)

        monkeypatch.setattr(ExtEngine, name, logged)
    # Also at common twists, so that one object is asked at several levels.
    pairs = [
        (B.twist(parse_bundle(e), k), B.twist(parse_bundle(f), k))
        for e, f in TABLE_QUERIES
        for k in (0, -2, 3)
    ]

    def run_fresh_engine():
        for keys in calls.values():
            keys.clear()
        eng = ExtEngine()
        for E, F in pairs:
            eng.ext(E, F)
            eng.euler(E, F)
        return {"_pairs": list(eng._pairs)} | {name: list(keys) for name, keys in calls.items()}

    first = run_fresh_engine()
    for name, keys in first.items():
        assert keys, f"{name} was never reached"
        assert len(keys) == len(set(keys)), f"{name}: {len(keys)} calls for {len(set(keys))} keys"
    # The direct answers and the Euler form keep a pair of irreducibles
    # only with both weights at level zero, the difference of their charges
    # apart.
    for name in ("_pairs", "_pair_chi"):
        assert all(w1[pb.marked[0] - 1] == w2[pb.marked[0] - 1] == 0 for pb, w1, w2, _ in first[name]), name
    # The tables belong to the engine: a second one computes everything again.
    assert run_fresh_engine() == first


def test_repeated_query_is_a_memo_hit(monkeypatch):
    # A pair asked before, with an answer the memo keeps, is answered from
    # the memo: no route, the same answer object.
    eng = ExtEngine()
    pairs = [
        (B.twist(parse_bundle(e), k), B.twist(parse_bundle(f), k))
        for e, f in TABLE_QUERIES
        for k in (-2, 0, 3)
    ]
    first = {pair: eng.ext(*pair) for pair in pairs}
    kept = {(E, F): answer for (E, F), answer in first.items() if eng._memo.get((E.base, F.base, F.level - E.level)) is answer}
    # Only an Ambiguous computed under a cycle cut is not kept.
    assert all(isinstance(answer, Ambiguous) for pair, answer in first.items() if pair not in kept)
    assert len(kept) > len(pairs) // 2
    computed = []
    _log_calls(monkeypatch, ExtEngine, "_compute", computed)
    for (E, F), answer in kept.items():
        assert eng.ext(E, F) is answer, (E, F)
    assert computed == []


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
                    assert _chi(res) == eng.euler(E, F), (e, f, t)
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
        chi = _chi(res) if isinstance(res, ExtResult) else res.euler
        assert routeless.euler(E, F) == eng.euler(E, F) == chi, (e, f)


def test_euler_form_is_serre_dual():
    # chi(E, F) = chi(F, E (x) K) on the tenfold, K = O(-8), dimension 10.
    eng = ExtEngine()
    for e, f in GRID:
        chi = eng.euler(parse_bundle(e), parse_bundle(f))
        assert chi == eng.euler(parse_bundle(f), parse_bundle(f"{e}(-8)")), (e, f)


def _levi_chi(pb, w1, w2):
    """chi(L1-dual (x) L2) for the irreducibles of Levi weights w1 and w2 on
    pb, from roots, levi and bbw alone: the signed dimensions of the BBW
    cohomology of the Levi pieces of L1-dual (x) L2."""
    chi = 0
    for nu, mult in levi.tensor_decompose(pb, roots.dualize_levi(pb, w1), w2).items():
        coh = bbw.bbw_cohomology(pb, nu)
        if not coh.vanishes:
            chi += (-1) ** coh.degree * mult * bbw.weyl_dim(pb.datum, coh.weight)
    return chi


def _old_pairing(E, F):
    """ExtEngine.euler as a sum that shares no table with any engine: both
    classes taken from bundles.kclass and put on one space on every call,
    every pair of pieces at the levels it has, its chi computed by
    _levi_chi.  No piece is moved to level zero."""
    classes = B.kclass(E), B.kclass(F)
    on_b4 = any(space == B.B4_Q4 for cls in classes for space, _ in cls)
    pb = B.B4_Q4 if on_b4 else B.D5_P4
    a, b = (X._on_space(pb, cls) for cls in classes)
    return sum(n1 * n2 * _levi_chi(pb, w1, w2) for w1, n1 in a.items() for w2, n2 in b.items())


# The 13 x 13 grid at twists -3..3 and the Serre dual (F, E(-8)) of each pair.
EULER_GRID = [(e, f"{f}({t})") for e in GRID_GENERATORS for f in GRID_GENERATORS for t in range(-3, 4)]
EULER_GRID += [(f, f"{e}(-8)") for e, f in EULER_GRID]
# Sums whose parts sit at different levels, so that pieces are asked away
# from level zero and the pairing must move them there.
MIXED_LEVELS = ("O + O(2)", "Uv + Sym2 Uv(1)", "U(-1) + Uv(1)", "Rv(-1) + Sym2 Rv(2)", "R + Wedge2 Rv(1)", "That", "Ktildev")


@pytest.fixture(scope="module")
def euler_reference():
    pairs = [(parse_bundle(e), parse_bundle(f)) for e, f in EULER_GRID]
    return {(E, F): _old_pairing(E, F) for E, F in pairs}


def _assert_same_pairings(eng, reference, order):
    for E, F in order:
        assert eng.euler(E, F) == reference[E, F], (E, F)


def test_euler_matches_the_old_pairing_on_a_fresh_and_a_warm_engine(euler_reference):
    pairs = list(euler_reference)
    assert len(pairs) == 2366
    _assert_same_pairings(ExtEngine(), euler_reference, pairs)
    warm = ExtEngine()
    _assert_same_pairings(warm, euler_reference, random.Random(5).sample(pairs, len(pairs)))
    _assert_same_pairings(warm, euler_reference, pairs)


def test_euler_matches_the_old_pairing_on_pieces_at_different_levels():
    eng = ExtEngine()
    objs = [B.twist(parse_bundle(e), k) for e in MIXED_LEVELS for k in (-2, 0, 1)]
    for E in objs:
        for F in objs:
            assert eng.euler(E, F) == _old_pairing(E, F), (E, F)
    # The classes have pieces away from level zero, and _pairs keeps
    # each pair of pieces with both weights at level zero only, the
    # difference of their charges apart: one key per twist class.
    # Every object was paired with That or Ktildev, whose classes live on
    # B4/Q4, so the engine keeps each class there, branched on first use.
    away = 0
    for E in objs:
        on_d5, on_b4 = eng._classes[E,]
        assert on_b4 is not None, E
        for pb, pieces in ((D5_P4, on_d5 or ()), (B.B4_Q4, on_b4)):
            assert all(w[pb.marked[0] - 1] == 0 for w, _, _ in pieces), E
            away += sum(1 for _, k, _ in pieces if k)
    assert away
    assert all(w1[pb.marked[0] - 1] == w2[pb.marked[0] - 1] == 0 for pb, w1, w2, _ in eng._pairs)


def test_a_warm_pairing_computes_nothing(monkeypatch, euler_reference):
    eng = ExtEngine()
    pairs = list(euler_reference)
    first = [eng.euler(E, F) for E, F in pairs]

    def computes(*args, **kwargs):
        raise AssertionError("a warm pairing computed")

    monkeypatch.setattr(B, "kclass", computes)
    monkeypatch.setattr(ExtEngine, "_levi_pieces", computes)
    monkeypatch.setattr(ExtEngine, "_pair_chi", computes)
    monkeypatch.setattr(bbw, "bbw_cohomology", computes)
    monkeypatch.setattr(bbw, "euler_characteristic", computes)
    monkeypatch.setattr(X, "_on_space", computes)
    monkeypatch.setattr(X, "_branched", computes)
    monkeypatch.setattr(levi, "branch_levi", computes)
    assert [eng.euler(E, F) for E, F in pairs] == first


def test_twisted_pairings_compute_the_chis_of_the_untwisted_ones(monkeypatch):
    # (E(k), F(k)) is in the twist class of (E, F): a fresh engine asked the
    # twisted pairs computes the same _pairs keys, each once, and no more.
    # Euler pairings fill _pairs with chi alone, through _pair_chi.
    calls = []
    pair_chi = ExtEngine._pair_chi

    def logged(self, *key):
        calls.append(key)
        return pair_chi(self, *key)

    monkeypatch.setattr(ExtEngine, "_pair_chi", logged)
    objs = [parse_bundle(e) for e in MIXED_LEVELS]
    computed, answers = {}, {}
    for k in (0, -2, 3):
        calls.clear()
        eng = ExtEngine()
        twisted = [B.twist(E, k) for E in objs]
        answers[k] = [eng.euler(E, F) for E in twisted for F in twisted]
        computed[k] = list(calls)
    assert computed[0] and len(computed[0]) == len(set(computed[0]))
    assert all(w1[pb.marked[0] - 1] == w2[pb.marked[0] - 1] == 0 for pb, w1, w2, _ in computed[0])
    for k in (-2, 3):
        assert answers[k] == answers[0], k
        assert len(computed[k]) == len(computed[0]) and set(computed[k]) == set(computed[0]), k


def _weyl_chi(pb, w1, w2, d):
    """The chi of the _pairs key (pb, w1, w2, d) as Weyl's polynomial summed
    over the Levi pieces of L1-dual (x) L2, L2 of w2 at charge d."""
    i = pb.marked[0] - 1
    product = levi.tensor_decompose(pb, roots.dualize_levi(pb, w1), w2[:i] + (d,) + w2[i + 1 :])
    return sum(mult * bbw.euler_characteristic(pb.datum, nu) for nu, mult in product.items())


def _irreducible_answers(eng):
    """(the _pairs key, the answer) of every exact answer in the Ext memo
    of eng for two irreducibles on one description."""
    for (E, F_base, level), res in eng._memo.items():
        F = B.twist(F_base, level)
        if not (isinstance(res, ExtResult) and isinstance(E, B.Sum) and isinstance(F, B.Sum)):
            continue
        if E.space is F.space and len(E.pieces) == len(F.pieces) == 1 and E.pieces[0][2] == F.pieces[0][2] == 1:
            (w1, k1, _), (w2, k2, _) = E.pieces[0], F.pieces[0]
            yield (E.space, w1, w2, k2 - k1), res


def test_every_pair_entry_keeps_the_euler_characteristic_of_its_answer():
    # Every entry is an int, Weyl's chi and the chi of the BBW walks, also
    # the entries that _direct filled; the answer of two irreducibles that
    # the memo keeps has the chi of its entry.
    eng = ExtEngine()
    for e, f in GRID:
        E, F = parse_bundle(e), parse_bundle(f)
        eng.ext(E, F)
        eng.euler(E, F)
    assert len(eng._pairs) > 100
    for (pb, w1, w2, d), chi in eng._pairs.items():
        i = pb.marked[0] - 1
        assert type(chi) is int and chi == _weyl_chi(pb, w1, w2, d), (pb, w1, w2, d)
        assert chi == _levi_chi(pb, w1, w2[:i] + (d,) + w2[i + 1 :]), (pb, w1, w2, d)
    answered = dict(_irreducible_answers(eng))
    assert len(answered) > 100 and len(answered) < len(eng._pairs)
    for key, res in answered.items():
        assert _chi(res) == eng._pairs[key], key


def test_each_direct_answer_is_kept_once_in_the_ext_memo():
    # _pairs keeps chi alone: on the grid (ext and euler) no kernel table
    # holds an answer, every _pairs entry is Weyl's chi as an int, and the
    # memo's answer for two irreducibles on one description has that chi.
    eng = ExtEngine()
    for e, f in EULER_GRID[:1183]:  # the grid at twists -3..3
        E, F = parse_bundle(e), parse_bundle(f)
        eng.ext(E, F)
        eng.euler(E, F)
    tables = {name: value for name, value in vars(eng).items() if isinstance(value, dict) and name != "_memo"}
    assert len(tables) == 5
    for name, table in tables.items():
        assert table and not any(isinstance(value, ExtResult) for value in table.values()), name
    assert all(type(chi) is int and chi == _weyl_chi(*key) for key, chi in eng._pairs.items())
    answered = list(_irreducible_answers(eng))
    assert len(answered) > 100
    for key, res in answered:
        assert _chi(res) == eng._pairs[key], key


def test_a_bbw_fault_is_caught_when_an_euler_entry_is_completed(monkeypatch):
    # euler fills _pairs with Weyl's chi; _direct builds the BBW answer of
    # such an entry and compares its chi with the one held.  A walk that adds
    # 1 to every nonzero degree flips the sign of those pieces' chi.
    def shifted(pb, nu, walk=bbw.bbw_cohomology):
        coh = walk(pb, nu)
        return bbw.Cohomology(coh.degree + 1, coh.weight, coh.dim) if coh.degree else coh

    E, F = B.O(), B.O(-9)  # H^10(O(-9)) = H^0(O(1))-dual: one piece, in degree 10
    eng = ExtEngine()
    chi = eng.euler(E, F)
    assert chi == 16 and eng._pairs[D5_P4, (0,) * 5, (0,) * 5, -9] == 16
    monkeypatch.setattr(bbw, "bbw_cohomology", shifted)
    with pytest.raises(InternalConsistencyError, match="by Weyl's polynomial"):
        eng.ext(E, F)
    # A fresh engine holds no chi to compare with: the fault goes through.
    assert ExtEngine().ext(E, F).dims() == {11: 16}


def test_euler_after_ext_of_two_irreducibles_fills_only_their_classes():
    # _direct and euler read one _pairs entry per pair of pieces: once the
    # Ext of two irreducibles on one description is known, their Euler
    # pairing computes nothing but the two classes.
    eng = ExtEngine()
    tables = [name for name, value in vars(eng).items() if isinstance(value, dict) and name != "_classes"]
    checked = 0
    for e, f in EULER_GRID[:1183]:  # the grid at twists -3..3
        E, F = parse_bundle(e), parse_bundle(f)
        if not (isinstance(E, B.Sum) and isinstance(F, B.Sum) and E.space is F.space):
            continue
        if len(E.parts) + len(F.parts) != 2:
            continue
        eng.ext(E, F)
        sizes = {name: len(getattr(eng, name)) for name in tables}
        eng.euler(E, F)
        assert {name: len(getattr(eng, name)) for name in tables} == sizes, (e, f)
        checked += 1
    assert checked == 287 and "_pairs" in tables


def test_every_sum_keeps_its_parts_split_at_the_marked_coordinate():
    eng = ExtEngine()
    for e, f in GRID:
        eng.ext(parse_bundle(e), parse_bundle(f))
    sums = set(B.Sum._table.values())
    assert len(sums) > 100
    for S in sums:
        i = S.space.marked[0] - 1
        assert S.pieces == tuple((w[:i] + (0,) + w[i + 1 :], w[i], m) for w, m in S.parts), S
        assert S.level == S.pieces[0][1], S


def test_equivariant_answers_are_the_invariant_counts_of_the_ext_answers():
    eng = ExtEngine()
    exact = nonzero = 0
    for e, f in EULER_GRID[:1183]:  # the grid, without its Serre duals
        E, F = parse_bundle(e), parse_bundle(f)
        equivariant = eng.ext_equivariant(E, F)
        res = eng.ext(E, F)
        if isinstance(res, Ambiguous):
            assert equivariant == res, (e, f)
            continue
        # The trivial B4 representation counted piece by piece, degrees ascending.
        expected = {}
        for p, entry, m in res.pieces:
            n = m * levi.invariant_multiplicity_entry(entry)
            if n:
                expected[p] = expected.get(p, 0) + n
        assert equivariant == res.invariant_part().dims() == expected, (e, f)
        assert list(res.invariant_dims().items()) == sorted(expected.items()), (e, f)
        exact += 1
        nonzero += bool(expected)
    assert exact > 800 and nonzero


def test_a_chase_that_fails_is_none(monkeypatch):
    # A failed chase carries no placeholder answer: _chase gives None, and
    # the only Ambiguous a caller sees at the top level is the one _compute
    # builds, with the exact Euler characteristic.
    chases = []
    chase = ExtEngine._chase

    def logged(self, *args, **kwargs):
        chases.append(chase(self, *args, **kwargs))
        return chases[-1]

    monkeypatch.setattr(ExtEngine, "_chase", logged)
    eng = ExtEngine()
    ambiguous = 0
    for e, f in EULER_GRID[:1183]:  # the grid, without its Serre duals
        E, F = parse_bundle(e), parse_bundle(f)
        res = eng.ext(E, F)
        if isinstance(res, Ambiguous):
            ambiguous += 1
            assert (res.reason, res.euler) == ("no degenerate chase", eng.euler(E, F)), (e, f)
    assert ambiguous and None in chases
    assert all(res is None or isinstance(res, ExtResult) for res in chases)


def _answer_grid(order):
    """Every grid pair on a fresh engine, queried in this order, as reprs.

    Also checks the memo rule on every query that computed: an exact answer
    is kept, and an Ambiguous one exactly when no cycle was cut while it
    was computed."""
    eng = ExtEngine()
    answers = {}
    for e, f in order:
        E, F = parse_bundle(e), parse_bundle(f)
        key = E.base, F.base, F.level - E.level
        computed, cuts = key not in eng._memo, eng._cuts
        res = eng.ext(E, F)
        answers[(e, f)] = repr(res)
        if computed:
            kept = isinstance(res, ExtResult) or eng._cuts == cuts
            assert (key in eng._memo) == kept, (e, f)
    assert not any(getattr(v, "reason", "") == "cyclic dependency" for v in eng._memo.values())
    return answers


def test_a_memo_hit_builds_no_bundle(monkeypatch):
    # The memo key is read off the pair, its two bases and the difference of
    # their levels, so a second pass over the grid answers every pair the
    # memo keeps with twist raising.  A pair it does not keep, an Ambiguous
    # computed under a cycle cut, is computed again with twist in place.
    eng = ExtEngine()
    pairs = [(parse_bundle(e), parse_bundle(f)) for e, f in ledger.GRID]
    first = [eng.ext(E, F) for E, F in pairs]

    def no_twist(obj, k):
        raise AssertionError(f"twist({obj!r}, {k}) on a memo hit")

    hits = 0
    for (E, F), want in zip(pairs, first):
        with monkeypatch.context() as m:
            if (E.base, F.base, F.level - E.level) in eng._memo:
                hits += 1
                m.setattr(B, "twist", no_twist)
            assert repr(eng.ext(E, F)) == repr(want), (E, F)
    assert hits > 1000


def test_grid_answers_do_not_depend_on_the_query_order():
    fixed = _answer_grid(GRID)
    for seed in (1, 2, 3):
        shuffled = _answer_grid(random.Random(seed).sample(GRID, len(GRID)))
        assert shuffled == fixed, [pair for pair in GRID if shuffled[pair] != fixed[pair]]


def _bundle_objects(value):
    if isinstance(value, (B.Sum, B.Named)):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _bundle_objects(item)


def test_a_grid_session_keeps_only_the_stored_objects():
    # Every bundle object an engine keeps is the one its class stores for
    # that value.  A route that built one past the table (as twist once did,
    # through object.__new__) would split one memo key into two, since keys
    # compare by identity.
    eng = ExtEngine()
    for e, f in ledger.GRID:
        eng.ext(parse_bundle(e), parse_bundle(f))
    kept = [obj for table in (eng._memo, eng._terms) for obj in _bundle_objects(tuple(table.items()))]
    kept += [obj.base for obj in kept]
    assert len(ledger.GRID) == 1183 and len(kept) > 6 * len(ledger.GRID)
    for obj in kept:
        assert type(obj)(*(getattr(obj, name) for name in obj._fields)) is obj, obj
        if isinstance(obj, B.Sum):
            assert roots.Parabolic(obj.space.datum, obj.space.marked) is obj.space, obj


@pytest.mark.parametrize("name", ["That", "Thatv", "Ktilde", "Ktildev"])
def test_twists_of_o_written_on_b4_get_the_labels_of_o(name):
    # O(k) is one line bundle on both descriptions, so Ext against it must
    # not depend on how it is written, labels included.
    E = parse_bundle(name)
    for k in (0, 1):
        want = ExtEngine().ext(E, B.O(k))
        assert ExtEngine().ext(E, parse_bundle(f"B4[0,0,0,{k}]")) == want, k
        assert ExtEngine().ext(parse_bundle(f"B4[0,0,0,{k}]"), E) == ExtEngine().ext(B.O(k), E), k


def _dims_at(col, p):
    return sum(m * X.entry_dim(e) for q, e, m in col.pieces if q == p)


def _old_degenerates(cols, idx):
    """The degeneration test of _solve_ses as it read with a set of degrees:
    every degree of a known column and its two neighbours."""

    def degrees(*cs):
        out = set()
        for col in cs:
            for p, _, _ in col.pieces:
                out.update((p - 1, p, p + 1))
        return out

    a, b, c = cols
    if idx == 0:
        return not any(_dims_at(b, p) and _dims_at(c, p) for p in degrees(b, c))
    if idx == 1:
        return not any(_dims_at(c, p) and _dims_at(a, p + 1) for p in degrees(c, a))
    return not any(_dims_at(a, p) and _dims_at(b, p) for p in degrees(a, b))


def test_grid_answers_have_one_flat_shape():
    # Every exact answer the Ext memo keeps after the grid, the direct
    # answers of the pairs of irreducibles among them, is an ExtResult whose
    # pieces are strictly increasing in (degree, entry), carry a positive
    # multiplicity, and come out of ExtResult.collect unchanged.  The
    # chases' degeneracy test reads degree supports on that account.
    import ledger

    eng = ExtEngine()
    for e, f in ledger.GRID:
        eng.ext(parse_bundle(e), parse_bundle(f))
    exact = [res for res in eng._memo.values() if isinstance(res, ExtResult)]
    assert len(exact) > 900 and len(list(_irreducible_answers(eng))) > 100
    for res in exact:
        keys = [(p, e) for p, e, _ in res.pieces]
        assert all(a < b for a, b in zip(keys, keys[1:])), res
        assert all(m > 0 for _, _, m in res.pieces), res
        assert ExtResult.collect(list(res.pieces)) == res


def _from_totals(totals):
    """The ExtResult of a dict (degree, entry) -> mult, built here without
    ExtResult.collect: sorted, zeros dropped."""
    return ExtResult(tuple((p, e, m) for (p, e), m in sorted(totals.items()) if m))


def _old_solve_ses(cols, idx):
    """_solve_ses as it read with the degree-set test: when the sequence
    degenerates, the two known columns summed in a dict, y shifted up by one
    when U is c0 and x down by one when U is c2."""
    if not _old_degenerates(cols, idx):
        return None
    x, y = cols[(idx + 1) % 3], cols[(idx + 2) % 3]
    out = {}
    for col, shift in ((y, int(idx == 0)), (x, -int(idx == 2))):
        for p, e, m in col.pieces:
            out[p + shift, e] = out.get((p + shift, e), 0) + m
    return _from_totals(out)


def test_solve_ses_degenerates_as_the_degree_set_test_did():
    rng = random.Random(41)
    entries = [(), X._entry((D5, (1, 0, 0, 0, 0))), X._entry((B4, (0, 0, 0, 1)))]

    def column():
        col = {}
        for p in rng.sample(range(-2, 4), rng.randint(0, 3)):
            col.update(((p, e), rng.randint(1, 3)) for e in rng.sample(entries, rng.randint(1, 2)))
        return _from_totals(col)

    seen = set()
    zero_sides = 0
    for _ in range(400):
        for idx in range(3):
            cols = [column(), column(), column()]
            zero = rng.randrange(4)  # one column drawn zero on purpose, unless it is the unknown, or none
            if zero < 3:
                cols[zero] = ExtResult(())
            cols[idx] = None
            known = [col for col in cols if col is not None]
            degenerate = _old_degenerates(cols, idx)
            seen.add(degenerate)
            solved = X._solve_ses(cols, idx)
            assert solved == _old_solve_ses(cols, idx), (cols, idx)
            assert (solved is not None) == degenerate, (cols, idx)
            if solved is not None:
                total = sum(sum(col.dims().values()) for col in known)
                assert sum(solved.dims().values()) == total
                zero_sides += any(col.is_zero for col in known)
    assert seen == {True, False}
    assert zero_sides > 300


def test_collect_sums_sorts_and_drops_zeros():
    # Seeded draws in shuffled order, with repeated (degree, entry) keys and
    # multiplicities of either sign or zero, most with one key cancelled to
    # zero on purpose, some of a single piece.  The reference sums each
    # distinct key over the whole draw.
    rng = random.Random(48)
    entries = [
        (),
        X._entry((D5, (1, 0, 0, 0, 0))),
        X._entry((D5, (0, 0, 0, 1, 0))),
        X._entry((B4, (0, 0, 0, 1))),
        X._entry((D5, (1, 0, 0, 0, 0)), (B4, (0, 0, 0, 1))),
    ]
    repeated = cancelled = unsorted = single = 0
    for _ in range(300):
        keys = [(rng.randint(-2, 3), rng.choice(entries)) for _ in range(rng.randint(1, 5))]
        pieces = [(p, e, rng.randint(-3, 3)) for p, e in rng.choices(keys, k=rng.randint(1, 10))]
        p, e, _ = rng.choice(pieces)
        total = sum(m for q, f, m in pieces if (q, f) == (p, e))
        if total and rng.random() < 0.8:
            pieces.append((p, e, -total))
        rng.shuffle(pieces)
        want = []
        for key in sorted({(p, e) for p, e, _ in pieces}):
            total = sum(m for p, e, m in pieces if (p, e) == key)
            if total:
                want.append((*key, total))
        assert ExtResult.collect(pieces).pieces == tuple(want), pieces
        distinct = len({(p, e) for p, e, _ in pieces})
        repeated += distinct < len(pieces)
        cancelled += len(want) < distinct
        unsorted += pieces != sorted(pieces)
        single += len(pieces) == 1
    assert min(repeated, cancelled, unsorted) > 200 and single > 2
    assert ExtResult.collect([]) == ExtResult.collect([(1, (), 0)]) == ExtResult(())


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
    first = eng.ext(B.Uv(), B.schur("Rv", "Sym", 2))
    # No cycle was cut on the way (Ext(Rv, Uv) would see two cuts).
    assert isinstance(first, Ambiguous) and eng._cuts == 0
    before = len(computed)
    assert eng.ext(B.Uv(), B.schur("Rv", "Sym", 2)) is first
    assert eng.ext(B.Uv(-2), B.schur("Rv", "Sym", 2, -2)) is first
    assert len(computed) == before
    assert first.euler == ExtEngine().euler(B.Uv(), B.schur("Rv", "Sym", 2)) == 9
