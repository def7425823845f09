import random

import ledger
import pytest

from homcoh import bundles as B
from homcoh.roots import (
    B4, B4_Q4, D5, D5_P4, DomainError, InternalConsistencyError, InvalidDatum, LieDatum, Parabolic,
)
from test_levi import _rank_and_c1


def test_concrete_weights():
    assert B.U().parts == (((0, 0, 0, -1, 1), 1),)
    assert B.Uv().parts == (((1, 0, 0, 0, 0), 1),)
    assert B.U(1).parts == (((0, 0, 0, 0, 1), 1),)
    assert B.sym_Uv(2, 2).parts == (((2, 0, 0, 2, 0), 1),)
    assert B.T().parts == (((0, 1, 0, 0, 0), 1),)
    assert B.W() == B.Uv()
    assert B.R().parts == (((0, 0, 1, -2), 1),)
    assert B.sym_R(2).parts == (((0, 0, 2, -4), 1),)
    assert B.wedge_R(2).parts == (((0, 1, 0, -2), 1),)


def test_twist_and_dual_involutions():
    for obj in (B.U(), B.sym_Uv(2), B.Rv(3), B.That(2), B.Ktilde(2)):
        assert B.twist(B.twist(obj, 3), -3) == obj
        assert B.dual(B.dual(obj)) == obj
    assert B.dual(B.That(2)) == B.Thatv(-2)
    assert B.dual(B.Ktilde(2)) == B.Ktildev(-2)


def test_tensor_matches_levi_decomposition():
    prod = B.tensor(B.Uv(), B.Uv())
    assert prod == B.direct_sum(B.sym_Uv(2), B.wedge_Uv(2))
    with pytest.raises(DomainError):
        B.tensor(B.Uv(), B.Rv())


def _rank_and_chern(obj):
    # Rank and c1 (in units of O(1)) of obj's K-class, summed over its Levi
    # irreducibles by the oracle of test_levi.
    rank = c1 = 0
    for (space, w), m in B.kclass(obj).items():
        r, c = _rank_and_c1(space, w)
        assert c.denominator == 1, (space, w)
        rank, c1 = rank + m * r, c1 + m * c
    return rank, c1


def test_rank_and_chern_of_sums():
    assert _rank_and_chern(B.Uv()) == (5, 2)  # det of the dual tautological bundle
    assert _rank_and_chern(B.U()) == (5, -2)
    assert _rank_and_chern(B.O(1)) == (1, 1)
    assert _rank_and_chern(B.irr(B4_Q4, (0, 0, 0, 1))) == (1, 1)
    assert _rank_and_chern(B.T()) == (10, 8)  # the index of the variety


def test_named_rank_and_chern_consistent_across_resolutions():
    for obj, want_rank in ((B.That(0), 11), (B.Thatv(0), 11), (B.Ktilde(2), 39), (B.Ktildev(-2), 39)):
        matches = B.sequence_matches(obj)
        assert matches, obj
        ranks, cherns = set(), set()
        for seq, idx, t in matches:
            total_r = 0
            total_c = 0
            for j, term in enumerate(seq.terms):
                if j == idx:
                    continue
                sign = 1 if (j - idx) % 2 else -1
                r, c = _rank_and_chern(B.twist(term.obj, t))
                total_r += sign * B.coeff_dim(term.coeff) * r
                total_c += sign * B.coeff_dim(term.coeff) * c
            ranks.add(total_r)
            cherns.add(total_c)
        assert ranks == {want_rank}, obj
        assert len(cherns) == 1, obj


def test_registered_sequences_have_zero_alternating_rank():
    for seq in B.standard_sequences():
        total = 0
        for j, term in enumerate(seq.terms):
            total += (-1) ** j * B.coeff_dim(term.coeff) * _rank_and_chern(term.obj)[0]
        assert total == 0, seq.name


def test_registered_sequences_have_zero_alternating_chern():
    for seq in B.standard_sequences():
        total = 0
        for j, term in enumerate(seq.terms):
            total += (-1) ** j * B.coeff_dim(term.coeff) * _rank_and_chern(term.obj)[1]
        assert total == 0, seq.name


def test_twist_conversion_between_descriptions():
    # convert_twist is a parts view: a line-bundle sum's parts on the other space.
    assert B.convert_twist(B.O(3), B4_Q4) == (((0, 0, 0, 3), 1),)
    assert B.convert_twist(B.irr(B4_Q4, (0, 0, 0, -2)), D5_P4) == B.O(-2).parts
    assert B.convert_twist(B.Uv(), B4_Q4) is None
    assert B.convert_twist(B.Rv(), D5_P4) is None
    assert B.convert_twist(B.Rv(), B4_Q4) == B.Rv().parts
    two = B.direct_sum(B.O(), B.twist(B.O(1), 0))
    assert B.convert_twist(B.direct_sum(two, B.O(1)), B4_Q4) == (((0, 0, 0, 0), 1), ((0, 0, 0, 1), 2))
    # tensor and direct_sum take a line-bundle sum onto the other side's space
    assert B.tensor(B.O(1), B.R()) == B.tensor(B.R(), B.O(1)) == B.R(1)
    mixed = B.direct_sum(B.R(), B.O(1))
    assert mixed.space == B4_Q4 and mixed.parts == (((0, 0, 0, 1), 1), ((0, 0, 1, -2), 1))
    assert B.common_parts(B.Uv(), B.Rv()) is None
    with pytest.raises(DomainError):
        B.direct_sum(B.Uv(), B.R())


def _twist_delta(base, obj):
    """t with twist(base, t) == obj, when one exists: the reference the
    sequence matcher and the recipe reader are checked against."""
    if isinstance(base, B.Named) and isinstance(obj, B.Named):
        return obj.twist - base.twist if base.name == obj.name else None
    if isinstance(base, B.Sum) and isinstance(obj, B.Sum) and base.space == obj.space:
        i = base.space.marked[0] - 1
        t = obj.parts[0][0][i] - base.parts[0][0][i]
        return t if B.twist(base, t) == obj else None
    return None


def test_twist_delta_detection():
    # The twist between two objects is the difference of their levels when
    # one is a twist of the other (parser._apply_schur reads it so); the
    # reference helper above agrees.
    for base, obj, want in (
        (B.Uv(), B.Uv(4), 4), (B.That(0), B.That(6), 6), (B.U(), B.U(-3), -3),
        (B.O(), B.irr(B4_Q4, (0, 0, 0, 2)), 2),
        (B.Uv(), B.U(), None), (B.Uv(), B.Rv(), None), (B.That(), B.Thatv(1), None),
    ):
        t = obj.level - base.level
        assert (B.twist(base, t) == obj) == (want is not None), (base, obj)
        assert _twist_delta(base, obj) == want, (base, obj)
        if want is not None:
            assert t == want, (base, obj)


def test_sequence_matching_finds_all_resolutions():
    names = {seq.name for seq, _, _ in B.sequence_matches(B.That(6))}
    assert "affine-ext" in names and "affine-kernel" in names
    names = {seq.name for seq, _, _ in B.sequence_matches(B.Ktilde(2))}
    assert "quadric-kernel" in names and "quadric-coker" in names


def test_sequence_matches_equal_a_term_by_term_scan():
    # The level-zero index gives what trying _twist_delta on every term of
    # every sequence gives, in the same order, on and off the registry.
    from homcoh.parser import parse_bundle

    seqs = B.standard_sequences()
    objs = [B.twist(term.obj, t) for seq in seqs for term in seq.terms for t in range(-3, 4)]
    objs += [parse_bundle(f"{g}({t})") for g in ("Sym2 R", "Wedge2 R", "Sym3 Uv") for t in range(-3, 4)]
    objs += [B.irr(B.B4_Q4, (1, 0, 0, 2)), B.direct_sum(B.U(1), B.O(1)), B.direct_sum(B.U(1), B.O(2))]
    hits = 0
    for obj in objs:
        scan = [
            (seq, idx, t)
            for seq in seqs
            for idx, term in enumerate(seq.terms)
            if (t := _twist_delta(term.obj, obj)) is not None
        ]
        assert list(B.sequence_matches(obj)) == scan, obj
        hits += bool(scan)
    assert 0 < hits < len(objs)


def test_every_object_is_a_twist_of_its_base():
    # Every atom, registered term and grid side, at twists -3..3: its base
    # is at level zero and its own base, twisting the base by the level
    # gives the object back, twists add up, and sequence_matches gives, in
    # registry order, what a scan of the registry twisted by -20..20 finds.
    from homcoh.parser import parse_bundle

    seqs = B.standard_sequences()
    sources = list(B.ATOMS.values()) + [term.obj for seq in seqs for term in seq.terms]
    sources += [parse_bundle(text) for pair in ledger.GRID for text in pair]
    objs = list(dict.fromkeys(B.twist(obj, k) for obj in sources for k in range(-3, 4)))
    twisted = [(seq, idx, t, B.twist(term.obj, t)) for seq in seqs for idx, term in enumerate(seq.terms)
               for t in range(-20, 21)]
    assert max(abs(obj.level) for obj in objs) + max(abs(obj.level) for obj in sources) <= 20
    hits = 0
    for obj in objs:
        base = obj.base
        assert base.level == 0 and base.base is base, obj
        assert B.twist(base, obj.level) is obj, obj
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert B.twist(B.twist(obj, a), b) is B.twist(obj, a + b), (obj, a, b)
        scan = [(seq, idx, t) for seq, idx, t, term in twisted if term is obj]
        assert list(B.sequence_matches(obj)) == scan, obj
        hits += bool(scan)
    assert len(objs) > 200 and hits > 0


def test_sum_validation():
    with pytest.raises(DomainError):
        B.irr(D5_P4, (-1, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        B.make_sum(D5_P4, [((1, 0, 0, 0, 0), 0)])


def test_irr_rejects_wrong_length():
    for w in ((1, 0, 0, 0, 0, 0), (1, 0)):
        with pytest.raises(DomainError, match=f"^weight length {len(w)} != rank 5$"):
            B.irr(D5_P4, w)


def test_sum_rejects_wrong_length():
    # The check sits in Sum itself, so no route to a Sum skips it.
    for w in ((1, 0, 0, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(DomainError, match=f"^weight length {len(w)} != rank 5$"):
            B.make_sum(D5_P4, [(w, 1)])
        with pytest.raises(DomainError, match=f"^weight length {len(w)} != rank 5$"):
            B.Sum(D5_P4, ((w, 1),))


_NON_INTEGER_MULTIPLICITIES = r'''
import json
from homcoh import bundles
from homcoh.bundles import Sum, make_sum
from homcoh.ext import ExtEngine
from homcoh.roots import D5_P4

# Weights the import builds no sum for, so each Sum call misses the table.
FRESH = ((0, 0, 0, 7, 0), (0, 0, 1, 0, 0), (2, 0, 0, 0, 0))
assert not any((D5_P4, ((w, 1),)) in Sum._table for w in FRESH)
ENTRIES = {
    "make_sum": lambda w, m: make_sum(D5_P4, {w: m}),
    "make_sum list": lambda w, m: make_sum(D5_P4, [(w, 1), (w, m)]),
    "Sum": lambda w, m: Sum(D5_P4, ((w, m),)),
}
raised = {}
for name, call in ENTRIES.items():
    for w in FRESH:
        for m in (1.0, True, 0.5, 0, -1):
            try:
                raised[f"{name} {w} {m!r}"] = repr(call(w, m))
            except Exception as e:
                raised[f"{name} {w} {m!r}"] = type(e).__name__
try:
    raised["ext 2.0"] = repr(ExtEngine().ext(bundles.O(), make_sum(D5_P4, {(1, 0, 0, 0, 0): 2.0})))
except Exception as e:
    raised["ext 2.0"] = type(e).__name__
print(json.dumps({
    "raised": raised,
    "O(7)": repr(bundles.O(7)),
    "1.0 finds O(7)": Sum(D5_P4, (((0, 0, 0, 7, 0), 1.0),)) is bundles.O(7),
    "ext": repr(ExtEngine().ext(bundles.O(), make_sum(D5_P4, {(1, 0, 0, 0, 0): 2}))),
    "parts": [m for obj in Sum._table.values() for _, m in obj.parts if type(m) is not int],
}))
'''


def test_no_sum_takes_a_multiplicity_that_is_not_a_positive_int():
    # One rule in make_sum and Sum: a Python int of at least 1.  A fresh
    # process, since a float stored once would be what later calls find.
    import json
    import subprocess
    import sys
    from pathlib import Path

    env = {"PYTHONPATH": str(Path(B.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _NON_INTEGER_MULTIPLICITIES], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    assert len(found["raised"]) == 3 * 3 * 5 + 1
    assert {call: got for call, got in found["raised"].items() if got != "DomainError"} == {}
    assert found["O(7)"] == "O (7)"
    assert found["1.0 finds O(7)"]  # checked on a table miss only, as weights are
    assert found["ext"] == "2*V[1,0,0,0,0] @ 0"
    assert found["parts"] == []


def test_equal_bundles_built_along_different_routes_are_one_key():
    from homcoh.parser import parse_bundle

    pairs = [
        (B.O(2), B.twist(B.O(0), 2)),
        (parse_bundle("Uv(3)"), B.Uv(3)),
        (parse_bundle("Sym2 Uv (2)"), B.twist(B.sym_Uv(2, 0), 2)),
        (B.twist(B.That(5), 1), B.That(6)),
        (B.dual(B.That(-6)), parse_bundle("Thatv(6)")),
    ]
    for a, b in pairs:
        assert a is b and a == b and hash(a) == hash(b)
    table = {a: i for i, (a, _) in enumerate(pairs)}
    assert [table[b] for _, b in pairs] == list(range(len(pairs)))
    # O(2) spelled on B4/Q4 is the same line bundle, so the same key
    b4 = B.irr(B4_Q4, (0, 0, 0, 2))
    assert b4 is B.O(2) and b4 == B.O(2) and hash(b4) == hash(B.O(2)) and table[b4] == 0
    distinct = [B.O(2), B.O(3), B.Rv(2), B.Uv(3), B.U(3), B.That(6), B.Thatv(6), B.That(5)]
    assert len(set(distinct)) == len(distinct)
    assert all(a != b for i, a in enumerate(distinct) for b in distinct[i + 1:])


def test_every_route_to_a_value_gives_its_one_object():
    from homcoh.parser import parse_bundle

    assert Parabolic(LieDatum("D", 5), (4,)) is D5_P4 and Parabolic(LieDatum("B", 4), (4,)) is B4_Q4
    uv = B.Uv()
    assert B.irr(D5_P4, [1, 0, 0, 0, 0]) is B.Sum(D5_P4, (((1, 0, 0, 0, 0), 1),)) is uv
    assert B.make_sum(D5_P4, [((1, 0, 0, 0, 0), 1)] * 2) is B.make_sum(D5_P4, {(1, 0, 0, 0, 0): 2})
    assert B.dual(uv) is B.U() and B.dual(B.dual(uv)) is uv
    assert B.dual(B.That(2)) is B.Thatv(-2) and B.dual(B.Thatv(-2)) is B.That(2)
    assert B.twist(uv, 0) is uv and B.twist(B.That(4), 0) is B.That(4)
    for k in range(-3, 4):
        uvk = B.make_sum(D5_P4, {(1, 0, 0, k, 0): 1})
        assert B.twist(uv, k) is B.Uv(k) is uvk is parse_bundle(f"Uv({k})") is parse_bundle(f"D5 [1,0,0,{k},0]")
        assert B.twist(uvk, -k) is uv
        assert B.twist(B.sym_Uv(2), k) is B.sym_Uv(2, k) is parse_bundle(f"Sym2 Uv ({k})")
        # O(k) spelled on B4/Q4 is the one object on D5/P4
        ok = B.O(k)
        assert B.irr(B4_Q4, (0, 0, 0, k)) is B.Sum(B4_Q4, (((0, 0, 0, k), 1),)) is ok
        assert parse_bundle(f"B4 [0,0,0,{k}]") is parse_bundle(f"O({k})") is ok and ok.space is D5_P4
        assert B.That(k) is B.Named("That", k) is B.twist(B.That(1), k - 1) is parse_bundle(f"That({k})")
    term = B.standard_sequences()[0].terms[1]  # V_10 (x) O in taut-rank5
    assert term is B.Term(B.O(), (((D5, (1, 0, 0, 0, 0)), 1),))


_ZERO = (0, 0, 0, 0, 0)


def test_a_construction_that_raises_stores_nothing():
    invalid = [
        (B.Sum, (D5_P4, (((0, -1, 0, 0, 0), 1),)), DomainError),
        (B.Sum, (D5_P4, (((1, 0, 0, 0, 0), 0),)), DomainError),
        (B.Sum, (B4_Q4, (((0, 0, 0, 1, 0), 1),)), DomainError),
        # Sum takes only the form make_sum gives: nonempty, sorted, each weight once
        (B.Sum, (D5_P4, ()), DomainError),
        (B.Sum, (D5_P4, ((_ZERO, 1), (_ZERO, 1))), DomainError),
        (B.Sum, (D5_P4, (((1, 0, 0, 0, 0), 1), (_ZERO, 1))), DomainError),
        (B.Named, ("bogus", 2), DomainError),
        (B.Named, ("That", 1.5), DomainError),
        (B.Named, ("Thatv", 7.0), DomainError),
        (B.Named, ("That", True), DomainError),
        (LieDatum, ("E", 6), InvalidDatum),
        (LieDatum, ("D", 2), InvalidDatum),
        (Parabolic, (D5, (6,)), InvalidDatum),
        (Parabolic, (D5, ()), InvalidDatum),
        (Parabolic, (D5, (4, 1)), InvalidDatum),
    ]
    # ("Thatv", 7.0) and ("That", True) equal the keys of Thatv(7) and
    # That(1), built first so that the lookup would find them.
    B.Thatv(7), B.That(1)
    stored = {("Thatv", 7.0), ("That", True)}
    for cls, args, error in invalid:
        before = dict(cls._table)
        for _ in range(2):
            with pytest.raises(error):
                cls(*args)
        assert cls._table == before and (args in cls._table) == (args in stored), (cls, args)
    # A B4/Q4 sum of twists of O is stored under its own arguments too, as
    # the D5/P4 object, and under no other key.
    o9 = B.irr(B4_Q4, (0, 0, 0, 9))
    keys = {key for key, obj in B.Sum._table.items() if obj is o9}
    assert keys == {(D5_P4, (((0, 0, 0, 9, 0), 1),)), (B4_Q4, (((0, 0, 0, 9), 1),))}


def test_twist_of_a_sum_is_the_sum_of_the_shifted_parts():
    from homcoh.parser import parse_bundle

    unit = {D5_P4: (0, 0, 0, 1, 0), B4_Q4: (0, 0, 0, 1)}  # the marked fundamental weights
    for text in ("Sym2 Uv + Uv + O", "Sym2 Rv + Rv", "Sym2 Uv + Uv + Uv + O(-1)"):
        E = parse_bundle(text)
        assert len(E.parts) > 1
        u = unit[E.space]
        for k in range(-3, 4):
            got = B.twist(E, k)
            shifted = [(tuple(c + k * x for c, x in zip(w, u)), m) for w, m in E.parts]
            want = B.make_sum(E.space, shifted)
            assert got == want and hash(got) == hash(want), (text, k)
            assert got.parts == tuple(sorted(shifted)) == want.parts
            assert len({w for w, _ in got.parts}) == len(got.parts)
            for j in range(-3, 4):
                assert B.twist(got, j) == B.twist(E, k + j), (text, k, j)


def _random_levi_dominant_sum(rng, space):
    # Oracle draw: unmarked coordinates in 0..2, the marked one in -3..3.
    marked = space.marked[0] - 1
    parts = {}
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randint(-3, 3) if i == marked else rng.randint(0, 2) for i in range(space.rank))
        parts[w] = rng.randint(1, 3)
    return B.make_sum(space, parts)


def _twists_of_o_on_b4(obj):
    return isinstance(obj, B.Sum) and obj.space == B4_Q4 and all(not any(w[:3]) for w, _ in obj.parts)


def test_a_sum_of_twists_of_o_is_one_object_on_d5():
    # O(1) is one line bundle on both descriptions: however a sum of its
    # twists is spelled, it is built on D5/P4, and equal, hash-equal and
    # printed as O(k)^m there.
    from homcoh.parser import parse_bundle

    for k in range(-4, 5):
        for m in (1, 2):
            want = B.make_sum(D5_P4, {(0, 0, 0, k, 0): m})
            spelled = [
                B.make_sum(B4_Q4, {(0, 0, 0, k): m}),
                B.Sum(B4_Q4, (((0, 0, 0, k), m),)),
                parse_bundle(" + ".join([f"B4 [0,0,0,{k}]"] * m)),
                parse_bundle(" + ".join([f"Wedge4 Rv ({k - 2})"] * m)),
                parse_bundle(" + ".join([f"Sym0 Rv ({k})"] * m)),
            ]
            for obj in spelled:
                assert obj == want and hash(obj) == hash(want), (k, m, obj)
                assert obj.space == D5_P4 and repr(obj) == repr(want), (k, m)
    assert B.make_sum(B4_Q4, {(0, 0, 0, 0): 1, (0, 0, 0, 1): 1}) == B.direct_sum(B.O(), B.O(1))
    # No registered term, and no random sum, is a B4/Q4 sum of twists of O.
    assert not any(_twists_of_o_on_b4(t.obj) for seq in B.standard_sequences() for t in seq.terms)
    rng = random.Random(31)
    draws = [_random_levi_dominant_sum(rng, space) for space in (D5_P4, B4_Q4) for _ in range(400)]
    assert not any(_twists_of_o_on_b4(S) for S in draws)
    assert any(S.space == D5_P4 for S in draws[400:])  # a B4/Q4 draw of twists of O


def test_twist_equals_the_validated_sum():
    # The same parts shifted by hand and validated through make_sum give
    # the object twist gives, the one Sum stores for that value.  A B4/Q4
    # draw of twists of O is built on D5/P4, and is shifted there.
    rng = random.Random(29)
    for space in (D5_P4, B4_Q4):
        for _ in range(60):
            S = _random_levi_dominant_sum(rng, space)
            marked = S.space.marked[0] - 1
            for k in range(-3, 4):
                shifted = [(w[:marked] + (w[marked] + k,) + w[marked + 1:], m) for w, m in S.parts]
                want = B.make_sum(S.space, shifted)
                got = B.twist(S, k)
                assert got is want and got == want and hash(got) == hash(want), (S, k)
                assert repr(got) == repr(want), (S, k)


def _rep(datum, *weights):
    merged = {}
    for w in weights:
        merged[(datum, w)] = merged.get((datum, w), 0) + 1
    return tuple(sorted(merged.items()))


def _written_out_registry():
    # The 22 sequences written out term by term, as the registry stated them
    # before it derived 11 of them from the other 11.
    V1 = _rep(D5, (1, 0, 0, 0, 0))
    V2 = _rep(D5, (0, 1, 0, 0, 0))
    V11 = _rep(D5, (2, 0, 0, 0, 0))
    SYM2V = _rep(D5, (2, 0, 0, 0, 0), (0, 0, 0, 0, 0))
    VS4 = _rep(D5, (0, 0, 0, 1, 0))
    VS5 = _rep(D5, (0, 0, 0, 0, 1))
    V9 = _rep(B4, (1, 0, 0, 0))
    Term = B.Term

    def S(name, *terms):
        return B.Sequence(name, tuple(t if isinstance(t, Term) else Term(t) for t in terms))

    return (
        S("taut-rank5", B.U(), Term(B.O(), V1), B.Uv()),
        S("taut-chain", B.R(), B.U(), B.O()),
        S("taut-chain-dual", B.O(), B.Uv(), B.Rv()),
        # the trivial bundle spelled on B4/Q4, which is O
        S("taut-rank4", B.R(), Term(B.irr(B4_Q4, (0, 0, 0, 0)), V9), B.Uv()),
        S("tangent-ext", B.Rv(), B.T(), B.wedge_Rv(2)),
        S("affine-ext", B.O(-1), B.That(), B.T(-1)),
        S("affine-ext-dual", B.twist(B.dual(B.T()), 1), B.Thatv(), B.O(1)),
        S("affine-kernel", B.That(), Term(B.O(), VS5), B.U(1)),
        S("affine-kernel-dual", B.Uv(-1), Term(B.O(), VS4), B.Thatv()),
        S("quadric-kernel", B.Ktilde(2), Term(B.O(2), V11), B.sym_Uv(2, 2)),
        S("quadric-kernel-dual", B.sym_U(2, -2), Term(B.O(-2), V11), B.Ktildev(-2)),
        S("quadric-coker", B.Thatv(1), Term(B.U(2), V1), B.Ktilde(2)),
        S("quadric-coker-dual", B.Ktildev(-2), Term(B.Uv(-2), V1), B.That(-1)),
        S("sym2-dual-chain", B.Uv(), B.sym_Uv(2), B.sym_Rv(2)),
        S("sym2-chain", B.sym_R(2), B.sym_U(2), B.U()),
        S("wedge2-chain", B.wedge_R(2), B.wedge_U(2), B.R()),
        S("koszul-wedge2U", B.wedge_U(2), Term(B.U(), V1), Term(B.O(), SYM2V), B.sym_Uv(2)),
        S("koszul-sym2U", B.sym_U(2), Term(B.U(), V1), Term(B.O(), V2), B.wedge_Uv(2)),
        S("koszul-sym2U-dual", B.sym_U(2, -1), Term(B.O(-1), SYM2V), Term(B.Uv(-1), V1), B.wedge_Uv(2, -1)),
        S(
            "koszul-sym2U-dual-twisted",
            B.tensor(B.sym_U(2), B.Uv(-2)),
            Term(B.Uv(-2), SYM2V),
            Term(B.tensor(B.Uv(), B.Uv(-2)), V1),
            B.tensor(B.wedge_Uv(2), B.Uv(-2)),
        ),
        S("four-term", B.Thatv(-1), Term(B.U(), V1), Term(B.O(), V11), B.sym_Uv(2)),
        S("five-term", B.Uv(), Term(B.O(1), VS4), Term(B.U(2), V1), Term(B.O(2), V11), B.sym_Uv(2, 2)),
    )


def test_registry_equals_the_written_out_sequences():
    want = _written_out_registry()
    got = B.standard_sequences()
    assert [s.name for s in got] == [s.name for s in want]
    for g, w in zip(got, want):
        assert g.terms == w.terms, g.name
        assert [repr(t.obj) for t in g.terms] == [repr(t.obj) for t in w.terms], g.name
    base = B.base_sequences()
    assert len(base) == 11 and all(s in got for s in base)


def _base(name):
    return next(s for s in B.base_sequences() if s.name == name)


def test_dual_sequence_is_an_involution_that_dualizes_coefficients():
    for seq in B.standard_sequences():
        for k in (0, 2):
            twice = B.dual_sequence("back", B.dual_sequence("there", seq, k), k)
            assert twice.terms == seq.terms, (seq.name, k)
    kernel = _base("affine-kernel")
    assert kernel.terms[1].coeff == (((D5, (0, 0, 0, 0, 1)), 1),)
    dual = B.dual_sequence("affine-kernel-dual", kernel)
    assert dual.terms[1].coeff == (((D5, (0, 0, 0, 1, 0)), 1),)
    assert [t.obj for t in dual.terms] == [B.Uv(-1), B.O(), B.Thatv()]


def test_tensor_sequence_twists_named_terms_and_tensors_sums():
    affine = _base("affine-ext")
    assert [t.obj for t in B.tensor_sequence("a(3)", affine, 3).terms] == [B.O(2), B.That(3), B.T(2)]
    with pytest.raises(DomainError):
        B.tensor_sequence("a * Uv", affine, B.Uv())
    koszul = _base("koszul-wedge2U")
    tensored = B.tensor_sequence("koszul * O(1)", koszul, B.O(1))
    assert tensored.terms == B.tensor_sequence("koszul(1)", koszul, 1).terms


def test_splice_needs_a_common_term():
    coker, kernel = _base("quadric-coker"), _base("quadric-kernel")
    joined = B.splice("joined", coker, kernel)
    assert joined.terms == coker.terms[:2] + kernel.terms[1:]
    with pytest.raises(InternalConsistencyError):
        B.splice("mismatched", kernel, coker)
    with pytest.raises(InternalConsistencyError):
        B.splice("off by a twist", coker, B.tensor_sequence("kernel(1)", kernel, 1))


def test_no_base_sequence_is_a_twist_or_a_dual_of_another():
    # A sequence that a twist or duality gives must be derived, not stated
    # again by hand, where a mistyped coefficient would go unseen.
    base = B.base_sequences()
    for i, first in enumerate(base):
        for derived in (first, B.dual_sequence("dual", first)):
            for j, other in enumerate(base):
                if i == j:
                    continue  # taut-rank5 is its own dual
                t = _twist_delta(derived.terms[0].obj, other.terms[0].obj)
                moved = B.tensor_sequence("moved", derived, t) if t is not None else derived
                assert moved.terms != other.terms, (first.name, other.name)
