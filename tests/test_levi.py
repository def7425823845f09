import itertools
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


def test_lr_one_row_adds_lengths():
    for a in range(4):
        for b in range(4):
            assert levi.lr_multiply((a,), (b,), 1) == ((tuple(c for c in (a + b,) if c), 1),)


def test_lr_empty_partition_is_the_unit():
    for lam in ((), (3,), (2, 1), (2, 2, 1, 1)):
        for empty in ((), (0, 0, 0)):
            assert levi.lr_multiply(lam, empty, 4) == ((lam, 1),)
            assert levi.lr_multiply(empty, lam, 4) == ((lam, 1),)


def test_lr_row_cap_drops_longer_shapes():
    assert dict(levi.lr_multiply((1, 1), (1, 1), 2)) == {(2, 2): 1}


def test_lr_rejects_more_rows_than_max_rows():
    with pytest.raises(roots.DomainError):
        levi.lr_multiply((1, 1, 1), (1,), 2)
    with pytest.raises(roots.DomainError):
        levi.lr_multiply((1,), (1, 1, 1), 2)


def test_lr_negative_coefficient_is_an_internal_error(monkeypatch):
    # s_11 * s_2 without the weight (1, 1) of s_2 would need -s_22.  A fresh
    # table, so that the faulty entry reaches this fill and leaves with it.
    monkeypatch.setattr(levi, "_KOSTKA", {})
    monkeypatch.setattr(levi, "_kostka", lambda mu: {(2, 0): 1} if mu == (2, 0) else {mu: 1})
    with pytest.raises(roots.InternalConsistencyError):
        levi.lr_multiply.__wrapped__((1, 1), (2,), 2)


def test_lr_rejects_what_is_not_a_partition():
    for lam in ((1, 2), (1, -1), (0, -1), (1, 0, 1), (1.0,), (1.5,), (True, 1), (Q(1),)):
        with pytest.raises(roots.DomainError, match="is not a partition"):
            levi.lr_multiply(lam, (1,), 2)
        with pytest.raises(roots.DomainError, match="is not a partition"):
            levi.lr_multiply((1,), lam, 2)
    # Checked inside the lru_cache, on a miss only: an equal float finds the int entry.
    want = levi.lr_multiply((7, 3), (2,), 3)
    assert levi.lr_multiply((7.0, 3), (2,), 3) == want
    assert all(type(c) is int for nu, m in want for c in nu + (m,))


def _reference_brauer_klimyk(lam, mu, n):
    # Reference for levi._brauer_klimyk: no table, each weight's orbit as
    # places x orders of its nonzero entries, inversions counted pair by pair;
    # levi._kostka is called directly.
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    rho = range(n - 1, -1, -1)
    shifted = [c + r for c, r in zip(lam + (0,) * n, rho)]
    rows = min(n, sum(mu))
    out = {}
    for weight, count in levi._kostka((mu + (0,) * rows)[:rows]).items():
        head = tuple(c for c in weight if c)
        orders = set(itertools.permutations(head))
        for places in itertools.combinations(range(n), len(head)):
            for order in orders:
                v = shifted.copy()
                for p, c in zip(places, order):
                    v[p] += c
                if len(set(v)) < n:
                    continue
                inversions = sum(a < b for a, b in itertools.combinations(v, 2))
                v.sort(reverse=True)
                nu = tuple(c - r for c, r in zip(v, rho))
                out[nu] = out.get(nu, 0) + (-count if inversions % 2 else count)
    return {nu: c for nu, c in sorted(out.items()) if c}


def _partitions(size, rows, largest=None):
    # Partitions of size into at most rows parts, each at most largest.
    if size == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions(size - first, rows - 1, first):
            yield (first,) + rest


def _oracle_cases():
    for n in (4, 5):
        small = [p for size in range(7) for p in _partitions(size, n)]
        for lam, mu in itertools.product(small, repeat=2):
            yield lam, mu, n  # as lr_multiply passes them
            yield lam + (0,) * (n - len(lam)), mu + (0,) * (n - len(mu)), n  # as tensor_decompose does
    rng = random.Random(13)  # the draw of test_tensor_commutative_and_dimensional
    for pb in (D5_P4, B4_Q4):
        for _ in range(30):
            p = _chain_partition(pb, _random_levi_dominant(rng, pb))
            q = _chain_partition(pb, _random_levi_dominant(rng, pb))
            yield p, q, len(p)
    yield (9, 6, 3, 2, 0), (9, 7, 6, 3, 0), 5  # the slowest product of the bench


def test_brauer_klimyk_matches_the_reference_loop(monkeypatch):
    assert list(_partitions(4, 5)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    monkeypatch.setattr(levi, "_KOSTKA", {})
    cases = 0
    for lam, mu, n in _oracle_cases():
        want = _reference_brauer_klimyk(lam, mu, n)
        assert list(levi._brauer_klimyk(lam, mu, n).items()) == list(want.items()), (lam, mu, n)
        cases += 1
    assert cases == 2 * (29**2 + 27**2) + 61


def test_kostka_table_fills_each_partition_once(monkeypatch):
    calls = []
    original = levi._kostka

    def counting(mu):
        calls.append(mu)
        return original(mu)

    monkeypatch.setattr(levi, "_KOSTKA", {})
    monkeypatch.setattr(levi, "_PRODUCTS", {})
    monkeypatch.setattr(levi, "_kostka", counting)
    rng = random.Random(17)
    for pb in (D5_P4, B4_Q4):
        for _ in range(60):
            levi.tensor_decompose(pb, _random_levi_dominant(rng, pb, 2), _random_levi_dominant(rng, pb, 2))
    assert len(calls) == len(set(calls)) == len(levi._KOSTKA) < len(levi._PRODUCTS)
    assert all(levi._KOSTKA[mu] == tuple(original(mu).items()) for mu in calls)


def test_kostka_fault_reaches_only_partitions_not_yet_tabled(monkeypatch):
    monkeypatch.setattr(levi, "_KOSTKA", {})
    seen = levi._brauer_klimyk((2, 1, 0), (2, 1, 0), 3)  # tables the weight side (2, 1, 0)
    larger = _reference_brauer_klimyk((3, 1, 0), (2, 1, 0), 3)

    def broken(mu):
        raise RuntimeError(f"kostka fault at {mu}")

    monkeypatch.setattr(levi, "_kostka", broken)
    assert levi._brauer_klimyk((3, 1, 0), (2, 1, 0), 3) == larger
    assert levi._brauer_klimyk((2, 1, 0), (2, 1, 0), 3) == seen
    with pytest.raises(RuntimeError, match="kostka fault"):
        levi._brauer_klimyk((3, 1, 0), (1, 1, 0), 3)
    assert list(levi._KOSTKA) == [(2, 1, 0)]


def test_weight_fault_reaches_only_partitions_not_yet_tabled(monkeypatch):
    # (1,1,0,0) x (0,1,1,0) on B4/Q4 reads back 7 partitions, among them the
    # 6 of (0,1,0,0) x (1,1,1,0); (0,2,0,0) x (0,2,0,0) needs (4,4,0,0) too.
    monkeypatch.setattr(levi, "_PRODUCTS", {})
    monkeypatch.setattr(levi, "_READBACKS", {})
    inside = levi.tensor_decompose(B4_Q4, (0, 1, 0, 0), (1, 1, 1, 0))
    monkeypatch.setattr(levi, "_PRODUCTS", {})
    monkeypatch.setattr(levi, "_READBACKS", {})
    seen = levi.tensor_decompose(B4_Q4, (1, 1, 0, 0), (0, 1, 1, 0))  # tables its partitions
    tabled = dict(levi._READBACKS)
    assert len(tabled) == 7

    def broken(pb, labels, last2):
        raise RuntimeError(f"weight fault at {pb}")

    monkeypatch.setattr(levi, "_weight", broken)
    assert list(levi.tensor_decompose(B4_Q4, (0, 1, 0, 0), (1, 1, 1, 0)).items()) == list(inside.items())
    monkeypatch.setattr(levi, "_PRODUCTS", {})
    assert list(levi.tensor_decompose(B4_Q4, (1, 1, 0, 0), (0, 1, 1, 0)).items()) == list(seen.items())
    with pytest.raises(RuntimeError, match="weight fault"):
        levi.tensor_decompose(B4_Q4, (0, 2, 0, 0), (0, 2, 0, 0))
    assert levi._READBACKS == tabled
    assert len(levi._PRODUCTS) == 1  # the second fill of (1,1,0,0) x (0,1,1,0)


_NON_INTEGER_SPLITS = r'''
import json
from homcoh import levi
from homcoh.roots import B4_Q4, D5_P4

WEIGHTS = {D5_P4: lambda v: (0, 0, 2, v, 0), B4_Q4: lambda v: (0, 0, 2, v)}
ONE = {D5_P4: (1, 0, 0, 0, 0), B4_Q4: (1, 0, 0, 0)}
out = {"stored by the import": [(pb, w(v)) in levi._SPLITS for pb, w in WEIGHTS.items() for v in (7, 1, 5)]}
size = len(levi._SPLITS)
out["raised"] = {}
for pb, w in WEIGHTS.items():
    for v in (7.0, 1.0, True, 0.5):
        try:
            out["raised"][f"{pb} {v!r}"] = repr(levi.tensor_decompose(pb, w(v), ONE[pb]))
        except Exception as e:
            out["raised"][f"{pb} {v!r}"] = type(e).__name__
out["stored after the raises"] = len(levi._SPLITS) - size
out["float after int"] = {}
for pb, w in WEIGHTS.items():
    want = levi.tensor_decompose(pb, w(7), ONE[pb])
    got = levi.tensor_decompose(pb, w(7.0), ONE[pb])
    out["float after int"][str(pb)] = list(got.items()) == list(want.items()) and repr(got) == repr(want)
out["list"] = {}
for pb, w in WEIGHTS.items():
    first = levi.tensor_decompose(pb, list(w(5)), list(ONE[pb]))  # a miss
    tupled = levi.tensor_decompose(pb, w(5), ONE[pb])
    again = levi.tensor_decompose(pb, list(w(5)), list(ONE[pb]))  # a hit
    out["list"][str(pb)] = list(first.items()) == list(tupled.items()) == list(again.items())
ints = lambda t: all(ints(c) if isinstance(c, tuple) else type(c) is int for c in t)
out["non-int entries"] = [
    repr(item)
    for table in (levi._SPLITS, levi._READBACKS)
    for key, value in table.items()
    for item in (key[1:], value)
    if not ints(item)
]
print(json.dumps(out))
'''


def test_no_split_or_readback_entry_holds_a_non_int():
    import json
    import subprocess
    import sys
    from pathlib import Path

    env = {"PYTHONPATH": str(Path(roots.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _NON_INTEGER_SPLITS], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    assert found["stored by the import"] == [False] * 6
    assert found["raised"] == {f"{pb} {v!r}": "DomainError" for pb in (D5_P4, B4_Q4) for v in (7.0, 1.0, True, 0.5)}
    assert found["stored after the raises"] == 0
    assert found["float after int"] == {str(D5_P4): True, str(B4_Q4): True}
    assert found["list"] == {str(D5_P4): True, str(B4_Q4): True}
    assert found["non-int entries"] == []


def _weight_of_partition(p, n):
    # The Levi weight whose GL vector is the partition p padded to n rows.
    pb = D5_P4 if n == 5 else B4_Q4
    return pb, levi._from_gl2(pb, tuple(2 * c for c in p + (0,) * (n - len(p))))


def _table_state_panel():
    # The partition pairs of _oracle_cases as Levi weights, then 20 D5/P4 and
    # 250 B4/Q4 seeded pairs at bound 3.
    panel = []
    for lam, mu, n in _oracle_cases():
        (pb, a), (_, b) = _weight_of_partition(lam, n), _weight_of_partition(mu, n)
        panel.append((pb, a, b))
    rng = random.Random(29)
    for pb, count in ((D5_P4, 20), (B4_Q4, 250)):
        for _ in range(count):
            panel.append((pb, _random_levi_dominant(rng, pb), _random_levi_dominant(rng, pb)))
    return panel


def test_tensor_answers_do_not_depend_on_table_state(monkeypatch):
    for table in ("_SPLITS", "_PRODUCTS", "_READBACKS", "_KOSTKA"):
        monkeypatch.setattr(levi, table, {})
    panel = _table_state_panel()
    cold = [list(levi.tensor_decompose(*case).items()) for case in panel]
    order = list(range(len(panel)))
    random.Random(31).shuffle(order)
    warm = {k: list(levi.tensor_decompose(*panel[k]).items()) for k in order}
    assert [warm[k] for k in range(len(panel))] == cold
    assert len(levi._PRODUCTS) < len(panel)


# Schur-polynomial oracle: s_lam(x) = det(x_i^(lam_j + n - j)) / det(x_i^(n - j)),
# evaluated exactly at integer points with no homcoh arithmetic.
SCHUR_POINTS = ((2, 3, 5, 7, 11), (-1, 4, 6, 9, 13), (1, 2, 3, 4, 5))


def _bareiss_det(matrix):
    a = [list(row) for row in matrix]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _alternant(shape, x):
    n = len(x)
    padded = list(shape) + [0] * (n - len(shape))
    return _bareiss_det([[xi ** (padded[j] + n - 1 - j) for j in range(n)] for xi in x])


def _schur_identity_holds(lam, mu, rows, terms):
    for point in SCHUR_POINTS:
        x = point[:rows]
        vandermonde = _alternant((), x)

        def schur(shape):
            quotient, rest = divmod(_alternant(shape, x), vandermonde)
            assert rest == 0
            return quotient

        if schur(lam) * schur(mu) != sum(c * schur(nu) for nu, c in terms):
            return False
    return True


def _chain_partition(pb, w):
    # Partition of a Levi-dominant weight: row k sums the labels of the GL
    # chain nodes from the k-th on (D5/P4: 1-2-3-5, B4/Q4: 1-2-3).
    chain = (1, 2, 3, 5) if pb == D5_P4 else (1, 2, 3)
    return tuple(sum(w[node - 1] for node in chain[k:]) for k in range(len(chain) + 1))


def test_lr_matches_schur_polynomial_oracle():
    rng = random.Random(13)  # the draw of test_tensor_commutative_and_dimensional
    cases = [((9, 6, 3, 2), (9, 7, 6, 3), 5)]  # the slowest product of the bench
    for pb in (D5_P4, B4_Q4):
        for _ in range(30):
            a = _random_levi_dominant(rng, pb)
            b = _random_levi_dominant(rng, pb)
            p, q = _chain_partition(pb, a), _chain_partition(pb, b)
            cases.append((p, q, len(p)))
    for lam, mu, rows in cases:
        assert _schur_identity_holds(lam, mu, rows, levi.lr_multiply(lam, mu, rows)), (lam, mu)


def _doubled_last_entry(pb, w):
    # Twice the last GL entry: w4 - w5 on D5/P4, w4 on B4/Q4.
    return w[3] - w[4] if pb == D5_P4 else w[3]


def test_tensor_decompose_matches_schur_polynomial_oracle():
    # The cases of the test above, as Levi weights with their central charges.
    rng = random.Random(13)
    cases = [(D5_P4, (3, 3, 1, 2, 2), (2, 1, 3, 3, 3))]  # GL vectors (9,6,3,2,0), (9,7,6,3,0)
    for pb in (D5_P4, B4_Q4):
        for _ in range(30):
            cases.append((pb, _random_levi_dominant(rng, pb), _random_levi_dominant(rng, pb)))
    for pb, a, b in cases:
        terms = []
        for w, m in levi.tensor_decompose(pb, a, b).items():
            # The factors' partitions end in 0; the rest of the last entry is the charge.
            full, odd = divmod(
                _doubled_last_entry(pb, w) - _doubled_last_entry(pb, a) - _doubled_last_entry(pb, b), 2
            )
            assert not odd, (pb, a, b, w)
            terms.append((tuple(c + full for c in _chain_partition(pb, w)), m))
        lam, mu = _chain_partition(pb, a), _chain_partition(pb, b)
        assert _schur_identity_holds(lam, mu, len(lam), terms), (pb, a, b)


def test_schur_oracle_catches_a_raised_coefficient():
    terms = levi.lr_multiply((2, 1), (2, 1), 3)
    assert _schur_identity_holds((2, 1), (2, 1), 3, terms)
    for k, (nu, c) in enumerate(terms):
        raised = terms[:k] + ((nu, c + 1),) + terms[k + 1 :]
        assert not _schur_identity_holds((2, 1), (2, 1), 3, raised), nu


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
            total = sum(m * _gl_dim(_chain_partition(pb, w)) for w, m in dec.items())
            assert total == _gl_dim(_chain_partition(pb, a)) * _gl_dim(_chain_partition(pb, b))


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


def _marked_shift(pb, w, k):
    m = pb.marked[0] - 1
    return w[:m] + (w[m] + k,) + w[m + 1 :]


def _property_cases():
    # 150 pairs per parabolic, each with two twists in -3..3.
    rng = random.Random(43)
    for pb in (D5_P4, B4_Q4):
        for _ in range(150):
            a, b = _random_levi_dominant(rng, pb, 2), _random_levi_dominant(rng, pb, 2)
            yield pb, a, b, rng.randint(-3, 3), rng.randint(-3, 3)


def test_tensor_twist_covariance():
    # A twist by O(k) moves only the marked coordinate, on the factors and
    # on every term alike.
    for pb, a, b, x, y in _property_cases():
        base = levi.tensor_decompose(pb, a, b)
        shifted = {_marked_shift(pb, w, x + y): m for w, m in base.items()}
        assert levi.tensor_decompose(pb, _marked_shift(pb, a, x), _marked_shift(pb, b, y)) == shifted


def test_tensor_central_charges_add():
    for pb, a, b, _, _ in _property_cases():
        charge = _doubled_gl_size(pb, a) + _doubled_gl_size(pb, b)
        for w in levi.tensor_decompose(pb, a, b):
            assert _doubled_gl_size(pb, w) == charge, (pb, a, b, w)


def test_changing_a_tensor_result_leaves_the_next_call_alone():
    a, b = (1, 1, 0, -2, 1), (2, 0, 1, 3, 0)
    want = levi.tensor_decompose(D5_P4, a, b)
    got = levi.tensor_decompose(D5_P4, a, b)
    got[next(iter(got))] += 5
    got[(9, 9, 9, 9, 9)] = 1
    del got[list(want)[-1]]
    assert levi.tensor_decompose(D5_P4, a, b) == want


def test_tensor_computes_each_partition_pair_once(monkeypatch):
    calls = []
    original = levi._brauer_klimyk

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(levi, "_PRODUCTS", {})
    monkeypatch.setattr(levi, "_brauer_klimyk", counting)
    bases = [(D5_P4, (1, 0, 1, 0, 2), (0, 2, 0, 0, 1)), (D5_P4, (2, 1, 0, 0, 0), (1, 0, 0, 0, 1))]
    bases += [(B4_Q4, (1, 1, 0, 0), (0, 1, 2, 0)), (B4_Q4, (0, 1, 2, 0), (2, 0, 0, 1))]
    for pb, a, b in bases:
        for x in range(-3, 4):
            for y in range(-3, 4):
                levi.tensor_decompose(pb, _marked_shift(pb, a, x), _marked_shift(pb, b, y))
    assert len(calls) == len(bases)


def test_tensor_fills_one_entry_for_both_orders_of_a_pair(monkeypatch):
    monkeypatch.setattr(levi, "_PRODUCTS", {})
    pairs = [(D5_P4, (1, 0, 1, 0, 2), (0, 2, 0, 0, 1)), (D5_P4, (2, 1, 0, -1, 0), (1, 0, 0, 3, 1))]
    pairs += [(B4_Q4, (1, 1, 0, 0), (0, 1, 2, 0)), (B4_Q4, (0, 1, 2, -3), (2, 0, 0, 1))]
    for pb, a, b in pairs:
        forward = levi.tensor_decompose(pb, a, b)
        assert list(levi.tensor_decompose(pb, b, a).items()) == list(forward.items()), (a, b)
    assert len(levi._PRODUCTS) == len(pairs)


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


def test_schur_powers_take_only_ints():
    for r in (2.0, 1.0, 2.5, True, False, Q(2)):
        for power in (levi.sym_power, levi.wedge_power):
            with pytest.raises(roots.DomainError, match="^power .* is not an integer$"):
                power(D5_P4, r)
    assert levi.wedge_power(B4_Q4, 1) == levi.sym_power(B4_Q4, 1) == (1, 0, 0, 0)


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


def test_branch_d5_to_b4_rejects_wrong_length():
    for mu in ((1, 0, 0, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(roots.DomainError, match=f"^weight length {len(mu)} != rank 5$"):
            levi.branch_d5_to_b4(mu)


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


def test_levi_branching_examples():
    # U -> R + O and Uv -> Rv + O (0 -> R -> U -> O -> 0 on B4/Q4), O(1) -> O(1).
    U, R = (0, 0, 0, -1, 1), (0, 0, 1, -2)
    assert sorted(levi.branch_levi(U)) == sorted([R, (0, 0, 0, 0)])
    assert sorted(levi.branch_levi((1, 0, 0, 0, 0))) == sorted([(1, 0, 0, 0), (0, 0, 0, 0)])
    assert levi.branch_levi((0, 0, 0, 1, 0)) == ((0, 0, 0, 1),)
    with pytest.raises(roots.DomainError):
        levi.branch_levi((0, 0, 1, -2, -1))


def _gl_dim(p):
    # Weyl's dimension formula for GL(n) on a partition.
    num, den = 1, 1
    for i, j in itertools.combinations(range(len(p)), 2):
        num *= p[i] - p[j] + j - i
        den *= j - i
    return Q(num, den)


def _doubled_gl_size(pb, w):
    # Twice the GL size of w, the doubled central charge: 2|p| + n * (doubled last entry).
    p = _chain_partition(pb, w)
    return 2 * sum(p) + len(p) * _doubled_last_entry(pb, w)


def _rank_and_c1(pb, w):
    # Rank, and c1 in units of O(1): rank times twice the GL size of w, over
    # n, twice the GL size of O(1).
    p = _chain_partition(pb, w)
    dim = _gl_dim(p)
    return dim, dim * _doubled_gl_size(pb, w) / len(p)


def test_levi_branching_keeps_rank_and_first_chern():
    rng = random.Random(13)  # the draw of test_tensor_commutative_and_dimensional
    for _ in range(300):
        w = _random_levi_dominant(rng, D5_P4)
        pieces = levi.branch_levi(w)
        assert len(set(pieces)) == len(pieces), w
        assert all(roots.is_levi_dominant(B4_Q4, nu) for nu in pieces), w
        sums = [sum(col) for col in zip(*(_rank_and_c1(B4_Q4, nu) for nu in pieces))]
        assert sums == list(_rank_and_c1(D5_P4, w)), w


def test_invariant_multiplicity_examples():
    assert levi.invariant_multiplicity_entry(((D5, (1, 0, 0, 0, 0)),)) == 1
    assert levi.invariant_multiplicity_entry(((B4, (0, 0, 0, 0)),)) == 1
    assert levi.invariant_multiplicity_entry(()) == 1
    # the 16-dimensional spin representation has no invariants
    assert levi.invariant_multiplicity_entry(((D5, (0, 0, 0, 1, 0)),)) == 0
    # a formal pair has invariants equal to the branched overlap
    pair = ((D5, (0, 0, 0, 1, 0)), (D5, (0, 0, 0, 0, 1)))
    assert levi.invariant_multiplicity_entry(pair) == 1


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


def test_weights_of_the_wrong_length_are_domain_errors():
    with pytest.raises(roots.DomainError, match="^weight length 4 != rank 5$"):
        levi.tensor_decompose(D5_P4, (1, 0, 0, 0), (0, 0, 0, 0, 0))
    with pytest.raises(roots.DomainError, match="^weight length 3 != rank 5$"):
        levi.tensor_decompose(D5_P4, (0, 0, 0, 0, 0), (1, 0, 0))
