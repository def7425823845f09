"""Value semantics of homcoh's record classes: equal fields give equal
objects with equal hashes, one object per value for the interned classes,
frozen objects refuse changes, objects of two classes never compare equal,
and constructors keep their keywords and defaults."""

import copy
import pickle
import sys
import threading

import pytest

from homcoh import bundles as B
from homcoh.bbw import Cohomology
from homcoh.corpus import ENTRIES, CorpusEntry
from homcoh.ext import Ambiguous, ExtResult
from homcoh.mutations import Collection, KForm, KOnly, MutationStep, PairCheck
from homcoh.roots import B4, B4_Q4, D5, D5_P4, LieDatum, Parabolic

_PIECES = ((0, ((D5, (1, 0, 0, 0, 0)),), 1), (1, (), 2))
_GRAM = ((1, 5), (0, 1))

# class -> (a function building an object from its fields, its fields, one
# object that differs from it in one field).  An interned class returns one
# object per value; every other class builds a new object per call.
INTERNED = {
    LieDatum: (lambda: LieDatum("D", 5), ("family", "rank"), LieDatum("D", 4)),
    Parabolic: (lambda: Parabolic(LieDatum("D", 5), (4,)), ("datum", "marked"), Parabolic(D5, (1,))),
    B.Sum: (
        lambda: B.make_sum(D5_P4, {(1, 0, 0, 0, 0): 2}),
        ("space", "parts"),
        B.make_sum(D5_P4, {(1, 0, 0, 0, 0): 1}),
    ),
    B.Named: (lambda: B.Named("That", 2), ("name", "twist"), B.Named("That", 3)),
    B.Term: (lambda: B.Term(B.Uv(1), (((D5, (1, 0, 0, 0, 0)), 1),)), ("obj", "coeff"), B.Term(B.Uv(1))),
}
FROZEN = {
    **INTERNED,
    Cohomology: (
        lambda: Cohomology(1, (0, 0, 1, 0, 0), 45),
        ("degree", "weight", "dim"),
        Cohomology(2, (0, 0, 1, 0, 0), 45),
    ),
    B.Sequence: (
        lambda: B.Sequence("s", (B.Term(B.O()), B.Term(B.O(1)))),
        ("name", "terms"),
        B.Sequence("t", (B.Term(B.O()), B.Term(B.O(1)))),
    ),
    ExtResult: (lambda: ExtResult(_PIECES), ("pieces",), ExtResult(_PIECES[:1])),
    Ambiguous: (lambda: Ambiguous(3, "no chase"), ("euler", "reason"), Ambiguous(3, "other")),
    KOnly: (lambda: KOnly((1, -2, 0)), ("kclass",), KOnly((1, -2, 1))),
    Collection: (
        lambda: Collection((B.O(), B.Uv()), "c", True),
        ("objects", "label", "equivariant"),
        Collection((B.O(), B.Uv()), "c"),
    ),
    KForm: (
        lambda: KForm.from_gram((B.O(), B.O(1)), _GRAM),
        ("basis", "gram", "gram_inv"),
        KForm.from_gram((B.O(), B.O(2)), _GRAM),
    ),
    CorpusEntry: (
        lambda: CorpusEntry("e", "D5", ENTRIES[0].run),
        ("label", "side", "run"),
        CorpusEntry("e", "B4", ENTRIES[0].run),
    ),
}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    make, _, other = FROZEN[cls]
    a, b = make(), make()
    assert type(a) is cls
    assert a is b if cls in INTERNED else a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert repr(a) == repr(b)


def test_interned_records_compare_and_hash_in_c():
    # No Python-level method runs when the engine compares or hashes a key.
    for cls in INTERNED:
        assert (cls.__eq__, cls.__ne__, cls.__hash__) == (object.__eq__, object.__ne__, object.__hash__), cls


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_copies_and_unpickled_records_are_the_stored_object(cls):
    make, _, other = INTERNED[cls]
    samples = [make(), other]
    if cls is B.Sum:
        samples.append(B.irr(B4_Q4, (0, 0, 0, 2)))  # O(2), stored on D5/P4
    for a in samples:
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) is a, (a, protocol)
    if cls is B.Term:  # a record that holds terms copies to an equal one
        seq = B.standard_sequences()[0]
        assert copy.deepcopy(seq) == seq and pickle.loads(pickle.dumps(seq)) == seq


def test_threads_building_one_value_get_one_object():
    # Four threads, more than the cores of a small machine, build the same
    # values, none stored before, with a thread switch every microsecond.
    workers = 4
    results = [None] * workers
    start = threading.Barrier(workers)

    def build(i):
        start.wait()
        results[i] = [
            obj
            for a in range(100, 130)
            for b in range(30)
            for obj in (
                B.irr(D5_P4, (a, b, 0, 0, 0)), B.twist(B.irr(D5_P4, (b, a, 0, 0, 0)), 2), B.Named("Ktilde", 10_000 + a * b)
            )
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first = results[0]
    assert len(first) == 2700 and all(len(r) == len(first) for r in results)
    assert all(r[n] is first[n] for r in results[1:] for n in range(len(first)))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_objects_refuse_assignment_and_deletion(cls):
    make, fields, other = FROZEN[cls]
    a = make()
    for name in fields:
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == make()


def test_objects_of_two_classes_never_compare_equal():
    pairs = [
        (B.Named("That", 0), B.O()),
        (ExtResult(()), Ambiguous(0)),
        (ExtResult(()), KOnly(())),  # one field each, holding the same value
        (Ambiguous(0, "That"), B.Named("That", 0)),
        (LieDatum("B", 4), Parabolic(B4, (4,))),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a
    assert LieDatum("D", 5) != ("D", 5)
    assert ExtResult(()) != ((),)


def test_lie_data_order_by_family_then_rank():
    data = [LieDatum("D", 5), LieDatum("A", 3), LieDatum("B", 4), LieDatum("A", 1)]
    assert sorted(data) == [LieDatum("A", 1), LieDatum("A", 3), B4, D5]
    assert B4 < D5 <= D5 and D5 > B4 >= B4
    with pytest.raises(TypeError):
        B4 < ("B", 4)


def test_kform_tables_take_no_part_in_comparison_or_printing():
    a, b = FROZEN[KForm][0](), FROZEN[KForm][0]()
    a.coords((1, 0))
    a._classes[B.Uv()] = (3, 4)
    assert a._coords and a._classes and not b._coords and not b._classes
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "KForm(basis=(O, O (1)), gram=((1, 5), (0, 1)), gram_inv=((1, -5), (0, 1)))"


def test_keyword_constructors_and_defaults():
    obj = B.Uv(2)
    assert B.Term(obj) == B.Term(obj, ()) == B.Term(obj=obj, coeff=())
    assert B.Term(obj) is B.Term(obj, ()) is B.Term(obj=obj, coeff=())
    assert B.Term(obj).coeff == ()
    assert repr(B.Term(B.O(1))) == "Term(obj=O (1), coeff=())"
    col = Collection((obj,), label="x")
    assert (col.label, col.equivariant) == ("x", False)
    assert col == Collection(objects=(obj,), label="x", equivariant=False)
    assert repr(col) == "Collection(objects=(Uv (2),), label='x', equivariant=False)"
    assert Ambiguous(5) == Ambiguous(5, "") == Ambiguous(euler=5, reason="")
    assert Ambiguous(5).reason == ""
    assert repr(B.Sequence(name="s", terms=())) == "Sequence(name='s', terms=())"
    assert LieDatum(family="B", rank=4) is B4 and LieDatum(family="B", rank=4) == B4
    assert Parabolic(datum=D5, marked=(4,)) is D5_P4 and Parabolic(datum=D5, marked=(4,)) == D5_P4
    assert Cohomology(degree=None, weight=None, dim=0).vanishes


def test_mutable_records_compare_by_fields_and_do_not_hash():
    check = lambda: PairCheck(0, 1, "zero", ExtResult(()), True, False)  # noqa: E731
    step = lambda: MutationStep("L", 0, (B.O(), B.O(1)), Ambiguous(2, "r"), "r", B.O(), 0, (1, 2))  # noqa: E731
    for make in (check, step):
        a, b = make(), make()
        assert a == b and a is not b
        with pytest.raises(TypeError):
            hash(a)
    a = step()
    a.notes = ("n",)
    assert a != step() and step().notes == ()
    assert repr(check()) == "PairCheck(row=0, col=1, expected='zero', value=0, ok=True, ambiguous=False)"
    assert repr(a) == (
        "MutationStep(direction='L', position=0, pair=(O, O (1)), hypothesis=ambiguous (r; chi = 2), "
        "recipe='r', result=O, shift=0, kclass=(1, 2), notes=('n',))"
    )
