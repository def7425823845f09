import pytest

from homcoh import corpus, roots
from homcoh.corpus import ENTRIES, CorpusEntry, run_corpus
from homcoh.ext import ExtEngine
from homcoh.parser import parse_bundle
from homcoh.roots import InternalConsistencyError


def test_full_corpus_passes():
    report = run_corpus()
    assert report.passed, report.failures


def test_summary_covers_every_entry():
    report = run_corpus()
    assert len(report.results) == len(ENTRIES)
    assert {e.side for e in ENTRIES} == {"D5", "B4"}


def test_filter_restricts_entries():
    report = run_corpus("sym-power")
    assert [e.label for e, _ in report.results] == ["sym-power-sections"]


def test_empty_filter_match_is_vacuous_pass():
    report = run_corpus("no-such-entry")
    assert report.passed and not report.results


def test_an_entry_whose_computation_raises_fails_alone(monkeypatch):
    def boom(eng):
        raise InternalConsistencyError("injected")

    broken = CorpusEntry(ENTRIES[1].label, ENTRIES[1].side, boom)
    monkeypatch.setattr(corpus, "ENTRIES", (ENTRIES[0], broken, ENTRIES[2]))
    report = run_corpus()
    assert [e.label for e, _ in report.results] == [e.label for e in ENTRIES[:3]]
    assert report.failures == [
        (broken.label, ("computation aborted", False, "InternalConsistencyError: injected", "a finite value"))
    ]
    assert all(ok for e, cases in report.results if e is not broken for _, ok, _, _ in cases)


def _inject_short_root_fault(monkeypatch):
    original = roots.cartan_matrix

    def faulty(datum):
        matrix = original(datum)
        if datum.family == "B":
            rows = [list(r) for r in matrix]
            rows[2][3] = -rows[2][3]  # flip the doubled entry of the short-node row
            return tuple(tuple(r) for r in rows)
        return matrix

    monkeypatch.setattr(roots, "cartan_matrix", faulty)


def _assert_fails_exactly_on_the_b4_side(report):
    failed = {label for label, _ in report.failures}
    b4_labels = {e.label for e in ENTRIES if e.side == "B4"}
    d5_labels = {e.label for e in ENTRIES if e.side == "D5"}
    assert failed, "the fault must be detected"
    assert failed <= b4_labels, f"only rank-4 entries may fail, got {failed}"
    assert not (failed & d5_labels)


def test_fault_in_short_root_row_breaks_exactly_the_b4_side(monkeypatch):
    _inject_short_root_fault(monkeypatch)
    _assert_fails_exactly_on_the_b4_side(run_corpus())


def test_fault_reaches_a_fresh_engine_after_another_engine_is_warm(monkeypatch):
    # The engine's kernel tables must not outlive it: an engine that has
    # already seen every B4/Q4 pair of the corpus must not shield a fresh
    # one from a fault injected afterwards.
    warm = ExtEngine()
    assert run_corpus(engine=warm).passed
    for e in ("R", "Rv", "Sym2 Rv", "Wedge2 Rv"):
        for f in ("O", "R", "Rv", "Sym2 Rv", "Wedge2 Rv"):
            for t in (-2, 0, 2):
                warm.ext(parse_bundle(e), parse_bundle(f"{f}({t})"))
    _inject_short_root_fault(monkeypatch)
    _assert_fails_exactly_on_the_b4_side(run_corpus())


def test_corpus_survives_after_fault_removed():
    # caches must not have been poisoned by the fault-injection test
    assert run_corpus().passed
