"""The code against the committed answer ledger (see tests/ledger.py).

An exact grid answer must be reproduced byte for byte.  An ambiguous one
may turn exact, but only with the Euler characteristic it recorded.  Every
CLI snapshot must be reproduced byte for byte, exit code included.
"""

import pytest

import ledger


def _recorded_grid() -> list[list[str]]:
    return [line.split("\t") for line in ledger.GRID_FILE.read_text(encoding="utf-8").splitlines()]


def test_grid_matches_the_ledger():
    recorded = _recorded_grid()
    assert [(e, f) for e, f, _ in recorded] == ledger.GRID
    changed = []
    for (e, f, was), (_, _, now, chi) in zip(recorded, ledger.grid_answers()):
        if now == was:
            continue
        if was.startswith("ambiguous chi=") and not now.startswith("ambiguous") and chi == int(was[14:]):
            continue
        changed.append((e, f, was, now))
    assert not changed, changed[:10]


@pytest.mark.parametrize("name, argv", ledger.CLI_RUNS, ids=[name for name, _ in ledger.CLI_RUNS])
def test_cli_output_matches_the_ledger(name, argv):
    recorded = (ledger.CLI_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert ledger.cli_snapshot(argv) == recorded


def test_corpus_on_the_warm_process_engine_matches_the_ledger(capsys):
    # As one process runs the paper: the corpus answers on the process
    # engine after a replay, a verify and a Gram matrix, and prints what
    # the recorded run on a fresh engine printed.
    from homcoh import cli, ext

    ext.reset_engine()
    try:
        for argv in (("replay", "spinor-kp"), ("verify", "spinor-kp"), ("gram", "kuznetsov")):
            assert cli.main(list(argv)) == 0
        assert ext.get_engine()._memo
        capsys.readouterr()
        code = cli.main(["corpus", "--json"])
    finally:
        ext.reset_engine()
    recorded = (ledger.CLI_DIR / "corpus-json.txt").read_text(encoding="utf-8")
    assert f"$ homcoh corpus --json\nexit {code}\n{capsys.readouterr().out}" == recorded


def test_text_mode_corpus_formats_no_answer_when_every_case_passes(monkeypatch):
    # The corpus keeps the values of its cases, and text mode prints only
    # the failing ones: a passing run formats no answer.  --json prints
    # every value, as recorded.
    from homcoh import ext

    real = ext.format_graded
    calls = []

    def counted(res):
        calls.append(res)
        return real(res)

    monkeypatch.setattr(ext, "format_graded", counted)
    assert ledger.cli_snapshot(("corpus",)) == (ledger.CLI_DIR / "corpus.txt").read_text(encoding="utf-8")
    assert calls == []
    assert ledger.cli_snapshot(("corpus", "--json")) == (ledger.CLI_DIR / "corpus-json.txt").read_text(encoding="utf-8")
    assert calls


def test_ledger_check_sees_a_changed_answer(monkeypatch):
    # A wrong degree in one exact answer must fail the grid comparison.
    from homcoh import ext

    real = ext.format_graded

    def shifted(res):
        return [p.replace("C[0]", "C[-1]") for p in real(res)]

    monkeypatch.setattr(ext, "format_graded", shifted)
    with pytest.raises(AssertionError):
        test_grid_matches_the_ledger()
