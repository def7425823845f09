import json
import random
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homcoh import bundles as B
from homcoh import cli, mutations
from homcoh.ext import ExtEngine
from homcoh.mutations import kp_collection, kuznetsov_collection
from homcoh.parser import parse_bundle
from homcoh.roots import InternalConsistencyError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coh_concentrated(capsys):
    code, out = run(capsys, "coh", "D5", "P4", "[0,0,1,-2,0]")
    assert code == 0
    assert out.strip() == "H^1 = V[0,0,0,0,0], dim 1"


def test_coh_vanishing_and_quiet(capsys):
    code, out = run(capsys, "coh", "D5", "P4", "[0,0,0,-1,1]")
    assert code == 0 and out.strip() == "H^* = 0"
    code, out = run(capsys, "coh", "D5", "P4", "[0,0,0,-1,1]", "--quiet")
    assert code == 0 and out.strip() == "0"
    code, out = run(capsys, "coh", "B4", "Q4", "[0,0,1,-2]", "--quiet")
    assert code == 0 and out.strip() == "V[0,0,0,0] @ 1"


def test_coh_usage_error(capsys):
    code, _ = run(capsys, "coh", "D5", "P4", "[0,0,0]")
    assert code == 2


def test_dim(capsys):
    code, out = run(capsys, "dim", "D5", "[1,0,0,0,0]")
    assert code == 0 and out.strip() == "10"


def test_tensor(capsys):
    code, out = run(capsys, "tensor", "D5", "P4", "[1,0,0,0,0]", "[1,0,0,0,0]")
    assert code == 0
    assert out.splitlines() == ["E[0,1,0,0,0]", "E[2,0,0,0,0]"]


def test_ext_text(capsys):
    code, out = run(capsys, "ext", "Sym2 Uv (2)", "Uv")
    assert code == 0 and out.strip() == "C[-3]"
    code, out = run(capsys, "ext", "U(1)", "Uv")
    assert code == 0 and out.strip() == "0"
    code, out = run(capsys, "ext", "O", "O(1)", "--euler")
    assert code == 0 and out.strip() == "16"
    code, out = run(capsys, "ext", "Sym2 Rv", "Uv", "--equivariant")
    assert code == 0 and out.splitlines()[0] == "C[-1]"


def test_ext_euler_refuses_equivariant(capsys):
    # The Euler characteristic is of the full Ext; an equivariant one is
    # not defined yet, so the pair is a usage error, not the plain chi.
    for argv in (["ext", "R", "R", "--euler", "--equivariant"], ["ext", "O", "O(1)", "--equivariant", "--euler"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --euler gives the full Euler characteristic and does not take --equivariant\n"


def test_ext_mixed_descriptions(capsys):
    # factors of both groups in one graded piece must sort
    code, out = run(capsys, "ext", "Uv", "Rv(-1)")
    assert code == 0 and out.strip() == "0"


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(self, E, F):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(ExtEngine, "ext", broken)
    code = cli.main(["ext", "O", "O"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "internal error: InternalConsistencyError: routes disagree\n"


def test_closed_pipe_is_not_an_internal_error(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = cli.main(["corpus"])
    assert code == 141
    assert capsys.readouterr().err == ""


def _child_env() -> dict:
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "homcoh", "replay", "spinor-kp"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "FINAL = Kuznetsov collection: MATCH"


def test_closed_pipe_exits_quietly_in_a_process():
    # The reader end is closed before the process starts, as in
    # `homcoh dim ... | true`; shutdown must not report a second error.
    env = _child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homcoh.cli", "dim", "D5", "[1,0,0,0,0]"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_ext_cross_description_pair_has_a_b4_label(capsys):
    # Both half-spin representations restrict to the spin representation of B4.
    code, out = run(capsys, "ext", "T", "R(1)")
    assert code == 0
    assert out.strip() == "V[0,0,0,1] @ 1"


def test_ext_ambiguous_exit_code(capsys):
    code, out = run(capsys, "ext", "Rv", "Uv")
    assert code == 3
    assert "ambiguous" in out


def test_ext_ambiguous_names_the_pair_asked(capsys):
    # The engine answers the whole twist class at level zero; the CLI names the twist asked.
    code, out = run(capsys, "ext", "Rv(1)", "Uv(1)")
    assert code == 3
    assert "Ext(Rv (1), Uv (1)): no degenerate chase; chi = -9" in out


def test_weights_in_errors_print_as_the_parser_reads_them(capsys):
    code = cli.main(["ext", "B4[0,0,-1,0]", "O"])
    assert code == 2
    assert capsys.readouterr().err == "error: [0,0,-1,0] is not Levi-dominant on B4/Q4 (at position 0)\n"
    code = cli.main(["dim", "D5", "[0,-1,0,0,0]"])
    assert code == 2
    assert capsys.readouterr().err == "error: [0,-1,0,0,0] is not dominant\n"


def test_verify_builtin_collections(capsys):
    code, out = run(capsys, "verify", "spinor-kp")
    assert code == 0
    assert "PASS" in out
    assert "16 identity checks, 120 vanishing checks" in out
    code, out = run(capsys, "verify", "spinor-kp", "--json")
    assert code == 0
    assert [parse_bundle(e) for e in json.loads(out)["objects"]] == list(kp_collection().objects)


def test_verify_failing_collection(tmp_path, capsys):
    f = tmp_path / "bad.col"
    f.write_text("O\nO\n")
    code, out = run(capsys, "verify", str(f))
    assert code == 1
    assert "FAIL" in out
    code, out = run(capsys, "verify", str(f), "--equivariant")
    assert code == 1
    assert out.splitlines()[1:] == ["FAIL (1,0) expected zero: C[0]", "FAIL"]
    code, out = run(capsys, "verify", str(f), "--json")
    assert code == 1
    assert [parse_bundle(e) for e in json.loads(out)["objects"]] == [B.O(), B.O()]


def test_gram(capsys):
    code, out = run(capsys, "gram", "kuznetsov")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 16
    assert rows[0][0] == "1" and rows[0][2] == "16"


def test_mutate_json_roundtrip(tmp_path, capsys):
    f = tmp_path / "pair.col"
    f.write_text("O(2)\nUv(2)\n")
    code, out = run(capsys, "mutate", str(f), "L", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["recipe"] == "left-kernel"
    assert payload["ext"] == {"0": 10}
    assert parse_bundle(payload["result-expr"]) == B.U(2)
    assert [parse_bundle(e) for e in payload["collection"]] == [B.U(2), B.O(2)]


def test_a_line_bundle_spelled_on_b4_answers_as_spelled_on_d5(tmp_path, capsys):
    # O(k) is one line bundle on both descriptions, so its spellings give
    # one mutation and one Ext, labels included.
    outs = []
    for first in ("B4 [0,0,0,0]", "O"):
        f = tmp_path / "pair.col"
        f.write_text(f"{first}\nUv\n")
        code, out = run(capsys, "mutate", str(f), "L", "1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[:3] == ["L at 1: recipe left-kernel", "hypothesis: V[1,0,0,0,0] @ 0", "result: U"]
    _, b4 = run(capsys, "ext", "B4 [0,0,0,0] + B4 [0,0,0,1]", "Uv(1)")
    _, d5 = run(capsys, "ext", "O + O(1)", "Uv(1)")
    assert b4 == d5 == "V[1,0,0,0,0] @ 0\nV[1,0,0,1,0] @ 0\n"


def test_mutate_ambiguous_exit(tmp_path, capsys):
    f = tmp_path / "amb.col"
    f.write_text("Rv\nUv\n")
    code, out = run(capsys, "mutate", str(f), "R", "1")
    assert code == 3
    assert out == "ambiguous: Ext(Rv, Uv) is ambiguous\n"


def test_mutate_refuses_a_pair_whose_cone_cancels(tmp_path, capsys):
    f = tmp_path / "twice.col"
    f.write_text("O(2)\nO(2)\n")
    code = cli.main(["mutate", str(f), "R", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: the R mutation of (O (2), O (2)) has class 0: the pair is not exceptional\n"


def test_mutate_position_out_of_range_names_the_given_position(capsys):
    for position in ("0", "16"):
        code = cli.main(["mutate", "spinor-kp", "R", position])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == f"error: position {position} out of range 1..15"


def test_replay(capsys):
    code, out = run(capsys, "replay", "spinor-kp")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("step")) == 16
    assert lines[-1] == "FINAL = Kuznetsov collection: MATCH"
    notes = [line.strip() for line in lines if line.strip().startswith("note: reverse")]
    assert notes == [
        "note: reverse direction Ext(Uv (1), U (2)) = 0",
        "note: reverse direction Ext(Uv (5), U (6)) = 0",
    ]


def test_replay_json(capsys):
    code, out = run(capsys, "replay", "spinor-kp", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["steps"]) == 16
    assert payload["final-matches"] and "gram-matches" not in payload
    step1 = payload["steps"][0]
    assert set(step1) >= {"direction", "position", "ext", "recipe", "result-expr", "kclass"}
    assert len(step1["kclass"]) == 16
    results = [parse_bundle(step["result-expr"]) for step in payload["steps"]]
    assert results[0] == B.U(7) and results[-1] == B.Uv(7)
    assert [parse_bundle(e) for e in payload["final"]] == list(kuznetsov_collection().objects)
    notes = [note for step in payload["steps"] for note in step["notes"] if note.startswith("reverse")]
    assert notes == ["reverse direction Ext(Uv (1), U (2)) = 0", "reverse direction Ext(Uv (5), U (6)) = 0"]


@pytest.mark.parametrize("check", ["final_matches"])
def test_replay_check_failure_exits_1_in_both_modes(capsys, monkeypatch, check):
    monkeypatch.setattr(mutations.ReplayResult, check, property(lambda self: False))
    code, out = run(capsys, "replay", "spinor-kp")
    assert code == 1
    assert out.strip().splitlines()[-1] == "FINAL = Kuznetsov collection: MISMATCH"
    code, out = run(capsys, "replay", "spinor-kp", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload[check.replace("_", "-")] is False
    assert len(payload["steps"]) == 16


def test_corpus_cli(capsys):
    code, out = run(capsys, "corpus")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    code, out = run(capsys, "corpus", "--filter", "sym-power")
    assert code == 0 and "sym-power-sections" in out


def test_corpus_filter_that_matches_nothing_is_a_usage_error(capsys):
    for extra in ((), ("--json",)):
        assert cli.main(["corpus", "--filter", "nothing", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no corpus entry matches 'nothing'\n"


def test_replay_error_aborts_with_exit_1(capsys, monkeypatch):
    def fail(engine):
        raise mutations.ReplayError("step 3: no recipe")

    monkeypatch.setattr(mutations, "replay_main_proof", fail)
    assert run(capsys, "replay", "spinor-kp") == (1, "REPLAY ABORTED: step 3: no recipe\n")


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_calls_in_one_process_behave_like_separate_processes(capsys):
    # Each command's argument parser is built once per process; no call may
    # leave a flag or an error behind for the next one.
    assert run(capsys, "ext", "O")[0] == 2
    assert run(capsys, "ext", "O", "O") == (0, "C[0]\n")
    built = cli._arg_parsers["ext"]
    code, out = run(capsys, "gram", "kuznetsov", "--json")
    assert code == 0
    matrix = json.loads(out)
    gram = cli._arg_parsers["gram"]
    code, out = run(capsys, "gram", "kuznetsov")
    assert code == 0
    assert [[int(v) for v in line.split()] for line in out.splitlines()] == matrix
    assert run(capsys, "ext", "O", "O") == (0, "C[0]\n")
    assert cli._arg_parsers["ext"] is built is not gram is cli._arg_parsers["gram"] is not None


def test_argument_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c", "from homcoh import cli; print(cli._arg_parsers)"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{}\n"


_COUNT_PARSERS = r"""
import argparse, contextlib, io, json, runpy, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
sys.argv = ["homcoh", "replay", "spinor-kp"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("homcoh", run_name="__main__")
    except SystemExit as e:
        code = e.code
from homcoh import cli
print(json.dumps([code, built, sorted(map(str, cli._arg_parsers))]))
"""


def test_replay_builds_one_argument_parser():
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, ["homcoh replay"], ["replay"]]


# Reads sys.modules before anything in the child imports json.
_JSON_MODULES = r"""
import contextlib, io, runpy, sys
sys.argv = ["homcoh", "replay", "spinor-kp"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("homcoh", run_name="__main__")
    except SystemExit as e:
        code = e.code
print(code, "json" in sys.modules)
"""


def test_replay_does_not_import_json():
    proc = subprocess.run(
        [sys.executable, "-c", _JSON_MODULES], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# Per command: valid arguments, and the ones each kind of usage error needs.
_ARGV_TABLE = {
    "coh": ["D5", "P4", "[0,0,0,1,0]"],
    "dim": ["D5", "[1,0,0,0,0]"],
    "tensor": ["B4", "Q4", "[1,0,0,0]", "[0,0,0,1]"],
    "ext": ["O", "Uv"],
    "verify": ["kuznetsov"],
    "mutate": ["kuznetsov", "R", "1"],
    "gram": ["kuznetsov"],
    "replay": ["spinor-kp"],
    "corpus": ["--filter", "bott"],
}


def _argv_shapes():
    for name, valid in _ARGV_TABLE.items():
        yield [name, *valid]  # valid
        yield [name, *valid[:-1]]  # a positional missing (corpus: --filter with no value)
        yield [name, *valid, "--bogus"]  # an unknown flag, after the arguments
        yield [name, "--bogus", *valid]  # and before them
        yield [name, *valid, "surplus"]  # an argument too many
        yield [name, "-h"]
        yield [name, "--he"]  # an abbreviated --help
    yield ["mutate", "kuznetsov", "X", "1"]  # a bad choice
    yield ["mutate", "kuznetsov", "R", "one"]  # a bad int
    yield ["replay", "spinor-kp", "--js"]  # an abbreviated flag
    yield from ([], ["-h"], ["--help"], ["frobnicate"], ["--json", "replay", "spinor-kp"], ["replay", "-h", "x"])


def _outcome(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_each_command_parses_as_the_full_parser_parses_it(capsys, monkeypatch):
    # main builds only the named command's parser; the whole program's parser
    # must give the same exit code, stdout and stderr for every shape of argv.
    monkeypatch.setenv("COLUMNS", "80")
    shapes = list(_argv_shapes())
    mine = [_outcome(capsys, argv) for argv in shapes]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_arg_parser().parse_args(argv))
    full = [_outcome(capsys, argv) for argv in shapes]
    for argv, got, want in zip(shapes, mine, full):
        assert got == want, argv
    codes = {argv[0] if argv else "": code for argv, (code, _, _) in zip(shapes, mine)}
    assert set(codes) == {"", "-h", "--help", "frobnicate", "--json", *_ARGV_TABLE}
    assert sorted({code for code, _, _ in mine}) == [0, 2]
    assert all(mine[7 * k][0] == 0 and mine[7 * k + 1][0] == 2 for k in range(len(_ARGV_TABLE)))


def test_schur_power_out_of_range_is_a_usage_error_with_a_position(capsys):
    code = cli.main(["ext", "Sym-1 Uv", "O"])
    assert code == 2
    assert capsys.readouterr().err == "error: negative symmetric power (at position 0)\n"


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "ext", "O", "That(5)")
    _, out2 = run(capsys, "ext", "O", "That(5)")
    assert out1 == out2


def test_bad_coh_arguments_are_usage_errors(capsys):
    for argv, message in (
        (("E5", "P4", "[0,0,0,0,0]"), "bad datum 'E5', expected e.g. D5 or B4"),
        (("D5", "X4", "[0,0,0,0,0]"), "bad marking 'X4', expected e.g. P4 or Q4"),
        (("D5", "P4", "1,0,0,0,0"), "expected '[', found '1' (at position 0)"),
        (("D5", "P4", "[a,0,0,0,0]"), "expected int, found 'a' (at position 1)"),
    ):
        code = cli.main(["coh", *argv])
        assert code == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_weight_arguments_read_as_weight_literals_do(capsys):
    # coh, dim and tensor read a weight as ext reads the bracket list of a
    # weight literal: no digit separators, no plus sign, nothing after it.
    for weight, message, position in (
        ("[1_0,0,0,0,0]", "unexpected character '_'", 2),
        ("[+1,0,0,0,0]", "expected int, found '+'", 1),
        ("[1,0,0,0,0]x", "trailing input 'x'", 11),
    ):
        code = cli.main(["ext", f"D5 {weight}", "O"])
        assert code == 2, weight
        assert capsys.readouterr().err == f"error: {message} (at position {position + 3})\n", weight
        for argv in (
            ["coh", "D5", "P4", weight],
            ["dim", "D5", weight],
            ["tensor", "D5", "P4", weight, "[1,0,0,0,0]"],
            ["tensor", "D5", "P4", "[1,0,0,0,0]", weight],
        ):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), argv
            assert captured.err == f"error: {message} (at position {position})\n", argv
    # spaces around the coordinates are allowed, as in a bundle expression
    for argv, want in (
        (["coh", "D5", "P4", "[ 0 , 0,1,-2,0 ]"], "H^1 = V[0,0,0,0,0], dim 1\n"),
        (["dim", "D5", " [ 1 , 0,0,0,0 ] "], "10\n"),
        (["tensor", "D5", "P4", "[ 1 , 0,0,0,0 ]", "[1,0,0,0,0]"], "E[0,1,0,0,0]\nE[2,0,0,0,0]\n"),
    ):
        assert run(capsys, *argv) == (0, want), argv


def test_unusable_collection_files_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "missing.col"
    code = cli.main(["verify", str(missing)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read collection file: ")
    empty = tmp_path / "empty.col"
    empty.write_text("# nothing here\n\n")
    code = cli.main(["verify", str(empty)])
    assert code == 2
    assert capsys.readouterr().err == f"error: collection file {str(empty)!r} holds no objects\n"


def test_collection_parse_errors_name_the_line_and_the_position_once(tmp_path, capsys):
    for line, message in (
        ("Uv * R", "tensor products need two sums in one description"),
        ("Uv + R", "direct sum needs a common description"),
    ):
        f = tmp_path / "bad.col"
        f.write_text(f"O\n{line}\n")
        code = cli.main(["verify", str(f)])
        assert code == 2, line
        assert capsys.readouterr().err == f"error: line 2: {message} (at position 3)\n", line
    code = cli.main(["ext", "Uv + R", "O"])
    assert code == 2
    assert capsys.readouterr().err == "error: direct sum needs a common description (at position 3)\n"


def test_unknown_replay_target_is_a_usage_error(capsys):
    code = cli.main(["replay", "foo"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown replay target 'foo'\n"


def test_verify_ambiguous_collection_exits_3(tmp_path, capsys):
    f = tmp_path / "amb.col"
    f.write_text("Uv\nRv\n")
    code, out = run(capsys, "verify", str(f))
    assert code == 3
    assert "AMBIGUOUS (1,0) expected zero: ambiguous (no degenerate chase; chi = -9)" in out.splitlines()


def test_ext_equivariant_notes_the_branching(capsys):
    code, out = run(capsys, "ext", "O", "Uv", "--equivariant")
    assert code == 0
    assert out.splitlines() == ["C[0]", "# full-group classes restricted through the odd orthogonal branching"]


def test_mutate_prints_a_k_only_result(tmp_path, capsys):
    f = tmp_path / "konly.col"
    f.write_text("Sym2 Rv (2)\nRv (2)\nO (2)\n")
    code, out = run(capsys, "mutate", str(f), "R", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "R at 1: recipe k-only"
    assert lines[2] == "result: K-only[4824, 8925, 704, 848, 53, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"


def _outside_input(capsys, argv) -> tuple[int, str]:
    """Run argv and check what any outside input may give: an exit code that
    names an outcome (0-3) and at most one line of stderr, never an internal
    error.  Returns the code and stderr."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1 and "internal error" not in err, (argv, err)
    return code, err


def test_deep_nesting_is_a_usage_error(capsys):
    # The parser recurses once per parenthesis and per prefix operator; past
    # 100 levels it refuses the expression instead of running out of stack.
    for text in ("(" * 600 + "O" + ")" * 600, "dual " * 1200 + "O"):
        for argv in (("ext", text, "O"), ("ext", "O", text)):
            code, err = _outside_input(capsys, argv)
            assert code == 2 and err.startswith("error: "), err
            assert "nested deeper than 100" in err
    assert _outside_input(capsys, ("ext", "(" * 100 + "O(1)" + ")" * 100, "O")) == (0, "")
    assert parse_bundle("dual " * 100 + "Uv") is parse_bundle("Uv")
    assert _outside_input(capsys, ("ext", "(" * 101 + "O" + ")" * 101, "O")) == (
        2,
        "error: expression nested deeper than 100 levels (at position 100)\n",
    )


def test_a_collection_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "binary.col"
    f.write_bytes(b"O\n\xff\xfe\n")
    for argv in (("verify", str(f)), ("mutate", str(f), "R", "1"), ("gram", str(f))):
        code, err = _outside_input(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error: cannot read collection file: ") and "codec can't decode" in err, err


def test_malformed_outside_input_never_reaches_an_internal_error(tmp_path, capsys):
    # Collection files that cannot be read or hold nothing, and seeded random
    # bundle text and weights.
    binary = tmp_path / "binary.col"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\x00\xff\xfe\x00" * 8)
    empty = tmp_path / "empty.col"
    empty.write_text("")
    comments = tmp_path / "comments.col"
    comments.write_text("# O\n   # Uv\n\n")
    for path in (binary, empty, comments, tmp_path):
        for argv in (("verify", str(path)), ("mutate", str(path), "L", "1"), ("gram", str(path), "--json")):
            assert _outside_input(capsys, argv)[0] == 2, argv
    deep = "(" * 600 + "O" + ")" * 600
    assert _outside_input(capsys, ("ext", deep, "dual " * 1200 + "O"))[0] == 2

    rng = random.Random(7)
    tokens = (
        "O", "U", "Uv", "R", "Rv", "That", "Thatv", "Ktilde", "W", "T", "X", "dual", "Sym2", "Wedge2", "Sym", "D5",
        "B4", "(", ")", "[", "]", ",", "+", "*", "1", "-2", "0", "3", "?",
    )
    codes = set()
    for _ in range(200):
        text = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 8)))
        codes.add(_outside_input(capsys, ("ext", text, rng.choice(("O", "Uv(1)", text))))[0])
    assert codes >= {0, 2}

    def weight():
        return "[" + ",".join(str(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))) + "]"

    for _ in range(60):
        datum, marked = rng.choice((("D5", "P4"), ("B4", "Q4"), ("A3", "P1"), ("D5", "P9"), ("B0", "Q4")))
        _outside_input(capsys, ("coh", datum, marked, weight()))
        _outside_input(capsys, ("dim", datum, weight()))
        _outside_input(capsys, ("tensor", datum, marked, weight(), weight()))
