"""Tests of the benchmark itself: tiny sessions of every workload, seed
determinism, oracles that catch corrupted answers, span aggregation, and
agreement with BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"paper-replay": 7, "ext-sweep": 60, "levi-tensor": 6}


def _session(workload: str, seed: int, *extra: str, size: int | None = None) -> dict:
    return run.session(workload, seed, time.monotonic() + 150, *extra, size=size)


@pytest.fixture(scope="module")
def duals():
    answers = [answer for _, answer in _session("ext-sweep", 0, "--dual")["ops"]]
    return dict(zip(workloads.dual_inputs(), answers, strict=True))


def _tally(workload: str, seed: int, size: int, duals: dict) -> tuple[run.Tally, dict]:
    result = _session(workload, seed, size=size)
    tally = run.Tally()
    tally.add(workload, workloads.inputs(workload, seed, size=size), result, duals if workload == "ext-sweep" else None)
    return tally, result


@pytest.fixture(scope="module")
def tiny_runs(duals):
    return {w: _tally(w, 3, size, duals) for w, size in TINY.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_session_passes_its_oracles(tiny_runs, workload):
    tally, result = tiny_runs[workload]
    assert tally.attempted == TINY[workload] == len(result["ops"])
    assert tally.wrong == 0
    assert tally.exact > 0
    assert result["wall_s"] > 0 and result["rss_mb"] > 0
    if workload != "ext-sweep":
        assert tally.failed == 0


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.inputs(workload, 5, 1) == workloads.inputs(workload, 5, 1)
    for workload in ("ext-sweep", "levi-tensor"):
        assert workloads.inputs(workload, 5) != workloads.inputs(workload, 6)
        assert workloads.inputs(workload, 5, 0) != workloads.inputs(workload, 5, 1)


def test_ext_sweep_covers_every_pair_once():
    ops = workloads.inputs("ext-sweep", 9)
    assert ops[0] == workloads.EXT_ANCHOR
    pairs = {(e, f) for e, f, _ in ops}
    assert len(ops) == len(pairs) == 13 * 13 * 7
    assert {mode for _, _, mode in ops} == set(workloads.MODES)


def test_levi_tensor_inputs_are_levi_dominant_and_bounded():
    ops = workloads.inputs("levi-tensor", 4)
    assert ops[0] == workloads.LEVI_WORST
    assert len(ops) == 1 + workloads.LEVI_PANEL_PAIRS + workloads.LEVI_B4_PAIRS
    for datum, a, b in ops[1:]:
        for w in (a, b):
            assert workloads.levi_dominant(datum, w)
            assert all(abs(c) <= workloads.LEVI_BOUND for c in w)


def test_same_seed_same_fractions(tiny_runs, duals):
    first = tiny_runs["ext-sweep"][0]
    again = _tally("ext-sweep", 3, TINY["ext-sweep"], duals)[0]
    assert (again.failed, again.ambiguous, again.exact) == (first.failed, first.ambiguous, first.exact)


# --- oracles catch corrupted answers ---------------------------------------


def _answers(tiny_runs, workload):
    ops = workloads.inputs(workload, 3, size=TINY[workload])
    return ops, [a for _, a in tiny_runs[workload][1]["ops"]]


def test_levi_oracle_catches_a_dropped_term(tiny_runs):
    ops, answers = _answers(tiny_runs, "levi-tensor")
    op, answer = next((o, a) for o, a in zip(ops, answers) if len(a["terms"]) > 1)
    assert workloads.check("levi-tensor", op, answer) == "exact"
    dropped = copy.deepcopy(answer)
    dropped["terms"].pop()
    assert workloads.check("levi-tensor", op, dropped) == "wrong"
    doubled = copy.deepcopy(answer)
    doubled["terms"][0][1] += 1
    assert workloads.check("levi-tensor", op, doubled) == "wrong"
    recharged = copy.deepcopy(answer)
    recharged["terms"][0][0][3] += 2  # the marked node: same Levi dimension, wrong centre
    assert workloads.check("levi-tensor", op, recharged) == "wrong"


def test_levi_oracle_checks_the_worst_case_weights(tiny_runs):
    ops, answers = _answers(tiny_runs, "levi-tensor")
    assert ops[0] == workloads.LEVI_WORST
    assert workloads.check("levi-tensor", ops[0], answers[0]) == "exact"
    moved = copy.deepcopy(answers[0])
    moved["a"][0] += 1
    assert workloads.check("levi-tensor", ops[0], moved) == "wrong"


def test_serre_oracle_catches_a_shifted_degree(tiny_runs, duals):
    ops, answers = _answers(tiny_runs, "ext-sweep")
    assert answers[0] == {"dims": {"3": 1}}  # Ext(Sym2 Uv(2), Uv) = C[-3]
    assert workloads.check("ext-sweep", ops[0], answers[0], duals[ops[0]]) == "exact"
    shifted = {"dims": {"4": 1}}
    assert workloads.check("ext-sweep", ops[0], shifted, duals[ops[0]]) == "wrong"
    graded = [
        (o, a, duals[o]) for o, a in zip(ops, answers)
        if "dims" in a and workloads.check("ext-sweep", o, a, duals[o]) == "exact"
    ]
    assert graded
    for op, answer, dual in graded:
        if answer["dims"]:
            p, d = next(iter(answer["dims"].items()))
            bumped = {"dims": dict(answer["dims"], **{p: d + 1})}
            assert workloads.check("ext-sweep", op, bumped, dual) == "wrong"


def test_serre_oracle_on_euler_and_invariants():
    op_chi = ("O", "Uv(1)", "euler")
    assert workloads.check("ext-sweep", op_chi, {"chi": 16}, {"chi": 16}) == "exact"
    assert workloads.check("ext-sweep", op_chi, {"chi": 17}, {"chi": 16}) == "wrong"
    op_inv = ("O", "Uv(1)", "equivariant")
    assert workloads.check("ext-sweep", op_inv, {"inv": {"2": 1}}, {"inv": {"8": 1}}) == "exact"
    assert workloads.check("ext-sweep", op_inv, {"inv": {"2": 1}}, {"inv": {"7": 1}}) == "wrong"
    assert workloads.check("ext-sweep", op_inv, {"ambiguous": True}, {"inv": {}}) == "ambiguous"
    assert workloads.check("ext-sweep", op_inv, {"inv": {}}, {"error": "TypeError"}) == "unchecked"


def test_paper_oracle_catches_wrong_verdicts(tiny_runs):
    ops, answers = _answers(tiny_runs, "paper-replay")
    for op, answer in zip(ops, answers):
        assert workloads.check("paper-replay", op, answer) == "exact", op
    by_op = dict(zip(ops, answers))

    replay = copy.deepcopy(by_op[("cli", "replay", "spinor-kp")])
    replay["out"] = replay["out"].replace("MATCH", "MISMATCH")
    assert workloads.check("paper-replay", ("cli", "replay", "spinor-kp"), replay) == "wrong"

    verify = dict(by_op[("cli", "verify", "kuznetsov")], code=1)
    assert workloads.check("paper-replay", ("cli", "verify", "kuznetsov"), verify) == "wrong"

    gram = copy.deepcopy(by_op[("cli", "gram", "kuznetsov")])
    rows = [line.split() for line in gram["out"].splitlines()]
    rows[-1][0] = "1"  # a nonzero entry below the diagonal
    gram["out"] = "\n".join(" ".join(row) for row in rows)
    assert workloads.check("paper-replay", ("cli", "gram", "kuznetsov"), gram) == "wrong"

    assembled = copy.deepcopy(by_op[("assemble",)])
    assembled["objects"].pop()
    assert workloads.check("paper-replay", ("assemble",), assembled) == "wrong"


def test_failed_operations_rank_slowest():
    tally = run.Tally(latencies=[(0.001, False), (0.002, False), (0.0001, True)], walls=[1.0])
    assert tally.percentile_ms(0.5) == (2.0, False)
    assert tally.percentile_ms(0.9) == (1000.0, True)


# --- spans -----------------------------------------------------------------


def test_spans_self_time_recursion_and_missing_targets(tmp_path, monkeypatch):
    roots = types.ModuleType("fake.roots")

    def eps_to_omega(n):
        time.sleep(0.002)
        return roots.eps_to_omega(n - 1) if n else 0

    def omega_to_eps(n):
        time.sleep(0.003)
        return roots.eps_to_omega(n)

    roots.eps_to_omega, roots.omega_to_eps = eps_to_omega, omega_to_eps
    pkg = types.ModuleType("fake")
    pkg.omega_to_eps = omega_to_eps  # a re-export, as in homcoh/__init__.py
    monkeypatch.setitem(sys.modules, "fake", pkg)
    monkeypatch.setitem(sys.modules, "fake.roots", roots)
    tracer = spans.Tracer()
    assert tracer.install("fake") == ["roots.omega_to_eps", "roots.eps_to_omega"]
    assert pkg.omega_to_eps is roots.omega_to_eps  # every reference is rebound
    pkg.omega_to_eps(2)
    path = tmp_path / "spans.bin"
    tracer.dump(str(path))
    m = spans.aggregate(str(path))

    assert m["roots.omega_to_eps.calls"][0] == 1
    assert m["roots.eps_to_omega.calls"][0] == 3
    assert m["roots.all.calls"][0] == 4
    outer = m["roots.omega_to_eps.total_s"][0]
    inner = m["roots.eps_to_omega.total_s"][0]  # the recursion is counted once
    assert 0.006 <= inner < outer
    assert m["roots.omega_to_eps.self_s"][0] == pytest.approx(outer - inner)
    assert m["roots.all.self_s"][0] == pytest.approx(outer)
    # absent targets give absent metrics, not a crash
    assert "ext.ExtEngine._chase.calls" not in m and "ext.chase_accept_ratio" not in m
    assert "bbw.weyl_dim.hit_ratio" not in m


def test_traced_session_reports_every_layer(tmp_path):
    path = tmp_path / "spans.bin"
    _session("ext-sweep", 2, "--spans", str(path), size=40)
    metrics = spans.aggregate(str(path))
    for module in spans.MODULES:
        assert f"{module}.all.calls" in metrics and f"{module}.all.self_s" in metrics
    assert metrics["ext.ExtEngine.ext.calls"][0] >= 40
    assert metrics["parser.parse_bundle.calls"][0] == 80
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) <= declared


# --- output format and BENCHMARK.json -----------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"] for m in spec["per_layer"]}
    labels = [f"{module}.{path}" for module, path in spans.TARGETS]
    expected = {f"{label}.{kind}" for label in labels for kind in ("calls", "total_s", "self_s")}
    expected |= {f"{module}.all.{kind}" for module in spans.MODULES for kind in ("calls", "self_s")}
    expected |= {f"{label}.hit_ratio" for label in spans.CACHED}
    expected |= {"ext.cycle_cuts", "ext.memo_hit_ratio", "ext.chase_accept_ratio"}
    expected |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert declared == expected


def test_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "paper-replay", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 2 * 7  # two sessions at least
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ext-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
