"""The homcoh benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ext-sweep --seed 1 --seconds 20 --trace 0

Load model: one process, one thread, closed loop.  Sessions (bench/session.py)
run one after another, never two at once, each in a fresh interpreter, so
no cache of the program carries over between sessions.  A run starts a few
set-up-only sessions, then timed sessions until --seconds have passed, and
reports medians over sessions.  Every answer is judged by the oracles of
bench/workloads.py; ext-sweep answers are compared with the Serre-dual
queries, answered once per run on a separate engine in an untimed session.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced sessions and prints per-layer metrics from
the spans of the traced ones (bench/spans.py), with the tracing overhead.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # a run ends within 180 s
SETUP_SESSIONS = 5
# Session length in seconds, set-up included, on the machine described in
# bench/README.md.  A run of S seconds makes round(S / SESSION_S) timed
# sessions (at least 2), so its inputs depend on its seed and S only; on a
# much slower machine it stops after OVERRUN * S seconds of sessions, with a
# prefix of those inputs.
SESSION_S = {"paper-replay": 1.5, "ext-sweep": 2.5, "levi-tensor": 6.5}
OVERRUN = 1.25
# Every time is reported at reference speed: multiplied by REF_S over the
# time of session.reference_loop() in the same session, around the operation
# for a latency (see local_scales), over the whole session otherwise.  REF_S
# is that loop's time on the machine described in bench/README.md at its
# usual speed.  That machine's speed drifts by up to 1.8x over seconds to
# minutes; the loop drifts with it, and the scaled times drift far less.
REF_S = 0.0056

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cold_op_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "ok_frac": "fraction",
    "exact_frac": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def session(workload: str, seed: int, deadline: float, *extra: str, size: int | None = None) -> dict:
    """Run bench/session.py in a fresh interpreter and return its JSON result.

    `setup_s` is added: from just before the interpreter starts to the end
    of set-up, both on the system-wide monotonic clock.
    """
    cmd = [sys.executable, str(BENCH / "session.py"), "--workload", workload, "--seed", str(seed), *extra]
    if size is not None:
        cmd += ["--size", str(size)]
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"session {' '.join(cmd[2:])} ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"session exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


@dataclass
class Tally:
    """Oracle verdicts and latencies over the timed sessions of one run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    ambiguous: int = 0
    exact: int = 0
    serre_checked: int = 0
    errors: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)  # (seconds, failed)
    walls: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    throughputs: list = field(default_factory=list)
    cold: list = field(default_factory=list)
    rss: list = field(default_factory=list)

    def add(self, workload: str, ops: list[tuple], result: dict, duals: dict | None, timed: bool = True) -> None:
        """Judge one session's answers; only `timed` sessions give timings.

        `duals` maps each ext-sweep query to the answer of its Serre dual.
        """
        scales = local_scales(result)
        ok = 0
        for i, (lat, answer) in enumerate(result["ops"]):
            dual = duals.get(ops[i]) if duals is not None else None
            self.attempted += 1
            if "error" in answer:
                verdict = "error"
                self.errors[answer["error"]] = self.errors.get(answer["error"], 0) + 1
            else:
                verdict = workloads.check(workload, ops[i], answer, dual)
            failed = verdict in ("error", "wrong")
            self.failed += failed
            self.wrong += verdict == "wrong"
            self.ambiguous += verdict == "ambiguous"
            self.exact += verdict in ("exact", "unchecked")
            self.serre_checked += workload == "ext-sweep" and verdict == "exact"
            ok += not failed
            if timed:
                self.latencies.append((lat * scales[i], failed))
        if not timed:
            return
        self.raw_walls.append(result["wall_s"])
        self.walls.append(result["wall_s"] * speed_scale(result))
        self.throughputs.append(ok / self.walls[-1])
        self.cold.append(result["ops"][0][0] * scales[0])
        self.rss.append(result["rss_mb"])

    def percentile_ms(self, q: float) -> tuple[float, bool]:
        """Nearest-rank percentile; a failed operation ranks as the slowest.

        When the rank falls on a failure the value is the longest session
        wall time, which no operation can exceed, and the flag is True.
        """
        ranked = sorted(self.latencies, key=lambda lf: (lf[1], lf[0]))
        lat, failed = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
        return (max(self.walls) if failed else lat) * 1e3, failed


def speed_scale(result: dict) -> float:
    return REF_S / result["ref_s"]


def local_scales(result: dict) -> list[float]:
    """Per operation, REF_S over the median of the two reference-loop times
    taken just before it and the two taken just after it."""
    refs = result["refs"]
    done = [n for n, _ in refs]
    out = []
    for i in range(len(result["ops"])):
        k = bisect.bisect_right(done, i)  # refs[:k] ran before operation i
        out.append(REF_S / statistics.median(t for _, t in refs[max(0, k - 2):k + 2]))
    return out


def session_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / SESSION_S[workload]))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_SESSIONS):
        result = session(workload, seed, deadline, "--setup-only")
        setups.append(result["setup_s"] * speed_scale(result))
    duals = None
    if workload == "ext-sweep":
        answers = [answer for _, answer in session(workload, seed, deadline, "--dual")["ops"]]
        duals = dict(zip(workloads.dual_inputs(), answers, strict=True))
    tally = Tally()
    traced_walls, layer_runs = [], []
    n = session_count(workload, seconds)
    if trace:
        OUT.mkdir(exist_ok=True)
        n = max(1, n // 2)  # each step is an untraced and a traced session
    last = 0.0
    t_measure = time.monotonic()
    for k in range(n):
        now = time.monotonic()
        if k >= 2 and (now - t_measure > OVERRUN * seconds or now + 1.5 * last > deadline):
            break
        t0 = time.monotonic()
        ops = workloads.inputs(workload, seed, k)
        result = session(workload, seed, deadline, "--session", str(k))
        tally.add(workload, ops, result, duals)
        setups.append(result["setup_s"] * speed_scale(result))
        if trace:
            path = OUT / f"spans-{workload}-{seed}-{k}.bin"
            traced = session(workload, seed, deadline, "--session", str(k), "--spans", str(path))
            tally.add(workload, ops, traced, duals, timed=False)
            scale = speed_scale(traced)
            traced_walls.append(traced["wall_s"] * scale)
            layer = spans.aggregate(str(path))
            layer_runs.append({name: (v * scale if u == "s" else v, u) for name, (v, u) in layer.items()})
        last = time.monotonic() - t0

    p50, _ = tally.percentile_ms(0.5)
    p90, p90_failed = tally.percentile_ms(0.9)
    report = [
        f"workload {workload} seed {seed}: {len(tally.walls)} timed sessions, "
        f"{len(setups)} set-ups, {tally.attempted} operations judged, closed loop, one process",
        f"failed_frac = {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted}; "
        f"errors {tally.errors or 'none'}; wrong answers {tally.wrong})",
        f"ambiguous_frac = {tally.ambiguous / tally.attempted:.6f}",
        f"op_p90_ms = {p90:.4f} ms" + (" (falls on failed operations)" if p90_failed else ""),
        f"latency samples = {len(tally.latencies)}",
        f"unscaled wall_s = {statistics.median(tally.raw_walls):.4f} s",
    ]
    if workload == "ext-sweep":
        report.append(f"serre-checked exact answers = {tally.serre_checked}")
    if workload == "paper-replay":
        report.append(f"replay_s = {statistics.median(tally.cold):.4f} s (cold replay spinor-kp)")
    if trace:
        metrics = {}
        for name in layer_runs[0]:
            values = [run[name][0] for run in layer_runs if name in run]
            metrics[name] = (statistics.median(values), layer_runs[0][name][1])
        traced_wall, untraced_wall = statistics.median(traced_walls), statistics.median(tally.walls)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        report.append(f"tracing overhead = {traced_wall - untraced_wall:.4f} s "
                      f"(traced {traced_wall:.4f} s, untraced {untraced_wall:.4f} s)")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(tally.walls),
            "cold_op_s": statistics.median(tally.cold),
            "ok_ops_per_s": statistics.median(tally.throughputs),
            "op_p50_ms": p50,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
            "exact_frac": tally.exact / tally.attempted,
            "peak_rss_mb": statistics.median(tally.rss),
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the homcoh benchmark.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homcoh" / "__init__.py").is_file():
        print(f"error: no homcoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
