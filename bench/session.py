"""One benchmark session in a fresh interpreter.

The session imports homcoh, builds the sequence registry and the Ext engine
(set-up), then issues the operations of one workload one after another on
one thread, each as soon as the previous one returns.  It prints a single
JSON line: the monotonic time at which set-up ended, the wall time of the
operations, the times of reference_loop() taken before, between and after
the operations, the peak resident set size, and per operation its latency
and answer.  bench/run.py
starts sessions and judges their answers.

    PYTHONPATH=src python3 bench/session.py --workload ext-sweep --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import spans
import workloads

REF_EVERY_S = 0.25


def reference_loop() -> float:
    """Time one pass of a fixed pure-Python computation that uses no homcoh
    code; bench/run.py scales a session's times by it (see REF_S there)."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1200):
        acc += Fraction(i, i + 1) * Fraction(2, 3)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def _reference(n: int) -> list[float]:
    return [reference_loop() for _ in range(n)]


def _median(values: list[float]) -> float:
    return sorted(values)[len(values) // 2]


def _paper_ops(engine):
    from homcoh import cli, mutations

    def call(op):
        if op[0] == "assemble":
            return mutations.assemble_kp_collection()[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op[1:]))
        return code, out.getvalue()

    def describe(op, raw):
        if op[0] == "assemble":
            return {
                "objects": [repr(o) for o in raw.objects],
                "expected": [repr(o) for o in mutations.kp_collection().objects],
            }
        return {"code": raw[0], "out": raw[1]}

    return call, describe


def _ext_ops(engine):
    from homcoh import parser
    from homcoh.ext import Ambiguous

    queries = {"ext": engine.ext, "equivariant": engine.ext_equivariant, "euler": engine.euler}

    def call(op):
        e, f, mode = op
        return queries[mode](parser.parse_bundle(e), parser.parse_bundle(f))

    def describe(op, raw):
        mode = op[2]
        if isinstance(raw, Ambiguous):
            return {"ambiguous": True}
        if mode == "euler":
            return {"chi": raw}
        graded = raw.dims() if mode == "ext" else raw
        return {"dims" if mode == "ext" else "inv": {str(p): d for p, d in graded.items()}}

    return call, describe


def _levi_ops(engine):
    from homcoh import levi
    from homcoh.roots import B4_Q4, D5_P4

    spaces = {"D5": D5_P4, "B4": B4_Q4}

    def call(op):
        kind, a, b = op
        pb = spaces[kind[:2]]
        if kind == "D5-gl":
            a = levi.from_gl(pb, tuple(Fraction(c) for c in a))
            b = levi.from_gl(pb, tuple(Fraction(c) for c in b))
        return a, b, levi.tensor_decompose(pb, tuple(a), tuple(b))

    def describe(op, raw):
        a, b, dec = raw
        return {"a": list(a), "b": list(b), "terms": [[list(w), m] for w, m in sorted(dec.items())]}

    return call, describe


OPS = {"paper-replay": _paper_ops, "ext-sweep": _ext_ops, "levi-tensor": _levi_ops}


def _setup(workload: str, tracer: spans.Tracer | None):
    import homcoh  # noqa: F401
    import homcoh.cli  # noqa: F401
    from homcoh import bundles, ext

    if tracer is not None:
        tracer.install()
    bundles.standard_sequences()
    return ext.ExtEngine() if workload == "ext-sweep" else ext.get_engine()


def run(workload: str, ops: list[tuple], tracer: spans.Tracer | None = None) -> dict:
    engine = _setup(workload, tracer)
    ready = time.monotonic()
    call, describe = OPS[workload](engine)
    clock = time.perf_counter
    results = []
    refs = [[0, t] for t in _reference(3)]  # [operations done before it, loop time]
    paused = 0.0  # time spent in reference loops between operations
    next_ref = clock() + REF_EVERY_S
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            raw = call(op)
        except Exception as exc:  # a failed operation is recorded; the session goes on
            lat = clock() - t0
            answer = {"error": type(exc).__name__, "message": str(exc)[:200]}
        else:
            lat = clock() - t0
            answer = describe(op, raw)
        results.append([lat, answer])
        if clock() >= next_ref:
            t0 = clock()
            refs.append([len(results), reference_loop()])
            t1 = clock()
            paused += t1 - t0
            next_ref = t1 + REF_EVERY_S
    # wall time includes describing the answers, which is cheap next to the operations
    wall = clock() - start - paused
    refs += [[len(results), t] for t in _reference(3)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s = _median([t for _, t in refs])
    return {"ready": ready, "wall_s": wall, "rss_mb": rss_mb, "ref_s": ref_s, "refs": refs, "ops": results}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, default=0, help="session number within the run")
    ap.add_argument("--size", type=int, default=None, help="keep only the first SIZE operations")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--dual", action="store_true", help="answer the Serre duals of all ext-sweep queries")
    ap.add_argument("--spans", default=None, help="trace the layers and write the spans to this file")
    args = ap.parse_args(argv)

    if args.setup_only:
        _setup(args.workload, None)
        result = {"ready": time.monotonic(), "ref_s": _median(_reference(5))}
    else:
        if args.dual:
            ops = [workloads.dual_query(op) for op in workloads.dual_inputs()]
        else:
            ops = workloads.inputs(args.workload, args.seed, args.session, args.size)
        tracer = spans.Tracer() if args.spans else None
        result = run(args.workload, ops, tracer)
        if tracer is not None:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
