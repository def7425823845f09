"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 a verification or replay check
failed; 2 usage or parse error; 3 an Ext computation was ambiguous; 4 an
internal error (a bug, such as an InternalConsistencyError), reported on
one line of stderr; 141 (128 + SIGPIPE) the reader closed standard output
early, as in `homcoh corpus | head -1`, which prints nothing to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus, ext as ext_mod, levi, mutations, parser as bparser, roots
from .bbw import bbw_cohomology, weyl_dim
from .ext import Ambiguous
from .mutations import Collection
from .parser import BundleSyntaxError, parse_bundle
from .roots import DomainError, InvalidDatum, LieDatum, Parabolic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_AMBIGUOUS = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


class UsageError(ValueError):
    pass


def _parse_datum(text: str) -> LieDatum:
    if len(text) < 2 or text[0] not in "ABCD" or not text[1:].isdigit():
        raise UsageError(f"bad datum {text!r}, expected e.g. D5 or B4")
    return LieDatum(text[0], int(text[1:]))


def _parse_marked(datum: LieDatum, text: str) -> Parabolic:
    if len(text) < 2 or text[0] not in "PQ" or not text[1:].isdigit():
        raise UsageError(f"bad marking {text!r}, expected e.g. P4 or Q4")
    return Parabolic(datum, (int(text[1:]),))


def _parse_weight(datum: LieDatum, text: str) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise UsageError(f"bad weight {text!r}, expected [a1,...,a{datum.rank}]")
    try:
        coords = tuple(int(c.strip()) for c in body[1:-1].split(","))
    except ValueError:
        raise UsageError(f"bad weight {text!r}") from None
    return coords


def _load_collection(path: str) -> Collection:
    builtins = {
        "spinor-kp": mutations.kp_collection,
        "kuznetsov": mutations.kuznetsov_collection,
    }
    if path in builtins and not os.path.exists(path):
        return builtins[path]()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read collection file: {e}") from None
    objs = bparser.parse_collection(text)
    if not objs:
        raise UsageError(f"collection file {path!r} holds no objects")
    return Collection(tuple(objs), label=path)


# --- subcommands ------------------------------------------------------------


def cmd_coh(args) -> int:
    datum = _parse_datum(args.datum)
    pb = _parse_marked(datum, args.marked)
    w = _parse_weight(datum, args.weight)
    coh = bbw_cohomology(pb, w)
    if coh.vanishes:
        print("0" if args.quiet else "H^* = 0")
    else:
        if args.quiet:
            print(f"V{roots.format_weight(coh.weight)} @ {coh.degree}")
        else:
            print(f"H^{coh.degree} = V{roots.format_weight(coh.weight)}, dim {coh.dim}")
    return EXIT_OK


def cmd_dim(args) -> int:
    datum = _parse_datum(args.datum)
    w = _parse_weight(datum, args.weight)
    print(weyl_dim(datum, w))
    return EXIT_OK


def cmd_tensor(args) -> int:
    datum = _parse_datum(args.datum)
    pb = _parse_marked(datum, args.marked)
    w1 = _parse_weight(datum, args.w1)
    w2 = _parse_weight(datum, args.w2)
    decomp = levi.tensor_decompose(pb, w1, w2)
    for w, m in sorted(decomp.items()):
        prefix = f"{m} x " if m > 1 else ""
        print(f"{prefix}E{roots.format_weight(w)}")
    return EXIT_OK


def cmd_ext(args) -> int:
    eng = ext_mod.get_engine()
    E = parse_bundle(args.e1)
    F = parse_bundle(args.e2)
    if args.euler:
        print(eng.euler(E, F))
        return EXIT_OK
    res = eng.ext(E, F)
    if isinstance(res, Ambiguous):
        print(f"ambiguous: Ext({E}, {F}): {res.reason}; chi = {res.euler}")
        return EXIT_AMBIGUOUS
    if args.equivariant:
        branched = any(datum == roots.D5 for _, entry, _ in res.pieces for datum, _w in entry)
        for line in ext_mod.format_graded(res.invariant_part()):
            print(line)
        if branched:
            print("# full-group classes restricted through the odd orthogonal branching")
        return EXIT_OK
    for line in ext_mod.format_graded(res):
        print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    eng = ext_mod.get_engine()
    col = _load_collection(args.collection)
    if args.equivariant:
        col = Collection(col.objects, col.label, equivariant=True)
    report = mutations.verify_exceptional(col, eng)
    if args.json:
        payload = {
            "objects": [repr(o) for o in col.objects],
            "passed": report.passed,
            "ambiguous": len(report.ambiguous_pairs),
            "checks": [
                {
                    "row": c.row,
                    "col": c.col,
                    "expected": c.expected,
                    "ok": c.ok,
                    "ambiguous": c.ambiguous,
                }
                for c in report.checks
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        n = len(col)
        print(f"collection of {n} objects: {n} identity checks, {n*(n-1)//2} vanishing checks")
        for c in report.checks:
            if not c.ok:
                tag = "AMBIGUOUS" if c.ambiguous else "FAIL"
                print(f"{tag} ({c.row},{c.col}) expected {c.expected}: {c.value}")
        print("PASS" if report.passed else "FAIL")
    if report.ambiguous_pairs:
        return EXIT_AMBIGUOUS
    return EXIT_OK if report.passed else EXIT_FAIL


def _step_payload(step: mutations.MutationStep) -> dict:
    return {
        "direction": step.direction,
        "position": step.position + 1,
        "ext": {str(p): d for p, d in step.hypothesis_dims().items()},
        "recipe": step.recipe,
        "result-expr": repr(step.result),
        "kclass": list(step.kclass),
        "notes": list(step.notes),
    }


def cmd_mutate(args) -> int:
    eng = ext_mod.get_engine()
    col = _load_collection(args.collection)
    if not 1 <= args.position <= len(col) - 1:
        raise UsageError(f"position {args.position} out of range 1..{len(col) - 1}")
    try:
        new, step = mutations.mutate(col, args.direction, args.position - 1, eng)
    except mutations.AmbiguousMutation as e:
        print(f"ambiguous: {e}")
        return EXIT_AMBIGUOUS
    if args.json:
        payload = _step_payload(step)
        payload["collection"] = [repr(o) for o in new.objects]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{step.direction} at {args.position}: recipe {step.recipe}")
        print(f"hypothesis: {step.hypothesis}")
        print(f"result: {step.result}")
        for line in step.notes:
            print(f"note: {line}")
        for obj in new.objects:
            print(obj)
    return EXIT_OK


def cmd_gram(args) -> int:
    eng = ext_mod.get_engine()
    col = _load_collection(args.collection)
    matrix = mutations.gram_matrix(col, eng)
    if args.json:
        print(json.dumps([list(row) for row in matrix]))
    else:
        width = max(len(str(v)) for row in matrix for v in row)
        for row in matrix:
            print(" ".join(str(v).rjust(width) for v in row))
    return EXIT_OK


def cmd_replay(args) -> int:
    if args.target != "spinor-kp":
        raise UsageError(f"unknown replay target {args.target!r}")
    eng = ext_mod.get_engine()
    try:
        rr = mutations.replay_main_proof(eng)
    except mutations.ReplayError as e:
        print(f"REPLAY ABORTED: {e}")
        return EXIT_FAIL
    ok = rr.final_matches
    if args.json:
        payload = {
            "steps": [_step_payload(s) for s in rr.steps],
            "final": [repr(o) for o in rr.final.objects],
            "final-matches": ok,
        }
        print(json.dumps(payload, indent=2))
    else:
        for i, s in enumerate(rr.steps, start=1):
            print(
                f"step {i:2d}: {s.direction} at {s.position + 1:2d} "
                f"[{s.recipe}] -> {s.result}  | Ext: {s.hypothesis}"
            )
            for line in s.notes:
                print(f"         note: {line}")
        print(f"FINAL = Kuznetsov collection: {'MATCH' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_corpus(args) -> int:
    report = corpus.run_corpus(args.filter)
    if not report.results:
        raise UsageError(f"no corpus entry matches {args.filter!r}")
    if args.json:
        payload = [
            {
                "label": entry.label,
                "side": entry.side,
                "cases": [
                    {"case": c[0], "ok": c[1], "computed": c[2], "stated": c[3]}
                    for c in cases
                ],
            }
            for entry, cases in report.results
        ]
        print(json.dumps(payload, indent=2))
    else:
        for label, side, good, total in report.summary_rows():
            status = "pass" if good == total else "FAIL"
            print(f"{label:28s} {side}  {good:3d}/{total:<3d} {status}")
        for label, case in report.failures:
            print(f"FAIL {label} :: {case[0]}: computed {case[2]}, stated {case[3]}")
        print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homcoh",
        description="Exact cohomology, Ext groups and mutations on the spinor tenfold",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coh", help="Borel-Bott-Weil cohomology of an irreducible bundle")
    p.add_argument("datum")
    p.add_argument("marked")
    p.add_argument("weight")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_coh)

    p = sub.add_parser("dim", help="dimension of an irreducible representation")
    p.add_argument("datum")
    p.add_argument("weight")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("tensor", help="tensor decomposition of Levi representations")
    p.add_argument("datum")
    p.add_argument("marked")
    p.add_argument("w1")
    p.add_argument("w2")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("ext", help="graded Ext between bundle expressions")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("--equivariant", action="store_true")
    p.add_argument("--euler", action="store_true")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("verify", help="exceptionality of a collection file")
    p.add_argument("collection")
    p.add_argument("--equivariant", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mutate", help="mutate an adjacent pair of a collection")
    p.add_argument("collection")
    p.add_argument("direction", choices=["L", "R"])
    p.add_argument("position", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("gram", help="Euler pairing table of a collection")
    p.add_argument("collection")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("replay", help="replay the scripted mutation chain")
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("corpus", help="run the golden corpus")
    p.add_argument("--filter", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    return ap


_arg_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call, not at import, and kept for the process:
    # parse_args leaves nothing behind in the parser for the next call.
    global _arg_parser
    if _arg_parser is None:
        _arg_parser = build_arg_parser()
    try:
        args = _arg_parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except (UsageError, BundleSyntaxError, InvalidDatum, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter shutdown does not raise a second time.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_BROKEN_PIPE
    except Exception as e:  # anything else is a bug: one line, not a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
