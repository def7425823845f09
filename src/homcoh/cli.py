"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 a verification or replay check
failed; 2 usage or parse error; 3 an Ext computation was ambiguous; 4 an
internal error (a bug, such as an InternalConsistencyError), reported on
one line of stderr; 141 (128 + SIGPIPE) the reader closed standard output
early, as in `homcoh corpus | head -1`, which prints nothing to stderr.

A run builds the argparse parser of the command it names alone, as `homcoh
NAME`, from the command table (_COMMANDS) that build_arg_parser, the parser
of the whole program, also reads; so `homcoh replay spinor-kp` adds the
arguments of one command, not of nine.  Usage, help and error text are those
of the whole program's parser, which is built only to print its own help or
usage: for no command, an unknown one, or an argument the command does not
take.  Each parser is built on first use, not at import, and kept for the
process.  Likewise json is imported by the --json branches that print it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus, ext as ext_mod, levi, mutations, parser as bparser, roots
from .bbw import bbw_cohomology, weyl_dim
from .ext import Ambiguous
from .mutations import Collection
from .parser import BundleSyntaxError, parse_bundle, parse_weight
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
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read collection file: {e}") from None
    objs = bparser.parse_collection(text)
    if not objs:
        raise UsageError(f"collection file {path!r} holds no objects")
    return Collection(tuple(objs), label=path)


# --- subcommands ------------------------------------------------------------


def cmd_coh(args) -> int:
    datum = _parse_datum(args.datum)
    pb = _parse_marked(datum, args.marked)
    w = parse_weight(args.weight)
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
    w = parse_weight(args.weight)
    print(weyl_dim(datum, w))
    return EXIT_OK


def cmd_tensor(args) -> int:
    datum = _parse_datum(args.datum)
    pb = _parse_marked(datum, args.marked)
    w1 = parse_weight(args.w1)
    w2 = parse_weight(args.w2)
    decomp = levi.tensor_decompose(pb, w1, w2)
    for w, m in sorted(decomp.items()):
        prefix = f"{m} x " if m > 1 else ""
        print(f"{prefix}E{roots.format_weight(w)}")
    return EXIT_OK


def cmd_ext(args) -> int:
    if args.euler and args.equivariant:
        raise UsageError("--euler gives the full Euler characteristic and does not take --equivariant")
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
        import json
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
        "ext": {str(p): d for p, d in step.hypothesis.dims().items()},
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
        import json
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
        import json
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
        import json
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
    report = corpus.run_corpus(args.filter, ext_mod.get_engine())
    if not report.results:
        raise UsageError(f"no corpus entry matches {args.filter!r}")
    if args.json:
        import json
        payload = [
            {
                "label": entry.label,
                "side": entry.side,
                "cases": [
                    {"case": c[0], "ok": c[1], "computed": str(c[2]), "stated": str(c[3])}
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


_FLAG = {"action": "store_true"}

# The commands: name -> (help line, handler, the (argument, add_argument
# keywords) of each argument).  build_arg_parser makes every command a
# subcommand of one parser; main builds only the parser of the command it runs.
_COMMANDS = {
    "coh": (
        "Borel-Bott-Weil cohomology of an irreducible bundle",
        cmd_coh,
        (("datum", {}), ("marked", {}), ("weight", {}), ("--quiet", _FLAG)),
    ),
    "dim": ("dimension of an irreducible representation", cmd_dim, (("datum", {}), ("weight", {}))),
    "tensor": (
        "tensor decomposition of Levi representations",
        cmd_tensor,
        (("datum", {}), ("marked", {}), ("w1", {}), ("w2", {})),
    ),
    "ext": (
        "graded Ext between bundle expressions",
        cmd_ext,
        (("e1", {}), ("e2", {}), ("--equivariant", _FLAG), ("--euler", _FLAG)),
    ),
    "verify": (
        "exceptionality of a collection file",
        cmd_verify,
        (("collection", {}), ("--equivariant", _FLAG), ("--json", _FLAG)),
    ),
    "mutate": (
        "mutate an adjacent pair of a collection",
        cmd_mutate,
        (
            ("collection", {}),
            ("direction", {"choices": ["L", "R"]}),
            ("position", {"type": int}),
            ("--json", _FLAG),
        ),
    ),
    "gram": ("Euler pairing table of a collection", cmd_gram, (("collection", {}), ("--json", _FLAG))),
    "replay": ("replay the scripted mutation chain", cmd_replay, (("target", {}), ("--json", _FLAG))),
    "corpus": (
        "run the golden corpus",
        cmd_corpus,
        (("--filter", {"default": ""}), ("--json", _FLAG)),
    ),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    _, func, arguments = _COMMANDS[name]
    for argument, keywords in arguments:
        parser.add_argument(argument, **keywords)
    parser.set_defaults(command=name, func=func)


def build_arg_parser() -> argparse.ArgumentParser:
    """The parser of the whole program, every command a subcommand."""
    ap = argparse.ArgumentParser(
        prog="homcoh",
        description="Exact cohomology, Ext groups and mutations on the spinor tenfold",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return ap


# Command name -> its parser, and None -> build_arg_parser(): each built on
# first use, not at import, and kept for the process, since parse_args leaves
# nothing behind in a parser for the next call.
_arg_parsers: dict[str | None, argparse.ArgumentParser] = {}


def _arg_parser(name: str | None) -> argparse.ArgumentParser:
    parser = _arg_parsers.get(name)
    if parser is None:
        if name is None:
            parser = build_arg_parser()
        else:
            # As build_arg_parser's subparser: the prog add_parser gives it,
            # and no other setting.
            parser = argparse.ArgumentParser(prog=f"homcoh {name}")
            _add_command(parser, name)
        _arg_parsers[name] = parser
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_arg_parser() parses it, building only the parser of
    the command argv names.  Usage, help and errors print as the full parser
    prints them: a command's own parser prints them for that command, and the
    full parser is built only for the program's help and usage (no command, an
    unknown one, or an argument that the command does not take)."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _arg_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return _arg_parser(None).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
