"""The answer ledger: the Ext grid and the paper's CLI outputs, as recorded.

`tests/data/grid.tsv` holds one line per pair of the 1,183-pair grid (13
generators x 13 generators at twists -3..3, asked of one fresh engine in
this order): E, F and the answer as `homcoh ext` prints it, its lines
joined by "; ", or `ambiguous chi=N`.  `tests/data/cli/` holds one file
per command of CLI_RUNS: the command, its exit code and its stdout, each
command run on a fresh default engine.  `tests/test_ledger.py` compares
the code with these files.

A change that alters answers regenerates the files from the repository
root with

    PYTHONPATH=src python tests/ledger.py

and lists the transitions the diff shows.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GRID_FILE = DATA / "grid.tsv"
CLI_DIR = DATA / "cli"

GENERATORS = (
    "O", "U", "Uv", "R", "Rv", "T", "That", "Thatv", "Ktilde", "Ktildev",
    "Sym2 Uv", "Sym2 Rv", "Wedge2 Rv",
)
TWISTS = range(-3, 4)
GRID = [(e, f"{f}({t})") for e in GENERATORS for f in GENERATORS for t in TWISTS]

CLI_RUNS = (
    ("replay", ("replay", "spinor-kp")),
    ("replay-json", ("replay", "spinor-kp", "--json")),
    ("verify-spinor-kp", ("verify", "spinor-kp")),
    ("verify-spinor-kp-equivariant", ("verify", "spinor-kp", "--equivariant")),
    ("verify-spinor-kp-json", ("verify", "spinor-kp", "--json")),
    ("verify-kuznetsov", ("verify", "kuznetsov")),
    ("gram-kuznetsov", ("gram", "kuznetsov")),
    ("gram-kuznetsov-json", ("gram", "kuznetsov", "--json")),
    ("gram-spinor-kp", ("gram", "spinor-kp")),
    ("corpus", ("corpus",)),
    ("corpus-json", ("corpus", "--json")),
    ("mutate-spinor-kp-R-15", ("mutate", "spinor-kp", "R", "15")),
    ("mutate-kuznetsov-L-1-json", ("mutate", "kuznetsov", "L", "1", "--json")),
    ("ext-equivariant", ("ext", "O", "O(1)", "--equivariant")),
    ("coh-D5-P4", ("coh", "D5", "P4", "[0,0,1,-2,0]")),
    ("tensor-D5-P4", ("tensor", "D5", "P4", "[1,0,0,0,0]", "[0,1,0,0,0]")),
    ("help", ("--help",)),
    ("replay-help", ("replay", "--help")),
)


def grid_answers() -> list[tuple[str, str, str, int]]:
    """(E, F, printed answer, chi) per grid pair, from one fresh engine."""
    from homcoh.ext import Ambiguous, ExtEngine, format_graded
    from homcoh.parser import parse_bundle

    eng = ExtEngine()
    out = []
    for e, f in GRID:
        E, F = parse_bundle(e), parse_bundle(f)
        res = eng.ext(E, F)
        if isinstance(res, Ambiguous):
            text = f"ambiguous chi={res.euler}"
        else:
            text = "; ".join(format_graded(res))
        out.append((e, f, text, eng.euler(E, F)))
    return out


def cli_snapshot(argv: tuple[str, ...]) -> str:
    """The command, its exit code and its stdout, run on a fresh default engine
    at a terminal width of 80 columns, which argparse wraps help text to."""
    from homcoh import cli, ext

    ext.reset_engine()
    out = io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        ext.reset_engine()
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return f"$ homcoh {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


def main() -> int:
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    lines = [f"{e}\t{f}\t{text}\n" for e, f, text, _ in grid_answers()]
    GRID_FILE.write_text("".join(lines), encoding="utf-8")
    for name, argv in CLI_RUNS:
        (CLI_DIR / f"{name}.txt").write_text(cli_snapshot(argv), encoding="utf-8")
    print(f"wrote {len(lines)} grid lines and {len(CLI_RUNS)} CLI snapshots under {DATA}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
