"""Seeded inputs and independent oracles of the homcoh benchmark workloads.

This module never imports homcoh: it builds the operations a session runs
and judges the answers a session reports, using only facts that do not
depend on the code under test (Serre duality on the spinor tenfold, the
Weyl dimension formula for the two type-A Levis, unitriangular Gram
matrices of exceptional collections).

An operation is a JSON-friendly tuple. An answer is a dict; a raised
exception is reported as {"error": <exception type name>}.
"""

from __future__ import annotations

import random

WORKLOADS = ("paper-replay", "ext-sweep", "levi-tensor")

# --- paper-replay ----------------------------------------------------------

PAPER_OPS = (
    ("cli", "replay", "spinor-kp"),
    ("cli", "verify", "spinor-kp"),
    ("cli", "verify", "kuznetsov"),
    ("cli", "gram", "kuznetsov"),
    ("cli", "gram", "spinor-kp"),
    ("cli", "corpus"),
    ("assemble",),
)
# Both collections are full exceptional collections on the spinor tenfold,
# whose K-group has rank 16 (its Schubert cells).
COLLECTION_SIZE = 16

# --- ext-sweep -------------------------------------------------------------

GENERATORS = (
    "O", "U", "Uv", "R", "Rv", "T", "That", "Thatv", "Ktilde", "Ktildev",
    "Sym2 Uv", "Sym2 Rv", "Wedge2 Rv",
)
TWISTS = range(-3, 4)
MODES = ("ext", "equivariant", "euler")
# The spinor tenfold has dimension 10 and canonical bundle O(-8).
DIMENSION = 10
CANONICAL_TWIST = -8
# Ext(Sym2 Uv(2), Uv), a chase over the Koszul complex of Sym2: the fixed
# first query of every ext-sweep session, on a cold engine.
EXT_ANCHOR = ("Sym2 Uv", "Uv(-2)", "ext")

# --- levi-tensor -----------------------------------------------------------

LEVI_BOUND = 3
LEVI_PANEL_SEED = 13  # the draw of tests/test_levi.py
LEVI_PANEL_PAIRS = 20
LEVI_B4_PAIRS = 250
LEVI_STRATUM = 16
# The Littlewood-Richardson worst case (9,6,3,2)*(9,7,6,3) in 5 rows, as
# GL vectors of D5/P4; the session builds the weights with levi.from_gl.
LEVI_WORST = ("D5-gl", (9, 6, 3, 2, 0), (9, 7, 6, 3, 0))
MARKED = {"D5": 4, "B4": 4}
RANK = {"D5": 5, "B4": 4}


def inputs(workload: str, seed: int, session: int = 0, size: int | None = None) -> list[tuple]:
    """The operations of session number `session` of a run with this seed.

    Each session of a run draws its own inputs from (seed, session), so a
    run averages over several draws; `size` keeps a prefix.
    """
    rng = random.Random(f"{workload}/{seed}/{session}")
    if workload == "paper-replay":
        ops = list(PAPER_OPS)
    elif workload == "ext-sweep":
        ops = _ext_sweep_ops(rng)
    elif workload == "levi-tensor":
        ops = _levi_tensor_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops if size is None else ops[:size]


def _pairs() -> list[tuple[str, str]]:
    return [(e, f"{f}({t})") for e in GENERATORS for f in GENERATORS for t in TWISTS]


def _ext_sweep_ops(rng: random.Random) -> list[tuple]:
    pairs = _pairs()
    pairs.remove(EXT_ANCHOR[:2])
    rng.shuffle(pairs)
    return [EXT_ANCHOR] + [(e, f, rng.choice(MODES)) for e, f in pairs]


def _draw(rng: random.Random, datum: str) -> tuple[int, ...]:
    # tests/test_levi.py::_random_levi_dominant
    return tuple(
        rng.randint(0, LEVI_BOUND) if i + 1 != MARKED[datum] else rng.randint(-LEVI_BOUND, LEVI_BOUND)
        for i in range(RANK[datum])
    )


def _levi_tensor_ops(rng: random.Random) -> list[tuple]:
    """The worst case, a fixed D5 panel with seeded charges, and seeded B4 pairs.

    The D5/P4 Littlewood-Richardson cost is so heavy-tailed (at bound 3 a
    few pairs in a hundred take most of the time) that a fresh D5 draw per
    seed cannot give a steady run time.  The D5 partitions therefore come
    from the fixed draw of tests/test_levi.py, and the seed draws only
    their central charges (the marked coordinate).  The B4/Q4 pairs are a
    fresh seeded draw, stratified by the product of the two Levi
    dimensions: one pair from each block of LEVI_STRATUM sorted draws.
    """
    panel_rng = random.Random(LEVI_PANEL_SEED)
    marked = MARKED["D5"] - 1
    ops = []
    for _ in range(LEVI_PANEL_PAIRS):
        a, b = _draw(panel_rng, "D5"), _draw(panel_rng, "D5")
        a, b = (
            tuple(rng.randint(-LEVI_BOUND, LEVI_BOUND) if i == marked else c for i, c in enumerate(w))
            for w in (a, b)
        )
        ops.append(("D5", a, b))
    pool = [(_draw(rng, "B4"), _draw(rng, "B4")) for _ in range(LEVI_B4_PAIRS * LEVI_STRATUM)]
    pool.sort(key=lambda ab: levi_dim("B4", ab[0]) * levi_dim("B4", ab[1]))
    for i in range(0, len(pool), LEVI_STRATUM):
        ops.append(("B4",) + pool[i + rng.randrange(LEVI_STRATUM)])
    rng.shuffle(ops)
    return [LEVI_WORST] + ops


# --- independent Levi arithmetic --------------------------------------------


def gl2(datum: str, w) -> tuple[int, ...]:
    """Twice the GL vector of a Levi weight, from its Dynkin labels.

    D5/P4: the Levi chain is nodes 1-2-3-5 and the marked node 4 carries
    g4 + g5.  B4/Q4: the chain is 1-2-3 and the short marked node 4 carries
    2*g4.
    """
    if datum == "D5":
        a1, a2, a3, a4, a5 = w
        g = [a4 + a5, a4 - a5]
        for a in (a3, a2, a1):
            g.insert(0, g[0] + 2 * a)
    else:
        a1, a2, a3, a4 = w
        g = [a4]
        for a in (a3, a2, a1):
            g.insert(0, g[0] + 2 * a)
    return tuple(g)


def levi_dim(datum: str, w) -> int:
    """Weyl dimension of the irreducible Levi representation of weight w."""
    g = gl2(datum, w)
    num = den = 1
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            num *= (g[i] - g[j]) // 2 + j - i
            den *= j - i
    return num // den


def levi_dominant(datum: str, w) -> bool:
    return len(w) == RANK[datum] and all(c >= 0 for i, c in enumerate(w) if i + 1 != MARKED[datum])


# --- oracles ---------------------------------------------------------------
#
# check(workload, op, answer, dual) judges an answer without an error:
# "exact", "ambiguous" (ext-sweep only), "wrong", or "unchecked" for an exact
# ext-sweep answer whose Serre dual raised or was ambiguous, so that there
# was nothing to compare with.  `dual` is the answer of the dual query.


def dual_query(op: tuple) -> tuple:
    """The Serre-dual ext-sweep query: (E, F) -> (F, E(-8)), same mode."""
    e, f, mode = op
    return (f, f"{e}({CANONICAL_TWIST})", mode)


def dual_inputs() -> list[tuple]:
    """Every ext-sweep query in every mode, in a fixed order: the oracle's
    own queries are the Serre duals of these (see dual_query)."""
    return [(e, f, mode) for e, f in _pairs() for mode in MODES]


def check(workload: str, op: tuple, answer: dict, dual: dict | None = None) -> str:
    if workload == "paper-replay":
        return "exact" if _paper_ok(op, answer) else "wrong"
    if workload == "ext-sweep":
        return _serre(op, answer, dual)
    return "exact" if _levi_ok(op, answer) else "wrong"


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _paper_ok(op: tuple, answer: dict) -> bool:
    if op[0] == "assemble":
        got = answer["objects"]
        return got == answer["expected"] and len(got) == COLLECTION_SIZE
    if answer["code"] != 0:
        return False
    out = answer["out"]
    command = op[1]
    if command == "replay":
        steps = [line for line in out.splitlines() if line.startswith("step ")]
        return len(steps) == 16 and _last_line(out) == "FINAL = Kuznetsov collection: MATCH"
    if command in ("verify", "corpus"):
        return _last_line(out) == "PASS"
    if command == "gram":
        rows = [[int(x) for x in line.split()] for line in out.strip().splitlines()]
        n = len(rows)
        return n == COLLECTION_SIZE and all(
            len(row) == n and all(row[j] == (1 if i == j else 0) for j in range(i + 1))
            for i, row in enumerate(rows)
        )
    return False


def _serre(op: tuple, answer: dict, dual: dict | None) -> str:
    if answer.get("ambiguous"):
        return "ambiguous"
    if dual is None or "error" in dual or dual.get("ambiguous"):
        return "unchecked"
    mode = op[2]
    if mode == "euler":
        return "exact" if answer["chi"] == dual["chi"] else "wrong"
    key = "dims" if mode == "ext" else "inv"
    mine = {int(p): d for p, d in answer[key].items() if d}
    theirs = {DIMENSION - int(p): d for p, d in dual[key].items() if d}
    return "exact" if mine == theirs else "wrong"


def _levi_ok(op: tuple, answer: dict) -> bool:
    datum = op[0][:2]
    a, b = answer["a"], answer["b"]
    if op[0] == "D5-gl":
        # from_gl must invert the GL vector: compare doubled coordinates
        if gl2(datum, a) != tuple(2 * c for c in op[1]) or gl2(datum, b) != tuple(2 * c for c in op[2]):
            return False
    elif (tuple(a), tuple(b)) != (tuple(op[1]), tuple(op[2])):
        return False
    size = sum(gl2(datum, a)) + sum(gl2(datum, b))
    total = 0
    for w, m in answer["terms"]:
        if m <= 0 or not levi_dominant(datum, w) or sum(gl2(datum, w)) != size:
            return False
        total += m * levi_dim(datum, w)
    return total == levi_dim(datum, a) * levi_dim(datum, b)

