"""Exceptional collections, mutations, right duals and the main replay.

Mutations of adjacent pairs are performed at object level whenever one of
the three recognised recipes fires against a registered exact sequence;
otherwise the result is a K-theory-only object, known by its class in the
fixed Kuznetsov basis alone.  Such a result is final: no pairing takes it,
so a collection that holds one is not mutated, verified or tabled again.
Every object-level mutation is cross-checked against the cone's class.
Every pairing of collection objects, in the Gram matrix, the hypotheses and
the cones alike, is KForm.chi: ExtEngine.euler of two bundles.  KForm keeps
no state: each engine keeps the classes it computed, in ExtEngine.kclasses.
"""

from __future__ import annotations

from functools import lru_cache

from . import bundles, ext as ext_mod
from .bundles import BundleObject
from .ext import Ambiguous, ExtEngine, ExtResult
from .roots import D5, DomainError, Frozen, InternalConsistencyError, Record

KVector = tuple[int, ...]


class KOnly(Frozen):
    """A mutation result known only by its class in K-theory.

    mutate builds it when no recipe fires, and it is final: pairing a class
    would take the inverse of the basis's Gram matrix, which the package
    does not compute, so _hypothesis and KForm.chi refuse it.  Its printed
    form, K-only[...], is the one printed form of a collection object that
    parser.parse_bundle does not read back: the class is not an expression
    of the bundle language.
    """

    _fields = ("kclass",)

    def __init__(self, kclass: KVector) -> None:
        object.__setattr__(self, "kclass", kclass)

    def __repr__(self) -> str:
        return f"K-only{list(self.kclass)}"


CollectionObject = BundleObject | KOnly


class Collection(Frozen):
    _fields = ("objects", "label", "equivariant")

    def __init__(self, objects: tuple[CollectionObject, ...], label: str = "", equivariant: bool = False) -> None:
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "equivariant", equivariant)

    def __len__(self) -> int:
        return len(self.objects)

    def replaced(self, i: int, pair: tuple[CollectionObject, CollectionObject]) -> "Collection":
        objs = list(self.objects)
        objs[i], objs[i + 1] = pair
        return Collection(tuple(objs), self.label, self.equivariant)


@lru_cache(maxsize=None)
def kuznetsov_collection() -> Collection:
    """O(k), Uv(k) for k = 0..7: KForm's basis, built once, on first use."""
    objs: list[BundleObject] = []
    for k in range(8):
        objs += [bundles.O(k), bundles.Uv(k)]
    return Collection(tuple(objs), "kuznetsov")


def kp_collection() -> Collection:
    B = bundles
    objs = (
        B.O(0), B.O(1),
        B.O(2), B.Uv(2), B.schur("Uv", "Sym", 2, 2),
        B.O(3), B.Uv(3), B.schur("Uv", "Sym", 2, 3),
        B.O(4), B.Uv(4), B.Named("That", 5),
        B.O(5), B.Uv(5), B.Named("That", 6),
        B.O(6), B.O(7),
    )
    return Collection(objs, "spinor-kp")


def kp_blocks() -> tuple[Collection, ...]:
    B = bundles
    def blk(label, *objs):
        return Collection(tuple(objs), label, equivariant=True)

    return (
        blk("A0", B.O(0)),
        blk("A1", B.O(1)),
        blk("A2", B.schur("Rv", "Sym", 2, 2), B.Rv(2), B.O(2)),
        blk("A3", B.schur("Rv", "Sym", 2, 3), B.Rv(3), B.O(3)),
        blk("A4", B.schur("Rv", "Wedge", 2, 4), B.Rv(4), B.O(4)),
        blk("A5", B.schur("Rv", "Wedge", 2, 5), B.Rv(5), B.O(5)),
        blk("A6", B.O(6)),
        blk("A7", B.O(7)),
    )


# --- verification ----------------------------------------------------------


class PairCheck(Record):
    _fields = ("row", "col", "expected", "value", "ok", "ambiguous")

    def __init__(
        self, row: int, col: int, expected: str, value: ExtResult | Ambiguous, ok: bool, ambiguous: bool
    ) -> None:
        self.row = row
        self.col = col
        self.expected = expected  # "identity" or "zero"
        self.value = value
        self.ok = ok
        self.ambiguous = ambiguous


class VerifyReport(Record):
    _fields = ("checks",)

    def __init__(self, checks: list[PairCheck]) -> None:
        self.checks = checks

    @property
    def ambiguous_pairs(self) -> list[PairCheck]:
        return [c for c in self.checks if c.ambiguous]

    @property
    def failures(self) -> list[PairCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def passed(self) -> bool:
        return not self.failures


def _refuse_k_only(a: CollectionObject, b: CollectionObject) -> None:
    """Raise DomainError when a or b is K-only: it pairs with nothing."""
    for x in (a, b):
        if isinstance(x, KOnly):
            raise DomainError(f"{x} is known by its class alone and pairs with nothing")


def _hypothesis(
    col: Collection, a: CollectionObject, b: CollectionObject, eng: ExtEngine
) -> ExtResult | Ambiguous:
    """Ext(a, b) as the collection asks for it: its invariant part when the
    collection is equivariant.  A K-only side is refused."""
    _refuse_k_only(a, b)
    res = eng.ext(a, b)
    if col.equivariant and isinstance(res, ExtResult):
        return res.invariant_part()
    return res


def verify_exceptional(col: Collection, engine: ExtEngine) -> VerifyReport:
    """Diagonal identity checks plus vanishing of every backward Ext."""
    checks: list[PairCheck] = []
    n = len(col)
    for i in range(n):
        value = _hypothesis(col, col.objects[i], col.objects[i], engine)
        amb = isinstance(value, Ambiguous)
        checks.append(PairCheck(i, i, "identity", value, not amb and value.dims() == {0: 1}, amb))
    for j in range(n):
        for i in range(j):
            value = _hypothesis(col, col.objects[j], col.objects[i], engine)
            amb = isinstance(value, Ambiguous)
            checks.append(PairCheck(j, i, "zero", value, not amb and value.is_zero, amb))
    return VerifyReport(checks)


def gram_matrix(col: Collection, engine: ExtEngine) -> tuple[tuple[int, ...], ...]:
    """The table of KForm.chi over the collection; it builds no K-form."""
    return tuple(tuple(KForm.chi(a, b, engine) for b in col.objects) for a in col.objects)


# --- K-theory --------------------------------------------------------------


class KForm:
    """The Euler form on K-theory, in the basis of the Kuznetsov collection.

    An object E's class is kclass(E) = (chi(b, E) for b in the basis).  A
    mutation step records its result's class, a K-only result is its class,
    and a recipe is cross-checked against its cone's (k_cone); no pairing
    reads a class.  chi, the one pairing of two collection objects, is
    ExtEngine.euler of two bundles, so it needs no fullness of the basis.
    KForm keeps nothing: kclass keeps each class in engine.kclasses, once per
    engine, so a fault injected below reaches every engine built after it.
    """

    @staticmethod
    def chi(a: CollectionObject, b: CollectionObject, engine: ExtEngine) -> int:
        """chi(a, b): ExtEngine.euler of two bundles; a K-only side is refused."""
        _refuse_k_only(a, b)
        return engine.euler(a, b)

    @staticmethod
    def kclass(obj: CollectionObject, engine: ExtEngine) -> KVector:
        """A K-only object's own class, else its basis pairings, once per engine."""
        if isinstance(obj, KOnly):
            return obj.kclass
        k = engine.kclasses.get(obj)
        if k is None:
            k = engine.kclasses[obj] = tuple(engine.euler(b, obj) for b in kuznetsov_collection().objects)
        return k


def k_cone(direction: str, ka: KVector, kb: KVector, chi: int) -> KVector:
    """The class of the cone a mutation of the pair (a, b) puts in, from
    their classes ka and kb and chi = chi(a, b): a - chi b for the right
    mutation ("R"), b - chi a for the left."""
    if direction == "L":
        ka, kb = kb, ka
    return tuple([x - chi * y for x, y in zip(ka, kb)])


# --- mutation engine --------------------------------------------------------


class MutationStep(Record):
    _fields = ("direction", "position", "pair", "hypothesis", "recipe", "result", "shift", "kclass", "notes")

    def __init__(
        self,
        direction: str,
        position: int,
        pair: tuple[CollectionObject, CollectionObject],
        hypothesis: ExtResult,
        recipe: str,
        result: CollectionObject,
        shift: int,
        kclass: KVector,
        notes: tuple[str, ...] = (),
    ) -> None:
        self.direction = direction  # "L" | "R"
        self.position = position  # 0-based position of the left object of the mutated pair
        self.pair = pair
        self.hypothesis = hypothesis  # the invariant part when equivariant
        self.recipe = recipe
        self.result = result
        self.shift = shift
        self.kclass = kclass
        self.notes = notes


# A recipe reads a registered three-term sequence 0 -> A -> B -> C -> 0 at a
# common twist, whose middle term alone may carry a coefficient, and does
# unless the hypothesis is C[-1].  Per recipe: the indices of the terms that
# E1 and E2 must equal, that of the result, and the result's shift.
_RECIPES = {
    "extension": (2, 0, 1, 0),  # 0 -> E2 -> F -> E1 -> 0, Ext(E1, E2) = C[-1]
    "left-kernel": (1, 2, 0, 1),  # 0 -> F -> V (x) E1 -> E2 -> 0, Ext(E1, E2) = V[0]
    "right-cokernel": (0, 1, 2, -1),  # 0 -> E1 -> W (x) E2 -> F -> 0, Ext(E1, E2) = W-dual[0]
}


def _find_recipe(direction: str, E1: CollectionObject, E2: CollectionObject, hyp: ExtResult):
    """Return (recipe name, result object, shift) or None.

    The hypothesis picks the recipe.  A sequence fires when E1 and E2 are
    its terms at one twist and, for a coefficient, when the hypothesis is
    the coefficient in degree 0, dualized for right-cokernel.  An
    equivariant hypothesis has only trivial pieces, which match no
    coefficient; block mutations never need one to."""
    if hyp == ext_mod.trivial_result(1):
        recipe = "extension"
    elif {p for p, _, _ in hyp.pieces} == {0}:
        recipe = "left-kernel" if direction == "L" else "right-cokernel"
    else:
        return None
    i1, i2, out, shift = _RECIPES[recipe]
    for seq, idx, t in bundles.sequence_matches(E1):
        if idx != i1 or len(seq.terms) != 3:
            continue
        a, b, c = seq.terms
        if a.coeff or c.coeff or bool(b.coeff) == (recipe == "extension"):
            continue
        if bundles.twist(seq.terms[i2].obj, t) != E2:
            continue
        if recipe != "extension":
            want = b.coeff if recipe == "left-kernel" else bundles.coeff_dual(b.coeff)
            if hyp != ExtResult.collect([(0, (factor,), m) for factor, m in want]):
                continue
        return recipe, bundles.twist(seq.terms[out].obj, t), shift
    return None


def mutate(col: Collection, direction: str, position: int, engine: ExtEngine) -> tuple[Collection, MutationStep]:
    """Mutate the adjacent pair at `position` (0-based, left object).

    A DomainError refuses a pair with a K-only side, and a cone of class 0,
    as in the pair (O, O), which no exceptional object has."""
    if direction not in ("L", "R"):
        raise DomainError("direction must be 'L' or 'R'")
    # Checked before indexing, which refuses 1.0 with a TypeError and reads True as 1.
    if type(position) is not int:
        raise DomainError(f"position {position!r} is not an integer")
    if not 0 <= position < len(col) - 1:
        raise DomainError(f"position {position} out of range")
    E1, E2 = col.objects[position], col.objects[position + 1]

    hyp = _hypothesis(col, E1, E2, engine)
    if isinstance(hyp, Ambiguous):
        raise AmbiguousMutation(f"Ext({E1}, {E2}) is ambiguous")

    if hyp.is_zero:
        recipe, shift = "transposition", 0
        result = E1 if direction == "R" else E2
        rk = KForm.kclass(result, engine)
    else:
        cone_k = k_cone(direction, KForm.kclass(E1, engine), KForm.kclass(E2, engine), KForm.chi(E1, E2, engine))
        if not any(cone_k):
            # An exceptional object E has chi(E, E) = 1, so its class is not 0.
            raise DomainError(
                f"the {direction} mutation of ({E1}, {E2}) has class 0: the pair is not exceptional"
            )
        found = _find_recipe(direction, E1, E2, hyp)
        if found is None:
            result, rk = KOnly(cone_k), cone_k
            recipe, shift = "k-only", 0
        else:
            recipe, result, shift = found
            rk = KForm.kclass(result, engine)
            sign = -1 if shift % 2 else 1
            if tuple(sign * x for x in rk) != cone_k:
                raise InternalConsistencyError(
                    f"cone class mismatch for {direction} at {position}: {rk} vs {cone_k}"
                )

    if direction == "R":
        new = col.replaced(position, (E2, result))
    else:
        new = col.replaced(position, (result, E1))
    step = MutationStep(direction, position, (E1, E2), hyp, recipe, result, shift, rk)
    return new, step


class AmbiguousMutation(RuntimeError):
    """The Ext hypothesis of a requested mutation could not be pinned down."""


def right_dual(block: Collection, engine: ExtEngine) -> tuple[Collection, list[MutationStep]]:
    """Right dual collection via iterated adjacent right mutations.

    Two mutation orders compute the same dual; they differ in which Ext
    groups and registered sequences they consume, so both are attempted and
    the first order whose steps all stay at object level wins.
    """
    n = len(block)
    if n == 1:
        return block, []

    def run(order: list[int]):
        col = block
        steps = []
        for pos in order:
            col, step = mutate(col, "R", pos, engine)
            if isinstance(step.result, KOnly):
                return None
            steps.append(step)
        return col, steps

    head_first = [pos for p in range(n - 1) for pos in range(n - 1 - p)]
    tail_first = [pos for p in range(n - 1) for pos in range(n - 2, p - 1, -1)]
    for order in (head_first, tail_first):
        try:
            out = run(order)
        except AmbiguousMutation:
            out = None
        if out is not None:
            return out
    raise AmbiguousMutation(f"no object-level right dual found for {block.label}")


def assemble_kp_collection(engine: ExtEngine | None = None) -> tuple[Collection, list[list[MutationStep]]]:
    """Right-dualize each block, forget equivariance, concatenate; on the
    default engine (ext.get_engine) unless one is given."""
    engine = engine or ext_mod.get_engine()
    objs: list[CollectionObject] = []
    all_steps = []
    for block in kp_blocks():
        dualized, steps = right_dual(block, engine)
        all_steps.append(steps)
        objs.extend(dualized.objects)
    return Collection(tuple(objs), "spinor-kp"), all_steps


# --- the main mutation chain -------------------------------------------------


class ReplayError(RuntimeError):
    """A scripted step's Ext hypothesis or result failed to match."""


W1 = (1, 0, 0, 0, 0)
W4 = (0, 0, 0, 1, 0)
W11 = (2, 0, 0, 0, 0)


def replay_script() -> list[dict]:
    """The sixteen scripted mutations carrying their pinned hypotheses."""
    B = bundles
    zero = ext_mod.trivial_result()
    steps = [
        dict(dir="R", left=B.Named("That", 6), right=B.O(6), hyp=ext_mod.rep_result(D5, {0: [W4]}), result=B.U(7),
             notes=("result is U(7), forced by the kernel presentation of the affine tangent bundle",)),
        dict(dir="R", left=B.Named("That", 5), right=B.O(5), hyp=ext_mod.rep_result(D5, {0: [W4]}),
             result=B.U(6)),
        dict(dir="L", left=B.O(2), right=B.Uv(2), hyp=ext_mod.rep_result(D5, {0: [W1]}), result=B.U(2)),
        dict(dir="L", left=B.O(2), right=B.schur("Uv", "Sym", 2, 2), hyp=ext_mod.rep_result(D5, {0: [W11]}),
             result=B.Named("Ktilde", 2)),
        dict(dir="L", left=B.U(2), right=B.Named("Ktilde", 2), hyp=ext_mod.rep_result(D5, {0: [W1]}),
             result=B.Named("Thatv", 1)),
        dict(dir="L", left=B.O(1), right=B.Named("Thatv", 1), hyp=ext_mod.rep_result(D5, {0: [W4]}),
             result=B.Uv(0)),
        dict(dir="L", left=B.O(3), right=B.Uv(3), hyp=ext_mod.rep_result(D5, {0: [W1]}), result=B.U(3)),
        dict(dir="L", left=B.O(3), right=B.schur("Uv", "Sym", 2, 3), hyp=ext_mod.rep_result(D5, {0: [W11]}),
             result=B.Named("Ktilde", 3)),
        dict(dir="L", left=B.U(3), right=B.Named("Ktilde", 3), hyp=ext_mod.rep_result(D5, {0: [W1]}),
             result=B.Named("Thatv", 2)),
        dict(dir="L", left=B.O(2), right=B.Named("Thatv", 2), hyp=ext_mod.rep_result(D5, {0: [W4]}),
             result=B.Uv(1)),
        dict(dir="R", left=B.U(2), right=B.Uv(1), hyp=zero, result=B.U(2), swap=True),
        dict(dir="R", left=B.U(6), right=B.Uv(5), hyp=zero, result=B.U(6), swap=True),
        dict(dir="R", left=B.U(2), right=B.O(2), hyp=ext_mod.rep_result(D5, {0: [W1]}), result=B.Uv(2)),
        dict(dir="R", left=B.U(3), right=B.O(3), hyp=ext_mod.rep_result(D5, {0: [W1]}), result=B.Uv(3)),
        dict(dir="R", left=B.U(6), right=B.O(6), hyp=ext_mod.rep_result(D5, {0: [W1]}), result=B.Uv(6)),
        dict(dir="R", left=B.U(7), right=B.O(7), hyp=ext_mod.rep_result(D5, {0: [W1]}), result=B.Uv(7)),
    ]
    return steps


class ReplayResult(Record):
    _fields = ("steps", "final")

    def __init__(self, steps: list[MutationStep], final: Collection) -> None:
        self.steps = steps
        self.final = final

    @property
    def final_matches(self) -> bool:
        return self.final.objects == kuznetsov_collection().objects


def replay_main_proof(engine: ExtEngine) -> ReplayResult:
    """Run the sixteen-step chain from the block collection to the twisted pairs.

    Every step locates its pair by object, re-verifies the pinned Ext
    hypothesis exactly, and demands the recipe fire at object level; any
    mismatch aborts.  The terminal collection is compared with Kuznetsov's
    object by object: equal interned objects have equal Gram matrices.
    """
    col = kp_collection()
    steps: list[MutationStep] = []
    for k, spec in enumerate(replay_script(), start=1):
        pos = None
        for i in range(len(col) - 1):
            if col.objects[i] == spec["left"] and col.objects[i + 1] == spec["right"]:
                pos = i
                break
        if pos is None:
            raise ReplayError(f"step {k}: pair ({spec['left']}, {spec['right']}) not adjacent")
        col, step = mutate(col, spec["dir"], pos, engine)
        if step.hypothesis != spec["hyp"]:
            raise ReplayError(
                f"step {k}: hypothesis mismatch: computed {step.hypothesis}, "
                f"stated {spec['hyp']}"
            )
        if step.result != spec["result"]:
            raise ReplayError(
                f"step {k}: result mismatch: computed {step.result}, stated {spec['result']}"
            )
        notes = list(spec.get("notes", ()))
        if spec.get("swap"):
            reverse = engine.ext(spec["right"], spec["left"])
            notes.append(f"reverse direction Ext({spec['right']}, {spec['left']}) = {reverse}")
        step.notes = tuple(notes)
        steps.append(step)
    return ReplayResult(steps, col)
