"""Exceptional collections, mutations, right duals and the main replay.

Mutations of adjacent pairs are performed at object level whenever one of
the three recognised recipes fires against a registered exact sequence;
otherwise the result is a K-theory-only object carrying its class in the
fixed Kuznetsov basis.  Every object-level mutation is cross-checked
against the cone formula in K-theory.
"""

from __future__ import annotations

from . import bundles, ext as ext_mod
from .bundles import BundleObject
from .ext import Ambiguous, ExtEngine, ExtResult
from .roots import DomainError, Frozen, InternalConsistencyError, Record

KVector = tuple[int, ...]


class KOnly(Frozen):
    """A mutation result known only by its class in K-theory.

    Its printed form, K-only[...], is the one printed form of a collection
    object that parser.parse_bundle does not read back: the class is not
    an expression of the bundle language.
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


def kuznetsov_collection() -> Collection:
    objs: list[BundleObject] = []
    for k in range(8):
        objs += [bundles.O(k), bundles.Uv(k)]
    return Collection(tuple(objs), "kuznetsov")


def kp_collection() -> Collection:
    B = bundles
    objs = (
        B.O(0), B.O(1),
        B.O(2), B.Uv(2), B.sym_Uv(2, 2),
        B.O(3), B.Uv(3), B.sym_Uv(2, 3),
        B.O(4), B.Uv(4), B.That(5),
        B.O(5), B.Uv(5), B.That(6),
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
        blk("A2", B.sym_Rv(2, 2), B.Rv(2), B.O(2)),
        blk("A3", B.sym_Rv(2, 3), B.Rv(3), B.O(3)),
        blk("A4", B.wedge_Rv(2, 4), B.Rv(4), B.O(4)),
        blk("A5", B.wedge_Rv(2, 5), B.Rv(5), B.O(5)),
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
    _fields = ("collection", "checks")

    def __init__(self, collection: Collection, checks: list[PairCheck]) -> None:
        self.collection = collection
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


def _hypothesis(
    col: Collection, a: CollectionObject, b: CollectionObject, eng: ExtEngine
) -> ExtResult | Ambiguous:
    """Ext(a, b) as the collection asks for it: its invariant part when the
    collection is equivariant.  With a K-only object only the Euler
    characteristic is known, exactly, from the two K-classes."""
    if isinstance(a, KOnly) or isinstance(b, KOnly):
        form = KForm.standard(eng)
        return Ambiguous(form.chi(_kclass_of(a, form, eng), _kclass_of(b, form, eng)), "K-only object")
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
    return VerifyReport(col, checks)


def gram_matrix(col: Collection, engine: ExtEngine) -> tuple[tuple[int, ...], ...]:
    form = KForm.standard(engine)
    classes = [_kclass_of(obj, form, engine) for obj in col.objects]
    return tuple(tuple(_dot(ca, kb) for kb in classes) for ca in map(form.coords, classes))


# --- K-theory --------------------------------------------------------------


class KForm(Frozen):
    """Euler form on K-theory in the basis of the Kuznetsov collection.

    An object E is stored as its class kclass(E) = (chi(b, E) for b in
    basis), so kclass(E) = gram * coords(E), where coords(E) are the
    coefficients of E in the basis.  `coords` inverts that relation, and
    chi(E, F) = coords(E) . kclass(F): a table of pairings needs coords
    once per row, not once per entry.

    A form belongs to the engine that built it (`standard` keeps it as
    engine.kform), and `kclass` is asked with that engine.  Besides its
    three fields it keeps two tables, which are not among its _fields and
    so take no part in comparison, hashing or printing: _classes, object
    -> kclass, filled by `kclass` from the engine's Euler pairings, and
    _coords, class -> coords, filled by `coords`.  So each object costs
    its basis pairings once per engine, and the tables live exactly as
    long as the engine, as its kernel tables do: a fault injected below
    reaches every engine built after it.  A form built by `from_gram`
    starts with both tables empty; `standard` seeds _classes with the
    class of each basis object, its column of the Gram matrix, so a basis
    object costs no pairing beyond those of the Gram matrix.
    """

    _fields = ("basis", "gram", "gram_inv")

    def __init__(
        self,
        basis: tuple[BundleObject, ...],
        gram: tuple[tuple[int, ...], ...],
        gram_inv: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "gram_inv", gram_inv)
        object.__setattr__(self, "_classes", {})
        object.__setattr__(self, "_coords", {})

    @staticmethod
    def standard(engine: ExtEngine) -> "KForm":
        """The form of the engine, built from its Euler pairings on first use."""
        if engine.kform is None:
            basis = kuznetsov_collection().objects
            gram = tuple(tuple(engine.euler(a, b) for b in basis) for a in basis)
            engine.kform = KForm.from_gram(basis, gram)
            engine.kform._classes.update(zip(basis, zip(*gram)))  # the Gram columns
        return engine.kform

    @staticmethod
    def from_gram(basis: tuple[BundleObject, ...], gram: tuple[tuple[int, ...], ...]) -> "KForm":
        """The form of an exceptional basis: its Gram matrix is upper
        unitriangular, so integer back substitution inverts it."""
        n = len(gram)
        if any(gram[i][j] != int(i == j) for i in range(n) for j in range(i + 1)):
            raise InternalConsistencyError("Gram matrix is not upper unitriangular")
        inv = [[int(i == j) for j in range(n)] for i in range(n)]
        for c in range(n):
            for r in range(c - 1, -1, -1):
                inv[r][c] = -sum(gram[r][k] * inv[k][c] for k in range(r + 1, c + 1))
        return KForm(basis, gram, tuple(map(tuple, inv)))

    def kclass(self, obj: BundleObject, engine: ExtEngine) -> KVector:
        k = self._classes.get(obj)
        if k is None:
            k = self._classes[obj] = tuple(engine.euler(b, obj) for b in self.basis)
        return k

    def coords(self, k: KVector) -> KVector:
        """Coefficients in the basis of the class whose kclass is k: gram_inv * k."""
        c = self._coords.get(k)
        if c is None:
            c = self._coords[k] = tuple(_dot(row, k) for row in self.gram_inv)
        return c

    def chi(self, ka: KVector, kb: KVector) -> int:
        return _dot(self.coords(ka), kb)


def _dot(u: KVector, v: KVector) -> int:
    return sum(x * y for x, y in zip(u, v))


def _kclass_of(obj: CollectionObject, form: KForm, engine: ExtEngine) -> KVector:
    if isinstance(obj, KOnly):
        return obj.kclass
    return form.kclass(obj, engine)


def k_cone(direction: str, a: KVector, b: KVector, form: KForm) -> KVector:
    """The class of the object a mutation of the pair (a, b) puts in: a -
    chi(a, b) b for the right mutation ("R"), b - chi(a, b) a for the left."""
    chi = form.chi(a, b)
    if direction == "L":
        a, b = b, a
    return tuple(x - chi * y for x, y in zip(a, b))


# --- mutation engine --------------------------------------------------------


class MutationStep(Record):
    _fields = ("direction", "position", "pair", "hypothesis", "recipe", "result", "shift", "kclass", "notes")

    def __init__(
        self,
        direction: str,
        position: int,
        pair: tuple[CollectionObject, CollectionObject],
        hypothesis: ExtResult | Ambiguous,
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

    def hypothesis_dims(self) -> dict[int, int]:
        if isinstance(self.hypothesis, Ambiguous):
            return {}
        return self.hypothesis.dims()


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
            if hyp != ExtResult.from_dict({(0, (factor,)): m for factor, m in want}):
                continue
        return recipe, bundles.twist(seq.terms[out].obj, t), shift
    return None


def mutate(col: Collection, direction: str, position: int, engine: ExtEngine) -> tuple[Collection, MutationStep]:
    """Mutate the adjacent pair at `position` (0-based, left object)."""
    if direction not in ("L", "R"):
        raise DomainError("direction must be 'L' or 'R'")
    if not 0 <= position < len(col) - 1:
        raise DomainError(f"position {position} out of range")
    E1, E2 = col.objects[position], col.objects[position + 1]

    hyp = _hypothesis(col, E1, E2, engine)
    if isinstance(hyp, Ambiguous) and not (isinstance(E1, KOnly) or isinstance(E2, KOnly)):
        raise AmbiguousMutation(f"Ext({E1}, {E2}) is ambiguous")

    form = KForm.standard(engine)
    k1 = _kclass_of(E1, form, engine)
    k2 = _kclass_of(E2, form, engine)

    if not isinstance(hyp, Ambiguous) and hyp.is_zero:
        recipe, shift = "transposition", 0
        result, rk = (E1, k1) if direction == "R" else (E2, k2)
    else:
        cone_k = k_cone(direction, k1, k2, form)
        found = None if isinstance(hyp, Ambiguous) else _find_recipe(direction, E1, E2, hyp)
        if found is None:
            result, rk = KOnly(cone_k), cone_k
            recipe, shift = "k-only", 0
        else:
            recipe, result, shift = found
            rk = _kclass_of(result, form, engine)
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


def _expected(spec: dict[int, list]) -> ExtResult:
    from .roots import D5

    return ext_mod.rep_result(D5, spec)


def replay_script() -> list[dict]:
    """The sixteen scripted mutations carrying their pinned hypotheses."""
    B = bundles
    zero = ext_mod.ExtResult(())
    steps = [
        dict(dir="R", left=B.That(6), right=B.O(6), hyp=_expected({0: [W4]}), result=B.U(7),
             notes=("result is U(7), forced by the kernel presentation of the affine tangent bundle",)),
        dict(dir="R", left=B.That(5), right=B.O(5), hyp=_expected({0: [W4]}), result=B.U(6)),
        dict(dir="L", left=B.O(2), right=B.Uv(2), hyp=_expected({0: [W1]}), result=B.U(2)),
        dict(dir="L", left=B.O(2), right=B.sym_Uv(2, 2), hyp=_expected({0: [W11]}), result=B.Ktilde(2)),
        dict(dir="L", left=B.U(2), right=B.Ktilde(2), hyp=_expected({0: [W1]}), result=B.Thatv(1)),
        dict(dir="L", left=B.O(1), right=B.Thatv(1), hyp=_expected({0: [W4]}), result=B.Uv(0)),
        dict(dir="L", left=B.O(3), right=B.Uv(3), hyp=_expected({0: [W1]}), result=B.U(3)),
        dict(dir="L", left=B.O(3), right=B.sym_Uv(2, 3), hyp=_expected({0: [W11]}), result=B.Ktilde(3)),
        dict(dir="L", left=B.U(3), right=B.Ktilde(3), hyp=_expected({0: [W1]}), result=B.Thatv(2)),
        dict(dir="L", left=B.O(2), right=B.Thatv(2), hyp=_expected({0: [W4]}), result=B.Uv(1)),
        dict(dir="R", left=B.U(2), right=B.Uv(1), hyp=zero, result=B.U(2), swap=True),
        dict(dir="R", left=B.U(6), right=B.Uv(5), hyp=zero, result=B.U(6), swap=True),
        dict(dir="R", left=B.U(2), right=B.O(2), hyp=_expected({0: [W1]}), result=B.Uv(2)),
        dict(dir="R", left=B.U(3), right=B.O(3), hyp=_expected({0: [W1]}), result=B.Uv(3)),
        dict(dir="R", left=B.U(6), right=B.O(6), hyp=_expected({0: [W1]}), result=B.Uv(6)),
        dict(dir="R", left=B.U(7), right=B.O(7), hyp=_expected({0: [W1]}), result=B.Uv(7)),
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
