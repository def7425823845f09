"""Objects of the derived category of the spinor tenfold.

A bundle is either a direct sum of irreducible homogeneous summands in one
of the two descriptions (D5/P4 or B4/Q4), or a named filtered object that
only exists through registered exact sequences (the affine tangent bundle,
its dual, and the kernel bundle of the evaluation on quadratic sections).

The registry holds the exact sequences the computations run on.  Each is
stored once at a reference twist; matching against a query object detects
the common twist.  Terms may carry a representation of the full group as a
coefficient (multiplicity space).  `kclass` gives an object's class in K_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import levi, roots
from .roots import B4, B4_Q4, D5, D5_P4, DomainError, LieDatum, Parabolic, Weight

RepFactor = tuple[LieDatum, Weight]
Coeff = tuple[tuple[RepFactor, int], ...]  # multiset of full-group weights


@lru_cache(maxsize=None)
def _unit_weight(space: Parabolic) -> Weight:
    # Generator of the twisting direction: the marked fundamental weight.
    (m,) = space.marked
    return tuple(1 if i == m - 1 else 0 for i in range(space.rank))


@dataclass(frozen=True)
class Sum:
    """Direct sum of irreducible homogeneous bundles, all in one description."""

    space: Parabolic
    parts: tuple[tuple[Weight, int], ...]

    def __post_init__(self) -> None:
        for w, m in self.parts:
            if m <= 0:
                raise DomainError("multiplicities must be positive")
            if not roots.is_levi_dominant(self.space, w):
                raise DomainError(f"{w} is not Levi-dominant on {self.space}")
        object.__setattr__(self, "_hash", hash((self.space, self.parts)))

    def __hash__(self) -> int:
        # Kept once per instance, like the hashes of LieDatum and Parabolic.
        return self._hash

    def twist_amount(self) -> int | None:
        """k when the object is O(k)^m for some m, else None."""
        unit = _unit_weight(self.space)
        ks = set()
        for w, _ in self.parts:
            nz = [(c, u) for c, u in zip(w, unit) if u]
            k = nz[0][0]
            if tuple(k * u for u in unit) != w:
                return None
            ks.add(k)
        return ks.pop() if len(ks) == 1 else None

    def __repr__(self) -> str:
        body = " + ".join(
            (f"{m}*" if m > 1 else "") + f"E{list(w)}" for w, m in self.parts
        )
        return f"{self.space}<{body}>"


@dataclass(frozen=True)
class Named:
    """A filtered object known only through its registered resolutions."""

    name: str
    twist: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.twist)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}({self.twist})"


BundleObject = Sum | Named

_NAMED_DUALS = {"That": "Thatv", "Thatv": "That", "Ktilde": "Ktildev", "Ktildev": "Ktilde"}


def make_sum(space: Parabolic, parts: dict[Weight, int] | list[tuple[Weight, int]]) -> Sum:
    items = parts.items() if isinstance(parts, dict) else parts
    merged: dict[Weight, int] = {}
    for w, m in items:
        if m < 1:
            raise DomainError("multiplicities must be positive")
        merged[w] = merged.get(w, 0) + m
    if not merged:
        raise DomainError("empty direct sum")
    return Sum(space, tuple(sorted(merged.items())))


def irr(space: Parabolic, w: Weight) -> Sum:
    return make_sum(space, {tuple(w): 1})


def twist(obj: BundleObject, k: int) -> BundleObject:
    if k == 0:
        return obj
    if isinstance(obj, Named):
        return Named(obj.name, obj.twist + k)
    unit = _unit_weight(obj.space)
    # Adding one vector to every part keeps the parts sorted and distinct,
    # so the Sum is built directly; Sum.__post_init__ still validates it.
    return Sum(obj.space, tuple((tuple(c + k * u for c, u in zip(w, unit)), m) for w, m in obj.parts))


def dual(obj: BundleObject) -> BundleObject:
    if isinstance(obj, Named):
        return Named(_NAMED_DUALS[obj.name], -obj.twist)
    return make_sum(obj.space, [(roots.dualize_levi(obj.space, w), m) for w, m in obj.parts])


def tensor(a: Sum, b: Sum) -> Sum:
    if a.space != b.space:
        raise DomainError("tensor product needs a common description")
    acc: dict[Weight, int] = {}
    for w1, m1 in a.parts:
        for w2, m2 in b.parts:
            for nu, m in levi.tensor_decompose(a.space, w1, w2).items():
                acc[nu] = acc.get(nu, 0) + m1 * m2 * m
    return make_sum(a.space, acc)


def direct_sum(a: Sum, b: Sum) -> Sum:
    if a.space != b.space:
        raise DomainError("direct sum needs a common description")
    return make_sum(a.space, list(a.parts) + list(b.parts))


def convert_twist(obj: Sum, space: Parabolic) -> Sum | None:
    """Re-describe O(k)^m in the other description; None when not a pure twist."""
    if obj.space == space:
        return obj
    k = obj.twist_amount()
    if k is None:
        return None
    mult = sum(m for _, m in obj.parts)
    unit = _unit_weight(space)
    return make_sum(space, {tuple(k * u for u in unit): mult})


KClass = dict[tuple[Parabolic, Weight], int]  # virtual multiset of Levi irreducibles


def kclass(obj: BundleObject) -> KClass:
    """The class of obj in K_0, through the ring map R(L) -> K_0: a Sum is its
    parts; a named object is the signed sum of the other terms of its first
    registered sequence, each coefficient counted by its dimension (V (x) O = O^dim V)."""
    if isinstance(obj, Sum):
        return {(obj.space, w): m for w, m in obj.parts}
    seq, idx, t = _any_match(obj)
    out: KClass = {}
    for j, term in enumerate(seq.terms):
        if j != idx:
            sign = 1 if (j - idx) % 2 else -1
            n = sign * coeff_dim(term.coeff)
            for piece, m in kclass(twist(term.obj, t)).items():
                out[piece] = out.get(piece, 0) + n * m
    return {piece: m for piece, m in out.items() if m}


def rank(obj: BundleObject) -> int:
    return sum(m * levi.levi_dim(space, w) for (space, w), m in kclass(obj).items())


def first_chern(obj: BundleObject) -> int:
    """c1 in units of O(1): rank times doubled GL size, summed, over that of O(1)."""
    total = 0
    for (space, w), m in kclass(obj).items():
        size = m * levi.levi_dim(space, w) * levi.doubled_gl_size(space, w)
        c1, rest = divmod(size, levi.doubled_gl_size(space, _unit_weight(space)))
        if rest:
            raise roots.InternalConsistencyError("non-integral first Chern class")
        total += c1
    return total


# --- sequences -------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    obj: BundleObject
    coeff: Coeff = ()

    def __repr__(self) -> str:
        if not self.coeff:
            return repr(self.obj)
        pieces = []
        for (datum, w), m in self.coeff:
            s = f"V{datum}{list(w)}"
            pieces.append(f"{m}*{s}" if m > 1 else s)
        return "(" + "+".join(pieces) + ") (x) " + repr(self.obj)


@dataclass(frozen=True)
class Sequence:
    """An exact sequence 0 -> T_0 -> ... -> T_{n-1} -> 0 at a reference twist."""

    name: str
    terms: tuple[Term, ...]

    def match(self, obj: BundleObject) -> list[tuple[int, int]]:
        """(index, twist) pairs where twisting the whole sequence hits obj."""
        out = []
        for i, term in enumerate(self.terms):
            t = _twist_delta(term.obj, obj)
            if t is not None:
                out.append((i, t))
        return out


def coeff_dim(coeff: Coeff) -> int:
    if not coeff:
        return 1
    from .bbw import weyl_dim

    return sum(m * weyl_dim(datum, w) for (datum, w), m in coeff)


def coeff_dual(coeff: Coeff) -> Coeff:
    return tuple(((datum, roots.dual_weight(datum, w)), m) for (datum, w), m in coeff)


def _twist_delta(base: BundleObject, obj: BundleObject) -> int | None:
    """t with twist(base, t) == obj, when one exists."""
    if isinstance(base, Named) and isinstance(obj, Named):
        if base.name != obj.name:
            return None
        return obj.twist - base.twist
    if isinstance(base, Sum) and isinstance(obj, Sum):
        if base.space != obj.space or len(base.parts) != len(obj.parts):
            return None
        unit = _unit_weight(base.space)
        marked_idx = base.space.marked[0] - 1
        w0, _ = base.parts[0]
        v0, _ = obj.parts[0]
        # unit weight has entry 1 at the marked node, so the delta reads off there
        t = (v0[marked_idx] - w0[marked_idx]) // unit[marked_idx]
        return t if twist(base, t) == obj else None
    return None


# --- the concrete bundles on the spinor tenfold ----------------------------

_ZERO5: Weight = (0, 0, 0, 0, 0)
_ZERO4: Weight = (0, 0, 0, 0)


def O(k: int = 0, space: Parabolic = D5_P4) -> Sum:
    return twist(irr(space, _ZERO5 if space == D5_P4 else _ZERO4), k)


def Uv(k: int = 0) -> Sum:
    return twist(irr(D5_P4, (1, 0, 0, 0, 0)), k)


def U(k: int = 0) -> Sum:
    return twist(dual(Uv()), k)


def sym_Uv(r: int, k: int = 0) -> Sum:
    return twist(irr(D5_P4, levi.sym_power(D5_P4, r)), k)


def wedge_Uv(r: int, k: int = 0) -> Sum:
    return twist(irr(D5_P4, levi.wedge_power(D5_P4, r)), k)


def sym_U(r: int, k: int = 0) -> Sum:
    return twist(dual(sym_Uv(r)), k)


def wedge_U(r: int, k: int = 0) -> Sum:
    return twist(dual(wedge_Uv(r)), k)


def Rv(k: int = 0) -> Sum:
    return twist(irr(B4_Q4, (1, 0, 0, 0)), k)


def R(k: int = 0) -> Sum:
    return twist(dual(Rv()), k)


def sym_Rv(r: int, k: int = 0) -> Sum:
    return twist(irr(B4_Q4, levi.sym_power(B4_Q4, r)), k)


def wedge_Rv(r: int, k: int = 0) -> Sum:
    return twist(irr(B4_Q4, levi.wedge_power(B4_Q4, r)), k)


def sym_R(r: int, k: int = 0) -> Sum:
    return twist(dual(sym_Rv(r)), k)


def wedge_R(r: int, k: int = 0) -> Sum:
    return twist(dual(wedge_Rv(r)), k)


def T(k: int = 0) -> Sum:
    # The tangent bundle is the second wedge of the dual tautological bundle.
    return wedge_Uv(2, k)


def W(k: int = 0) -> Sum:
    # The rank-4 quotient bundle is isomorphic to the dual tautological bundle.
    return Uv(k)


def That(k: int = 0) -> Named:
    return Named("That", k)


def Thatv(k: int = 0) -> Named:
    return Named("Thatv", k)


def Ktilde(k: int = 0) -> Named:
    return Named("Ktilde", k)


def Ktildev(k: int = 0) -> Named:
    return Named("Ktildev", k)


def _rep(datum: LieDatum, *weights: Weight) -> Coeff:
    merged: dict[RepFactor, int] = {}
    for w in weights:
        merged[(datum, w)] = merged.get((datum, w), 0) + 1
    return tuple(sorted(merged.items()))


@lru_cache(maxsize=None)
def standard_sequences() -> tuple[Sequence, ...]:
    V1 = _rep(D5, (1, 0, 0, 0, 0))
    V2 = _rep(D5, (0, 1, 0, 0, 0))
    V11 = _rep(D5, (2, 0, 0, 0, 0))  # Cartan piece of Sym^2 V_10
    SYM2V = _rep(D5, (2, 0, 0, 0, 0), _ZERO5)  # Sym^2 V_10 = V_{2w1} + trivial
    VS4 = _rep(D5, (0, 0, 0, 1, 0))
    VS5 = _rep(D5, (0, 0, 0, 0, 1))
    V9 = _rep(B4, (1, 0, 0, 0))

    def S(name: str, *terms: Term | BundleObject) -> Sequence:
        ts = tuple(t if isinstance(t, Term) else Term(t) for t in terms)
        return Sequence(name, ts)

    return (
        # 0 -> U -> V_10 (x) O -> U^ -> 0
        S("taut-rank5", U(), Term(O(), V1), Uv()),
        # 0 -> R -> U -> O -> 0 and its dual
        S("taut-chain", R(), U(), O()),
        S("taut-chain-dual", O(), Uv(), Rv()),
        # 0 -> R -> V_9 (x) O -> U^ -> 0   (quotient W identified with U^)
        S("taut-rank4", R(), Term(O(0, B4_Q4), V9), Uv()),
        # 0 -> R^ -> T -> wedge^2 R^ -> 0
        S("tangent-ext", Rv(), T(), wedge_Rv(2)),
        # 0 -> O(-1) -> That -> T(-1) -> 0 and its dual
        S("affine-ext", O(-1), That(), T(-1)),
        S("affine-ext-dual", twist(dual(T()), 1), Thatv(), O(1)),
        # 0 -> That -> V_{w5} (x) O -> U(1) -> 0 and its dual
        S("affine-kernel", That(), Term(O(), VS5), U(1)),
        S("affine-kernel-dual", Uv(-1), Term(O(), VS4), Thatv()),
        # 0 -> Ktilde(2) -> V_{2w1} (x) O(2) -> Sym^2 U^ (2) -> 0 and its dual
        S("quadric-kernel", Ktilde(2), Term(O(2), V11), sym_Uv(2, 2)),
        S("quadric-kernel-dual", sym_U(2, -2), Term(O(-2), V11), Ktildev(-2)),
        # 0 -> Thatv(1) -> V_{w1} (x) U(2) -> Ktilde(2) -> 0 and its dual
        S("quadric-coker", Thatv(1), Term(U(2), V1), Ktilde(2)),
        S("quadric-coker-dual", Ktildev(-2), Term(Uv(-2), V1), That(-1)),
        # 0 -> U^ -> Sym^2 U^ -> Sym^2 R^ -> 0
        S("sym2-dual-chain", Uv(), sym_Uv(2), sym_Rv(2)),
        # 0 -> Sym^2 R -> Sym^2 U -> U -> 0
        S("sym2-chain", sym_R(2), sym_U(2), U()),
        # 0 -> wedge^2 R -> wedge^2 U -> R -> 0
        S("wedge2-chain", wedge_R(2), wedge_U(2), R()),
        # Koszul resolutions of the Schur squares of the rank-5 sequence
        S("koszul-wedge2U", wedge_U(2), Term(U(), V1), Term(O(), SYM2V), sym_Uv(2)),
        S("koszul-sym2U", sym_U(2), Term(U(), V1), Term(O(), V2), wedge_Uv(2)),
        S(
            "koszul-sym2U-dual",
            sym_U(2, -1),
            Term(O(-1), SYM2V),
            Term(Uv(-1), V1),
            wedge_Uv(2, -1),
        ),
        S(
            "koszul-sym2U-dual-twisted",
            tensor(sym_U(2), Uv(-2)),
            Term(Uv(-2), SYM2V),
            Term(tensor(Uv(), Uv(-2)), V1),
            tensor(wedge_Uv(2), Uv(-2)),
        ),
        # 0 -> Thatv(-1) -> V_{w1} (x) U -> V_{2w1} (x) O -> Sym^2 U^ -> 0
        S("four-term", Thatv(-1), Term(U(), V1), Term(O(), V11), sym_Uv(2)),
        # 0 -> U^ -> V_{w4} (x) O(1) -> V_{w1} (x) U(2) -> V_{2w1} (x) O(2) -> Sym^2 U^(2) -> 0
        S(
            "five-term",
            Uv(),
            Term(O(1), VS4),
            Term(U(2), V1),
            Term(O(2), V11),
            sym_Uv(2, 2),
        ),
    )


@lru_cache(maxsize=None)
def sequence_matches(obj: BundleObject) -> tuple[tuple[Sequence, int, int], ...]:
    """All (sequence, index, twist) triples realizing obj as a sequence term."""
    return tuple((seq, idx, t) for seq in standard_sequences() for idx, t in seq.match(obj))


def _any_match(obj: BundleObject) -> tuple[Sequence, int, int]:
    matches = sequence_matches(obj)
    if not matches:
        raise DomainError(f"no registered resolution for {obj}")
    return matches[0]
