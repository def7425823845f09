"""Golden corpus: the cohomology and Ext facts every build must reproduce.

Each entry re-computes a statement through the public surface of the
engine it is given and compares against the frozen value.  Entries are
tagged by which homogeneous description they exercise, so a deliberate
fault injected into one side's data must break exactly that side's entries.
"""

from __future__ import annotations

from collections.abc import Callable

from . import bundles
from .bundles import B4_Q4, D5_P4
from .ext import Ambiguous, ExtEngine, ExtResult, ls_chase, rep_result, trivial_result
from .roots import D5, Frozen, Record, canonical_weight

CaseResult = tuple[str, bool, object, object]  # (case id, ok, computed, stated): values, printed by str


class CorpusEntry(Frozen):
    _fields = ("label", "side", "run")

    def __init__(self, label: str, side: str, run: Callable[[ExtEngine], list[CaseResult]]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "side", side)  # "D5" or "B4"
        object.__setattr__(self, "run", run)


def _case(case_id: str, computed, stated) -> CaseResult:
    ok = not isinstance(computed, Ambiguous) and computed == stated
    return case_id, ok, computed, stated


def _coh(eng: ExtEngine, space, weight) -> ExtResult | Ambiguous:
    return eng.cohomology(bundles.irr(space, weight))


def _dominant_weights(eng: ExtEngine) -> list[CaseResult]:
    out = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    w = (a, b, c, 0, d)
                    stated = rep_result(D5, {0: [w]})
                    out.append(_case(f"[{a},{b},{c},0,{d}]", _coh(eng, D5_P4, w), stated))
    return out


def _sym_power_sections(eng: ExtEngine) -> list[CaseResult]:
    out = []
    for r in range(4):
        stated = rep_result(D5, {0: [(r, 0, 0, 0, 0)]})
        out.append(_case(f"Sym{r} Uv", eng.cohomology(bundles.schur("Uv", "Sym", r)), stated))
    return out


def _bott_sample(eng: ExtEngine) -> list[CaseResult]:
    stated = rep_result(D5, {0: [(3, 0, 0, 0, 0), (1, 1, 0, 0, 0)]})
    computed = eng.ext(bundles.U(2), bundles.schur("Uv", "Sym", 2, 2))
    direct = eng.cohomology(
        bundles.direct_sum(bundles.schur("Uv", "Sym", 3), bundles.irr(D5_P4, (1, 1, 0, 0, 0)))
    )
    return [
        _case("Ext(U(2), Sym2 Uv(2))", computed, stated),
        _case("as sections of Sym3 Uv + E[1,1,0,0,0]", direct, stated),
    ]


def _general_family(eng: ExtEngine) -> list[CaseResult]:
    out = []
    for a in range(3):
        for b in range(3):
            for eps in (1, 2):
                w = (a, b, 0, -eps, 0)
                out.append(_case(f"[{a},{b},0,{-eps},0] -> 0", _coh(eng, D5_P4, w), trivial_result()))
            for c in (1, 2):
                w = (a, b, c, -2, 0)
                stated = rep_result(D5, {1: [(a, b, c - 1, 0, 0)]})
                out.append(_case(f"[{a},{b},{c},-2,0]", _coh(eng, D5_P4, w), stated))
    return out


def _dual_affine_sections(eng: ExtEngine) -> list[CaseResult]:
    stated = rep_result(D5, {0: [(0, 0, 0, 1, 0)]})
    return [_case("H(dual That)", eng.cohomology(bundles.Named("Thatv", 0)), stated)]


def _taut_sub_acyclic(eng: ExtEngine) -> list[CaseResult]:
    return [_case("H(U)", eng.cohomology(bundles.U()), trivial_result())]


def _twisted_orthogonality(eng: ExtEngine) -> list[CaseResult]:
    return [_case("Ext(U(1), Uv)", eng.ext(bundles.U(1), bundles.Uv()), trivial_result())]


def _ext_shift_three(eng: ExtEngine) -> list[CaseResult]:
    value = eng.ext(bundles.schur("Uv", "Sym", 2, 2), bundles.Uv())
    out = [_case("Ext(Sym2 Uv(2), Uv)", value, trivial_result(3))]
    # the four-term resolution read right to left: all interior terms are
    # acyclic, so the head inherits the tail's single class, shifted
    seq = next(s for s in bundles.standard_sequences() if s.name == "koszul-sym2U-dual-twisted")
    chased = ls_chase(seq, bundles.O(), unknown=0, engine=eng, variance="from")
    out.append(_case("chase of the twisted Koszul resolution", chased, trivial_result(3)))
    five = next(s for s in bundles.standard_sequences() if s.name == "five-term")
    out.append(_case("five-term chase, target Uv", ls_chase(five, bundles.Uv(), 0, eng), trivial_result(0)))
    return out


def _ext_affine_dual(eng: ExtEngine) -> list[CaseResult]:
    value = eng.ext(bundles.schur("Uv", "Sym", 2), bundles.Named("Thatv", -1))
    return [_case("Ext(Sym2 Uv, Thatv(-1))", value, trivial_result(2))]


def _rank4_extension_coh(eng: ExtEngine) -> list[CaseResult]:
    # Second weight: the stated index 5 is out of range on a rank-4 datum and
    # is read as the 4th node; recorded, not silently altered.
    return [
        _case("H(Wedge3 Rv (-2))", eng.cohomology(bundles.schur("Rv", "Wedge", 3, -2)), trivial_result(1)),
        _case("H(E[1,1,0,-2])", _coh(eng, B4_Q4, (1, 1, 0, -2)), trivial_result()),
    ]


def _equivariant_ext_wedge2(eng: ExtEngine) -> list[CaseResult]:
    value = eng.ext_equivariant(bundles.schur("Rv", "Wedge", 2), bundles.Rv())
    return [_case("ExtG(Wedge2 Rv, Rv)", value, {1: 1})]


def _rank4_sub_coh(eng: ExtEngine) -> list[CaseResult]:
    return [_case("Ext(O, R)", eng.ext(bundles.O(), bundles.R()), trivial_result(1))]


def _section_vanishing_range(eng: ExtEngine) -> list[CaseResult]:
    out = []
    for r in (1, 2, 3):
        for c in range(-1, 4):
            coh = eng.cohomology(bundles.schur("R", "Wedge", r, -c))
            h0 = 0 if isinstance(coh, Ambiguous) else coh.dims().get(0, 0)
            out.append((f"H0(Wedge{r} R ({-c}))", h0 == 0 and not isinstance(coh, Ambiguous), h0, 0))
    return out


def _sym2_rank4_vanishing(eng: ExtEngine) -> list[CaseResult]:
    out = [_case("H(Sym2 R)", eng.cohomology(bundles.schur("R", "Sym", 2)), trivial_result())]
    # same value through the mixed chain 0 -> Sym2 R -> Sym2 U -> U -> 0
    seq = next(s for s in bundles.standard_sequences() if s.name == "sym2-chain")
    chased = ls_chase(seq, bundles.irr(D5_P4, canonical_weight(D5_P4)), unknown=0, engine=eng)
    # Hom(-, O(-8)) pairs the chain against the canonical twist; Serre-dual
    # of the section statement, still forced to vanish degreewise at H^10.
    ok = not isinstance(chased, Ambiguous)
    out.append(("mixed chain chase is unambiguous", ok, chased, "any exact value"))
    return out


def _mixed_invariants(eng: ExtEngine) -> list[CaseResult]:
    value = eng.ext_equivariant(bundles.schur("Rv", "Sym", 2), bundles.Uv())
    full = eng.ext(bundles.schur("Rv", "Sym", 2), bundles.Uv())
    return [
        _case("ExtG(Sym2 Rv, Uv)", value, {1: 1}),
        _case("Ext(Sym2 Rv, Uv)", full, trivial_result(1)),
    ]


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("dominant-weights", "D5", _dominant_weights),
    CorpusEntry("sym-power-sections", "D5", _sym_power_sections),
    CorpusEntry("bott-sample", "D5", _bott_sample),
    CorpusEntry("general-family", "D5", _general_family),
    CorpusEntry("dual-affine-sections", "D5", _dual_affine_sections),
    CorpusEntry("taut-sub-acyclic", "D5", _taut_sub_acyclic),
    CorpusEntry("twisted-orthogonality", "D5", _twisted_orthogonality),
    CorpusEntry("ext-shift-three", "D5", _ext_shift_three),
    CorpusEntry("ext-affine-dual", "D5", _ext_affine_dual),
    CorpusEntry("rank4-extension-coh", "B4", _rank4_extension_coh),
    CorpusEntry("equivariant-ext-wedge2", "B4", _equivariant_ext_wedge2),
    CorpusEntry("rank4-sub-coh", "B4", _rank4_sub_coh),
    CorpusEntry("section-vanishing-range", "B4", _section_vanishing_range),
    CorpusEntry("sym2-rank4-vanishing", "B4", _sym2_rank4_vanishing),
    CorpusEntry("mixed-invariants", "B4", _mixed_invariants),
)


class CorpusReport(Record):
    _fields = ("results",)

    def __init__(self, results: list[tuple[CorpusEntry, list[CaseResult]]]) -> None:
        self.results = results

    @property
    def failures(self) -> list[tuple[str, CaseResult]]:
        out = []
        for entry, cases in self.results:
            out.extend((entry.label, c) for c in cases if not c[1])
        return out

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_rows(self) -> list[tuple[str, str, int, int]]:
        rows = []
        for entry, cases in self.results:
            good = sum(1 for c in cases if c[1])
            rows.append((entry.label, entry.side, good, len(cases)))
        return rows


def run_corpus(filter_text: str, engine: ExtEngine) -> CorpusReport:
    """Run every corpus entry whose label contains the filter, on the engine
    it is given: its answers do not depend on what that engine has already
    computed."""
    results = []
    for entry in ENTRIES:
        if filter_text and filter_text not in entry.label:
            continue
        try:
            cases = entry.run(engine)
        except Exception as e:  # a broken computation is a failed entry, not a crash
            cases = [("computation aborted", False, f"{type(e).__name__}: {e}", "a finite value")]
        results.append((entry, cases))
    return CorpusReport(results)
