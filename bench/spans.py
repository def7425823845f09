"""Outside-in span tracing of homcoh's layers.

`Tracer.install` replaces the layer functions listed in TARGETS, from
outside the package, by wrappers that record one span per call: the
function's name, its start and end on `time.perf_counter`, and the span
that was open when it was called.  Spans stay in memory (flat arrays) and
are written out once, when the session ends; `aggregate` turns a span file
into per-layer metrics.  A target that no longer exists is skipped, so its
metrics are absent instead of crashing the benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from functools import wraps

# (module, attribute path) of every wrapped layer function.
TARGETS = (
    ("roots", "omega_to_eps"),
    ("roots", "eps_to_omega"),
    ("roots", "dualize_levi"),
    ("roots", "dual_weight"),
    ("bbw", "weyl_dim"),
    ("bbw", "bbw_cohomology"),
    ("levi", "lr_multiply"),
    ("levi", "tensor_decompose"),
    ("levi", "to_gl"),
    ("levi", "from_gl"),
    ("levi", "branch_d5_to_b4"),
    ("bundles", "sequence_matches"),
    ("bundles", "twist"),
    ("bundles", "standard_sequences"),
    ("ext", "ExtEngine.ext"),
    ("ext", "ExtEngine._compute"),
    ("ext", "ExtEngine._direct"),
    ("ext", "ExtEngine._chase"),
    ("ext", "_solve_exact_sequence"),
    ("ext", "ExtEngine.euler"),
    ("mutations", "mutate"),
    ("mutations", "KForm.chi"),
    ("mutations", "gram_matrix"),
    ("mutations", "verify_exceptional"),
    ("parser", "parse_bundle"),
    ("corpus", "run_corpus"),
)
MODULES = ("roots", "bbw", "levi", "bundles", "ext", "mutations", "parser", "corpus")
CACHED = ("bbw.weyl_dim", "levi.lr_multiply")  # lru_cache hit ratios


def _is_exact(result) -> bool:
    return type(result).__name__ == "ExtResult"


def _is_cycle_cut(result) -> bool:
    return getattr(result, "reason", None) == "cyclic dependency"


# Counters taken from return values: label -> (counter, predicate).
RESULT_COUNTERS = {
    "ext.ExtEngine._chase": ("ext.chase_accepted", _is_exact),
    "ext.ExtEngine.ext": ("ext.cycle_cuts", _is_cycle_cut),
}


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        nid = len(self.labels)
        self.labels.append(label)
        names, parents, outer, starts, ends = self.name, self.parent, self.outer, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        depth = [0]
        counter, predicate = RESULT_COUNTERS.get(label, (None, None))

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[0] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[0] -= 1
                stack.pop()
            if counter is not None and predicate(result):
                counters[counter] += 1
            return result

        return traced

    def install(self, package: str = "homcoh") -> list[str]:
        """Wrap every TARGET that exists; return the labels wrapped."""
        loaded = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        wrapped = []
        for module_name, path in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            if module is None:
                continue
            owner = module
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            label = f"{module_name}.{path}"
            traced = self.wrap(label, original)
            self.originals[label] = original
            if parents:
                setattr(owner, attr, traced)
            else:
                # rebind every module global that refers to the function
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)
            wrapped.append(label)
        return wrapped

    def header(self) -> dict:
        hits = {}
        for label in CACHED:
            info = getattr(self.originals.get(label), "cache_info", None)
            if info is not None:
                ci = info()
                hits[label] = [ci.hits, ci.misses]
        return {"labels": self.labels, "spans": len(self.name), "counters": dict(self.counters), "cache": hits}

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(json.dumps(self.header()).encode() + b"\n")
            for arr in (self.name, self.parent, self.outer, self.start, self.end):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, list[array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("i", "i", "b", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return header, arrays


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def aggregate(path: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one span file: name -> (value, unit).

    For each wrapped function: calls; total_s, the time inside its
    outermost spans (recursion counted once); and self_s, span time minus
    the time covered by its child spans.  Per module, the sums of calls and
    self time.  Hit ratios come from the lru caches' cache_info(); a ratio
    over zero calls reads 0.
    """
    header, (name, parent, outer, start, end) = load(path)
    labels = header["labels"]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    calls = [0] * len(labels)
    total = [0.0] * len(labels)
    own = [0.0] * len(labels)
    for i, j in enumerate(name):
        calls[j] += 1
        own[j] += dur[i] - covered[i]
        if outer[i]:
            total[j] += dur[i]
    out: dict[str, tuple[float, str]] = {}
    by_label = {}
    for j, label in enumerate(labels):
        by_label[label] = calls[j]
        out[f"{label}.calls"] = (calls[j], "count")
        out[f"{label}.total_s"] = (total[j], "s")
        out[f"{label}.self_s"] = (own[j], "s")
    for module in MODULES:
        idx = [j for j, label in enumerate(labels) if label.split(".")[0] == module]
        if idx:
            out[f"{module}.all.calls"] = (sum(calls[j] for j in idx), "count")
            out[f"{module}.all.self_s"] = (sum(own[j] for j in idx), "s")
    for label, (hits, misses) in header["cache"].items():
        out[f"{label}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    counters = header["counters"]
    if "ext.ExtEngine.ext" in by_label:
        ext_calls = by_label["ext.ExtEngine.ext"]
        out["ext.cycle_cuts"] = (counters.get("ext.cycle_cuts", 0), "count")
        if "ext.ExtEngine._compute" in by_label:
            hits = ext_calls - by_label["ext.ExtEngine._compute"]
            out["ext.memo_hit_ratio"] = (_ratio(hits, ext_calls), "ratio")
    if "ext.ExtEngine._chase" in by_label:
        accepted = counters.get("ext.chase_accepted", 0)
        out["ext.chase_accept_ratio"] = (_ratio(accepted, by_label["ext.ExtEngine._chase"]), "ratio")
    return out
