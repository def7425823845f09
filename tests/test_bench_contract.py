"""The benchmark still sees every layer it declares.

bench/spans.py wraps the functions named in spans.TARGETS and skips any
that no longer resolves, and reads the hit ratios of spans.CACHED from
their lru caches when there are any.  A renamed or deleted layer function,
or a dropped cache, would then silently remove metrics from a traced run.
These tests fail instead: after each workload's set-up every target
resolves and every cached one keeps cache_info, and a tiny traced session
of each workload reports exactly the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TRACE_METRICS = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
TINY = {"paper-replay": 2, "ext-sweep": 6, "levi-tensor": 4}


def _resolve(label: str, package: str = "homcoh"):
    module_name, *path = label.split(".")
    owner = sys.modules.get(f"{package}.{module_name}")
    for attr in path:
        owner = getattr(owner, attr, None)
    return owner


def _contract_gaps() -> list[str]:
    """TARGETS that do not resolve, and CACHED entries without cache_info."""
    gaps = [f"{m}.{p}" for m, p in spans.TARGETS if not callable(_resolve(f"{m}.{p}"))]
    gaps += [f"{label} (no cache_info)" for label in spans.CACHED if not hasattr(_resolve(label), "cache_info")]
    return gaps


def _declared_per_layer() -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_target_resolves_after_setup(workload):
    session._setup(workload, None)
    assert _contract_gaps() == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_session_reports_exactly_the_declared_layers(workload, tmp_path):
    path = tmp_path / "spans.bin"
    run.session(workload, 1, time.monotonic() + 120, "--spans", str(path), size=TINY[workload])
    assert set(spans.aggregate(str(path))) | TRACE_METRICS == _declared_per_layer()


def test_contract_check_fails_on_a_deleted_target(monkeypatch):
    from homcoh import levi

    session._setup("levi-tensor", None)
    monkeypatch.delattr(levi, "to_gl")
    assert _contract_gaps() == ["levi.to_gl"]


def test_contract_check_fails_on_a_dropped_cache(monkeypatch):
    from homcoh import levi

    session._setup("levi-tensor", None)
    monkeypatch.setattr(levi, "lr_multiply", levi.lr_multiply.__wrapped__)
    assert _contract_gaps() == ["levi.lr_multiply (no cache_info)"]
