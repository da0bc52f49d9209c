"""Smoke test: every workload at a tiny size reports every metric with its unit.

Timings are not checked. Run from the repository root with
``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run

TINY = {
    "witness": dict(n=8, delta=7, instances=2),
    "recovery": dict(n=6, delta=5, instances=2),
    "delta": dict(n=6, delta=10, instances=2),
}
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], **sizes))


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_reported_with_its_unit(tiny_workloads, name, trace, section):
    result, details = run.measure(name, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert details["environment"]["workload_seed"] == 3
    assert all(inst["schedule_sha256"] for inst in details["instances"])


def test_traced_run_reproduces_untraced_fingerprints(tiny_workloads):
    untraced = run.measure("recovery", seed=5, seconds=0, trace=False)[1]["instances"]
    traced = run.measure("recovery", seed=5, seconds=0, trace=True)[1]["instances"]
    assert [i["schedule_sha256"] for i in untraced] == [i["schedule_sha256"] for i in traced]
    assert [i["stats_sha256"] for i in untraced] == [i["stats_sha256"] for i in traced]


def test_traced_run_names_a_missing_function(tiny_workloads, monkeypatch):
    import tempex.roundabout

    monkeypatch.delattr(tempex.roundabout, "movement_step")
    with pytest.raises(run.tracing.MissingNames, match="tempex.roundabout.movement_step"):
        run.measure("witness", seed=1, seconds=0, trace=True)
