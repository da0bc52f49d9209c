"""Smoke tests: the example scripts run end to end against the library API."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    # each script puts src/ on sys.path itself
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


def test_demo_pipeline_runs():
    proc = run_script("demo_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    covers = [line for line in lines if line.startswith("cover step ")]
    assert len(covers) == 2
    for line in covers:
        _, _, step, _, _, budget, ratio = line.split()
        assert 0 < int(step) <= int(budget)
        assert ratio == f"({int(step) / int(budget):.3f})"
    assert [line for line in lines if line.startswith("independent check: ")] == [
        "independent check: valid"
    ] * 2
    # seed 0's first chunk gives the witness tree, which the chunk shows 1-deficient
    assert "with recovered tree (source chunk, deficiency 1 of at most 2):" in lines


def test_bench_sweep_runs(tmp_path):
    proc = run_script("bench_sweep.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").exists()
    assert proc.stdout.startswith("instance,n,k,delta,")
    header, *lines = proc.stdout.splitlines()
    assert lines
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        assert int(row["paperBudget"]) == int(row["rho"]) * (int(row["delta"]) + int(row["t"]))
        assert int(row["scheduleSpan"]) <= int(row["paperBudget"])
        assert row["verified"] == "true"
