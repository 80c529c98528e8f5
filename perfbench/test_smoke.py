"""Smoke test of the benchmark at tiny op counts.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _units(result: harness.Result) -> dict[str, str]:
    return {name: unit for name, (_, unit) in result.metrics.items()}


def test_end_to_end_metrics_appear_with_units(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    result = harness.measure(workloads.WORKLOADS["thm51-zeros"], seed=3, seconds=3)
    assert result.correct and result.failed == 0
    assert result.attempted == 30
    assert _units(result) == _declared("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())


def test_traced_run_reports_every_layer_metric_and_repeats_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    result = harness.trace(workloads.WORKLOADS["thm51-zeros"], seed=3, seconds=1)
    # correct includes the check that both traced passes gave identical counts
    assert result.correct, result.report
    assert _units(result) == _declared("per_layer")
    assert result.metrics["theta.calls"][0] > 0
    assert result.metrics["inversion.pullback_builds"][0] > 0


def test_planted_wrong_verdict_trips_the_gate(monkeypatch):
    monkeypatch.setattr(workloads, "EXPECTED_ZEROS", 3)
    wl = workloads.WORKLOADS["grid-eval"]
    spawned = hostspeed.now()
    part = harness.worker(wl, seed=3, seconds=1, index=0, count=1)
    result = harness.summarize(wl, 3, [spawned], [part], hostspeed.Speedometer())
    assert not result.correct
    assert result.failed == result.attempted > 0
    assert any("open:n_zeros=2" in line for line in result.report)
    assert run.exit_code(result) == 1


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm51-zeros", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
