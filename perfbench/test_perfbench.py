"""Smoke test: each workload at a tiny size prints every metric with a unit."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--limit", "2", "--setup-runs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split(" ")
            printed[name] = (value, unit)
    return lines, printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, printed, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    assert any(line.startswith("# env python=") for line in lines)
    assert "items_sha256=" in lines[0] and "seed=3" in lines[0]
    if trace:
        assert printed["numerics.integrate_adaptive.calls"][0] != "absent"
        return
    assert printed["failed_ratio"] == ("0.0", "ratio")
    assert printed["item_p50_ms"][1] == "ms"
    assert "item_p90_ms" in printed or any("item_p90_ms omitted" in ln for ln in lines)


def test_seed_zero_is_the_canonical_grid():
    sys.path.insert(0, str(HERE))
    import workloads
    keys = [item.key for item in workloads.build("figure_sweep", 0)]
    assert len(keys) == 100 and keys[0] == ("sweep", "--n", "10", "--delta", "0.01")
    assert keys[-1] == ("sweep", "--n", "100", "--delta", "100.0")
    assert [item.key for item in workloads.build("mixture_bounds", 5)] == \
        [item.key for item in workloads.build("mixture_bounds", 5)]


def test_absent_hook_target_is_reported_not_raised(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import minimaxlb.bounds
    import tracer
    monkeypatch.delattr(minimaxlb.bounds, "diffeo_bound")
    with tracer.Tracer() as trace:
        minimaxlb.bounds.vt_kepler_bound(1.0, 10, 1.0)
    assert trace.value("bounds.diffeo_bound", "calls") is None
    assert trace.value("bounds.vt_kepler_bound", "total_s") > 0.0
    assert minimaxlb.bounds.maximize_1d is minimaxlb.numerics.maximize_1d


def test_reference_clock_scales_by_the_median_around_each_execution():
    sys.path.insert(0, str(HERE))
    import run
    clock = run.ReferenceClock()
    clock.samples = [2 * run.REF_S] * 4 + [100.0] + [2 * run.REF_S] * 4
    assert clock.scaled(1.0, 4) == 0.5       # one interrupted chunk is outvoted
    clock.samples = [run.REF_S / 2] * 9
    assert clock.scaled(1.0, 0) == 2.0 and clock.scaled(1.0, 8) == 2.0
