"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench

They run bench/run.py the way a benchmark harness does and check its output:
every declared metric prints with its unit, no operation fails, traced
self times fit inside the traced wall time, and the counts that should
repeat do.  The repository's own suite (tests/) does not collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check_declared(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
            for line in lines
        ), metric["name"]
    share = [line for line in lines if line.startswith("failed_share")]
    assert share and float(share[0].split()[1]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = _run(workload, 0)
    _check_declared(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_traced_wall(workload):
    lines, result = _run(workload, 1)
    _check_declared(lines, result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = [v for name, v in metrics.items() if name.endswith(".busy_s")]
    self_times.append(metrics["trace.unattributed_s"])
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= metrics["trace.wall_s"] + 1e-9

    if workload == "cli_all":  # `urlab all` simulates 3 grid points 11 times
        assert metrics["monte_carlo.sample_statistics.calls"] == 11
        assert metrics["reporting.bytes_written"] > 0

    _, again = _run(workload, 1, seed=2)
    for name in ("streams.calls", "monte_carlo.sample_statistics.calls", "brownian.resampled"):
        assert again["metrics"][name]["value"] == metrics[name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
