"""Smoke test: the benchmark runs at its smallest sizes and its checks pass.

Each run is a subprocess, because the benchmark re-imports matchlog from
the source tree and patches it while tracing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), *args, "--seed", "7", "--smallest", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["prove-deep", "solve-wide", "check-sweep"])
def test_traced_pass(workload):
    result = _run("--workload", workload, "--seconds", "0.1", "--trace", "1")
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["cli.main.calls"]["value"] == result["attempted"]
    assert metrics["trace_overhead"]["value"] > 0


def test_untraced_metrics_and_limits():
    result = _run("--workload", "solve-wide", "--seconds", "0.5", "--trace", "0",
                  "--limits", "1")
    names = {"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb",
             "failed_frac"}
    assert set(result["metrics"]) == names
    assert 0 <= result["metrics"].pop("failed_frac")["value"] <= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
