"""Smoke test of the benchmark at its tiny size.

    python -m pytest layerbench/test_smoke.py -q

Runs every workload once untraced and once traced (one iteration each,
LU shrunk to the tiny size) and checks that the printed metric names are
exactly those ``BENCHMARK.json`` declares, that every run passes its
output check, and that the layer profiler covers at least 95% of the
sampled time.  About half a minute on one core.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_no_failures(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["attempted"] == 1 + 2 * trace
    assert result["failed"] == 0  # fail_rate 0
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
        assert result["metrics"]["core.unmatched_exits"]["value"] == 0
    else:
        assert result["metrics"]["pass_rate"]["value"] == 1.0
