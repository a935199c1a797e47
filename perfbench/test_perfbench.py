"""Self-test of the benchmark: python3 -m pytest perfbench -q

Tiny runs of every workload must print every metric BENCHMARK.json names,
each with its unit, and pass their output checks; the traced run's spans
must nest so that children account for their parent's time; and without
the package sources the benchmark must fail without printing a result.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and got["value"] == got["value"]
        if not trace:
            assert got["value"] > 0.0
    if trace:
        spans = json.loads(gzip.open(ROOT / ".perfbench_out" / f"{workload}-spans.json.gz",
                                     "rt").read())["spans"]
        assert spans and tracing.accounting_errors(spans) == []
        _assert_children_account_for_parents(spans)


def _assert_children_account_for_parents(spans):
    children: dict = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(end - start)
    totals, _ = tracing.self_times(spans)
    roots = [end - start for _, start, end, parent, _ in spans if parent < 0]
    assert sum(totals.values()) == pytest.approx(sum(roots), rel=1e-9)
    for parent, durations in children.items():
        _, start, end, _, _ = spans[parent]
        assert sum(durations) <= (end - start) + 1e-9


def test_accounting_flags_a_child_outside_its_parent():
    good = [["root", 0.0, 1.0, -1, 0], ["a", 0.1, 0.4, 0, 0], ["b", 0.5, 0.9, 0, 0]]
    assert tracing.accounting_errors(good) == []
    totals, calls = tracing.self_times(good)
    assert totals["root"] == pytest.approx(0.3) and calls["a"] == 1
    assert tracing.accounting_errors(good[:2] + [["b", 0.3, 0.9, 0, 0]])  # overlap
    assert tracing.accounting_errors(good[:2] + [["b", 0.5, 1.2, 0, 0]])  # escapes


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
