"""Smoke test: a tiny seeded run of each workload, measured and traced, with
every output check passing (failed_ratio == 0) and every metric that
BENCHMARK.json names reported in its unit."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["measured", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failures(workload, trace):
    assert run.prepare() is None
    result = run.run_workload(workload, seed=7, seconds=1, trace=trace,
                              tiny=True, keep_spans=False)
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
