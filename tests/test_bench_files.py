"""Every checked-in BENCH_*.json claims its gain on a workload and metric that BENCHMARK.json defines."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_perf_trajectory_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_claimed_gain_names_a_benchmark_workload_and_end_to_end_metric(path):
    claim = json.loads(path.read_text())["claimed_gain"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
    if "change_wins" in claim and "pairs" in claim:
        assert 0 <= claim["change_wins"] <= claim["pairs"]
