"""Every checked-in BENCH_*.json claims its gain on a workload and metric that BENCHMARK.json defines.

The claimed gain must point the way BENCHMARK.json's ``better`` does, and no
end-to-end metric of any workload pair may worsen by more than its bound.
"""

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


END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def _worsening(metric, rel_change):
    """rel_change turned into how much worse the change is: positive is worse."""
    return -rel_change if END_TO_END[metric]["better"] == "higher" else rel_change


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_claimed_gain_beats_the_parent_in_the_metric_direction(path):
    claim = json.loads(path.read_text())["claimed_gain"]
    parent, change = claim["parent_median"], claim["change_median"]
    if END_TO_END[claim["metric"]]["better"] == "higher":
        assert change > parent
    else:
        assert change < parent


# BENCH_6.json, the first, has a claimed gain and no pairs block
PAIRED_FILES = [p for p in BENCH_FILES if "pairs" in json.loads(p.read_text())]


@pytest.mark.parametrize("path", PAIRED_FILES, ids=lambda p: p.name)
def test_no_end_to_end_pair_worsens_past_its_bound(path):
    pairs = json.loads(path.read_text())["pairs"]
    for workload, metrics in pairs.items():
        for metric, pair in metrics.items():
            assert _worsening(metric, pair["rel_change"]) <= END_TO_END[metric]["bound"], (
                workload, metric, pair["rel_change"])
