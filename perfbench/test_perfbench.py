"""Tests of the benchmark itself: seeded inputs, live output checks, trace counting."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

package = run._import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from conical_harvest import quadrature  # noqa: E402
from conical_harvest.errors import ToleranceNotMet  # noqa: E402
from conical_harvest.response import FAULT_ENV  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.ops(7) == workload.ops(7)
    assert workload.ops(7) != workload.ops(8)


def _fault_sensitive_ops():
    """Cheap operations whose outputs depend on the image-sum part of P."""
    verify = workloads.WORKLOADS["verify_oracles"]
    dmax = workloads.WORKLOADS["dmax_integer"]
    pairs = [op for op in verify.ops(1) if op.kind == "P1"][:3]
    solves = [op for op in dmax.ops(1) if op.params["alignment"] == "parallel"][:1]
    return [(verify, pairs), (dmax, solves)]


@pytest.mark.parametrize("scale, expect_failures", [(None, False), ("1.1", True)])
def test_checks_catch_an_injected_fault(monkeypatch, scale, expect_failures):
    if scale is None:
        monkeypatch.delenv(FAULT_ENV, raising=False)
    else:
        monkeypatch.setenv(FAULT_ENV, scale)
    for workload, pool in _fault_sensitive_ops():
        records, _ = run.timed_loop(workload, pool, count=len(pool))
        failures, wrong, _ = run.check_records(workload, pool, records)
        if expect_failures:
            assert wrong == len(pool), (workload.name, failures)
        else:
            assert failures == {} and wrong == 0, (workload.name, failures)


def test_tail_is_the_nearest_rank_90th_percentile():
    value, beyond = run.tail(list(range(200, 0, -1)))
    assert value == 180
    assert beyond == 20


def test_tracer_counts_each_integral_once_and_restores_the_library():
    original = quadrature.integrate_adaptive
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        tracer.begin_op()
        result = quadrature.integrate_pv(lambda s: np.exp(-np.asarray(s) ** 2), [1.0])
        with pytest.raises(ToleranceNotMet) as failure:
            quadrature.integrate_adaptive(lambda x: np.sin(50 * x), 0.0, 1.0, 1e-30,
                                          max_intervals=4)
    finally:
        tracer.uninstall()
    assert quadrature.integrate_adaptive is original
    assert tracer.counts["quadrature.integrals"] == 2
    assert tracer.counts["quadrature.evaluations"] == (result.evaluations
                                                       + failure.value.evaluations)
    assert tracer.counts["quadrature.budget_exhausted"] == 1
    assert tracer.counts["quadrature.pv_calls"] == 1
    # integrate_pv's inner integrate_adaptive calls are spans of their own
    assert tracer.calls["quadrature"] > 2


def test_printed_metrics_match_benchmark_json():
    end_to_end, _ = run.end_to_end_metrics([0.001 * i for i in range(1, 21)], 0, 0.5, 80.0)
    per_layer = tracing.Tracer().metrics(1.0, 0.3)
    for printed, declared in ((end_to_end, BENCHMARK["end_to_end"]),
                              (per_layer, BENCHMARK["per_layer"])):
        assert {name: unit for name, (_, unit) in printed.items()} == {
            m["name"]: m["unit"] for m in declared}
