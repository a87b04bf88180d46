"""Benchmark of conical-harvest: seeded workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dmax_integer --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.  The
timed loop cycles through the workload's seeded operation pool for
``--seconds`` (closed loop, one client: the next operation starts when the
previous one returns).  Outputs are checked afterwards, outside the timed
path.

Every time below is calibrated for the machine's speed drift (see
calibration.py): it is the measured time rescaled to a machine on which the
calibration unit takes 0.9 ms.  The detail line also reports the raw values.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    ops_per_s    operations completed with a checked-correct output per second
                 of operation time
    op_p50_ms    median latency per operation (failed operations included)
    op_tail_ms   90th-percentile latency; a 20-second run of every workload
                 has more than 100 operations, so at least ten samples lie
                 beyond it (the detail line reports how many)
    setup_s      median time of eight fresh interpreters importing
                 conical_harvest.cli (what every CLI invocation pays), half
                 of them before and half after the timed loop
    peak_rss_mb  peak resident memory of this process after the timed loop

The line before it is a JSON object with the details: failed_frac (failed
over attempted operations), the samples beyond the tail percentile, failures
by reason, the largest relative deviation from the references, and the raw
timings.

With ``--trace 1`` the library's layers are wrapped (see tracing.py).  The
run first measures half of ``--seconds`` untraced, then repeats the same
operations traced; the last line carries the per-layer metrics, including
the tracing overhead, and the spans are written to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.

Exit codes: 0 on a completed run (failed operations are reported, not fatal),
2 when the library sources are missing or an argument is invalid.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 4  # before and again after the timed loop, to span more of the run
SETUP_CALIBRATION_UNITS = 15
TAIL_PERCENTILE = 90.0


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "conical_harvest" / "__init__.py").is_file():
        _fail(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import conical_harvest

    if Path(conical_harvest.__file__).resolve().parent != SRC / "conical_harvest":
        _fail(f"imported conical_harvest from {conical_harvest.__file__}, not from {SRC}")
    return conical_harvest


def measure_setup(repeats, warm_up):
    """(calibrated, raw) wall times of fresh interpreters importing conical_harvest.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import conical_harvest.cli"]
    calibrated, raw = [], []
    for i in range(repeats + warm_up):
        before = calibration.time_units(SETUP_CALIBRATION_UNITS)
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        after = calibration.time_units(SETUP_CALIBRATION_UNITS)
        if done.returncode != 0:
            _fail(f"importing conical_harvest.cli failed: {done.stderr.decode()[-500:]}")
        if i >= warm_up:  # the first run may compile bytecode; users pay that once
            raw.append(elapsed)
            calibrated.append(elapsed * calibration.REFERENCE_UNIT_S / (0.5 * (before + after)))
    return calibrated, raw


def timed_loop(workload, pool, seconds=None, count=None, before_op=None):
    """Run operations from the pool until ``seconds`` pass or ``count`` ran.

    Returns (records, latencies) with one (pool index, output or exception) and
    one (calibrated, raw) latency in seconds per operation.
    """
    calibrator = calibration.Calibrator()
    records = []
    spans = []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        index = i % len(pool)
        if before_op is not None:
            before_op()
        t0 = time.perf_counter()
        try:
            output = workload.run(pool[index])
        except Exception as exc:  # a raising operation is a failed operation
            output = exc
        t1 = time.perf_counter()
        records.append((index, output))
        spans.append((t0, t1))
        calibrator.keep_up(t1 - t0)
        i += 1
    latencies = [((t1 - t0) * calibrator.factor_at(0.5 * (t0 + t1)), t1 - t0)
                 for t0, t1 in spans]
    return records, latencies


def check_records(workload, pool, records):
    """Check every output; each pool entry is checked once.

    A repeated operation must reproduce the output of its first run exactly.
    Returns (failures by reason, number of wrong outputs, largest relative deviation).
    """
    first = {}
    verdicts = {}
    failures = {}
    wrong = 0
    worst = 0.0
    for index, output in records:
        if isinstance(output, Exception):
            reason = f"raised {type(output).__name__}"
        else:
            if index not in verdicts:
                first[index] = output
                verdicts[index] = workload.check(pool[index], output)
                worst = max(worst, verdicts[index].rel_dev)
            verdict = verdicts[index]
            if output != first[index]:
                reason = "output differs from an earlier run of the same operation"
            elif verdict.ok:
                continue
            else:
                reason = verdict.reason
            wrong += 1
        failures[reason] = failures.get(reason, 0) + 1
    return failures, wrong, worst


def tail(latencies, percentile=TAIL_PERCENTILE):
    """(value, samples beyond it) of a nearest-rank percentile.

    The percentile is fixed rather than the highest one with ten samples
    beyond it: that one moves with the operation count, and the count changes
    whenever the code gets faster.
    """
    ordered = sorted(latencies)
    rank = max(math.ceil(percentile / 100.0 * len(ordered)), 1)
    value = ordered[rank - 1]
    return value, sum(x > value for x in ordered)


def end_to_end_metrics(latencies, failed, setup_s, peak_rss_mb):
    """({name: (value, unit)}, samples beyond the tail percentile) from latencies in seconds."""
    tail_value, beyond = tail(latencies)
    return {
        "ops_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, beyond


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    package = _import_library()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.trace == 0:
        setup = measure_setup(SETUP_REPEATS, warm_up=1)

    pool = workload.ops(args.seed)
    workloads.warm_up()
    calibration.time_units(50)
    if args.trace == 0:
        records, latencies = timed_loop(workload, pool, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = measure_setup(SETUP_REPEATS, warm_up=0)
        setup_s = statistics.median(setup[0] + after[0])
        raw_setup_s = statistics.median(setup[1] + after[1])
    else:
        import tracing

        records, latencies = timed_loop(workload, pool, seconds=args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            traced, traced_latencies = timed_loop(workload, pool, count=len(records),
                                                  before_op=tracer.begin_op)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        records += traced

    failures, wrong, worst = check_records(workload, pool, records)
    failed = sum(failures.values())
    if args.trace == 0:
        metrics, beyond = end_to_end_metrics([c for c, _ in latencies], failed, setup_s,
                                             peak_rss_mb)
        raw, _ = end_to_end_metrics([r for _, r in latencies], failed, raw_setup_s, peak_rss_mb)
        detail = {"workload": args.workload, "seed": args.seed,
                  "failed_frac": failed / len(records), "tail_percentile": TAIL_PERCENTILE,
                  "samples": len(records), "samples_beyond_tail": beyond, "pool": len(pool),
                  "raw": {name: value for name, (value, _) in raw.items()}}
    else:
        untraced_s = sum(c for c, _ in latencies)
        traced_s = sum(c for c, _ in traced_latencies)
        metrics = tracer.metrics(sum(r for _, r in traced_latencies), traced_s / untraced_s - 1.0)
        detail = {"workload": args.workload, "seed": args.seed, "traced_ops": len(traced),
                  "failed_frac": failed / len(records), "spans_dropped": tracer.dropped}
    detail.update(failures=failures, max_rel_deviation=worst)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
