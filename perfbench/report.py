"""Run the benchmark over workloads and seeds and print every metric with its spread.

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10          # ten seeds: median, quartiles, spread
    python3 perfbench/report.py --trace 1             # per-layer metrics
    python3 perfbench/report.py --workload near_integer --seconds 30
    python3 perfbench/report.py --seeds 1-10 --json results.json   # also save them

Each run is ``run.py`` in a fresh process, one after another.  Beside the
metrics of run.py's last line, the table shows from its detail line
``failed_frac``, the operation count, the samples beyond the tail percentile
and the largest relative deviation from the references.  The spread is the
distance between the first and third quartile as a share of the median; for
end-to-end metrics it is compared with a third of the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    """{median, q1, q3, spread}; the quartiles need at least two values."""
    if len(values) < 2:
        return {"median": statistics.median(values), "q1": None, "q3": None, "spread": None}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every value and summary to this file")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    saved = {}
    for name in names:
        values = {}
        units = {}
        failures = {}
        for seed in parse_seeds(args.seeds):
            detail, result = run_once(name, seed, args.seconds, args.trace)
            print(f"# {name} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']} failures {detail['failures']} "
                  f"max_rel_deviation {detail['max_rel_deviation']:.2e}", flush=True)
            for reason, count in detail["failures"].items():
                failures[reason] = failures.get(reason, 0) + count
            values.setdefault("max_rel_deviation", []).append(detail["max_rel_deviation"])
            units["max_rel_deviation"] = "frac"
            values.setdefault("failed_frac", []).append(detail["failed_frac"])
            units["failed_frac"] = "frac"
            for key in ("samples", "samples_beyond_tail"):
                if key in detail:
                    values.setdefault(key, []).append(detail[key])
                    units[key] = "count"
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        print(f"{name:16s} {'metric':40s} {'unit':9s} {'median':>12s} {'spread':>8s}  bound/3")
        saved[name] = {"failures": failures, "metrics": {}}
        for metric, series in values.items():
            stats = summary(series)
            saved[name]["metrics"][metric] = dict(stats, unit=units[metric], values=series)
            sp = stats["spread"]
            bound = bounds.get(metric)
            mark = ""
            if sp is not None and bound is not None:
                mark = f"{bound / 3:.3f} {'ok' if sp < bound / 3 else 'WIDE'}"
            shown = "-" if sp is None else f"{sp:.3f}"
            print(f"{name:16s} {metric:40s} {units[metric]:9s} {stats['median']:12.6g} "
                  f"{shown:>8s}  {mark}", flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(saved, indent=1) + "\n")


if __name__ == "__main__":
    main()
