"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 0-9 --out summary.json [--workload NAME ...]

For every seed, runs ``run.py --trace 0`` once per workload, taking the
workloads in turn so that a slow spell of the machine is shared between
them; then runs ``run.py --trace 1`` once per workload with the first
seed. The summary holds, per workload and end-to-end metric, every
value, the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (interquartile distance over the median), plus the traced
run's per-layer metrics and the stamps. Use the same seeds and run
length on both commits when comparing them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from pin_reference import seed_range
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-9")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    names = args.workload or sorted(WORKLOADS)
    runs = {name: [] for name in names}
    stamps = {}
    for seed in args.seeds:
        for name in names:
            stamps[name], result = bench(name, seed, args.seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = {"seconds": args.seconds, "seeds": list(args.seeds), "workloads": {}}
    for name in names:
        results = runs[name]
        _, traced = bench(name, args.seeds[0], args.seconds, 1)
        summary["workloads"][name] = {
            "stamp": stamps[name],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in results])
                           for m in results[0]["metrics"]},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for metric, s in summary["workloads"][name]["end_to_end"].items():
            print(f"{name:20s} {metric:16s} median={s['median']:.6g} spread={s['spread']:.4f}")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
