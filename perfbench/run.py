"""End-to-end and per-layer benchmark of the rolling replay.

    python3 perfbench/run.py --workload shared-l128 --seed 0 --seconds 30 --trace 0

Generates the workload's series (and forecast file) from the seed, then
replays it in fresh child processes (``replay.py``), one after another,
each a closed loop with a single caller. With ``--trace 0`` it runs at
least ``MIN_REPLAYS`` replays and starts another only while it fits in
``--seconds``, and reports the end-to-end metrics. With ``--trace 1`` it
runs an untraced, a traced and another untraced replay and reports the
per-layer metrics. Timings are scaled to a reference host speed
(``hostref.py``), so that the host's own drift in speed stays out of them.

Every replay is checked: the report's scored-window and update counts
must match the replay schedule, the base stream's aggregates must match
an independent array computation, the aggregates must match the pinned
reference when the seed has one, every replay of one seed must write a
byte-identical report, and the traced replay must read no row past the
current step. A replay that crashes or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the interpreter, numpy, CPU count, BLAS threads and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, base_stream_oracle, expected_counts, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_REPLAYS, MAX_REPLAYS = 2, 6
RUN_LIMIT_S = 170  # the whole run, replays included, ends within this
REL_TOL = 1e-9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STREAMS = ("base", "adaptive", "combined")


def child_env():
    """Environment for replays. Each replay is one caller on one core, so
    BLAS pools get one thread: the matrices are small, and a second thread
    mostly adds run-to-run noise on a shared machine."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def stamp(workload, seed, env):
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
    }


def replay(settings_path, report_path, env, timeout, trace=0, spans=None, probe_seed=0):
    """Run one replay in a child process; returns its result dict, or
    None after printing why it failed."""
    cmd = [sys.executable, str(HERE / "replay.py"), "--settings", str(settings_path),
           "--report", str(report_path), "--trace", str(trace),
           "--probe-seed", str(probe_seed)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"replay timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"replay exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def close(a, b):
    return a is not None and b is not None and math.isclose(a, b, rel_tol=REL_TOL)


def gate(result, spec, oracle, reference):
    """Reasons the replay's output is wrong; empty when it is right."""
    problems = []
    scoring, windows = expected_counts(spec)
    if result["windows_evaluated"] != windows:
        problems.append(f"windows_evaluated {result['windows_evaluated']} != {windows}")
    if result["update_steps"] != scoring:
        problems.append(f"update_steps {result['update_steps']} != {scoring}")
    agg = result["aggregate"]
    for stream in STREAMS:
        for metric in ("mase", "rmsse"):
            value = agg[stream][metric]
            if value is None or not math.isfinite(value):
                problems.append(f"{stream} {metric} is {value}")
    for metric in ("mase", "rmsse"):
        if not close(agg["base"][metric], oracle[metric]):
            problems.append(f"base {metric} {agg['base'][metric]!r} != oracle "
                            f"{oracle[metric]!r}")
    if reference is not None:
        if result["windows_evaluated"] != reference["windows_evaluated"]:
            problems.append("windows_evaluated differs from the pinned reference")
        for stream in STREAMS:
            for metric in ("mase", "rmsse"):
                want = reference["aggregate"][stream][metric]
                if not close(agg[stream][metric], want):
                    problems.append(f"{stream} {metric} {agg[stream][metric]!r} != "
                                    f"pinned {want!r}")
    if "lookahead_violations" in result:
        if result["lookahead_violations"]:
            problems.append(f"read past the current step: {result['lookahead_violations']}")
        if result["lookahead_max_index"] < 0:
            problems.append("the index audit saw no reads")
    return problems


def end_to_end(done):
    return {
        "throughput_csps": (sum(r["channel_steps"] for r in done)
                            / sum(r["run_s"] for r in done)),
        "setup_s": statistics.median(s for r in done for s in r["setup_s"]),
        "step_ms_p50": statistics.median(x for r in done for x in r["step_ms"]),
        "update_ms_p50": statistics.median(x for r in done for x in r["update_ms"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "mase_combined": done[0]["aggregate"]["combined"]["mase"],
    }


def per_layer(before, traced, after):
    values = dict(traced["layers"])
    values["harness.step_ms_p99"] = float(np.percentile(before["step_ms"] + after["step_ms"],
                                                        99))
    values["trace.overhead"] = 2 * traced["run_s"] / (before["run_s"] + after["run_s"]) - 1.0
    return values


def declared(values, kind):
    """The metrics BENCHMARK.json declares under ``kind``, with their units;
    a declared metric the replay did not produce is an error."""
    spec = json.loads(BENCHMARK.read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "adapts" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    env = child_env()
    print(json.dumps({"stamp": stamp(args.workload, args.seed, env)}), flush=True)
    pinned = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(args.seed))

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    results = []
    try:
        settings, data, forecasts = make_inputs(args.workload, args.seed, workdir)
        settings_path = workdir / "settings.json"
        settings_path.write_text(json.dumps(settings))
        oracle = base_stream_oracle(spec, data, forecasts)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            # untraced, traced, untraced: a steady drift in machine speed
            # cancels out of the overhead estimate
            spans = OUT / f"spans-{args.workload}.npz"
            for i, trace in enumerate((0, 1, 0)):
                results.append(replay(settings_path, workdir / f"report-{i}.json", env,
                                      deadline - time.monotonic(), trace=trace,
                                      spans=spans if trace else None, probe_seed=args.seed))
        else:
            started = time.monotonic()
            while len(results) < MAX_REPLAYS and time.monotonic() < deadline:
                results.append(replay(settings_path, workdir / f"report-{len(results)}.json",
                                      env, deadline - time.monotonic()))
                elapsed = time.monotonic() - started
                if (len(results) >= MIN_REPLAYS
                        and elapsed * (len(results) + 1) / len(results) > args.seconds):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    first_hash = None
    for i, result in enumerate(results):
        if result is None:
            failed += 1
            continue
        problems = gate(result, spec, oracle, pinned)
        if first_hash is None:
            first_hash = result["report_sha256"]
        elif result["report_sha256"] != first_hash:
            problems.append("report differs from the first replay of this seed")
        if problems:
            failed += 1
            print(f"replay {i} failed the correctness gate: " + "; ".join(problems),
                  file=sys.stderr)
    # replays that finished are timed even when their output is wrong
    done = [r for r in results if r is not None]

    if args.trace:
        if len(done) < 3:
            print("the traced comparison needs all three replays to finish", file=sys.stderr)
            return 1
        metrics = declared(per_layer(*done), "per_layer")
    else:
        if not done:
            print("no replay finished", file=sys.stderr)
            return 1
        metrics = declared(end_to_end(done), "end_to_end")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
