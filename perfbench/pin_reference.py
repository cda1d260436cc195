"""Pin the correctness reference the benchmark gates every replay against.

    python3 perfbench/pin_reference.py --seeds 0-15 [--workload NAME ...]

Replays each workload once per seed and records its aggregate MASE and
RMSSE for all three streams and its scored-window count in
``reference.json``, next to this file. Run it only on a commit whose
results are trusted; later commits must then reproduce these values
within ``run.REL_TOL``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import REFERENCE, RUN_LIMIT_S, WORK, child_env, gate, replay
from workloads import WORKLOADS, base_stream_oracle, make_inputs


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-15")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    env = child_env()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            workdir = WORK / f"pin-{name}-s{seed}-p{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                settings, data, forecasts = make_inputs(name, seed, workdir)
                (workdir / "settings.json").write_text(json.dumps(settings))
                result = replay(workdir / "settings.json", workdir / "report.json", env,
                                RUN_LIMIT_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result is None:
                return 1
            problems = gate(result, WORKLOADS[name],
                            base_stream_oracle(WORKLOADS[name], data, forecasts), None)
            if problems:
                print(f"{name} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = {
                "aggregate": result["aggregate"],
                "windows_evaluated": result["windows_evaluated"],
            }
            print(f"{name} seed {seed}: combined mase "
                  f"{result['aggregate']['combined']['mase']!r}", flush=True)
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
