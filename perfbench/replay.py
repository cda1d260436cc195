"""One replay of a workload, in a fresh process.

Runs the program's public API the way ``adapts run`` does: load the
series (and the forecast file, for a precomputed base), build the base
forecaster, replay every row through ``harness.run`` with a step
callback, then write the report. Set-up is repeated a few times and each
repetition is timed; the replay uses the objects from the last one.
Between set-ups and between steps it runs the host speed reference
(``hostref.py``); reported times leave the reference out and are scaled
to its nominal speed.

Prints one JSON object on its last line of standard output: timings,
peak memory, the report's aggregates and the SHA-256 of the written
report. With ``--trace 1`` it also wraps every layer boundary in spans,
audits that no read goes past the current step, times the two ridge
solve paths, and adds the per-layer metrics.

    python3 perfbench/replay.py --settings S.json --report R.json [--trace 1 --spans P.npz]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hostref import INTERVAL_S, Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up is repeated at least SETUP_MIN times, then while the repetitions
# so far took less than SETUP_BUDGET_S, up to SETUP_MAX times
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 16, 1.0

# ridge path probe: design dimension of the paper configuration, block
# sizes on either side of the Woodbury/direct crossover, repeats per cell
PROBE_SHAPE = {"context_length": 520, "horizon": 96, "seasonality": 24}
PROBE_BLOCKS = (50, 200, 469)
PROBE_REPEATS = 3


def import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "adapts" / "__init__.py").is_file():
        raise SystemExit(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import adapts
    import adapts.forecaster
    import adapts.harness
    import adapts.io
    import adapts.metrics
    import adapts.weighter
    if Path(adapts.__file__).resolve().parent != SRC / "adapts":
        raise SystemExit(f"imported adapts from {adapts.__file__}, not from {SRC}")
    return adapts


class AuditedSeries:
    """Series wrapper recording the highest time index ever read."""

    def __init__(self, series):
        self.values = series.values
        self.channel_names = series.channel_names
        self.max_index = -1

    @property
    def shape(self):
        return self.values.shape

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, key):
        rows = key[0] if isinstance(key, tuple) else key
        n = self.values.shape[0]
        if isinstance(rows, slice):
            span = range(*rows.indices(n))
            hi = span[-1] if span else -1
        else:
            hi = int(rows) if rows >= 0 else n + int(rows)
        if hi > self.max_index:
            self.max_index = hi
        return self.values[key]


def set_up(adapts, settings, cfg):
    """Load the inputs and build the base; returns the series, the base
    and the wall time of the two stages."""
    io, harness = adapts.io, adapts.harness
    clock = time.perf_counter
    t0 = clock()
    series = io.load_series(settings["dataset"])
    t1 = clock()
    if settings["base"] == "precomputed":
        table, horizon = io.load_forecasts(settings["forecasts"])
        if horizon != cfg.horizon:
            raise SystemExit(f"forecast horizon {horizon} differs from {cfg.horizon}")
        base = harness.make_base_forecaster("precomputed", horizon=cfg.horizon,
                                            forecasts=table,
                                            channel_names=series.channel_names)
    else:
        base = harness.make_base_forecaster(settings["base"], horizon=cfg.horizon,
                                            seasonality=cfg.seasonality)
    t2 = clock()
    return series, base, (t1 - t0, t2 - t1)


def ridge_probe(adapts, absorb, seed):
    """Median milliseconds per ``SpectralRidge.absorb`` call for each
    solve path and block size, at the paper configuration's design
    dimension, on a model that has already absorbed one full block."""
    shape = adapts.forecaster.OnlineForecaster(**PROBE_SHAPE)
    d, out = shape.design_dim, shape.filter.target_bins
    rng = np.random.default_rng([seed, 2])

    def rows(m, k):
        return rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))

    warm_in, warm_out = rows(d, d), rows(d, out)
    result = {}
    for block in PROBE_BLOCKS:
        blocks = [(rows(block, d), rows(block, out)) for _ in range(PROBE_REPEATS)]
        for method in ("woodbury", "direct"):
            model = adapts.forecaster.SpectralRidge(d, out, 20.0)
            absorb(model, warm_in, warm_out, method="direct")
            times = []
            for rows_in, rows_out in blocks:
                t0 = time.perf_counter()
                absorb(model, rows_in, rows_out, method=method)
                times.append(time.perf_counter() - t0)
            result[f"forecaster.ridge_probe.{method}_ms.b{block}"] = \
                1e3 * statistics.median(times)
    return result


def retained(report):
    """Bundles the report still holds, and the bytes of their arrays."""
    count, nbytes = 0, 0
    for per_channel in report.bundles:
        for b in per_channel:
            count += 1
            for arr in (b.base_forecast, b.adaptive_forecast, b.combined_forecast, b.target):
                if arr is not None:
                    nbytes += arr.nbytes
    return count, nbytes / 2**20


def layer_metrics(tracer, report, steps, update_calls):
    m = {
        "harness.self_s": tracer.self_s("harness.run"),
        "harness.steps": steps,
        "harness.updates": update_calls,
        "harness.windows_scored": report.windows_evaluated,
    }
    m["harness.bundles_retained"], m["harness.retained_mb"] = retained(report)
    for name in ("base.forecast", "forecaster.predict", "forecaster.fit_block",
                 "forecaster.embed_pair", "forecaster.ridge_absorb",
                 "forecaster.observe_values", "spectral.forward_rft", "metrics.mase",
                 "metrics.rmsse", "metrics.block_average_mase", "weighter.update",
                 "weighter.fast_weight", "weighter.current_weight", "weighter.combine"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.s"] = tracer.self_s(name)
    m["forecaster.ridge_absorb.rows"] = tracer.counters.get("ridge_absorb.rows", 0)
    m["forecaster.ridge_absorb.woodbury_eligible"] = \
        tracer.counters.get("ridge_absorb.woodbury_eligible", 0)
    m["spectral.s"] = sum(tracer.self_s(f"spectral.{fn}") for fn in
                          ("forward_rft", "lowpass", "pad_spectrum", "inverse_rft"))
    denominators = (tracer.calls("metrics.seasonal_naive_mae")
                    + tracer.calls("metrics.seasonal_naive_mse"))
    m["metrics.denominators_per_window"] = denominators / max(report.windows_evaluated, 1)
    m["weighter.fast_weight_per_update"] = (tracer.calls("weighter.fast_weight")
                                            / max(tracer.calls("weighter.update"), 1))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--settings", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced replay writes its spans")
    parser.add_argument("--probe-seed", type=int, default=0)
    args = parser.parse_args(argv)

    adapts = import_program()
    io, harness = adapts.io, adapts.harness
    settings = json.loads(Path(args.settings).read_text())
    cfg = io.build_rolling_config(settings)

    tracer = None
    if args.trace:
        from spans import Tracer, install
        original_absorb = adapts.forecaster.SpectralRidge.absorb
        tracer = Tracer()
        install(tracer, adapts)

    ref = Reference()
    stages = []
    ref.run()
    while len(stages) < SETUP_MIN or (sum(map(sum, stages)) < SETUP_BUDGET_S
                                      and len(stages) < SETUP_MAX):
        series = base = None  # drop the previous inputs before loading again
        series, base, timing = set_up(adapts, settings, cfg)
        ref.run()
        stages.append(timing)
    setup_scaled = [sum(stage) * ref.factor(i) for i, stage in enumerate(stages)]

    dataset = series
    if tracer is not None:
        base.forecast = tracer.wrap("base.forecast", base.forecast)
        dataset = AuditedSeries(series)
    violations = []
    period = cfg.update_period
    clock = time.perf_counter
    # a step is timed from the end of the previous step, or of the
    # reference kernel run after it, to its own callback; it lies in the
    # stretch between kernel runs ``segment`` and ``segment + 1``
    starts, ends, segments = [], [], []

    def on_step(t):
        nonlocal last_ref
        now = clock()
        ends.append(now)
        segments.append(len(ref.samples_ms) - 1)
        if tracer is not None and dataset.max_index > t:
            violations.append((t, dataset.max_index))
        if len(ends) % period == 0 or now - last_ref >= INTERVAL_S:
            now = last_ref = ref.run()
        starts.append(now)

    last_ref = ref.run()
    busy_before = ref.busy_s
    starts.append(clock())
    report = harness.run(dataset, base, cfg, step_callback=on_step)
    run_end = clock()
    in_run_ref_s = ref.busy_s - busy_before
    ref.run()  # closes the last stretch
    t0 = clock()
    io.write_report(report, args.report)
    write_s = clock() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = len(ends)
    durations = (np.asarray(ends) - np.asarray(starts[:steps])) * 1e3
    factors = np.asarray([ref.factor(i) for i in range(len(ref.samples_ms) - 1)])
    scaled = durations * factors[segments]
    tail_s = run_end - ends[-1]  # summary after the last step
    is_update = (np.arange(1, steps + 1) % period) == 0
    timed = ~is_update
    timed[0] = False  # the first step also reveals the rows before it

    out = {
        "setup_s": setup_scaled,
        "run_s": scaled.sum() / 1e3 + tail_s * factors[segments[-1]],
        "channel_steps": steps * series.values.shape[1],
        "step_ms": scaled[timed].tolist(),
        "update_ms": scaled[is_update].tolist(),
        "peak_rss_mb": rss_mb,
        "aggregate": report.aggregate,
        "windows_evaluated": report.windows_evaluated,
        "update_steps": report.update_steps,
        "report_sha256": hashlib.sha256(Path(args.report).read_bytes()).hexdigest(),
    }
    if tracer is not None:
        out["lookahead_violations"] = violations[:10]
        out["lookahead_max_index"] = dataset.max_index
        layers = layer_metrics(tracer, report, steps, int(is_update.sum()))
        # the reference kernel runs inside the harness.run span
        layers["harness.self_s"] -= in_run_ref_s
        layers["host.ref_speed"] = ref.speed()
        layers["io.load_series.s"] = statistics.median(s[0] for s in stages)
        layers["io.load_forecasts.s"] = statistics.median(s[1] for s in stages)
        forecasts = settings.get("forecasts")
        layers["io.load_forecasts.mb"] = os.path.getsize(forecasts) / 2**20 if forecasts else 0.0
        layers["io.write_report.s"] = write_s
        layers.update(ridge_probe(adapts, original_absorb, args.probe_seed))
        out["layers"] = layers
        out["spans"] = len(tracer.start)
        tracer.save(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
