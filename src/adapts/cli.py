"""Command-line front end.

Three subcommands: ``run`` evaluates one configuration, ``sweep`` repeats
a run across a list of values for one axis, ``bench`` times the two fit
paths against each other and checks they agree.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import io as adio
from .config import WEIGHTER_MODES
from .errors import AdaptsError, InvalidConfig, UsageError
from .forecaster import OnlineForecaster, SpectralRidge, woodbury_pays
from .harness import make_base_forecaster, run

SWEEP_AXES = ("alpha", "update_period", "horizon")
# the dedicated flags, by config key: each is ``--key`` with dashes for
# underscores, and overrides its key after every --set pair. Every
# subcommand takes _FLAGS; only run takes _RUN_FLAGS, because only a run
# keeps the forecasts a dump writes
_FLAGS = dict(
    weighter=dict(choices=WEIGHTER_MODES), alpha=dict(type=float),
    update_period=dict(type=int), horizon=dict(type=int),
    base=dict(choices=("naive_seasonal", "historical_mean", "precomputed")),
    forecasts=dict(help="precomputed forecast file"), out=dict(help="report path"),
    format=dict(choices=("json", "csv")),
)
_RUN_FLAGS = dict(
    dump_forecasts=dict(help="write the base forecast stream to this path"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _worker_count() -> int:
    raw = os.environ.get("ADAPTS_THREADS")
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            raise InvalidConfig(f"ADAPTS_THREADS must be an integer, got {raw!r}") from None
    return max(1, os.cpu_count() or 1)


def _apply_overrides(settings: dict, args) -> dict:
    """Config file values, then --set pairs in order, then dedicated flags."""
    merged = dict(settings)
    for pair in args.set or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        merged[key] = adio.parse_config_value(key, raw)
    merged.update({key: value for key, value in vars(args).items()
                   if (key in _FLAGS or key in _RUN_FLAGS) and value is not None})
    return merged


def _load_table(settings: dict):
    """The parsed forecast table of a precomputed base, else None."""
    if settings.get("base", "naive_seasonal") != "precomputed":
        return None
    if "forecasts" not in settings:
        raise InvalidConfig("base=precomputed needs a forecasts file (key 'forecasts')")
    return adio.load_forecasts(settings["forecasts"])[0]


def _execute(settings: dict, table=None, keep_forecasts=False):
    """Resolve a settings dict into a finished run report. ``table`` is an
    already parsed forecast table; without it the file is parsed here. The
    report keeps every step's forecasts only with ``keep_forecasts``."""
    if "dataset" not in settings:
        raise UsageError("a dataset path is required (config key 'dataset')")
    cfg = adio.build_rolling_config(settings)
    series = adio.load_series(settings["dataset"])
    if table is None:
        table = _load_table(settings)
    base = make_base_forecaster(settings.get("base", "naive_seasonal"), horizon=cfg.horizon,
                                seasonality=cfg.seasonality, forecasts=table,
                                channel_names=series.channel_names)
    report = run(series, base, cfg, keep_forecasts=keep_forecasts)
    report.dataset_name = str(settings["dataset"])
    return report, cfg


def _print_summary(report) -> None:
    for name in report.channel_names:
        entry = report.per_channel[name]
        b, c = entry["base"]["mase"], entry["combined"]["mase"]
        if b is None:
            print(f"{name}: no completed windows")
            continue
        print(f"{name}: windows={entry['windows']} base_mase={b:.4f} "
              f"combined_mase={c:.4f} delta={c - b:+.4f}")
    agg = report.aggregate
    if agg["base"]["mase"] is not None:
        print(f"aggregate: base_mase={agg['base']['mase']:.4f} "
              f"adaptive_mase={agg['adaptive']['mase']:.4f} "
              f"combined_mase={agg['combined']['mase']:.4f}")


def _dump_base_forecasts(report, cfg, path) -> None:
    """Write the base stream channel by channel."""
    t0, base = report.skipped_initial_steps, report.forecasts[:, 0]
    steps, channels = base.shape[:2]
    adio.write_forecasts(np.tile(t0 + np.arange(steps), channels),
                         np.repeat(np.array(report.channel_names, dtype=object), steps),
                         base.transpose(1, 0, 2).reshape(-1, cfg.horizon), path)


def cmd_run(args) -> int:
    settings = _apply_overrides(adio.load_run_config(args.config), args)
    report, cfg = _execute(settings, keep_forecasts=bool(settings.get("dump_forecasts")))
    if settings.get("dump_forecasts"):
        _dump_base_forecasts(report, cfg, settings["dump_forecasts"])
    out = settings.get("out", "report.json")
    adio.write_report(report, out, fmt=settings.get("format", "json"))
    _print_summary(report)
    return 0


# the parsed forecast table of a parallel sweep, sent once to each worker
_worker_table = None


def _set_worker_table(table) -> None:
    global _worker_table
    _worker_table = table


def _sweep_point(payload, table=None):
    """One sweep point: run, write its report, return its aggregate.

    Every invocation builds its state from the settings dict and the
    parsed forecast table (None: the one the pool sent this worker), so
    points share nothing else and may run in separate processes.
    """
    axis, value, settings, path, fmt = payload
    report, _ = _execute({**settings, axis: value}, _worker_table if table is None else table)
    adio.write_report(report, path, fmt=fmt)
    return value, str(path), report.aggregate


def cmd_sweep(args) -> int:
    if args.axis not in SWEEP_AXES:
        raise UsageError(f"--axis must be one of {SWEEP_AXES}")
    raw_values = [v for v in (args.values or "").split(",") if v.strip()]
    if not raw_values:
        raise UsageError("--values needs a non-empty comma-separated list")
    values = [adio.parse_config_value(args.axis, v) for v in raw_values]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"--values gives {args.axis}={value} more than once "
                             f"({raw_values[values.index(value)]!r} and {raw_values[i]!r})")
    settings = _apply_overrides(adio.load_run_config(args.config), args)
    if "dump_forecasts" in settings:
        raise UsageError("dump_forecasts is a run setting: a sweep keeps no forecasts to "
                         "dump; remove the key or use 'adapts run'")
    forecasts = _load_table(settings)  # parsed once, for every point
    out = Path(settings.get("out", "report.json"))
    fmt = settings.get("format", "json")
    payloads = [
        (args.axis, value, settings,
         str(out.with_name(f"{out.stem}.{args.axis}_{value}{out.suffix or '.json'}")), fmt)
        for value in values
    ]
    if args.parallel and len(payloads) > 1:
        workers = min(_worker_count(), len(payloads))
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_table,
                                 initargs=(forecasts,)) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p, forecasts) for p in payloads]
    for value, path, agg in results:
        print(f"{args.axis}={value}: combined_mase={agg['combined']['mase']:.4f} -> {path}")
    table = [{"axis": args.axis, "value": v, "aggregate": agg} for v, _, agg in results]
    table_path = out.with_name(f"{out.stem}.sweep.json")
    adio.write_json(table, table_path)
    print(f"sweep table -> {table_path}")
    return 0


def cmd_bench(args) -> int:
    settings = {}
    if args.config:
        settings = adio.load_run_config(args.config)
    settings = _apply_overrides(settings, args)
    cfg = adio.build_rolling_config(settings)
    if args.updates < 1:
        raise UsageError(f"--updates must be at least 1, got {args.updates}")
    probe = OnlineForecaster(cfg.context_length, cfg.horizon, cfg.seasonality,
                             lam=cfg.lam, alpha=cfg.alpha)
    dim, out_dim = probe.design_dim, probe.core.dim_out
    m = cfg.update_period
    rng = np.random.default_rng(0)
    blocks = [(rng.normal(size=(m, dim)), rng.normal(size=(m, out_dim)))
              for _ in range(args.updates)]

    timings = {}
    states = {}
    for method in ("woodbury", "direct"):
        model = SpectralRidge(dim, out_dim, cfg.lam)
        start = time.perf_counter()
        for rows_in, rows_out in blocks:
            model.absorb(rows_in, rows_out, method=method)
        timings[method] = time.perf_counter() - start
        states[method] = model
    gaps = {name: np.linalg.norm(getattr(states["woodbury"], name) - getattr(states["direct"], name))
            / np.linalg.norm(getattr(states["direct"], name))
            for name in ("a_inv", "weight", "gram", "cross")}
    # a NaN or infinite gap fails the comparison, so it counts as a mismatch
    match = all(gap < 1e-8 for gap in gaps.values())
    print(f"design_dim={dim} block={m} updates={args.updates}")
    print(f"woodbury: {timings['woodbury']:.4f}s")
    print(f"direct:   {timings['direct']:.4f}s")
    print(f"auto path: {'woodbury' if woodbury_pays(m, dim) else 'direct'} "
          f"(block {m}, design dim {dim})")
    print(f"match={'true' if match else 'false'} "
          f"({', '.join(f'{name} rel_gap={gap:.2e}' for name, gap in gaps.items())})")
    return 0 if match else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="adapts", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, flags=_FLAGS):
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable, applied in order)")
        for key, options in flags.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, **options)

    p_run = sub.add_parser("run", help="evaluate one configuration")
    p_run.add_argument("--config", required=True)
    common(p_run, {**_FLAGS, **_RUN_FLAGS})
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run across one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the swept axis")
    p_sweep.add_argument("--parallel", action="store_true",
                         help="run sweep points in parallel processes "
                              "(ADAPTS_THREADS caps the workers)")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="time the two fit paths")
    p_bench.add_argument("--config")
    p_bench.add_argument("--updates", type=int, default=5)
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AdaptsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
