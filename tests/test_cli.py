"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from helpers import ar_seasonal_series, table_dict

from adapts import cli
from adapts import io as adio
from adapts.cli import _apply_overrides, build_parser, main
from adapts.forecaster import SpectralRidge
from adapts.io import Series, load_forecasts, read_report_json, write_series


@pytest.fixture()
def workspace(tmp_path):
    """A tiny dataset plus a matching config file."""
    data = ar_seasonal_series(seed=3, steps=700, channels=2, period=8)
    series_path = tmp_path / "data.csv"
    write_series(Series(values=data, channel_names=["a", "b"]), series_path)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"dataset = {series_path}\n"
        "context_length = 32\n"
        "horizon = 8\n"
        "update_period = 16\n"
        "seasonality = 8\n"
        "warmup = 2\n"
        f"out = {tmp_path / 'report.json'}\n"
    )
    return tmp_path, config_path


class TestRun:
    def test_successful_run_writes_report(self, workspace, capsys):
        tmp_path, config_path = workspace
        code = main(["run", "--config", str(config_path)])
        assert code == 0
        report = read_report_json(tmp_path / "report.json")
        assert set(report["per_channel"]) == {"a", "b"}
        out = capsys.readouterr().out
        assert "aggregate:" in out
        assert out.count("windows=") == 2

    def test_invalid_override_exits_one(self, workspace, capsys):
        _, config_path = workspace
        code = main(["run", "--config", str(config_path), "--set", "lambda=-1"])
        assert code == 1
        assert "InvalidConfig" in capsys.readouterr().err

    def test_unknown_set_key_exits_one(self, workspace, capsys):
        _, config_path = workspace
        code = main(["run", "--config", str(config_path), "--set", "wibble=1"])
        assert code == 1
        assert "InvalidConfig" in capsys.readouterr().err

    def test_missing_dataset_exits_two(self, workspace, capsys):
        tmp_path, config_path = workspace
        code = main(["run", "--config", str(config_path),
                     "--set", f"dataset={tmp_path / 'absent.csv'}"])
        assert code == 2
        assert "IoError" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["run"]) == 1
        assert "UsageError" in capsys.readouterr().err

    def test_set_without_equals_is_usage_error(self, workspace, capsys):
        _, config_path = workspace
        assert main(["run", "--config", str(config_path), "--set", "horizon"]) == 1
        assert "--set expects key=value, got 'horizon'" in capsys.readouterr().err

    def test_csv_format_flag(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "report.csv"
        code = main(["run", "--config", str(config_path),
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_flag_overrides_compose_after_set(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "o.json"
        code = main(["run", "--config", str(config_path),
                     "--set", "horizon=4", "--horizon", "6",
                     "--out", str(out)])
        assert code == 0
        assert read_report_json(out)["config"]["horizon"] == 6

    @pytest.mark.parametrize("key, set_raw, flag_raw, want", [
        ("weighter", "full", "slow_only", "slow_only"),
        ("alpha", "0.5", "0.7", 0.7),
        ("update_period", "16", "8", 8),
        ("horizon", "4", "6", 6),
        ("base", "historical_mean", "precomputed", "precomputed"),
        ("forecasts", "a.csv", "b.csv", "b.csv"),
        ("out", "a.json", "b.json", "b.json"),
        ("format", "json", "csv", "csv"),
        ("dump_forecasts", "a.csv", "b.csv", "b.csv"),
    ])
    def test_each_flag_beats_a_conflicting_set(self, key, set_raw, flag_raw, want):
        flag, pair = "--" + key.replace("_", "-"), f"{key}={set_raw}"
        commands = [["run", "--config", "run.cfg"], ["bench"]]
        # only run takes --dump-forecasts
        for command in commands[:1] if key == "dump_forecasts" else commands:
            parse = build_parser().parse_args
            assert _apply_overrides({}, parse([*command, "--set", pair]))[key] != want
            assert _apply_overrides({}, parse([*command, flag, flag_raw, "--set", pair]))[key] == want

    def test_historical_mean_base(self, workspace, capsys):
        tmp_path, config_path = workspace
        assert main(["run", "--config", str(config_path), "--base", "historical_mean"]) == 0
        report = read_report_json(tmp_path / "report.json")
        assert report["aggregate"]["base"]["mase"] > 0
        assert "aggregate:" in capsys.readouterr().out

    def test_unknown_base_exits_one(self, workspace, capsys):
        _, config_path = workspace
        assert main(["run", "--config", str(config_path), "--set", "base=bogus"]) == 1
        assert "InvalidConfig: unknown base forecaster kind 'bogus'" in capsys.readouterr().err

    def test_precomputed_base_without_forecasts_exits_one(self, workspace, capsys):
        _, config_path = workspace
        assert main(["run", "--config", str(config_path), "--base", "precomputed"]) == 1
        assert "base=precomputed needs a forecasts file" in capsys.readouterr().err


class TestPrecomputedRoundTrip:
    def test_dump_then_rerun_reproduces_combined(self, workspace):
        tmp_path, config_path = workspace
        dump = tmp_path / "base.csv"
        first_out = tmp_path / "first.json"
        assert main(["run", "--config", str(config_path),
                     "--dump-forecasts", str(dump), "--out", str(first_out)]) == 0
        table, horizon = load_forecasts(dump)
        assert horizon == 8
        second_out = tmp_path / "second.json"
        assert main(["run", "--config", str(config_path),
                     "--base", "precomputed", "--forecasts", str(dump),
                     "--out", str(second_out)]) == 0
        first = read_report_json(first_out)
        second = read_report_json(second_out)
        assert first["per_channel"] == second["per_channel"]
        assert first["aggregate"] == second["aggregate"]
        assert first["weights"] == second["weights"]

    def test_npz_dump_then_rerun_reproduces_report(self, workspace):
        tmp_path, config_path = workspace
        dump = tmp_path / "base.npz"
        first_out = tmp_path / "first.json"
        assert main(["run", "--config", str(config_path),
                     "--dump-forecasts", str(dump), "--out", str(first_out)]) == 0
        second_out = tmp_path / "second.json"
        assert main(["run", "--config", str(config_path),
                     "--base", "precomputed", "--forecasts", str(dump),
                     "--out", str(second_out)]) == 0
        first = read_report_json(first_out)
        second = read_report_json(second_out)
        for key in ("per_channel", "aggregate", "weights"):
            assert first[key] == second[key]

    def test_csv_and_npz_dumps_load_identical_tables(self, workspace):
        tmp_path, config_path = workspace
        for name in ("base.csv", "base.npz"):
            assert main(["run", "--config", str(config_path),
                         "--dump-forecasts", str(tmp_path / name)]) == 0
        (from_csv, h_csv), (from_npz, h_npz) = (load_forecasts(tmp_path / name)
                                                for name in ("base.csv", "base.npz"))
        assert h_csv == h_npz == 8
        assert list(table_dict(from_npz)) == list(table_dict(from_csv))
        assert from_npz.block.tobytes() == np.ascontiguousarray(from_csv.block).tobytes()
        with np.load(tmp_path / "base.npz", allow_pickle=False) as data:
            assert {k: data[k].dtype.kind for k in data.files} == \
                {"t": "i", "channel": "U", "h": "f"}

    def test_horizon_mismatch_rejected(self, workspace, capsys):
        tmp_path, config_path = workspace
        dump = tmp_path / "base.csv"
        assert main(["run", "--config", str(config_path),
                     "--dump-forecasts", str(dump)]) == 0
        code = main(["run", "--config", str(config_path), "--horizon", "6",
                     "--base", "precomputed", "--forecasts", str(dump)])
        assert code == 1
        assert "InvalidConfig" in capsys.readouterr().err


class TestSweep:
    def test_alpha_sweep_writes_reports_and_table(self, workspace, capsys):
        tmp_path, config_path = workspace
        code = main(["sweep", "--config", str(config_path),
                     "--axis", "alpha", "--values", "1.0,0.9,0.5"])
        assert code == 0
        for value in ("1.0", "0.9", "0.5"):
            assert (tmp_path / f"report.alpha_{value}.json").exists()
        table = json.loads((tmp_path / "report.sweep.json").read_text())
        assert [row["value"] for row in table] == [1.0, 0.9, 0.5]
        # heavier filtering should not help on this smooth synthetic
        by_value = {row["value"]: row["aggregate"]["combined"]["mase"] for row in table}
        assert by_value[1.0] <= by_value[0.5] + 0.05

    def test_single_value_sweep_matches_run(self, workspace):
        tmp_path, config_path = workspace
        assert main(["sweep", "--config", str(config_path),
                     "--axis", "horizon", "--values", "8"]) == 0
        sweep_report = read_report_json(tmp_path / "report.horizon_8.json")
        assert main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / "plain.json")]) == 0
        plain = read_report_json(tmp_path / "plain.json")
        assert sweep_report["aggregate"] == plain["aggregate"]
        assert sweep_report["per_channel"] == plain["per_channel"]

    def test_empty_values_is_usage_error(self, workspace, capsys):
        _, config_path = workspace
        assert main(["sweep", "--config", str(config_path),
                     "--axis", "alpha", "--values", ","]) == 1
        assert "UsageError" in capsys.readouterr().err

    def test_bad_axis_is_usage_error(self, workspace, capsys):
        _, config_path = workspace
        assert main(["sweep", "--config", str(config_path),
                     "--axis", "lambda", "--values", "1,2"]) == 1

    @pytest.mark.parametrize("values, raws", [("1.0,0.9,1", "'1.0' and '1'"),
                                              ("0.5,0.5", "'0.5' and '0.5'")])
    def test_repeated_value_is_usage_error(self, workspace, capsys, values, raws):
        tmp_path, config_path = workspace
        assert main(["sweep", "--config", str(config_path),
                     "--axis", "alpha", "--values", values]) == 1
        assert f"UsageError: --values gives alpha={values.split(',')[0]} more than once " \
            f"({raws})" in capsys.readouterr().err
        assert not list(tmp_path.glob("report.*"))

    def test_parallel_sweep_matches_sequential(self, workspace, monkeypatch):
        tmp_path, config_path = workspace
        monkeypatch.setenv("ADAPTS_THREADS", "2")
        assert main(["sweep", "--config", str(config_path),
                     "--axis", "alpha", "--values", "1.0,0.8"]) == 0
        sequential = json.loads((tmp_path / "report.sweep.json").read_text())
        assert main(["sweep", "--config", str(config_path), "--parallel",
                     "--axis", "alpha", "--values", "1.0,0.8"]) == 0
        parallel = json.loads((tmp_path / "report.sweep.json").read_text())
        assert sequential == parallel


class TestKeptForecasts:
    """A run keeps every step's forecasts only to dump them."""

    @pytest.fixture()
    def kept(self, monkeypatch):
        seen = []
        run = cli.run

        def recording(*args, keep_forecasts=False, **kwargs):
            seen.append(keep_forecasts)
            return run(*args, keep_forecasts=keep_forecasts, **kwargs)

        monkeypatch.setattr(cli, "run", recording)
        return seen

    def test_run_keeps_forecasts_only_with_a_dump(self, workspace, kept):
        tmp_path, config_path = workspace
        assert main(["run", "--config", str(config_path)]) == 0
        assert main(["run", "--config", str(config_path),
                     "--dump-forecasts", str(tmp_path / "base.npz")]) == 0
        assert kept == [False, True]

    def test_sweep_points_stay_bounded(self, workspace, kept, capsys):
        tmp_path, config_path = workspace
        assert main(["sweep", "--config", str(config_path), "--axis", "alpha",
                     "--values", "1.0,0.9", "--dump-forecasts", str(tmp_path / "base.npz")]) == 1
        assert "unrecognized arguments: --dump-forecasts" in capsys.readouterr().err
        assert kept == []
        assert main(["sweep", "--config", str(config_path), "--axis", "alpha",
                     "--values", "1.0,0.9"]) == 0
        assert kept == [False, False]

    def test_bench_takes_no_dump_flag(self, tmp_path, capsys):
        assert main(["bench", "--set", "context_length=64", "--set", "horizon=8",
                     "--dump-forecasts", str(tmp_path / "base.npz")]) == 1
        assert "unrecognized arguments: --dump-forecasts" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "set"])
    def test_sweep_refuses_a_dump_setting_before_any_point(self, workspace, kept, capsys,
                                                           source):
        tmp_path, config_path = workspace
        dump, extra = tmp_path / "base.npz", []
        if source == "config":
            with config_path.open("a") as fh:
                fh.write(f"dump_forecasts = {dump}\n")
        else:
            extra = ["--set", f"dump_forecasts={dump}"]
        assert main(["sweep", "--config", str(config_path), "--axis", "alpha",
                     "--values", "1.0,0.9", *extra]) == 1
        assert "UsageError: dump_forecasts is a run setting" in capsys.readouterr().err
        assert kept == []
        assert not dump.exists() and not list(tmp_path.glob("report.*"))


class TestSweepSharesForecasts:
    @pytest.fixture()
    def precomputed(self, workspace):
        tmp_path, config_path = workspace
        dump = tmp_path / "base.npz"
        assert main(["run", "--config", str(config_path), "--dump-forecasts", str(dump)]) == 0
        with config_path.open("a") as fh:
            fh.write(f"base = precomputed\nforecasts = {dump}\n")
        return tmp_path, config_path, dump

    @pytest.mark.parametrize("parallel", [False, True])
    def test_forecast_file_parsed_once(self, precomputed, monkeypatch, parallel):
        tmp_path, config_path, dump = precomputed
        calls = []

        def load_then_hide(path):
            # a second parse, here or in a worker, finds no file
            calls.append(path)
            loaded = load_forecasts(path)
            dump.rename(dump.with_suffix(".hidden"))
            return loaded

        monkeypatch.setattr(adio, "load_forecasts", load_then_hide)
        monkeypatch.setenv("ADAPTS_THREADS", "2")
        values = ["1.0", "0.9", "0.5"]
        assert main(["sweep", "--config", str(config_path), "--axis", "alpha",
                     "--values", ",".join(values)] + ["--parallel"] * parallel) == 0
        assert len(calls) == 1
        dump.with_suffix(".hidden").rename(dump)
        monkeypatch.undo()
        for value in values:
            single = tmp_path / f"single_{value}.json"
            assert main(["run", "--config", str(config_path), "--alpha", value,
                         "--out", str(single)]) == 0
            assert (tmp_path / f"report.alpha_{value}.json").read_bytes() == single.read_bytes()

    def test_parallel_sweep_sends_the_table_once_per_worker(self, precomputed, monkeypatch):
        tmp_path, config_path, _ = precomputed
        pickled = []

        def counted(table, protocol):
            pickled.append(protocol)
            return object.__reduce_ex__(table, protocol)

        monkeypatch.setattr(adio.ForecastTable, "__reduce_ex__", counted, raising=False)
        monkeypatch.setenv("ADAPTS_THREADS", "2")
        values = "1.0,0.9,0.5"
        assert main(["sweep", "--config", str(config_path), "--parallel",
                     "--axis", "alpha", "--values", values]) == 0
        assert len(pickled) <= 2
        parallel = (tmp_path / "report.sweep.json").read_bytes()
        monkeypatch.undo()
        assert main(["sweep", "--config", str(config_path),
                     "--axis", "alpha", "--values", values]) == 0
        assert (tmp_path / "report.sweep.json").read_bytes() == parallel


class TestBench:
    def test_bench_reports_match(self, capsys):
        code = main(["bench", "--set", "context_length=64", "--set", "horizon=8",
                     "--set", "seasonality=8", "--update-period", "20",
                     "--updates", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "woodbury:" in out and "direct:" in out
        # block 20 at design dim 59 is past the switch point d // 3
        assert "auto path: direct (block 20, design dim 59)" in out
        assert "match=true" in out and "weight rel_gap=" in out

    def test_bench_notes_direct_path_for_large_blocks(self, capsys):
        code = main(["bench", "--set", "context_length=16", "--set", "horizon=4",
                     "--set", "seasonality=4", "--update-period", "64",
                     "--updates", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "auto path: direct" in out
        assert "match=true" in out

    def test_bench_names_the_woodbury_path_for_small_blocks(self, capsys):
        code = main(["bench", "--set", "context_length=64", "--set", "horizon=8",
                     "--set", "seasonality=8", "--update-period", "8",
                     "--updates", "3"])
        assert code == 0
        assert "auto path: woodbury (block 8, design dim 59)" in capsys.readouterr().out

    @pytest.mark.parametrize("updates", ["0", "-2"])
    def test_bench_rejects_fewer_than_one_update(self, updates, capsys):
        # with no update both models are untrained and every gap is 0/0
        assert main(["bench", "--updates", updates]) == 1
        assert "--updates must be at least 1" in capsys.readouterr().err

    def test_bench_counts_a_non_finite_gap_as_a_mismatch(self, monkeypatch, capsys):
        absorb = SpectralRidge.absorb

        def nan_after_direct(model, rows_in, rows_out, method="auto"):
            absorb(model, rows_in, rows_out, method)
            if method == "direct":
                model.weight[0, 0] = np.nan

        monkeypatch.setattr(SpectralRidge, "absorb", nan_after_direct)
        code = main(["bench", "--set", "context_length=16", "--set", "horizon=4",
                     "--set", "seasonality=4", "--update-period", "4", "--updates", "2"])
        out = capsys.readouterr().out
        # the weight gap, the NaN, comes after a finite a_inv gap
        assert "a_inv rel_gap=" in out and "weight rel_gap=nan" in out
        assert code == 3 and "match=false" in out
