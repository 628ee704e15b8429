"""Tests for ingestion, planning, configuration, and the backtest pipeline."""

import csv
import dataclasses
import filecmp
import hashlib
import importlib
import importlib.util
import json
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import backtest_config, write_level_panel
from quantsynth import cli, pipeline
from quantsynth.config import (
    config_from_dict,
    config_hash,
    config_to_dict,
    dump_config,
    load_config,
)
from quantsynth.pipeline import (
    SeriesRecord,
    _normalized_config_hash,
    audit_lookahead,
    build_design,
    emit_plots_data,
    ingest,
    make_plan,
    read_forecasts,
    run_backtest,
    run_stages,
    task_stream,
    write_panel,
)
from quantsynth.quarters import (
    format_time,
    int_to_quarter,
    is_quarter_label,
    parse_time,
    quarter_to_int,
)

STAGE_FILES = ("agent_forecasts.csv", "forecasts.csv", "scores.csv", "ratios.csv", "pit.csv")
PLOT_FILES = tuple(
    f"plots/{name}" for name in ("rcs_curve.csv", "fan.csv", "pit_ecdf.csv", "correlation.csv")
)

# SHA-256 of the ``mini_run`` artifacts.  Any change to these bytes is a change
# of behaviour and must be made on purpose, with the pins updated beside it.
GOLDEN_SHA256 = {
    "agent_forecasts.csv": "84dd5f3b8c2905120a802a1b0c536a9d86bfa32276952610a6f5db8654d935d3",
    "forecasts.csv": "3d6b60ee705a8629d8fb7d09503c88aa16471a95a3ae16c0794b5adc05560b7c",
    "scores.csv": "577155e0ccf787c0128f59658bf9b82794585081e1d2ff25133165bc827082c1",
    "ratios.csv": "f1cfb9600c5ac79fc6060d7c2a0f1c603f59cfdae006726aff5a9a2220ee58b1",
    "pit.csv": "088ce76202ee44ecc8840e3f87a4d8f2f5f4993093c5446cd3407aac566b2e24",
    "plots/rcs_curve.csv": "e145913f494a7fd01edd6d2d50c73e69b95ff7bed93d76065d8b53d9373f123c",
}
# SHA-256 of the factor backtest in ``test_staged_factor_cli_matches_factor_backtest``:
# the only pins on the vector FFBS and the gamma-beta precision sampler.
FACTOR_SHA256 = {
    "forecasts.csv": "4c41a2cfd82e0228ef969bc9e5a0990004d0812a2eb722f2763c34692b0975b3",
    "joint_draws.csv": "8b18182d4f68ee3bd5a8920cf0c3ca2d7430f2bf8eb46d3acc7cd456b057ae76",
}
# SHA-256 of ``reconstruct`` run on the ``mini_run`` forecasts.
RECONSTRUCT_SHA256 = "34bf0bb741da2fa3b3ef3cfb078ddff3f7837163aea6d1fdb7adc5be6a972c76"


class TestQuarters:
    def test_label_arithmetic(self):
        assert quarter_to_int("1998Q1") == 1998 * 4
        assert quarter_to_int("1998Q4") - quarter_to_int("1998Q1") == 3
        assert quarter_to_int("1999Q1") - quarter_to_int("1998Q4") == 1
        for t in range(7900, 7940):
            assert quarter_to_int(int_to_quarter(t)) == t

    def test_parse_and_format(self):
        assert parse_time("1990Q3") == 1990 * 4 + 2
        assert parse_time(" 12 ") == 12
        assert parse_time(12) == 12
        assert format_time(12, quarterly=False) == "12"
        assert format_time(quarter_to_int("2001Q2"), quarterly=True) == "2001Q2"
        with pytest.raises(ValueError, match="neither an integer nor"):
            parse_time("199X")
        with pytest.raises(ValueError, match="quarter label"):
            quarter_to_int("1990Q5")

    def test_quarter_label_predicate(self):
        for cell in ("1990Q3", " 2001Q1 ", "7Q4"):
            assert is_quarter_label(cell), cell
        for cell in ("12", " 12 ", "1990Q5", "1990q3", "1990-Q3", "", None, 1990):
            assert not is_quarter_label(cell), cell


def _write_levels(path, rows, header=("series", "time", "Y")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestIngest:
    def test_log_growth_transform(self, tmp_path):
        p = tmp_path / "levels.csv"
        levels = [100.0, 102.0, 103.0, 101.5]
        _write_levels(p, [("a", f"1990Q{q + 1}", lv) for q, lv in enumerate(levels)])
        panel = ingest(p, h=1)
        rec = panel.record("a")
        assert panel.quarterly and panel.h == 1
        np.testing.assert_array_equal(rec.times, quarter_to_int("1990Q2") + np.arange(3))
        expect = 400.0 * np.diff(np.log(levels))
        np.testing.assert_allclose(rec.y, expect, atol=1e-12)

    def test_two_quarter_horizon(self, tmp_path):
        p = tmp_path / "levels.csv"
        levels = [100.0, 102.0, 103.0, 101.5, 104.0]
        _write_levels(p, [("a", str(t), lv) for t, lv in enumerate(levels)])
        panel = ingest(p, h=2)
        rec = panel.record("a")
        assert not panel.quarterly
        np.testing.assert_array_equal(rec.times, [2, 3, 4])
        lv = np.asarray(levels)
        expect = 400.0 * (np.log(lv[2:]) - np.log(lv[:-2])) / 2.0
        np.testing.assert_allclose(rec.y, expect, atol=1e-12)

    def test_predictor_columns_pass_through(self, tmp_path):
        p = tmp_path / "levels.csv"
        z = [0.5, -0.25, 1.5, 2.0]
        rows = [("a", str(t), 100.0 * (1.01**t), z[t]) for t in range(4)]
        _write_levels(p, rows, header=("series", "time", "Y", "z"))
        rec = ingest(p, h=1).record("a")
        np.testing.assert_array_equal(rec.predictors["z"], z[1:])

    def test_errors(self, tmp_path):
        p = tmp_path / "levels.csv"
        _write_levels(p, [("a", "0", 1.0)], header=("time", "series", "Y"))
        with pytest.raises(ValueError, match="header must start with"):
            ingest(p, h=1)
        _write_levels(p, [])
        with pytest.raises(ValueError, match="no data rows"):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0), ("a", "1", -2.0)])
        with pytest.raises(ValueError, match="nonpositive level"):
            ingest(p, h=1)
        _write_levels(p, [("a", "1990Q1", 1.0), ("a", "7", 2.0)])
        with pytest.raises(ValueError, match="mixed quarter-label and integer"):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0), ("a", "2", 2.0)])
        with pytest.raises(ValueError, match="gap between 0 and 2"):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0), ("a", "0", 2.0)])
        with pytest.raises(ValueError, match="not strictly increasing"):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0)])
        with pytest.raises(ValueError, match="needs more than h=1"):
            ingest(p, h=1)
        _write_levels(p, [("", "0", 1.0)])
        with pytest.raises(ValueError, match="empty series id"):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", "abc")])
        with pytest.raises(ValueError, match="not a number"):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0, "x")], header=("series", "time", "Y", "z"))
        with pytest.raises(ValueError, match="predictor z="):
            ingest(p, h=1)
        with pytest.raises(ValueError, match="h must be >= 1"):
            ingest(p, h=0)

    def test_write_panel_round_trip(self, tmp_path):
        src = tmp_path / "levels.csv"
        write_level_panel(src)
        panel = ingest(src, h=1)
        out = tmp_path / "panel.csv"
        write_panel(panel, out)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        n_expected = sum(panel.record(s).times.size for s in panel.series_ids)
        assert len(rows) == n_expected
        rec = panel.record(rows[0]["series"])
        assert float(rows[0]["y"]) == rec.y[0]
        assert rows[0]["time"] == panel.time_label(rec.times[0])


class TestBuildDesign:
    def _record(self):
        times = np.arange(10)
        y = times.astype(float) * 1.0
        z = 10.0 + times.astype(float)
        return SeriesRecord(series="a", times=times, y=y, predictors={"z": z})

    def test_lagged_response_design(self):
        rec = self._record()
        fit_times = np.arange(5, 9)
        y, X, x_next, max_input = build_design(rec, fit_times, ("y_lag",), lag=1, target=9)
        np.testing.assert_array_equal(y, [5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(X[:, 0], np.ones(4))
        np.testing.assert_array_equal(X[:, 1], [4.0, 5.0, 6.0, 7.0])
        np.testing.assert_array_equal(x_next, [1.0, 8.0])
        assert max_input == 8 and max_input <= 9 - 1

    def test_named_predictor_with_longer_lag(self):
        rec = self._record()
        y, X, x_next, max_input = build_design(
            rec, np.arange(5, 9), ("y_lag", "z"), lag=2, target=9
        )
        np.testing.assert_array_equal(X[:, 2], 10.0 + np.arange(3, 7))
        assert x_next[2] == 10.0 + 7.0
        # z at target-2 = 7 and realized y through 8: nothing past target-1
        assert max_input == 8

    def test_intercept_only(self):
        rec = self._record()
        y, X, x_next, max_input = build_design(rec, np.arange(5, 9), (), lag=1, target=9)
        assert X.shape == (4, 1) and x_next.shape == (1,)
        assert max_input == 8

    def test_errors(self):
        rec = self._record()
        with pytest.raises(ValueError, match="empty training window"):
            build_design(rec, np.array([], dtype=int), ("y_lag",), lag=1, target=9)
        with pytest.raises(KeyError, match="no observation at time -1"):
            build_design(rec, np.arange(0, 5), ("y_lag",), lag=1, target=5)


class TestTaskStream:
    def test_keyed_by_labels_not_call_order(self):
        a1 = task_stream(7, "agents", 0.5, "s1", 12).uniform(size=5)
        a2 = task_stream(7, "agents", 0.5, "s1", 12).uniform(size=5)
        np.testing.assert_array_equal(a1, a2)

    def test_sensitive_to_every_label_and_seed(self):
        base = task_stream(7, "agents", 0.5, "s1", 12).uniform(size=5)
        variants = [
            task_stream(8, "agents", 0.5, "s1", 12),
            task_stream(7, "synth", 0.5, "s1", 12),
            task_stream(7, "agents", 0.25, "s1", 12),
            task_stream(7, "agents", 0.5, "s2", 12),
            task_stream(7, "agents", 0.5, "s1", 13),
            task_stream(7, "agents", "0.5s1", 12),  # joined labels must not collide
        ]
        for rng in variants:
            assert not np.array_equal(base, rng.uniform(size=5))


def _config_dict(panel_csv):
    return {
        "data": {"panel_csv": str(panel_csv), "h": 1},
        "plan": {
            "agent_fit_start": "1991Q1",
            "agent_forecast_start": "1996Q1",
            "synth_fit_start": "1996Q1",
            "synth_forecast_start": "1997Q1",
            "end": "1997Q4",
            "taus": [0.25, 0.75],
            "seed": 11,
        },
        "agents": [
            {"name": "base", "predictors": ["y_lag"], "draws": 120, "burn": 60},
            {"name": "zlag", "predictors": ["y_lag", "z"], "draws": 120, "burn": 60},
        ],
        "synthesis": {"draws": 200, "burn": 100},
    }


class TestConfig:
    def test_round_trip_and_hash(self, tmp_path):
        cfg = config_from_dict(_config_dict("levels.csv"))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)
        bumped = config_from_dict({**_config_dict("levels.csv"), "workers": 3})
        assert config_hash(bumped) != config_hash(cfg)

    def test_yaml_round_trip(self, tmp_path):
        cfg = config_from_dict(_config_dict("levels.csv"))
        path = tmp_path / "run.yaml"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    def test_normalized_hash_ignores_execution_settings(self):
        d = _config_dict("levels.csv")
        cfg1 = config_from_dict(d)
        cfg2 = config_from_dict({**d, "workers": 8, "out_dir": "elsewhere"})
        assert config_hash(cfg1) != config_hash(cfg2)
        assert _normalized_config_hash(cfg1) == _normalized_config_hash(cfg2)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown top-level section"):
            config_from_dict({"plans": {}})
        d = _config_dict("levels.csv")
        d["plan"]["tuas"] = [0.5]
        with pytest.raises(ValueError, match="unknown key.*plan"):
            config_from_dict(d)
        d = _config_dict("levels.csv")
        d["agents"][0]["window"] = 4
        with pytest.raises(ValueError, match="agents\\[0\\]"):
            config_from_dict(d)

    def test_section_validation(self):
        with pytest.raises(ValueError, match="predictor_lag"):
            config_from_dict({"data": {"predictor_lag": 0}})
        with pytest.raises(ValueError, match="strictly increasing"):
            config_from_dict({"plan": {"taus": [0.5, 0.5]}})
        with pytest.raises(ValueError, match="inside"):
            config_from_dict({"plan": {"taus": [0.0, 0.5]}})
        with pytest.raises(ValueError, match="unknown weight scheme"):
            config_from_dict({"evaluation": {"schemes": ["none", "center"]}})
        with pytest.raises(ValueError, match="at least 50 retained"):
            config_from_dict({"agents": [{"name": "a", "draws": 10}]})
        with pytest.raises(ValueError, match="unique"):
            config_from_dict({"agents": [{"name": "a"}, {"name": "a"}]})
        with pytest.raises(ValueError, match="workers"):
            config_from_dict({"workers": 0})

    def test_reference_model_defaults_to_first_agent(self):
        cfg = config_from_dict(_config_dict("levels.csv"))
        assert cfg.reference_model == "base"
        d = _config_dict("levels.csv")
        d["evaluation"] = {"reference": "zlag"}
        assert config_from_dict(d).reference_model == "zlag"
        assert cfg.synth_model_name == "drqs"


class TestPlan:
    @pytest.fixture()
    def panel(self, tmp_path):
        src = tmp_path / "levels.csv"
        write_level_panel(src)
        return src, ingest(src, h=1)

    def test_window_layout(self, panel):
        src, pan = panel
        cfg = config_from_dict(_config_dict(src))
        plan = make_plan(cfg, pan)
        assert plan.agent_targets[0] == quarter_to_int("1996Q1")
        assert plan.agent_targets[-1] == quarter_to_int("1997Q4")
        assert plan.synth_targets.size == 4
        tgt = int(plan.synth_targets[0])
        np.testing.assert_array_equal(
            plan.agent_fit_times(tgt), np.arange(quarter_to_int("1991Q1"), tgt)
        )
        np.testing.assert_array_equal(
            plan.synth_fit_times(tgt), np.arange(quarter_to_int("1996Q1"), tgt)
        )
        assert plan.time_label(tgt) == "1997Q1"

    def test_ordering_violation_names_both_dates(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["agent_fit_start"] = "1996Q2"
        with pytest.raises(ValueError, match="1996Q2 must precede agent_forecast_start 1996Q1"):
            make_plan(config_from_dict(d), pan)
        d = _config_dict(src)
        d["plan"]["synth_fit_start"] = "1995Q1"
        with pytest.raises(ValueError, match="1995Q1 precedes agent_forecast_start 1996Q1"):
            make_plan(config_from_dict(d), pan)

    def test_agent_window_shorter_than_design(self, panel):
        # base has p=2 columns (intercept, y_lag), zlag p=3 (intercept, y_lag, z).
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["agent_fit_start"] = "1995Q4"
        with pytest.raises(ValueError) as exc:
            make_plan(config_from_dict(d), pan)
        msg = str(exc.value)
        assert "agent base: the first window 1995Q4..1995Q4 has 1 observation(s) but the design has p=2" in msg
        assert "agent zlag: the first window 1995Q4..1995Q4 has 1 observation(s) but the design has p=3" in msg
        d["plan"]["agent_fit_start"] = "1995Q3"
        with pytest.raises(ValueError) as exc:
            make_plan(config_from_dict(d), pan)
        assert "agent zlag:" in str(exc.value) and "agent base:" not in str(exc.value)
        d["plan"]["agent_fit_start"] = "1995Q2"
        make_plan(config_from_dict(d), pan)

    def test_missing_pieces_reported_together(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["end"] = ""
        d["agents"] = []
        with pytest.raises(ValueError) as exc:
            make_plan(config_from_dict(d), pan)
        msg = str(exc.value)
        assert "plan.end is required" in msg and "at least one agent" in msg

    def test_data_coverage_checks(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["agent_fit_start"] = "1985Q1"
        with pytest.raises(ValueError, match="starts at .* but the plan needs data from 1984Q4"):
            make_plan(config_from_dict(d), pan)
        d = _config_dict(src)
        d["plan"]["end"] = "2012Q4"
        with pytest.raises(ValueError, match="ends at .* before plan end 2012Q4"):
            make_plan(config_from_dict(d), pan)
        d = _config_dict(src)
        d["agents"][1]["predictors"] = ["y_lag", "vix"]
        with pytest.raises(ValueError, match="agent zlag: predictor 'vix' missing"):
            make_plan(config_from_dict(d), pan)

    def test_factor_settings(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["factor"] = True
        plan = make_plan(config_from_dict(d), pan)
        assert [c.L for c in plan.synth_configs.values()] == [2, 2]  # min(5, N-1) with N=3
        d["factor"] = {"L": 3}
        with pytest.raises(ValueError, match="smaller than the number of series"):
            make_plan(config_from_dict(d), pan)
        only = {k: v for k, v in pan.records.items() if k == pan.series_ids[0]}
        one = dataclasses.replace(pan, records=only)
        d["factor"] = {"L": None}
        with pytest.raises(ValueError, match="at least 2 series"):
            make_plan(config_from_dict(d), one)


    def test_sampler_settings_resolved_per_level(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["agents"][1]["delta"] = 0.8
        d["synthesis"].update(delta=0.7, beta=0.6)
        plan = make_plan(config_from_dict(d), pan)
        assert list(plan.agent_specs) == list(plan.synth_configs) == [0.25, 0.75]
        for tau in plan.taus:
            specs, syn = plan.agent_specs[tau], plan.synth_configs[tau]
            assert [(name, s.tau, s.delta) for name, s in specs.items()] == [
                ("base", tau, 0.95), ("zlag", tau, 0.8)
            ]
            assert (syn.tau, syn.J, syn.disc.delta, syn.disc.beta) == (tau, 2, 0.7, 0.6)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One small three-series backtest, run monolithically with one worker.

    Four quantile levels are the minimum the evaluate stage accepts, since
    PIT reconstruction fits both tails.
    """
    root = tmp_path_factory.mktemp("mini")
    panel_csv = root / "levels.csv"
    write_level_panel(panel_csv)
    cfg = backtest_config(panel_csv, root / "out", seed=11)
    manifest = run_backtest(cfg)
    return cfg, root, manifest


class TestBacktest:
    def test_manifest_records_completion(self, mini_run):
        cfg, root, manifest = mini_run
        assert manifest.complete and manifest.failed_job is None
        for name in STAGE_FILES:
            assert name in manifest.outputs and (root / "out" / name).exists()
        data = json.loads((root / "out" / "manifest.json").read_text())
        assert data["config_hash"] == _normalized_config_hash(cfg)
        assert data["complete"] is True
        assert data["seed"] == 11
        assert "numpy" in data["versions"]

    def test_forecast_rows_cover_grid(self, mini_run):
        cfg, root, _ = mini_run
        rows = read_forecasts(root / "out" / "forecasts.csv")
        assert len(rows) == 3 * 4 * 4  # series x synth targets x taus
        t0 = quarter_to_int("1997Q1")
        for series, t, tau, point, lo, hi, n in rows:
            assert t0 <= t <= quarter_to_int("1997Q4")
            assert tau in (0.1, 0.35, 0.65, 0.9)
            assert lo < hi and n == 200

    def test_scores_cover_models_and_schemes(self, mini_run):
        cfg, root, _ = mini_run
        with open(root / "out" / "scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4 * 3 * 3  # series x times x models x schemes
        assert {r["model"] for r in rows} == {"base", "zlag", "drqs"}
        assert {r["scheme"] for r in rows} == {"none", "right", "left"}
        assert all(float(r["crps"]) >= 0.0 for r in rows)

    def test_reference_model_ratio_is_one(self, mini_run):
        cfg, root, _ = mini_run
        with open(root / "out" / "ratios.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3 * 4  # models x schemes x t_stars
        ref_rows = [r for r in rows if r["model"] == cfg.reference_model]
        assert len(ref_rows) == 12
        assert all(float(r["rcs"]) == 1.0 for r in ref_rows)

    def test_pit_values_are_probabilities(self, mini_run):
        cfg, root, _ = mini_run
        with open(root / "out" / "pit.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4 * 3  # models x series x times
        assert all(0.0 <= float(r["pit"]) <= 1.0 for r in rows)

    def test_plot_data_written(self, mini_run):
        cfg, root, _ = mini_run
        plots = root / "out" / "plots"
        for name in ("rcs_curve.csv", "fan.csv", "pit_ecdf.csv", "correlation.csv"):
            assert (plots / name).exists()
        with open(plots / "rcs_curve.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3 * 3 * 4  # models x schemes x series x t_stars
        # univariate run writes no joint draws, so correlations stay empty
        with open(plots / "correlation.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.DictReader(fh)) == []

    def test_rerun_is_byte_identical(self, mini_run):
        cfg, root, _ = mini_run
        cfg2 = dataclasses.replace(cfg, out_dir=str(root / "out_rerun"))
        run_backtest(cfg2)
        for name in STAGE_FILES:
            assert filecmp.cmp(root / "out" / name, root / "out_rerun" / name, shallow=False), name

    def test_staged_cli_matches_monolithic_run(self, mini_run, capsys):
        cfg, root, _ = mini_run
        staged = root / "out_staged"
        cfg_path = root / "staged.yaml"
        dump_config(cfg, cfg_path)
        base_args = ["--config", str(cfg_path), "--out-dir", str(staged)]

        assert cli.main(["evaluate", *base_args]) == 1  # stages out of order
        err = capsys.readouterr().err
        assert "run the earlier stages first" in err
        assert not (staged / "manifest.json").exists()

        assert cli.main(["ingest", *base_args]) == 0
        expected_outputs = {
            "fit-agents": ["agent_forecasts.csv"],
            "synth": ["forecasts.csv"],
            "evaluate": sorted(["scores.csv", "ratios.csv", "pit.csv", *PLOT_FILES]),
        }
        for command, outputs in expected_outputs.items():
            assert cli.main([command, *base_args]) == 0
            manifest = json.loads((staged / "manifest.json").read_text())
            assert manifest["complete"] and manifest["outputs"] == outputs, command
        out = capsys.readouterr().out
        assert "wrote" in out
        for name in STAGE_FILES:
            assert filecmp.cmp(root / "out" / name, staged / name, shallow=False), name

    def test_evaluate_needs_four_levels_before_any_stage(self, tmp_path, capsys):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, agents=tuple(dataclasses.replace(a, draws=50, burn=0) for a in cfg.agents)
        )
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        for command in ("backtest", "evaluate", "reconstruct"):
            assert cli.main([command, "--config", str(cfg_path), "--tau", "0.5"]) == 1
            assert "at least 4 quantile levels" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        few = dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, taus=(0.1, 0.5, 0.9)))
        with pytest.raises(pipeline.RunRefusedError, match="got 3"):
            run_backtest(few)
        assert not (tmp_path / "out").exists()
        # The stages before evaluate need no minimum.
        assert cli.main(["fit-agents", "--config", str(cfg_path), "--tau", "0.5"]) == 0
        capsys.readouterr()

    def test_unknown_reference_refused_before_any_stage(self, tmp_path, capsys):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, evaluation=dataclasses.replace(cfg.evaluation, reference="nosuch")
        )
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        for command in ("backtest", "evaluate"):
            assert cli.main([command, "--config", str(cfg_path)]) == 1
            assert "reference model 'nosuch' is not one of" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_bad_hyperparameters_refused_before_any_stage(self, tmp_path, capsys):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        replace = dataclasses.replace
        cases = (
            (replace(cfg, synthesis=replace(cfg.synthesis, delta=1.5)),
             "synthesis: delta must lie in (0, 1], got 1.5"),
            (replace(cfg, plan=replace(cfg.plan, factor=True), factor=replace(cfg.factor, nu=0.0)),
             "factor: nu entries must be positive"),
            (replace(cfg, agents=(replace(cfg.agents[0], delta=0.0), *cfg.agents[1:])),
             "agent base: delta must lie in (0, 1], got 0.0"),
        )
        cfg_path = tmp_path / "run.yaml"
        for bad, message in cases:
            with pytest.raises(pipeline.RunRefusedError, match=re.escape(message)):
                run_backtest(bad)
            dump_config(bad, cfg_path)
            assert cli.main(["backtest", "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid plan:") and message in err
            assert not (tmp_path / "out").exists()

    def test_job_error_names_the_failing_fit(self, tmp_path, monkeypatch):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        fit_dqlm, calls = pipeline.fit_dqlm, []

        def failing_fourth_fit(*args, **kwargs):
            # An agent window fits series-major: alpha/base, alpha/zlag, beta/base, beta/zlag, ...
            calls.append(None)
            if len(calls) == 4:
                raise FloatingPointError("planted failure")
            return fit_dqlm(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_dqlm", failing_fourth_fit)
        with pytest.raises(pipeline.JobError) as info:
            run_stages(cfg, ["agents"], workers=1)
        err = info.value
        assert (err.stage, err.series, err.agent) == ("agents", "beta", "zlag")
        assert str(err) == (
            "agents stage failed at tau=0.1, window=1996Q1, series=beta, agent=zlag: planted failure"
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert not manifest["complete"]
        assert manifest["failed_job"] == {
            "stage": "agents", "tau": 0.1, "window": "1996Q1", "series": "beta", "agent": "zlag",
            "error": "planted failure",
        }

    def test_job_error_names_the_failing_fit_from_a_worker(self, tmp_path):
        # A prior rate this large overflows the zlag agent's first sweep in every job.
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, agents=(cfg.agents[0], dataclasses.replace(cfg.agents[1], sigma_rate=1e308))
        )
        with pytest.raises(pipeline.JobError) as info:
            run_stages(cfg, ["agents"], workers=2)
        assert (info.value.series, info.value.agent) == ("alpha", "zlag")
        failed = json.loads((tmp_path / "out" / "manifest.json").read_text())["failed_job"]
        assert (failed["series"], failed["agent"]) == ("alpha", "zlag")

    def test_synth_commands_must_match_plan_factor(self, tmp_path, capsys):
        for command, factor in (("synth-factor", False), ("synth", True)):
            cfg = backtest_config(tmp_path / "levels.csv", tmp_path / command)
            cfg = dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, factor=factor))
            cfg_path = tmp_path / f"{command}.yaml"
            dump_config(cfg, cfg_path)
            assert cli.main([command, "--config", str(cfg_path)]) == 1
            assert "plan.factor" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    def test_runner_calls_module_attributes(self, mini_run, tmp_path, monkeypatch):
        """A wrapper installed on a pipeline function is the one the runner calls."""
        cfg, root, _ = mini_run
        for name in ("agent_forecasts.csv", "forecasts.csv"):
            shutil.copy(root / "out" / name, tmp_path / name)
        calls = []
        for attr in ("read_forecasts", "stage_evaluate", "write_scores"):
            fn = getattr(pipeline, attr)
            monkeypatch.setattr(
                pipeline, attr, lambda *a, _fn=fn, _attr=attr: calls.append(_attr) or _fn(*a)
            )
        run_stages(cfg, ["evaluate"], out_dir=tmp_path)
        assert calls == ["read_forecasts", "stage_evaluate", "write_scores"]
        assert filecmp.cmp(root / "out" / "scores.csv", tmp_path / "scores.csv", shallow=False)

    def test_golden_artifact_digests(self, mini_run):
        _, root, _ = mini_run
        got = {
            name: hashlib.sha256((root / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert got == GOLDEN_SHA256

    def test_staged_factor_cli_matches_factor_backtest(self, mini_run, capsys):
        cfg, root, _ = mini_run
        # Cheaper agents than the mini run's: this test is about the stage path.
        # The backtest runs at workers=2 and the stage commands at workers=1,
        # so the pins (taken at workers=1) also check worker-count invariance.
        cfg = dataclasses.replace(
            cfg,
            agents=tuple(dataclasses.replace(a, draws=50, burn=10) for a in cfg.agents),
            plan=dataclasses.replace(cfg.plan, factor=True),
            factor=dataclasses.replace(cfg.factor, draws=60, burn=20, write_joint_draws=True),
            out_dir=str(root / "out_factor"),
        )
        run_backtest(cfg, workers=2)
        got = {
            name: hashlib.sha256((root / "out_factor" / name).read_bytes()).hexdigest()
            for name in FACTOR_SHA256
        }
        assert got == FACTOR_SHA256
        staged = root / "out_factor_staged"
        cfg_path = root / "factor.yaml"
        dump_config(cfg, cfg_path)
        for command in ("fit-agents", "synth-factor", "evaluate"):
            assert cli.main([command, "--config", str(cfg_path), "--out-dir", str(staged)]) == 0
        capsys.readouterr()
        for name in (*STAGE_FILES, "joint_draws.csv", *PLOT_FILES):
            assert filecmp.cmp(root / "out_factor" / name, staged / name, shallow=False), name
        with open(staged / "plots" / "correlation.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 4 * 4 * 3 * 3  # times x taus x series^2

    def test_audit_finds_no_lookahead(self, mini_run):
        cfg, root, _ = mini_run
        rows = audit_lookahead(cfg)
        assert len(rows) == 8 * 3 * 2 + 4  # agent jobs + synthesis windows
        assert all(r["ok"] for r in rows)
        agent_rows = [r for r in rows if r["stage"] == "agents"]
        for r in agent_rows:
            assert parse_time(r["max_input_time"]) <= parse_time(r["target"]) - 1

    def test_audit_reports_agent_window_that_reads_its_target(self, mini_run, monkeypatch):
        # Planted off-by-one: every agent fit window runs through its target.
        cfg, _, _ = mini_run
        monkeypatch.setattr(
            pipeline.BacktestPlan,
            "agent_fit_times",
            lambda self, target: np.arange(self.agent_fit_start, int(target) + 1),
        )
        rows = [r for r in audit_lookahead(cfg) if r["stage"] == "agents"]
        assert len(rows) == 8 * 3 * 2
        assert not any(r["ok"] for r in rows)
        assert all(r["max_input_time"] == r["target"] for r in rows)

    def test_reconstruct_stage_writes_draws(self, mini_run, tmp_path, capsys):
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "forecasts.csv", tmp_path / "forecasts.csv")
        cfg_path = tmp_path / "recon.yaml"
        dump_config(cfg, cfg_path)
        code = cli.main(["reconstruct", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "reconstruct complete: 0 jobs",
            f"wrote {tmp_path / 'reconstructed_draws.csv'}",
            f"wrote {tmp_path / 'manifest.json'}",
        ]
        with open(tmp_path / "reconstructed_draws.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["series", "time", "draw", "value"]
            assert sum(1 for _ in reader) == 3 * 4 * 2000
        got = hashlib.sha256((tmp_path / "reconstructed_draws.csv").read_bytes()).hexdigest()
        assert got == RECONSTRUCT_SHA256
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["complete"] and manifest["outputs"] == ["reconstructed_draws.csv"]


class TestCliErrors:
    """Every command reports a refused run or a bad input as ``error: ...`` and exits 1."""

    def test_bad_inputs_print_error(self, tmp_path, capsys):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        replace = dataclasses.replace
        bad_panel = tmp_path / "bad_levels.csv"
        _write_levels(bad_panel, [("a", "1990Q1", 100.0), ("a", "1990Q2", 0.0)])
        cases = (
            ("audit-lookahead", replace(cfg, synthesis=replace(cfg.synthesis, delta=1.5)),
             "invalid plan:", "synthesis: delta must lie in (0, 1], got 1.5"),
            ("fit-agents", replace(cfg, plan=replace(cfg.plan, agent_fit_start="1995Q4")),
             "invalid plan:", "agent base: the first window 1995Q4..1995Q4 has 1 observation(s)"),
            ("ingest", replace(cfg, data=replace(cfg.data, panel_csv=str(bad_panel))),
             str(bad_panel), "nonpositive level 0.0"),
            ("ingest", replace(cfg, data=replace(cfg.data, panel_csv=str(tmp_path / "nosuch.csv"))),
             "[Errno 2]", "nosuch.csv"),
            ("backtest", replace(cfg, data=replace(cfg.data, panel_csv=str(tmp_path / "nosuch.csv"))),
             "[Errno 2]", "nosuch.csv"),
        )
        cfg_path = tmp_path / "run.yaml"
        for command, bad, start, message in cases:
            dump_config(bad, cfg_path)
            assert cli.main([command, "--config", str(cfg_path)]) == 1, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: {start}") and message in err, (command, err)
            assert not (tmp_path / "out").exists()
        cfg_path.write_text(cfg_path.read_text() + "bogus: 1\n")
        assert cli.main(["audit-lookahead", "--config", str(cfg_path)]) == 1
        assert "bogus" in capsys.readouterr().err
        cfg_path.write_text("data: [\n")
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {cfg_path} is not valid YAML")
        assert cli.main(["synth", "--config", str(tmp_path / "nosuch.yaml")]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2]")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_job_prints_error(self, tmp_path, capsys):
        # A prior rate this large overflows the zlag agent's first sweep.
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, agents=(cfg.agents[0], dataclasses.replace(cfg.agents[1], sigma_rate=1e308))
        )
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        assert cli.main(["fit-agents", "--config", str(cfg_path), "--tau", "0.5"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: agents stage failed at tau=0.5, window=1996Q1, series=alpha, agent=zlag: "
        )

    def test_missing_agent_forecast_names_its_quarter(self, mini_run, tmp_path, capsys):
        # The stored agent forecasts cover the run's four levels, not 0.5.
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        cfg_path = tmp_path / "run.yaml"
        dump_config(dataclasses.replace(cfg, out_dir=str(tmp_path)), cfg_path)
        assert cli.main(["synth", "--config", str(cfg_path), "--tau", "0.5"]) == 1
        message = "missing forecast for series=alpha t=1996Q1 agent=base tau=0.5"
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not manifest["complete"] and manifest["failed_job"] == {"error": message}
        assert not (tmp_path / "forecasts.csv").exists()


class TestReconstruct:
    """``reconstruct`` on hand-written forecast files, run through the stage runner."""

    @staticmethod
    def _run(tmp_path, capsys, lines) -> tuple[int, str]:
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, evaluation=dataclasses.replace(cfg.evaluation, reconstruction_draws=5)
        )
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "forecasts.csv").write_text("\n".join(lines) + "\n")
        code = cli.main(["reconstruct", "--config", str(cfg_path)])
        return code, capsys.readouterr().err

    @staticmethod
    def _curves(*curves, taus=(0.1, 0.35, 0.65, 0.9)) -> list:
        lines = [",".join(pipeline.FORECAST_COLUMNS)]
        for label, points in curves:
            for tau, q in zip(taus, points):
                lines.append(f"alpha,{label},{tau!r},{q!r},{q - 1.0!r},{q + 1.0!r},100")
        return lines

    def test_failed_curve_writes_no_draws(self, tmp_path, capsys):
        lines = self._curves(("1997Q1", (0.0, 1.0, 2.0, 3.0)), ("1997Q2", (1.0, 1.0, 2.0, 3.0)))
        code, err = self._run(tmp_path, capsys, lines)
        assert code == 1
        assert "reconstruction failed for series alpha at 1997Q2: two lowest quantiles" in err
        assert not (tmp_path / "out" / "reconstructed_draws.csv").exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert not manifest["complete"] and manifest["outputs"] == []
        assert "two lowest quantiles coincide" in manifest["failed_job"]["error"]

    def test_bad_forecasts_file_names_header_or_row(self, tmp_path, capsys):
        lines = self._curves(("1997Q1", (0.0, 1.0, 2.0, 3.0)))
        missing_column = [",".join(cell for k, cell in enumerate(row.split(",")) if k != 4)
                          for row in lines]
        code, err = self._run(tmp_path, capsys, missing_column)
        assert code == 1 and "expected header series,time,tau,point,lo95,hi95,n_draws" in err
        shutil.rmtree(tmp_path / "out")
        lines[2] = lines[2].replace(",1.0,", ",oops,", 1)
        code, err = self._run(tmp_path, capsys, lines)
        assert code == 1 and "forecasts.csv, row 3:" in err and "oops" in err

    def test_curves_must_have_the_plan_levels(self, tmp_path, capsys):
        lines = self._curves(("1997Q1", (0.0, 1.0, 2.0, 3.0)), taus=(0.1, 0.35, 0.65, 0.95))
        code, err = self._run(tmp_path, capsys, lines)
        assert code == 1
        assert "forecasts for series alpha at 1997Q1 have levels [0.1, 0.35, 0.65, 0.95]" in err
        assert not (tmp_path / "out" / "reconstructed_draws.csv").exists()


class TestArtifactIO:
    def test_read_forecasts_errors(self, tmp_path):
        path = tmp_path / "forecasts.csv"
        path.write_text("series,time,tau,point\n")
        with pytest.raises(ValueError, match="expected header"):
            read_forecasts(path)
        path.write_text(
            "series,time,tau,point,lo95,hi95,n_draws\n"
            "a,1990Q1,0.5,1.0,0.5,1.5,100\n"
            "a,1990Q2,0.5,oops,0.5,1.5,100\n"
        )
        with pytest.raises(ValueError, match="row 3"):
            read_forecasts(path)

    def test_empty_scores_yield_header_only_plots(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "scores.csv").write_text("series,time,model,scheme,crps\n")
        written = emit_plots_data(out, reference="base")
        assert [p.name for p in written] == [
            "rcs_curve.csv", "fan.csv", "pit_ecdf.csv", "correlation.csv",
        ]
        for p in written:
            text = p.read_text().strip().splitlines()
            assert len(text) == 1 and "," in text[0]

    def test_plots_require_scores(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="run the evaluate stage"):
            emit_plots_data(tmp_path, reference="base")

    def test_unknown_reference_is_reported(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "scores.csv").write_text(
            "series,time,model,scheme,crps\na,1990Q1,base,none,1.0\n"
        )
        with pytest.raises(ValueError, match="reference model 'other' absent"):
            emit_plots_data(out, reference="other")


def test_exports_resolve():
    """Every name in the package's and each submodule's ``__all__`` resolves."""
    import quantsynth

    for name in quantsynth.__all__:
        assert hasattr(quantsynth, name), f"quantsynth.{name}"
    for info in pkgutil.iter_modules(quantsynth.__path__):
        module = importlib.import_module(f"quantsynth.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"quantsynth.{info.name}.{name}"


def test_benchmark_probes_resolve():
    """Every name the benchmark's tracer wraps exists where it is looked up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _, _ in spans.STAGE_PROBES + spans.LAYER_PROBES:
        owner = importlib.import_module(module_name)
        *cls_name, name = attr.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0])
        assert name in vars(owner), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "factor, spans",
    [
        (False, ("dlm.ffbs_scalar", "dlm.ffbs_conjugate", "drqs.gibbs_drqs")),
        (True, ("dlm.ffbs_vector", "dlm.gbrw", "fdrqs.gibbs_fdrqs")),
    ],
)
def test_traced_benchmark_command_runs(tmp_path, factor, spans):
    """The benchmark's traced command runs a tiny backtest and records every sampler span.

    The tracer reads some arguments by position, so a reordered sampler
    signature fails here even when every probe still resolves.
    """
    root = Path(__file__).resolve().parents[1]
    write_level_panel(tmp_path / "levels.csv")
    cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
    cfg = dataclasses.replace(
        cfg,
        agents=tuple(dataclasses.replace(a, draws=50, burn=0) for a in cfg.agents),
        plan=dataclasses.replace(cfg.plan, factor=factor),
        synthesis=dataclasses.replace(cfg.synthesis, draws=6, burn=2),
        factor=dataclasses.replace(cfg.factor, draws=6, burn=2),
    )
    cfg_path = tmp_path / "run.yaml"
    dump_config(cfg, cfg_path)
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(record), "1",
         "--", "backtest", "--config", str(cfg_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(record.read_text())
    assert data["status"] == 0
    for name in spans:
        assert data["spans"].get(name, {}).get("calls", 0) > 0, name
