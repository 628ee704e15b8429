"""Tests for ingestion, planning, configuration, and the backtest pipeline."""

import csv
import dataclasses
import filecmp
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import backtest_config, write_level_panel
from quantsynth import agents, cli, pipeline
from quantsynth.agents import DQLMSpec, fit_dqlm, forecast_dqlm
from quantsynth.config import (
    AgentConfig,
    FactorConfig,
    SynthesisConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    dump_config,
    load_config,
)
from quantsynth.dlm import DiscountConfig
from quantsynth.fdrqs import FDRQSConfig
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
    "plots/rcs_curve.csv": "efd4c180644fa20fb8fa96f5561294535ffd68f6285b05267aa56d1454947681",
    "plots/fan.csv": "62c5a6736da3d477d147c2ef021daf285faa0415177e44c351f2217c746d759e",
    "plots/pit_ecdf.csv": "b3b7c999be14f940087798a1475fe64f110fa56aa4b49e54c4045d892fb9f724",
}
# SHA-256 of the factor backtest in ``test_staged_factor_cli_matches_factor_backtest``:
# the only pins on the vector FFBS and the gamma-beta precision sampler.
FACTOR_SHA256 = {
    "forecasts.csv": "4c41a2cfd82e0228ef969bc9e5a0990004d0812a2eb722f2763c34692b0975b3",
    "joint_draws.csv": "8b18182d4f68ee3bd5a8920cf0c3ca2d7430f2bf8eb46d3acc7cd456b057ae76",
    "plots/correlation.csv": "6d6f6d9dda6687d03b20a16f6fe7e6b885273cf126db6b38b1cf73375fb823d7",
}
# SHA-256 of ``reconstruct`` run on the ``mini_run`` forecasts.
RECONSTRUCT_SHA256 = "34bf0bb741da2fa3b3ef3cfb078ddff3f7837163aea6d1fdb7adc5be6a972c76"
# SHA-256 of the ``panel.csv`` that ``quantsynth ingest`` writes for the conftest panel.
PANEL_SHA256 = "93af306799c9bf595027d3eeeeaee0860fd85003542f8277fb86cef5bf41debc"


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
        # A short row and a non-label time in an integer panel name the file and row.
        p.write_text("series,time,Y\na,0,1.0\na\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}, row 3: missing cell")):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0), ("a", "1990-Q2", 2.0)])
        with pytest.raises(ValueError, match=re.escape(f"{p}, row 3: time value '1990-Q2' is neither")):
            ingest(p, h=1)
        _write_levels(p, [("a", "0", 1.0, "x")], header=("series", "time", "Y", "z"))
        with pytest.raises(ValueError, match="predictor z="):
            ingest(p, h=1)
        # build_design reads y_lag as the lagged response, so a column of that name would be ignored.
        _write_levels(
            p, [("a", "0", 1.0, 2.0), ("a", "1", 1.5, 2.5)], header=("series", "time", "Y", "y_lag")
        )
        with pytest.raises(ValueError, match=re.escape(f"{p}: column name y_lag is reserved")):
            ingest(p, h=1)
        # panel.csv names the transformed response y, so a predictor y would be a second y column.
        _write_levels(
            p, [("a", "0", 1.0, 2.0), ("a", "1", 1.5, 2.5)], header=("series", "time", "Y", "y")
        )
        message = f"{p}: column name y is reserved for the transformed response"
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest(p, h=1)
        # Read as a mapping, the later of two same-named columns would win, and a
        # predictor named series would be written as a second series column.
        for header in (("series", "time", "Y", "z", "z"), ("series", "time", "Y", "series")):
            _write_levels(p, [("a", "0", 1.0, *["7"] * (len(header) - 3))], header=header)
            message = f"{p}: header columns must be unique, got {header[-1]!r} twice"
            with pytest.raises(ValueError, match=re.escape(message)):
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

    def test_ingest_command_panel_digest(self, tmp_path, capsys):
        write_level_panel(tmp_path / "levels.csv")
        cfg_path = tmp_path / "run.yaml"
        dump_config(backtest_config(tmp_path / "levels.csv", tmp_path / "out"), cfg_path)
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "out" / "panel.csv").read_bytes()).hexdigest() == PANEL_SHA256

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        series=st.lists(st.text("abcxyz019_", min_size=1, max_size=5), min_size=1, max_size=3, unique=True),
        n_predictors=st.integers(0, 2),
        h=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    def test_ingest_and_write_panel_round_trip(self, series, n_predictors, h, data):
        # Gap-free quarterly panels with positive finite levels, written as the CSV ingest reads.
        level = st.floats(min_value=1e-300, max_value=1e300)
        value = st.floats(allow_nan=False, allow_infinity=False)
        names = [f"x{k}" for k in range(n_predictors)]
        inputs = {}
        for sid in series:
            start = data.draw(st.integers(1900 * 4, 2100 * 4))
            n = data.draw(st.integers(h + 1, h + 8))
            Y = np.array(data.draw(st.lists(level, min_size=n, max_size=n)))
            X = {name: np.array(data.draw(st.lists(value, min_size=n, max_size=n))) for name in names}
            inputs[sid] = (np.arange(start, start + n), Y, X)
        rows = [
            (sid, int_to_quarter(t), Y[i], *(X[name][i] for name in names))
            for sid, (times, Y, X) in inputs.items() for i, t in enumerate(times)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            _write_levels(Path(tmp) / "levels.csv", rows, header=("series", "time", "Y", *names))
            panel = ingest(Path(tmp) / "levels.csv", h)
            write_panel(panel, Path(tmp) / "panel.csv")
            with open(Path(tmp) / "panel.csv", newline="", encoding="utf-8") as fh:
                written = list(csv.reader(fh))
        assert panel.quarterly and panel.h == h and panel.series_ids == sorted(series)
        assert written[0] == ["series", "time", "y", *names]
        back = iter(written[1:])
        for sid in panel.series_ids:
            times, Y, X = inputs[sid]
            rec = panel.record(sid)
            assert np.array_equal(rec.times, times[h:])
            assert np.array_equal(rec.y, 400.0 * (np.log(Y[h:]) - np.log(Y[:-h])) / h)
            assert list(rec.predictors) == names
            for name in names:
                assert np.array_equal(rec.predictors[name], X[name][h:])
            for i, t in enumerate(rec.times):
                row = next(back)
                assert row[:2] == [sid, int_to_quarter(t)]
                assert [float(c) for c in row[2:]] == [rec.y[i], *(rec.predictors[n][i] for n in names)]
        assert next(back, None) is None


class TestBuildDesign:
    def _record(self):
        times = np.arange(10)
        y = times.astype(float) * 1.0
        z = 10.0 + times.astype(float)
        return SeriesRecord(series="a", times=times, y=y, predictors={"z": z})

    def test_lagged_response_design(self):
        rec = self._record()
        fit_times = np.arange(5, 9)
        y, X, x_next = build_design(rec, fit_times, ("y_lag",), lag=1, target=9)
        np.testing.assert_array_equal(y, [5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(X[:, 0], np.ones(4))
        np.testing.assert_array_equal(X[:, 1], [4.0, 5.0, 6.0, 7.0])
        np.testing.assert_array_equal(x_next, [1.0, 8.0])

    def test_named_predictor_with_longer_lag(self):
        rec = self._record()
        y, X, x_next = build_design(rec, np.arange(5, 9), ("y_lag", "z"), lag=2, target=9)
        np.testing.assert_array_equal(X[:, 2], 10.0 + np.arange(3, 7))
        assert x_next[2] == 10.0 + 7.0

    def test_intercept_only(self):
        rec = self._record()
        y, X, x_next = build_design(rec, np.arange(5, 9), (), lag=1, target=9)
        assert X.shape == (4, 1) and x_next.shape == (1,)

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

    def test_repeated_list_entries(self):
        # A repeated scheme would write its ratio rows twice; a repeated
        # predictor would give two identical design columns.
        with pytest.raises(ValueError) as info:
            config_from_dict({"evaluation": {"schemes": ["none", "right", "none"]}})
        assert str(info.value) == "evaluation.schemes must be unique, got 'none' twice"
        with pytest.raises(ValueError) as info:
            config_from_dict({"agents": [{"name": "a", "predictors": ["z", "y_lag", "z"]}]})
        assert str(info.value) == "agent a: predictors must be unique, got 'z' twice"
        cfg = config_from_dict({"agents": [{"name": "a", "predictors": ["z", "y_lag"]}]})
        assert cfg.agents[0].predictors == ("z", "y_lag")

    def test_seed_range(self, tmp_path, capsys):
        # task_stream keeps a seed's low 32 bits, so 0, 2**32 and -2**32 would alias.
        for seed in (2**32, -1, -(2**32)):
            with pytest.raises(ValueError) as info:
                config_from_dict({"plan": {"seed": seed}})
            assert str(info.value) == f"plan.seed must lie in [0, 2**32), got {seed}"
        assert config_from_dict({"plan": {"seed": 2**32 - 1}}).plan.seed == 2**32 - 1
        # A config file's plan.seed goes through the same check.
        d = _config_dict(tmp_path / "levels.csv")
        d["plan"]["seed"] = 2**32
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(json.dumps(d))  # JSON is valid YAML
        assert cli.main(["audit-lookahead", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: plan.seed must lie in [0, 2**32), got {2**32}\n"

    def test_values_are_checked_not_converted(self):
        cases = (
            ({"workers": "two"}, "workers must be an int, got 'two'"),
            ({"out_dir": 3}, "out_dir must be a string, got 3"),
            ({"synthesis": {"draws": "ten"}}, "synthesis.draws must be an int, got 'ten'"),
            ({"synthesis": {"delta": "0.9"}}, "synthesis.delta must be a number, got '0.9'"),
            ({"factor": {"beta": True}}, "factor.beta must be a number, got True"),
            ({"factor": {"L": 2.0}}, "factor.L must be an int or null, got 2.0"),
            ({"factor": {"write_joint_draws": 1}},
             "factor.write_joint_draws must be a boolean, got 1"),
            ({"plan": {"end": 1997.4}}, "plan.end must be a string or an int, got 1997.4"),
            ({"evaluation": {"schemes": "none"}}, "evaluation.schemes must be a list, got 'none'"),
            ({"agents": [{"name": "a", "burn": False}]}, "agents[0].burn must be an int, got False"),
            ({"plan": {"taus": [0.5, "x"]}}, "plan.taus[1] must be a number, got 'x'"),
            ({"evaluation": {"schemes": ["none", 1]}}, "evaluation.schemes[1] must be a string, got 1"),
            ({"agents": [{"name": "a", "predictors": [3]}]},
             "agents[0].predictors[0] must be a string, got 3"),
            # Values of the right type that a section refuses.
            ({"data": {"h": 0}}, "data.h must be >= 1, got 0"),
            ({"agents": [{"name": ""}]}, "every agent needs a nonempty name"),
            ({"agents": [{"name": "a", "burn": -1}]}, "agent a: burn must be >= 0"),
            ({"synthesis": {"draws": 0}}, "synthesis.draws must be >= 1 and synthesis.burn >= 0"),
            ({"synthesis": {"burn": -1}}, "synthesis.draws must be >= 1 and synthesis.burn >= 0"),
            ({"factor": {"draws": 0}}, "factor.draws must be >= 1 and factor.burn >= 0"),
            ({"factor": {"burn": -1}}, "factor.draws must be >= 1 and factor.burn >= 0"),
            ({"factor": {"L": 0}}, "factor.L must be >= 1, got 0"),
            ({"plan": {"taus": []}}, "plan.taus must be nonempty"),
            ({"evaluation": {"schemes": []}}, "evaluation.schemes must be nonempty"),
            ({"evaluation": {"reconstruction_draws": 0}}, "evaluation.reconstruction_draws must be >= 1"),
            # Sections of the wrong shape.
            ({"data": ["levels.csv"]}, "data must be a mapping, got list"),
            ({"agents": {"name": "a"}}, "agents must be a list of agent mappings"),
        )
        for raw, message in cases:
            with pytest.raises(ValueError) as info:
                config_from_dict(raw)
            assert str(info.value) == message
        # An int stays an int in a float field, so the hash of an existing config is unchanged.
        d = _config_dict("levels.csv")
        d["synthesis"]["delta"] = 1
        d["plan"]["end"] = 7991
        d["factor"] = {"L": None}
        cfg = config_from_dict(d)
        assert type(cfg.synthesis.delta) is int and cfg.plan.end == 7991 and cfg.factor.L is None
        assert config_to_dict(cfg)["synthesis"]["delta"] == 1
        # Checking the list elements converts none of them either.
        assert config_hash(backtest_config("levels.csv", "out")) == (
            "730960fb0213e701f45d8a69af530e4da38f21abe3cd86b998fc43ab45d3628b"
        )

    def test_yaml_top_level_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("- data\n- plan\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"config file {path} must contain a mapping at the top level"

    def test_reference_model_defaults_to_first_agent(self):
        cfg = config_from_dict(_config_dict("levels.csv"))
        assert cfg.reference_model == "base"
        d = _config_dict("levels.csv")
        d["evaluation"] = {"reference": "zlag"}
        assert config_from_dict(d).reference_model == "zlag"
        assert cfg.synth_model_name == "drqs"

    def test_section_defaults_match_sampler_defaults(self):
        """Each YAML section's default equals the default of the sampler setting it feeds.

        ``factor.L`` is left out on purpose: None resolves to ``min(5, N - 1)``.
        """

        def defaults(cls):
            return {f.name: f.default for f in dataclasses.fields(cls)}

        pairs = (
            (AgentConfig, DQLMSpec, ("delta", "prior_scale", "sigma_shape", "sigma_rate")),
            (SynthesisConfig, DiscountConfig, ("delta", "beta")),
            (FactorConfig, FDRQSConfig, ("delta", "beta", "nu", "a1", "a2", "n0", "s0")),
        )
        for section, sampler, names in pairs:
            got, want = defaults(section), defaults(sampler)
            for name in names:
                assert got[name] == want[name], (section.__name__, name)


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
        realized, reports = plan.synth_input_times(tgt)
        np.testing.assert_array_equal(realized, np.arange(quarter_to_int("1996Q1"), tgt))
        np.testing.assert_array_equal(reports, np.arange(quarter_to_int("1996Q1"), tgt + 1))
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

    def test_synthesis_window_order_names_both_dates(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["synth_fit_start"] = "1997Q1"
        with pytest.raises(ValueError, match="synth_fit_start 1997Q1 must precede synth_forecast_start 1997Q1"):
            make_plan(config_from_dict(d), pan)
        d = _config_dict(src)
        d["plan"]["end"] = "1996Q4"
        with pytest.raises(ValueError, match="synth_forecast_start 1997Q1 must not exceed end 1996Q4"):
            make_plan(config_from_dict(d), pan)

    def test_unparseable_plan_date_names_its_field(self, panel):
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["synth_fit_start"] = "1996-Q1"
        with pytest.raises(ValueError) as exc:
            make_plan(config_from_dict(d), pan)
        msg = str(exc.value)
        assert msg.startswith("invalid plan:") and "plan.synth_fit_start: " in msg and "1996-Q1" in msg

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

    def test_shortest_agent_window_fits(self, panel):
        # 1995Q2..1995Q4 gives zlag (p=3) the shortest window make_plan accepts: T = p.
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["agent_fit_start"] = "1995Q2"
        plan = make_plan(config_from_dict(d), pan)
        target = int(plan.agent_targets[0])
        job = next(j for j in pipeline._agent_jobs(plan, pan, target) if j["agent"].name == "zlag")
        assert job["X"].shape == (3, 3)
        rng = np.random.default_rng(5)
        fit = fit_dqlm(job["y"], job["X"], plan.agent_specs[0.25]["zlag"], mcmc=(50, 10), rng=rng)
        a, A = forecast_dqlm(fit, job["x_next"], rng)
        assert np.all(np.isfinite(fit.beta)) and np.isfinite(a) and np.isfinite(A)

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


    def test_non_finite_factor_hyperparameter_is_an_invalid_plan(self, panel, tmp_path):
        # YAML's .inf reads as a number, so the type check passes it and
        # make_plan, which builds every FDRQSConfig, must refuse it.
        src, pan = panel
        d = _config_dict(src)
        d["plan"]["factor"] = True
        d["factor"] = {"n0": float("inf")}
        path = tmp_path / "run.yaml"
        dump_config(config_from_dict(d), path)
        assert "n0: .inf" in path.read_text()
        with pytest.raises(ValueError) as exc:
            make_plan(load_config(path), pan)
        msg = str(exc.value)
        assert msg.startswith("invalid plan:") and "factor: n0 must be finite and positive, got inf" in msg

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
            "synth": ["forecasts.csv", "plots/correlation.csv"],
            "evaluate": sorted(["scores.csv", "ratios.csv", "pit.csv", *PLOT_FILES[:3]]),
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
        dump_config(dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, taus=(0.5,))), cfg_path)
        for command in ("backtest", "evaluate", "reconstruct"):
            assert cli.main([command, "--config", str(cfg_path)]) == 1
            assert "at least 4 quantile levels" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        few = dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, taus=(0.1, 0.5, 0.9)))
        with pytest.raises(pipeline.RunRefusedError, match="got 3"):
            run_backtest(few)
        assert not (tmp_path / "out").exists()
        # The stages before evaluate need no minimum.
        assert cli.main(["fit-agents", "--config", str(cfg_path)]) == 0
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
             "factor: nu must be finite and positive, got 0.0"),
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
            run_stages(dataclasses.replace(cfg, workers=1), ["agents"])
        err = info.value
        assert (err.stage, err.series, err.agent) == ("agents", "beta", "zlag")
        assert str(err) == (
            "agents stage failed at tau=0.1, window=1996Q1, series=beta, agent=zlag: planted failure"
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert not manifest["complete"]
        assert manifest["failed_job"] == {
            "stage": "agents", "tau": 0.1, "window": "1996Q1", "series": "beta", "agent": "zlag",
            "sweep": None, "error": "planted failure",
        }

    def test_job_error_names_the_failing_sweep(self, tmp_path, monkeypatch):
        # Fault injection: the agent sampler's FFBS raises on its k-th call in an
        # inline run.  Each fit runs 60 + 120 sweeps, and the first job fits
        # alpha/base, alpha/zlag, beta/base, beta/zlag, so call 3 * 180 + 44 is
        # sweep 43 of beta/zlag.
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        ffbs, calls = agents.ffbs_known_variance, []

        def failing_ffbs(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3 * 180 + 44:
                raise FloatingPointError("planted sweep failure")
            return ffbs(*args, **kwargs)

        monkeypatch.setattr(agents, "ffbs_known_variance", failing_ffbs)
        with pytest.raises(pipeline.JobError) as info:
            run_stages(dataclasses.replace(cfg, workers=1), ["agents"])
        err = info.value
        assert (err.stage, err.tau, err.target_label, err.series, err.agent, err.sweep) == (
            "agents", 0.1, "1996Q1", "beta", "zlag", 43
        )
        assert str(err) == (
            "agents stage failed at tau=0.1, window=1996Q1, series=beta, agent=zlag, sweep=43: "
            "planted sweep failure"
        )
        failed = json.loads((tmp_path / "out" / "manifest.json").read_text())["failed_job"]
        assert failed == {
            "stage": "agents", "tau": 0.1, "window": "1996Q1", "series": "beta", "agent": "zlag",
            "sweep": 43, "error": "planted sweep failure",
        }

    def test_job_error_names_the_failing_synthesis_series(self, mini_run, tmp_path, monkeypatch):
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        gibbs_drqs, calls = pipeline.gibbs_drqs, []

        def failing_second_fit(*args, **kwargs):
            # A DRQS window fits its series in order: alpha, beta, gamma.
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("planted failure")
            return gibbs_drqs(*args, **kwargs)

        monkeypatch.setattr(pipeline, "gibbs_drqs", failing_second_fit)
        with pytest.raises(pipeline.JobError) as info:
            run_stages(dataclasses.replace(cfg, workers=1, out_dir=str(tmp_path)), ["synthesis"])
        assert (info.value.stage, info.value.series, info.value.agent) == ("synthesis", "beta", None)
        assert str(info.value) == (
            "synthesis stage failed at tau=0.1, window=1997Q1, series=beta: planted failure"
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not manifest["complete"] and manifest["failed_job"] == {
            "stage": "synthesis", "tau": 0.1, "window": "1997Q1", "series": "beta", "agent": None,
            "sweep": None, "error": "planted failure",
        }
        assert not (tmp_path / "forecasts.csv").exists()

    def test_evaluate_names_an_agent_curve_it_cannot_reconstruct(self, mini_run, tmp_path, capsys):
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "forecasts.csv", tmp_path / "forecasts.csv")
        with open(root / "out" / "agent_forecasts.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        # zlag's two lowest levels for gamma at 1997Q3 get one mean, below its other two.
        cell = [r for r in rows if r[:3] == ["gamma", "1997Q3", "zlag"]]
        low = repr(min(float(r[4]) for r in cell) - 1.0)
        for r in cell[:2]:
            r[4] = low
        _write_levels(tmp_path / "agent_forecasts.csv", rows, header=header)
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        assert cli.main(["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
        message = (
            "PIT reconstruction failed for model zlag, series gamma, time 1997Q3: "
            "two lowest quantiles coincide after rearrangement; left tail scale is zero"
        )
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not manifest["complete"] and manifest["failed_job"] == {"error": message}
        assert not (tmp_path / "scores.csv").exists()

    def test_job_error_names_the_failing_fit_from_a_worker(self, tmp_path):
        # A prior rate this large overflows the zlag agent's second sweep (sweep 1) in every job.
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, agents=(cfg.agents[0], dataclasses.replace(cfg.agents[1], sigma_rate=1e308))
        )
        with pytest.raises(pipeline.JobError) as info:
            run_stages(dataclasses.replace(cfg, workers=2), ["agents"])
        assert (info.value.series, info.value.agent, info.value.sweep) == ("alpha", "zlag", 1)
        failed = json.loads((tmp_path / "out" / "manifest.json").read_text())["failed_job"]
        assert (failed["series"], failed["agent"], failed["sweep"]) == ("alpha", "zlag", 1)
        assert multiprocessing.active_children() == []  # the failed run left no worker behind

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
        run_stages(dataclasses.replace(cfg, out_dir=str(tmp_path)), ["evaluate"])
        assert calls == ["read_forecasts", "stage_evaluate", "write_scores"]
        assert filecmp.cmp(root / "out" / "scores.csv", tmp_path / "scores.csv", shallow=False)

    def test_one_series_rcs_curve_equals_ratios(self, mini_run, tmp_path):
        # With one series the per-series curve and the summed ratio are the same
        # full-precision quotient, so the two files agree row for row.
        cfg, root, _ = mini_run
        for name in ("levels.csv", "out/agent_forecasts.csv", "out/forecasts.csv"):
            lines = (root / name).read_text().splitlines()
            kept = [lines[0]] + [line for line in lines[1:] if line.startswith("alpha,")]
            (tmp_path / Path(name).name).write_text("\n".join(kept) + "\n")
        data = dataclasses.replace(cfg.data, panel_csv=str(tmp_path / "levels.csv"))
        run_stages(dataclasses.replace(cfg, data=data, out_dir=str(tmp_path)), ["evaluate"])

        def rows(name):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                return [(r["model"], r["scheme"], r["t_star"], r["rcs"]) for r in csv.DictReader(fh)]

        curve = rows("plots/rcs_curve.csv")
        assert len(curve) == 3 * 3 * 4  # models x schemes x t_stars
        assert curve == rows("ratios.csv")

    def test_golden_artifact_digests(self, mini_run):
        _, root, _ = mini_run
        got = {
            name: hashlib.sha256((root / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert got == GOLDEN_SHA256

    def test_synth_payloads_carry_the_stored_reports(self, mini_run):
        """Every synthesis payload holds its window's realized values and agent reports, bit for bit."""
        cfg, root, _ = mini_run
        path = root / "out" / "agent_forecasts.csv"
        cells = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for series, label, agent, tau, a, A in reader:
                cells[(series, parse_time(label), agent, float(tau))] = (float(a), float(A))
        panel = ingest(cfg.data.panel_csv, cfg.data.h)
        plan = make_plan(cfg, panel)
        payloads = pipeline._synth_payloads(plan, panel, agents.AgentForecastSet.from_csv(path))
        assert len(payloads) == len(plan.taus) * plan.synth_targets.size
        for p in payloads:
            fit_times, times = plan.synth_input_times(p["target"])
            want = np.array([
                [[cells[(sid, t, name, p["tau"])] for name in cfg.agent_names] for sid in panel.series_ids]
                for t in times.tolist()
            ])  # (T + 1, N, J, 2)
            expected = {"a": want[:-1, ..., 0], "A": want[:-1, ..., 1],
                        "a_next": want[-1, ..., 0], "A_next": want[-1, ..., 1],
                        "Y": np.array([[panel.record(sid).y_at(t) for sid in panel.series_ids]
                                       for t in fit_times.tolist()])}
            for key, value in expected.items():
                assert np.array_equal(p[key], value), (p["tau"], p["target"], key)
                assert p[key].flags.c_contiguous, key

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
        run_backtest(dataclasses.replace(cfg, workers=2))
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
        # The correlations come from the draws in memory, so a run that keeps
        # no joint draws writes the same table.
        kept = root / "out_factor_no_joint"
        kept.mkdir()
        shutil.copy(staged / "agent_forecasts.csv", kept / "agent_forecasts.csv")
        no_joint = dataclasses.replace(cfg, factor=dataclasses.replace(cfg.factor, write_joint_draws=False),
                                       out_dir=str(kept))
        manifest = run_stages(no_joint, ["synthesis"])
        assert manifest.outputs == ["forecasts.csv", "plots/correlation.csv"]
        assert not (kept / "joint_draws.csv").exists()
        for name in ("forecasts.csv", "plots/correlation.csv"):
            assert filecmp.cmp(staged / name, kept / name, shallow=False), name

    def test_integer_time_correlation_rows_follow_numeric_time(self, tmp_path):
        # Targets 8..11 cross from one digit to two: rows go 8, 9, 10, 11, not "10" < "8".
        rng = np.random.default_rng(3)
        rows = [
            (sid, t, float(level))
            for sid in ("a", "b")
            for t, level in enumerate(100.0 * np.exp(np.cumsum(rng.normal(0.005, 0.01, 14))))
        ]
        _write_levels(tmp_path / "levels.csv", rows)
        d = _config_dict(tmp_path / "levels.csv")
        d["plan"].update(agent_fit_start=2, agent_forecast_start=6, synth_fit_start=6,
                         synth_forecast_start=8, end=11, factor=True)
        d["agents"] = [{"name": "base", "predictors": ["y_lag"], "draws": 50, "burn": 10}]
        d["factor"] = {"draws": 30, "burn": 10}
        d["out_dir"] = str(tmp_path / "out")
        run_stages(config_from_dict(d), ["agents", "synthesis"])
        with open(tmp_path / "out" / "plots" / "correlation.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        windows = list(dict.fromkeys((r["time"], r["tau"]) for r in table))
        assert windows == [(str(t), tau) for t in (8, 9, 10, 11) for tau in ("0.25", "0.75")]
        assert [(r["series_row"], r["series_col"]) for r in table[:4]] == [
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")
        ]
        assert len(table) == 8 * 4
        assert all(r["corr"] == "1" for r in table if r["series_row"] == r["series_col"])

    def test_evaluate_reads_no_joint_draws(self, mini_run, tmp_path):
        # No stage reads a file the stage table does not name: a malformed
        # joint_draws.csv beside the inputs changes nothing evaluate writes.
        cfg, root, _ = mini_run
        for name in ("agent_forecasts.csv", "forecasts.csv"):
            shutil.copy(root / "out" / name, tmp_path / name)
        (tmp_path / "joint_draws.csv").write_text("not,a,joint,draw,file\n1,2\n")
        manifest = run_stages(dataclasses.replace(cfg, out_dir=str(tmp_path)), ["evaluate"])
        assert manifest.complete and "joint_draws.csv" not in manifest.outputs
        for name in ("scores.csv", "pit.csv", "ratios.csv", *PLOT_FILES[:3]):
            assert filecmp.cmp(root / "out" / name, tmp_path / name, shallow=False), name
        assert not (tmp_path / "plots" / "correlation.csv").exists()

    def test_forecast_missing_for_a_target_names_it(self, mini_run, tmp_path):
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        lines = (root / "out" / "forecasts.csv").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("beta,1997Q3,")]
        assert len(kept) == len(lines) - 4  # every level of one (series, target)
        (tmp_path / "forecasts.csv").write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match="missing synthesized forecasts for series beta at 1997Q3"):
            run_stages(dataclasses.replace(cfg, out_dir=str(tmp_path)), ["evaluate"])
        assert not (tmp_path / "scores.csv").exists()

    def test_synthesis_without_joint_draws_removes_a_stale_file(self, mini_run, tmp_path):
        # A factor run's joint draws left in out_dir must not sit beside a
        # later univariate run's forecasts.
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        stale = [("1997Q1", "0.1", r, sid, float(r + k)) for r in range(3)
                 for k, sid in enumerate(("alpha", "beta"))]
        (tmp_path / "joint_draws.csv").write_text(
            "\n".join([",".join(pipeline.JOINT_COLUMNS)] + [",".join(map(str, row)) for row in stale])
            + "\n"
        )
        manifest = run_stages(dataclasses.replace(cfg, out_dir=str(tmp_path)), ["synthesis", "evaluate"])
        assert manifest.complete
        assert not (tmp_path / "joint_draws.csv").exists()
        assert "joint_draws.csv" not in manifest.outputs
        assert (tmp_path / "plots" / "correlation.csv").read_text().splitlines() == [
            "time,tau,series_row,series_col,corr"
        ]

    def test_nonfinite_forecast_refused_naming_its_row(self, mini_run, tmp_path, capsys):
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        lines = (root / "out" / "forecasts.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[pipeline.FORECAST_COLUMNS.index("point")] = "nan"
        lines[2] = ",".join(cells)
        (tmp_path / "forecasts.csv").write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        for command, output in (("evaluate", "scores.csv"), ("reconstruct", "reconstructed_draws.csv")):
            assert cli.main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "forecasts.csv, row 3: point, lo95 and hi95" in err
            assert not (tmp_path / output).exists()

    def test_repeated_forecast_row_refused(self, mini_run, tmp_path, capsys):
        # A second (series, time, tau) row must not silently replace the first.
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        lines = (root / "out" / "forecasts.csv").read_text().splitlines()
        series, label, tau = lines[2].split(",")[:3]
        cells = lines[2].split(",")
        cells[pipeline.FORECAST_COLUMNS.index("point")] = "0.0"
        (tmp_path / "forecasts.csv").write_text("\n".join(lines + [",".join(cells)]) + "\n")
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        for command, output in (("evaluate", "scores.csv"), ("reconstruct", "reconstructed_draws.csv")):
            assert cli.main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert f"error: repeated forecast for series {series} at {label}, tau {float(tau)}" in err
            assert not (tmp_path / output).exists()

    def test_audit_finds_no_lookahead(self, mini_run):
        cfg, root, _ = mini_run
        rows = audit_lookahead(cfg)
        assert len(rows) == 8 * 3 * 2 + 4  # agent jobs + synthesis windows
        assert all(r["ok"] for r in rows)
        for r in rows:
            assert parse_time(r["max_input_time"]) == parse_time(r["target"]) - 1

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

    def test_audit_reports_synthesis_window_that_reads_its_target(self, mini_run, monkeypatch):
        # Planted off-by-one: every synthesis window reads the agent reports one time later.
        cfg, _, _ = mini_run
        times = pipeline.BacktestPlan.synth_input_times
        monkeypatch.setattr(
            pipeline.BacktestPlan,
            "synth_input_times",
            lambda self, target: (times(self, target)[0], times(self, target)[1] + 1),
        )
        rows = [r for r in audit_lookahead(cfg) if r["stage"] == "synthesis"]
        assert len(rows) == 4
        assert not any(r["ok"] for r in rows)
        assert all(r["max_input_time"] == r["target"] for r in rows)

    def test_audit_reports_panel_read_one_period_late(self, mini_run, monkeypatch):
        # Planted off-by-one: every read of the panel lands one period after the time asked for.
        cfg, _, _ = mini_run
        positions = pipeline.SeriesRecord.positions
        monkeypatch.setattr(
            pipeline.SeriesRecord, "positions", lambda self, times: positions(self, np.asarray(times) + 1)
        )
        rows = audit_lookahead(cfg)
        assert len(rows) == 8 * 3 * 2 + 4
        assert not any(r["ok"] for r in rows)
        assert all(r["max_input_time"] == r["target"] for r in rows)

    @pytest.mark.parametrize("factor", [False, True], ids=["drqs", "factor"])
    @pytest.mark.parametrize("shift", [1, -1], ids=["later", "stale"])
    def test_audit_reports_synthesis_window_handed_a_shifted_report(self, mini_run, monkeypatch, shift, factor):
        # Planted inside _synth_payloads: every window gets the agent reports `shift` periods off.
        cfg, _, _ = mini_run
        cfg = dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, factor=factor))
        reports = pipeline.AgentForecastSet.reports
        monkeypatch.setattr(
            pipeline.AgentForecastSet,
            "reports",
            lambda self, taus, times, *rest: reports(self, taus, np.asarray(times) + shift, *rest),
        )
        rows = audit_lookahead(cfg)
        assert all(r["ok"] for r in rows if r["stage"] == "agents")
        synth = [r for r in rows if r["stage"] == "synthesis"]
        assert len(synth) == 4 and not any(r["ok"] for r in synth)
        # A stale report is consumed no later than target-1, so only the exact check catches it.
        assert all(parse_time(r["max_input_time"]) == parse_time(r["target"]) + min(shift, 0) for r in synth)

    def test_audit_cli_names_the_times_a_violation_reads(self, mini_run, monkeypatch, tmp_path, capsys):
        # Planted: the last synthesis payload reads the report for target-1 in place of the target's.
        cfg, _, _ = mini_run
        synth_payloads = pipeline._synth_payloads

        def stale_last(*args):
            payloads = synth_payloads(*args)
            payloads[-1]["a_next"] = payloads[-1]["a"][-1]
            return payloads

        monkeypatch.setattr(pipeline, "_synth_payloads", stale_last)
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        assert cli.main(["audit-lookahead", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "52 jobs audited; 1 job reads other times than the protocol's",
            f"  VIOLATION synthesis series=* model={cfg.synth_model_name} target=1997Q4 reads times "
            "up to 1997Q3, not exactly the protocol's times up to target-1",
        ]

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

    def test_run_settings_come_only_from_the_config(self, tmp_path, capsys):
        # Every run-defining setting has one route, the config file; the command
        # line sets only the file and the two execution settings the hash leaves out.
        write_level_panel(tmp_path / "levels.csv")
        cfg_path = tmp_path / "run.yaml"
        dump_config(backtest_config(tmp_path / "levels.csv", tmp_path / "out"), cfg_path)
        for command in ("backtest", "audit-lookahead"):
            for flag, value in (("--seed", "7"), ("--tau", "0.5"), ("--h", "4")):
                with pytest.raises(SystemExit) as info:
                    cli.main([command, "--config", str(cfg_path), flag, value])
                assert info.value.code == 2
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        for command in cli._COMMANDS:
            with pytest.raises(SystemExit) as info:
                cli.main([command, "--help"])
            assert info.value.code == 0
            assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {
                "--help", "--config", "--workers", "--out-dir"
            }, command
        args = ["--config", str(cfg_path), "--workers", "2", "--out-dir", str(tmp_path / "elsewhere")]
        assert cli.main(["audit-lookahead", *args]) == 0
        assert capsys.readouterr().out.endswith("; 0 jobs read other times than the protocol's\n")

    def test_bad_inputs_print_error(self, tmp_path, capsys):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        replace = dataclasses.replace
        bad_panel = tmp_path / "bad_levels.csv"
        _write_levels(bad_panel, [("a", "1990Q1", 100.0), ("a", "1990Q2", 0.0)])
        short_row = tmp_path / "short_row.csv"
        short_row.write_text("series,time,Y\na\n")
        bad_time = tmp_path / "bad_time.csv"
        _write_levels(bad_time, [("a", "0", 100.0), ("a", "x1", 101.0)])
        cases = (
            ("audit-lookahead", replace(cfg, synthesis=replace(cfg.synthesis, delta=1.5)),
             "invalid plan:", "synthesis: delta must lie in (0, 1], got 1.5"),
            ("fit-agents", replace(cfg, plan=replace(cfg.plan, agent_fit_start="1995Q4")),
             "invalid plan:", "agent base: the first window 1995Q4..1995Q4 has 1 observation(s)"),
            ("ingest", replace(cfg, data=replace(cfg.data, panel_csv=str(bad_panel))),
             str(bad_panel), "nonpositive level 0.0"),
            ("ingest", replace(cfg, data=replace(cfg.data, panel_csv=str(short_row))),
             f"{short_row}, row 2:", "missing cell"),
            ("ingest", replace(cfg, data=replace(cfg.data, panel_csv=str(bad_time))),
             f"{bad_time}, row 3:", "time value 'x1' is neither an integer nor YYYYQn"),
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

    def test_config_without_a_panel_is_refused_naming_the_field(self, tmp_path, monkeypatch, capsys):
        # An empty config and one with every section but data.panel_csv; each read "." as the panel before.
        monkeypatch.chdir(tmp_path)
        d = config_to_dict(backtest_config(tmp_path / "levels.csv", tmp_path / "out"))
        del d["data"]["panel_csv"]
        for text in ("", json.dumps(d)):
            (tmp_path / "run.yaml").write_text(text)
            for command in sorted(set(cli._COMMANDS) - {"synth-factor"}):  # refuses plan.factor first
                assert cli.main([command, "--config", "run.yaml"]) == 1, command
                assert capsys.readouterr().err == (
                    "error: data.panel_csv is required: the config names no level panel\n"
                ), command
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    def test_mistyped_config_value_names_its_key(self, tmp_path, capsys):
        d = config_to_dict(backtest_config(tmp_path / "levels.csv", tmp_path / "out"))
        syn = d["synthesis"]
        cases = (
            ("workers", "two", "workers must be an int, got 'two'"),
            ("synthesis", {**syn, "draws": "ten"}, "synthesis.draws must be an int, got 'ten'"),
            ("synthesis", {**syn, "delta": "0.9"}, "synthesis.delta must be a number, got '0.9'"),
            ("plan", {**d["plan"], "taus": [0.1, "x"]}, "plan.taus[1] must be a number, got 'x'"),
        )
        cfg_path = tmp_path / "run.yaml"
        for section, value, message in cases:
            cfg_path.write_text(json.dumps({**d, section: value}))  # JSON is valid YAML
            for command in ("audit-lookahead", "backtest"):
                assert cli.main([command, "--config", str(cfg_path)]) == 1, (command, message)
                assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_levels_sharing_a_forecast_key_refused_before_any_stage(self, tmp_path, capsys):
        # Forecasts are keyed by tau at 10 decimals, so these two levels would collide.
        write_level_panel(tmp_path / "levels.csv")
        d = config_to_dict(backtest_config(tmp_path / "levels.csv", tmp_path / "out"))
        d["plan"]["taus"] = [0.1, 0.35, 0.5, 0.500000000001, 0.9]
        message = "plan.taus must be strictly increasing at 10 decimals, got 0.5 then 0.500000000001"
        with pytest.raises(ValueError) as info:
            config_from_dict(d)
        assert str(info.value) == message
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(json.dumps(d))
        assert cli.main(["backtest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_job_prints_error(self, tmp_path, capsys):
        # A prior rate this large overflows the zlag agent's second sweep (sweep 1).
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        cfg = dataclasses.replace(
            cfg, agents=(cfg.agents[0], dataclasses.replace(cfg.agents[1], sigma_rate=1e308)),
            plan=dataclasses.replace(cfg.plan, taus=(0.5,)),
        )
        cfg_path = tmp_path / "run.yaml"
        dump_config(cfg, cfg_path)
        assert cli.main(["fit-agents", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: agents stage failed at tau=0.5, window=1996Q1, series=alpha, agent=zlag, "
            "sweep=1: "
        )

    def test_missing_agent_forecast_names_its_quarter(self, mini_run, tmp_path, capsys):
        # The stored agent forecasts cover the run's four levels, not 0.5.
        cfg, root, _ = mini_run
        shutil.copy(root / "out" / "agent_forecasts.csv", tmp_path / "agent_forecasts.csv")
        cfg_path = tmp_path / "run.yaml"
        plan = dataclasses.replace(cfg.plan, taus=(0.5,))
        dump_config(dataclasses.replace(cfg, out_dir=str(tmp_path), plan=plan), cfg_path)
        assert cli.main(["synth", "--config", str(cfg_path)]) == 1
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
        for bad in ("nan,0.5,1.5", "1.0,-inf,1.5", "1.0,0.5,inf"):
            path.write_text(
                "series,time,tau,point,lo95,hi95,n_draws\n"
                "a,1990Q1,0.5,1.0,0.5,1.5,100\n"
                f"a,1990Q2,0.5,{bad},100\n"
            )
            with pytest.raises(ValueError, match="row 3: point, lo95 and hi95 must be finite"):
                read_forecasts(path)

    def test_empty_scores_yield_header_only_plots(self, tmp_path):
        write_level_panel(tmp_path / "levels.csv")
        cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
        plan = make_plan(cfg, ingest(cfg.data.panel_csv, cfg.data.h))
        tables = emit_plots_data(plan, {}, [], [])
        assert tables == ([], [], [])
        # evaluate writes three plot tables and synthesis the correlation table
        names = pipeline.STAGES["evaluate"].writes[-len(tables):] + pipeline.STAGES["synthesis"].writes[-1:]
        assert names == tuple(pipeline.PLOT_COLUMNS)
        for name, table in zip(names, (*tables, [])):
            pipeline._WRITERS[name](table, tmp_path / name, plan.time_label)
            header = ",".join(pipeline.PLOT_COLUMNS[name])
            assert (tmp_path / name).read_text().splitlines() == [header]


@pytest.mark.parametrize(
    "read, text, columns",
    [
        (agents.AgentForecastSet.from_csv, "series,time,agent,tau,a,A\ngdp,5,m1,0.25,1,000.5,1.0\n", 6),
        (read_forecasts, "series,time,tau,point,lo95,hi95,n_draws\ngdp,5,0.25,1,2,3,4,100\n", 7),
        (lambda path: ingest(path, h=1), "series,time,Y\na,0,1.0\na,1,1.1,7\n", 3),
    ],
    ids=["agent_forecasts", "forecasts", "panel"],
)
def test_csv_readers_refuse_cells_beyond_the_header(tmp_path, read, text, columns):
    """A row with more cells than its header is refused by file and row, not read without the extras."""
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, row {text.count(chr(10))}: more cells than the "
                                                   f"{columns}-column header")):
        read(path)


@pytest.mark.parametrize(
    "read, text, message",
    [
        (agents.AgentForecastSet.from_csv, "series,time,agent,tau,a,A\ngdp,5,m1,0.25,1,0.5\n\ngdp,6,m1,0.25,1,0\n",
         "forecast variance A must be positive"),
        (agents.AgentForecastSet.from_csv, "series,time,agent,tau,a,A\ngdp,5,m1,0.25,1,0.5\n\ngdp,5,m1,0.25,2,0.5\n",
         "duplicate forecast key"),
        (agents.AgentForecastSet.from_csv, "series,time,agent,tau,a,A\ngdp,5,m1,0.25,1,0.5\n\ngdp,6,m1, ,1,0.5\n",
         "missing cell"),
        (agents.AgentForecastSet.from_csv,
         "series,time,agent,tau,a,A\ngdp,5,m1,0.25,1,0.5\n\ngdp,1990Q2,m1,0.25,1,0.5\n",
         "mixed quarterly and integer time formats"),
        (read_forecasts, "series,time,tau,point,lo95,hi95,n_draws\ngdp,5,0.25,1,2,3,4\n\ngdp,6,0.25,1,2,3\n",
         "missing cell"),
        (lambda path: ingest(path, h=1), "series,time,Y\na,0,1.0\n\na,1,abc\n", "level 'abc' is not a number"),
        (lambda path: ingest(path, h=1), "series,time,Y,z\na,0,1.0,0.5\n\na,1,1.1,inf\n",
         "predictor z is not finite"),
    ],
    ids=["agent_forecasts_bad_report", "agent_forecasts_duplicate_key", "agent_forecasts_empty_cell",
         "agent_forecasts_mixed_times", "forecasts", "panel", "panel_nonfinite_predictor"],
)
def test_csv_readers_name_the_file_line_after_a_blank_line(tmp_path, read, text, message):
    """A refusal names the line the bad row is on in the file, counting the blank line before it."""
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, row 4: {message}")):
        read(path)


def test_exports_resolve():
    """Every name in the package's and each submodule's ``__all__`` resolves."""
    import quantsynth

    for name in quantsynth.__all__:
        assert hasattr(quantsynth, name), f"quantsynth.{name}"
    for info in pkgutil.iter_modules(quantsynth.__path__):
        module = importlib.import_module(f"quantsynth.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"quantsynth.{info.name}.{name}"


def test_pipeline_import_loads_no_scipy(tmp_path):
    """Importing the pipeline, a backtest and a reconstruct load neither SciPy nor ``importlib.metadata``.

    SciPy's import costs each command about 0.19 s and 17 MB; reconstruction
    calls the package's own ``ndtri`` and the manifest reads no package metadata.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    write_level_panel(tmp_path / "levels.csv")
    raw = config_to_dict(backtest_config(tmp_path / "levels.csv", tmp_path / "out"))
    for spec in (*raw["agents"], raw["synthesis"]):
        spec.update(draws=50, burn=10)
    raw["plan"].update(agent_forecast_start="1997Q1", synth_fit_start="1997Q1", synth_forecast_start="1997Q3")
    cfg_path = tmp_path / "run.yaml"
    dump_config(config_from_dict(raw), cfg_path)
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'importlib.metadata'))"
    for run in (
        "import quantsynth.pipeline",
        f"from quantsynth import cli; assert cli.main(['backtest', '--config', {str(cfg_path)!r}]) == 0",
        f"from quantsynth import cli; assert cli.main(['reconstruct', '--config', {str(cfg_path)!r}]) == 0",
    ):
        code = f"import sys; sys.path.insert(0, {src!r}); {run}; {loaded}"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]", run


def test_bootstrap_imports_load_no_numerical_stack():
    """The bare package, the thread-limit bootstrap and the CLI module load neither NumPy nor SciPy.

    ``limit_worker_threads`` must set the thread limits before NumPy loads.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import quantsynth, quantsynth._worker, quantsynth.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_worker_pool_per_run(tmp_path, monkeypatch):
    """A backtest at workers=2 opens one pool of two workers; a stage without jobs opens none.

    The pool takes the platform's default start method and no initializer:
    the workers inherit the thread limits and the loaded package from the
    parent where the default is fork.
    """
    write_level_panel(tmp_path / "levels.csv")
    cfg = backtest_config(tmp_path / "levels.csv", tmp_path / "out")
    cfg = dataclasses.replace(
        cfg,
        agents=tuple(dataclasses.replace(a, draws=50, burn=0) for a in cfg.agents),
        synthesis=dataclasses.replace(cfg.synthesis, draws=6, burn=2),
    )
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.kwargs = kwargs
            self.pids = set()
            pools.append(self)

        def shutdown(self, *args, **kwargs):
            self.pids.update(self._processes or ())
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
    cfg = dataclasses.replace(cfg, workers=2)
    run_backtest(cfg)
    assert len(pools) == 1 and len(pools[0].pids) == 2
    assert "mp_context" not in pools[0].kwargs and "initializer" not in pools[0].kwargs
    assert multiprocessing.active_children() == []
    run_stages(cfg, ["evaluate"])
    assert len(pools) == 1


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
    for name in (*spans, "pipeline.plots"):
        assert data["spans"].get(name, {}).get("calls", 0) > 0, name
    # The benchmark checks the traced sweeps against the plan's fits x (draws + burn),
    # so a sampler that fits several levels per call must still count every sweep.
    panel = ingest(cfg.data.panel_csv, cfg.data.h)
    plan, n_series = make_plan(cfg, panel), len(panel.series_ids)
    synth = cfg.factor if factor else cfg.synthesis
    agent_sweeps = sum(a.draws + a.burn for a in cfg.agents)
    expected = len(plan.taus) * (
        len(plan.agent_targets) * n_series * agent_sweeps
        + len(plan.synth_targets) * (1 if factor else n_series) * (synth.draws + synth.burn)
    )
    traced = sum(
        data["spans"].get(name, {}).get("sum", {}).get("sweeps", 0)
        for name in ("agents.fit_dqlm", "drqs.gibbs_drqs", "fdrqs.gibbs_fdrqs")
    )
    assert traced == expected


def test_sweep_cost_script_runs_against_a_base_checkout(monkeypatch, capsys):
    """``scripts/sweep_cost.py`` runs every sampler, and a tree compared with itself gives the same draws."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_sweep_cost", root / "scripts" / "sweep_cost.py")
    sweep_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep_cost)
    for name, value in (("T_VALUES", (8,)), ("REPS", 2), ("SWEEPS", 2), ("FACTOR_SWEEPS", 1)):
        monkeypatch.setattr(sweep_cost, name, value)
    try:
        sweep_cost.main(["--base", str(root)])
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("quantsynth_this", "quantsynth_base")]:
            del sys.modules[name]
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["sampler", "T", "this_us", "base_us", "base/this", "same"]
    assert [row.split()[0] for row in rows] == ["fit_dqlm_p2", "fit_dqlm", "gibbs_drqs", "gibbs_fdrqs"]
    assert all(row.split()[-1] == "True" for row in rows), rows
    # ``same`` reads every array field, so a drift in any one of them shows.
    a = types.SimpleNamespace(cfg=None, u=np.zeros(2), n_T=np.zeros(2))
    b = types.SimpleNamespace(cfg=None, u=np.zeros(2), n_T=np.ones(2))
    assert sweep_cost._same_draws(a, a) and not sweep_cost._same_draws(a, b)


def test_report_cost_script_runs_against_a_base_checkout(monkeypatch, capsys):
    """``scripts/report_cost.py`` times every operation, and a tree compared with itself gives the same bytes."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_report_cost", root / "scripts" / "report_cost.py")
    report_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_cost)
    for name, value in (("SERIES", (2,)), ("TIMES", 3), ("REPS", 2)):
        monkeypatch.setattr(report_cost, name, value)
    try:
        report_cost.main(["--base", str(root)])
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("quantsynth_this", "quantsynth_base")]:
            del sys.modules[name]
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["op", "series", "this_s", "base_s", "base/this", "same"]
    assert [row.split()[:2] for row in rows] == [["from_csv", "2"], ["to_csv", "2"], ["reports", "2"]]
    assert all(row.split()[-1] == "True" for row in rows), rows


def test_untested_lines_script_lists_the_lines_no_test_reached(tmp_path):
    """``scripts/untested_lines.py`` traces the package lines a test run reaches and lists the rest."""
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_tiny.py").write_text(
        "from quantsynth.quarters import int_to_quarter\n\n\n"
        "def test_label():\n    assert int_to_quarter(5) == '1Q2'\n"
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "untested_lines.py"), "test_tiny.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    missed = {line.split(": ", 1)[0] for line in proc.stdout.splitlines()}
    source = (root / "src" / "quantsynth" / "quarters.py").read_text().splitlines()

    def where(text):
        return f"src/quantsynth/quarters.py:{next(n for n, s in enumerate(source, 1) if text in s)}"

    # int_to_quarter ran but not its refusal of a negative count; quarter_to_int never ran.
    assert where('return f"{t // 4}Q{t % 4 + 1}"') not in missed
    assert where("negative quarter count") in missed
    assert where("m = _QUARTER_RE.match(label.strip())") in missed
    assert proc.stdout.splitlines()[-1].endswith("reached by no test")
