"""Agent-model fitting, forecasting, and forecast-set plumbing checks."""

import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantsynth import dlm
from quantsynth.agents import (
    AgentForecastSet,
    DQLMFit,
    DQLMSpec,
    fit_dqlm,
    forecast_dqlm,
    predictive_cloud,
)
from oracles import al_rvs


class TestFitDQLM:
    def test_constant_series_location_recovery(self):
        rng = np.random.default_rng(11)
        T = 80
        y = np.full(T, 3.0)
        X = np.ones((T, 1))
        fit = fit_dqlm(y, X, DQLMSpec(tau=0.5, delta=0.95), mcmc=(400, 200), rng=rng)
        track = fit.beta[:, :, 0]
        z = np.abs(track.mean(axis=0) - 3.0) / track.std(axis=0)
        assert np.all(z < 3.0)

    def test_quantile_line_recovery(self):
        # With AL(0.2) noise the 0.2-quantile line is exactly 1 + 0.5 x, so
        # the static (delta=1) coefficients must recover (1, 0.5).
        rng = np.random.default_rng(11)
        T = 400
        x = rng.normal(size=T)
        y = 1.0 + 0.5 * x + al_rvs(0.2, 1.0, T, rng)
        X = np.column_stack([np.ones(T), x])
        fit = fit_dqlm(y, X, DQLMSpec(tau=0.2, delta=1.0), mcmc=(600, 300), rng=rng)
        b = fit.beta[:, -1, :]
        z = np.abs(b.mean(axis=0) - np.array([1.0, 0.5])) / b.std(axis=0)
        assert np.all(z < 3.0)

    def test_median_track_matches_rolling_median_oracle(self):
        # Piecewise-constant location with symmetric noise: the tau=0.5 track
        # and a centered rolling empirical median estimate the same level, so
        # their averaged gap over stable stretches is zero up to seed noise.
        T = 120
        level = np.where(np.arange(T) < 60, 0.0, 2.0)
        window = 10
        stable = np.r_[15:46, 75:106]
        gaps = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            y = level + rng.normal(size=T)
            fit = fit_dqlm(
                y, np.ones((T, 1)), DQLMSpec(tau=0.5, delta=0.9), mcmc=(300, 150), rng=rng
            )
            track = fit.beta[:, :, 0].mean(axis=0)
            rolled = np.array(
                [np.median(y[max(0, t - window): t + window + 1]) for t in range(T)]
            )
            gaps.append(np.mean(track[stable] - rolled[stable]))
        gaps = np.asarray(gaps)
        se = gaps.std(ddof=1) / np.sqrt(gaps.size)
        assert abs(gaps.mean()) <= 3 * se

    def test_zero_draws_is_error(self):
        with pytest.raises(ValueError):
            fit_dqlm(
                np.zeros(10), np.ones((10, 1)), DQLMSpec(tau=0.5),
                mcmc=(0, 10), rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    @pytest.mark.parametrize("name", ["prior_scale", "sigma_shape", "sigma_rate"])
    def test_spec_refuses_bad_hyperparameter(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
            DQLMSpec(tau=0.5, **{name: value})

    def test_failed_eigh_raises_without_a_warning(self, monkeypatch):
        # Fault injection: psd_sqrt's eigh gets NaN (T, 3, 3) scales, on which
        # the gufunc fails and sets the invalid flag.
        eigh = dlm._eigh
        monkeypatch.setattr(dlm, "_eigh", lambda a: eigh(np.full_like(a, np.nan)))
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(12), rng.normal(size=(12, 2))])
        with warnings.catch_warnings(), pytest.raises(
            np.linalg.LinAlgError, match="^Eigenvalues did not converge$"
        ) as info:
            warnings.simplefilter("error")
            fit_dqlm(rng.normal(size=12), X, DQLMSpec(tau=0.5), mcmc=(2, 2), rng=rng)
        assert info.value.quantsynth_sweep == 0

    def test_rejects_nonfinite_design(self):
        X = np.ones((10, 1))
        X[3] = np.nan
        with pytest.raises(ValueError):
            fit_dqlm(np.zeros(10), X, DQLMSpec(tau=0.5), mcmc=(10, 0), rng=np.random.default_rng(0))


class TestForecastDQLM:
    def _small_fit(self) -> DQLMFit:
        rng = np.random.default_rng(2)
        return DQLMFit(
            spec=DQLMSpec(tau=0.5, delta=0.9),
            beta=rng.normal(size=(200, 4, 2)),
            sigma=np.ones(200),
            C_T=np.broadcast_to(np.eye(2) * 0.1, (200, 2, 2)).copy(),
        )

    def test_moments_equal_predictive_cloud(self):
        fit = self._small_fit()
        x_next = np.array([1.0, 0.3])
        cloud = predictive_cloud(fit, x_next, np.random.default_rng(5))
        a, A = forecast_dqlm(fit, x_next, np.random.default_rng(5))
        assert abs(a - cloud.mean()) < 1e-12
        assert abs(A - cloud.var()) < 1e-12

    def test_degenerate_point_mass(self):
        bstar = np.array([2.0, -1.0])
        deg = DQLMFit(
            spec=DQLMSpec(tau=0.5, delta=1.0),
            beta=np.tile(bstar, (100, 5, 1)),
            sigma=np.ones(100),
            C_T=np.zeros((100, 2, 2)),
        )
        a, A = forecast_dqlm(deg, np.array([1.0, 0.3]), np.random.default_rng(0))
        assert abs(a - bstar @ np.array([1.0, 0.3])) < 1e-14
        assert A == 1e-10

    def test_affine_equivariance(self):
        fit = self._small_fit()
        doubled = DQLMFit(
            spec=fit.spec, beta=2.0 * fit.beta, sigma=fit.sigma, C_T=4.0 * fit.C_T
        )
        x_next = np.array([1.0, 0.3])
        a1, A1 = forecast_dqlm(fit, x_next, np.random.default_rng(42))
        a2, A2 = forecast_dqlm(doubled, x_next, np.random.default_rng(42))
        assert abs(a2 - 2.0 * a1) < 1e-12
        assert abs(A2 - 4.0 * A1) < 1e-10

    def test_too_few_draws_is_error(self):
        short = DQLMFit(
            spec=DQLMSpec(tau=0.5),
            beta=np.zeros((20, 3, 1)),
            sigma=np.ones(20),
            C_T=np.zeros((20, 1, 1)),
        )
        with pytest.raises(ValueError):
            forecast_dqlm(short, np.ones(1), np.random.default_rng(0))

    def test_rejects_unobserved_regressor(self):
        fit = self._small_fit()
        with pytest.raises(ValueError):
            forecast_dqlm(fit, np.array([1.0, np.nan]), np.random.default_rng(0))


class TestAgentForecastSet:
    @staticmethod
    def _rows() -> list:
        return [
            ("gdp", t, agent, tau, 0.1 * t + offset, 0.5)
            for offset, agent in enumerate(("m1", "m2"))
            for tau in (0.25, 0.75)
            for t in (5, 6, 7)
        ]

    def test_counts_and_lookup(self):
        fset = AgentForecastSet.from_rows(self._rows())
        assert (fset.taus, fset.t0, fset.series, fset.agents) == ((0.25, 0.75), 5, ("gdp",), ("m1", "m2"))
        assert fset.a.shape == fset.A.shape == (2, 3, 1, 2)
        assert np.count_nonzero(~np.isnan(fset.a)) == 12
        a, A = fset.reports([0.75], [6], ["gdp"], ["m2"])
        assert a.item() == pytest.approx(1.6) and A.item() == 0.5

    def test_duplicate_key_rejected(self):
        rows = [("gdp", 5, "m1", 0.25, 0.0, 1.0), ("gdp", 5, "m1", 0.25, 0.3, 1.0)]
        with pytest.raises(ValueError, match="row 1: duplicate"):
            AgentForecastSet.from_rows(rows)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError, match="variance A must be positive"):
            AgentForecastSet.from_rows([("gdp", 5, "m1", 0.25, 0.0, 0.0)])

    def test_panel_layout_and_missing_key(self):
        fset = AgentForecastSet.from_rows(self._rows())
        a, A = fset.reports([0.25], [5, 6, 7], ["gdp"], ["m2", "m1"])
        assert a.shape == A.shape == (1, 3, 1, 2) and a.flags.c_contiguous
        np.testing.assert_allclose(a[0, :, 0], [[1.5, 0.5], [1.6, 0.6], [1.7, 0.7]])
        np.testing.assert_allclose(A, 0.5)
        with pytest.raises(ValueError, match="missing forecast for series=gdp t=8 agent=m1 tau=0.25"):
            fset.reports([0.25], [5, 6, 7, 8], ["gdp"], ["m1", "m2"])
        for labels in (([0.5], [5], ["gdp"], ["m1"]), ([0.25], [5], ["cpi"], ["m1"]),
                       ([0.25], [5], ["gdp"], ["m3"]), ([0.25], [4], ["gdp"], ["m1"])):
            with pytest.raises(ValueError, match="missing forecast"):
                fset.reports(*labels)

    def test_validate_flags_coverage_mismatch(self):
        with pytest.raises(ValueError, match="covers times"):
            AgentForecastSet.from_rows(self._rows() + [("gdp", 8, "m1", 0.25, 0.0, 1.0)])

    @pytest.mark.parametrize(
        "times, extra, message",
        [((5, 7), None, r"series infl: gap in time index at \[6\]"),
         ((5, 6), ("m2", 0.75, 7), r"series infl: \(agent, tau\)=\('m2', 0.75\) covers times")],
    )
    def test_validate_names_the_second_series(self, times, extra, message):
        """Only the second series is bad; the refusal names it, not the first."""
        rows = self._rows() + [
            ("infl", t, agent, tau, 0.0, 1.0) for agent in ("m1", "m2") for tau in (0.25, 0.75) for t in times
        ]
        if extra is not None:
            agent, tau, t = extra
            rows.append(("infl", t, agent, tau, 0.0, 1.0))
        with pytest.raises(ValueError, match=message):
            AgentForecastSet.from_rows(rows)

    def test_csv_round_trip(self, tmp_path):
        fset = AgentForecastSet.from_rows(self._rows(), quarterly=True)
        path = tmp_path / "agents.csv"
        fset.to_csv(path)
        assert path.read_text().splitlines()[1] == "gdp,1Q2,m1,0.25,0.5,0.5"
        back = AgentForecastSet.from_csv(path)
        assert back.quarterly
        assert (back.taus, back.t0, back.series, back.agents) == (fset.taus, fset.t0, fset.series, fset.agents)
        assert np.array_equal(back.a, fset.a, equal_nan=True) and np.array_equal(back.A, fset.A, equal_nan=True)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        series=st.lists(st.text("abcxyz019_-", min_size=1, max_size=5), min_size=1, max_size=3, unique=True),
        agents=st.lists(st.text("abcxyz019_-", min_size=1, max_size=5), min_size=1, max_size=3, unique=True),
        taus=st.lists(st.floats(1e-6, 1.0 - 1e-6) | st.sampled_from([0.05, 0.15 + 1e-13]),
                      min_size=1, max_size=3, unique_by=lambda t: round(t, 10)),
        start=st.integers(0, 9000),
        n_times=st.integers(1, 3),
        quarterly=st.booleans(),
        data=st.data(),
    )
    def test_csv_round_trip_keeps_every_value(self, series, agents, taus, start, n_times, quarterly, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        times = range(start, start + n_times)
        rows = [
            (s, t, agent, tau, data.draw(finite), data.draw(positive))
            for s in series for t in times for agent in agents for tau in taus
        ]
        fset = AgentForecastSet.from_rows(rows, quarterly=quarterly)
        with tempfile.TemporaryDirectory() as tmp:
            fset.to_csv(Path(tmp) / "agents.csv")
            back = AgentForecastSet.from_csv(Path(tmp) / "agents.csv")
        assert back.quarterly == quarterly and back.taus == tuple(sorted(taus))
        a, A = back.reports(taus, times, series, agents)
        for s, t, agent, tau, a_in, A_in in rows:
            cell = (taus.index(tau), t - start, series.index(s), agents.index(agent))
            assert (a[cell], A[cell]) == (a_in, A_in)

    def test_series_may_cover_different_runs_and_agents(self, tmp_path):
        """Each series keeps its own gap-free run and its own agents; the file reads back byte for byte."""
        text = (
            "series,time,agent,tau,a,A\n"
            "gdp,1990Q1,m1,0.25,0.5,1.0\n"
            "gdp,1990Q1,m1,0.75,1.5,1.0\n"
            "gdp,1990Q1,m2,0.25,0.25,2.0\n"
            "gdp,1990Q1,m2,0.75,1.25,2.0\n"
            "gdp,1990Q2,m1,0.25,-0.5,1.0\n"
            "gdp,1990Q2,m1,0.75,-1.5,1.0\n"
            "gdp,1990Q2,m2,0.25,-0.25,2.0\n"
            "gdp,1990Q2,m2,0.75,-1.25,2.0\n"
            "infl,1990Q3,m2,0.25,3.0,0.5\n"
            "infl,1990Q3,m2,0.75,4.0,0.5\n"
            "infl,1990Q4,m2,0.25,3.5,0.5\n"
            "infl,1990Q4,m2,0.75,4.5,0.5\n"
            "infl,1991Q1,m2,0.25,3.25,0.5\n"
            "infl,1991Q1,m2,0.75,4.25,0.5\n"
        )
        path = tmp_path / "agents.csv"
        path.write_text(text)
        AgentForecastSet.from_csv(path).to_csv(tmp_path / "back.csv")
        assert (tmp_path / "back.csv").read_text() == text

    def test_level_written_two_ways_refused(self, tmp_path):
        """One array level holds one float, so a second spelling of a level is refused by its row."""
        path = tmp_path / "agents.csv"
        path.write_text(
            "series,time,agent,tau,a,A\n"
            "gdp,5,m1,0.25,0.1,1.0\n"
            "gdp,5,m2,0.25000000000001,0.1,1.0\n"
        )
        with pytest.raises(ValueError, match=re.escape(
            f"{path}, row 3: level 0.25 is written as 0.25 and as 0.25000000000001"
        )):
            AgentForecastSet.from_csv(path)

    def test_csv_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "series,time,agent,tau,a,A\n"
            "gdp,5,m1,0.25,0.1,1.0\n"
            "gdp,6,m1,0.25,0.1,0.0\n"
        )
        with pytest.raises(ValueError, match="row 3"):
            AgentForecastSet.from_csv(path)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("series,time,agent,tau,mean,var\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected header series,time,agent")):
            AgentForecastSet.from_csv(path)
