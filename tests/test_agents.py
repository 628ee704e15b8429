"""Agent-model fitting, forecasting, and forecast-set plumbing checks."""

import numpy as np
import pytest

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
        fc = forecast_dqlm(fit, x_next, np.random.default_rng(5), t_next=42)
        assert fc.t == 42
        assert abs(fc.a - cloud.mean()) < 1e-12
        assert abs(fc.A - cloud.var()) < 1e-12

    def test_degenerate_point_mass(self):
        bstar = np.array([2.0, -1.0])
        deg = DQLMFit(
            spec=DQLMSpec(tau=0.5, delta=1.0),
            beta=np.tile(bstar, (100, 5, 1)),
            sigma=np.ones(100),
            C_T=np.zeros((100, 2, 2)),
        )
        fc = forecast_dqlm(deg, np.array([1.0, 0.3]), np.random.default_rng(0))
        assert abs(fc.a - bstar @ np.array([1.0, 0.3])) < 1e-14
        assert fc.A == 1e-10

    def test_affine_equivariance(self):
        fit = self._small_fit()
        doubled = DQLMFit(
            spec=fit.spec, beta=2.0 * fit.beta, sigma=fit.sigma, C_T=4.0 * fit.C_T
        )
        x_next = np.array([1.0, 0.3])
        f1 = forecast_dqlm(fit, x_next, np.random.default_rng(42))
        f2 = forecast_dqlm(doubled, x_next, np.random.default_rng(42))
        assert abs(f2.a - 2.0 * f1.a) < 1e-12
        assert abs(f2.A - 4.0 * f1.A) < 1e-10

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
    def _fill(self, fset: AgentForecastSet) -> None:
        for offset, agent in enumerate(("m1", "m2")):
            for tau in (0.25, 0.75):
                for t in (5, 6, 7):
                    fset.add("gdp", t, agent, tau, a=0.1 * t + offset, A=0.5)

    def test_counts_and_lookup(self):
        fset = AgentForecastSet()
        self._fill(fset)
        assert len(fset) == 12
        assert fset.series_ids() == ["gdp"]
        assert fset.get("gdp", 6, "m2", 0.75).a == pytest.approx(1.6)

    def test_duplicate_key_rejected(self):
        fset = AgentForecastSet()
        fset.add("gdp", 5, "m1", 0.25, 0.0, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            fset.add("gdp", 5, "m1", 0.25, 0.3, 1.0)

    def test_nonpositive_variance_rejected(self):
        fset = AgentForecastSet()
        with pytest.raises(ValueError):
            fset.add("gdp", 5, "m1", 0.25, 0.0, 0.0)

    def test_panel_layout_and_missing_key(self):
        fset = AgentForecastSet()
        self._fill(fset)
        a, A = fset.panel("gdp", 0.25, [5, 6, 7], ["m2", "m1"])
        assert a.shape == (3, 2) and A.shape == (3, 2)
        np.testing.assert_allclose(a, [[1.5, 0.5], [1.6, 0.6], [1.7, 0.7]])
        np.testing.assert_allclose(A, 0.5)
        with pytest.raises(ValueError, match="missing forecast"):
            fset.panel("gdp", 0.25, [5, 6, 7, 8], ["m1", "m2"])

    def test_validate_flags_coverage_mismatch(self):
        fset = AgentForecastSet()
        self._fill(fset)
        fset.add("gdp", 8, "m1", 0.25, 0.0, 1.0)
        with pytest.raises(ValueError, match="covers times"):
            fset.validate()

    def test_csv_round_trip(self, tmp_path):
        fset = AgentForecastSet(quarterly=True)
        self._fill(fset)
        path = tmp_path / "agents.csv"
        fset.to_csv(path)
        back = AgentForecastSet.from_csv(path)
        assert back.quarterly
        assert len(back) == 12
        for key, fc in fset._data.items():
            got = back._data[key]
            assert got.a == fc.a and got.A == fc.A and got.tau == fc.tau

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
        with pytest.raises(ValueError, match="header"):
            AgentForecastSet.from_csv(path)
