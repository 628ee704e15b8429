"""Shared oracles and synthetic-data builders for the test suite."""

from __future__ import annotations

import numpy as np

from quantsynth.config import RunConfig, config_from_dict
from quantsynth.quarters import quarter_to_int


def ks_distance(sample: np.ndarray, cdf) -> float:
    """Exact Kolmogorov-Smirnov distance between a sample and a CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(hi - F, F - (hi - 1.0 / n))))


def uniform_ecdf_distance(values: np.ndarray) -> float:
    """KS distance of values in [0, 1] from the uniform distribution."""
    return ks_distance(values, lambda u: np.clip(u, 0.0, 1.0))


def density_chisquare_pvalue(
    draws: np.ndarray, density, n_bins: int = 30
) -> float:
    """Chi-square p-value of positive draws against an unnormalized density.

    Bins are equal-mass in the empirical distribution; expected masses come
    from adaptive quadrature of ``density`` over each bin, so the oracle never
    reuses the sampler's own parameterization.
    """
    from scipy import stats
    from scipy.integrate import quad

    draws = np.asarray(draws, dtype=float)
    edges = np.quantile(draws, np.linspace(0.0, 1.0, n_bins + 1))
    edges[0], edges[-1] = 0.0, np.inf
    Z, _ = quad(density, 0.0, np.inf, limit=400)
    probs = np.array(
        [quad(density, edges[k], edges[k + 1], limit=400)[0] / Z for k in range(n_bins)]
    )
    finite = edges.copy()
    finite[-1] = max(float(draws.max()) * 10.0, 1e9)
    counts = np.histogram(draws, bins=finite)[0]
    expected = probs / probs.sum() * draws.size
    return float(stats.chisquare(counts, expected).pvalue)


def dense_joint_smoother(y, F, offsets, obs_var, m0, C0, delta):
    """Smoothed state moments by dense conditioning.

    Builds the exact joint Gaussian over all states and observations of the
    discount random-walk DLM (evolution covariance ``C_{t-1}(1-delta)/delta``
    with the filtered covariance path recomputed here from textbook Kalman
    updates) and conditions once.  Shares only the model definition with the
    sequential samplers, none of their recursions.

    Returns ``(post_mean, post_cov)``, the mean and covariance of the stacked
    ``(T*p,)`` state vector given all observations.
    """
    y = np.asarray(y, dtype=float)
    F = np.asarray(F, dtype=float)
    T, N, p = F.shape
    offsets = np.broadcast_to(np.asarray(offsets, dtype=float), (T, N))
    obs_var = np.broadcast_to(np.asarray(obs_var, dtype=float), (T, N))
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    C0 = np.atleast_2d(np.asarray(C0, dtype=float))

    # The filtered covariances depend only on the design and the variances.
    C_filt = []
    C_prev = C0
    for t in range(T):
        R = C_prev / delta
        Q = F[t] @ R @ F[t].T + np.diag(obs_var[t])
        gain = R @ F[t].T @ np.linalg.inv(Q)
        C_prev = R - gain @ Q @ gain.T
        C_filt.append(C_prev)

    cum = [C0 / delta]
    for t in range(1, T):
        cum.append(cum[-1] + C_filt[t - 1] * (1.0 - delta) / delta)
    S = np.zeros((T * p, T * p))
    for t in range(T):
        for u in range(T):
            S[t * p:(t + 1) * p, u * p:(u + 1) * p] = cum[min(t, u)]
    Fbig = np.zeros((T * N, T * p))
    for t in range(T):
        Fbig[t * N:(t + 1) * N, t * p:(t + 1) * p] = F[t]
    mu_s = np.tile(m0, T)
    mu_y = offsets.ravel() + Fbig @ mu_s
    Sy = Fbig @ S @ Fbig.T + np.diag(obs_var.ravel())
    Ssy = S @ Fbig.T
    resid = y.ravel() - mu_y
    post_mean = mu_s + Ssy @ np.linalg.solve(Sy, resid)
    post_cov = S - Ssy @ np.linalg.solve(Sy, Ssy.T)
    return post_mean, post_cov


def write_level_panel(path, seed: int = 812, n_quarters: int = 36) -> None:
    """Write a three-series quarterly level panel with one predictor column.

    Growth is a drift plus a lagged effect of the predictor ``z``, so an
    agent using ``z`` has real signal to pick up.
    """
    rng = np.random.default_rng(seed)
    t0 = quarter_to_int("1990Q1")
    lines = ["series,time,Y,z"]
    for sid, drift in (("alpha", 0.004), ("beta", 0.006), ("gamma", 0.002)):
        z = rng.normal(0.0, 1.0, n_quarters)
        growth = drift + 0.002 * np.concatenate([[0.0], z[:-1]])
        growth = growth + rng.normal(0.0, 0.004, n_quarters)
        levels = 100.0 * np.exp(np.cumsum(growth))
        for k in range(n_quarters):
            q = t0 + k
            label = f"{q // 4}Q{q % 4 + 1}"
            lines.append(f"{sid},{label},{float(levels[k])!r},{float(z[k])!r}")
    path.write_text("\n".join(lines) + "\n")


def backtest_config(
    panel_csv,
    out_dir,
    taus=(0.1, 0.35, 0.65, 0.9),
    seed: int = 4242,
    workers: int = 1,
) -> RunConfig:
    """Fast expanding-window run configuration over the synthetic level panel."""
    return config_from_dict(
        {
            "data": {"panel_csv": str(panel_csv), "h": 1, "predictor_lag": 1},
            "plan": {
                "agent_fit_start": "1991Q1",
                "agent_forecast_start": "1996Q1",
                "synth_fit_start": "1996Q1",
                "synth_forecast_start": "1997Q1",
                "end": "1997Q4",
                "taus": list(taus),
                "seed": seed,
            },
            "agents": [
                {"name": "base", "predictors": ["y_lag"], "draws": 120, "burn": 60},
                {"name": "zlag", "predictors": ["y_lag", "z"], "draws": 120, "burn": 60},
            ],
            "synthesis": {"draws": 200, "burn": 100},
            "evaluation": {"reconstruction_draws": 2000},
            "workers": workers,
            "out_dir": str(out_dir),
        }
    )
