"""Edge inputs on purpose: quantile levels near 0 and 1 through every sampler and forecaster."""

import numpy as np
import pytest

from quantsynth.agents import DQLMSpec, fit_dqlm, forecast_dqlm
from quantsynth.drqs import DRQSConfig, forecast_drqs, gibbs_drqs
from quantsynth.fdrqs import FDRQSConfig, forecast_fdrqs, gibbs_fdrqs

EXTREME_TAUS = (0.01, 0.99)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(x)) for x in arrays)


@pytest.mark.parametrize("tau", EXTREME_TAUS)
def test_agent_model_at_extreme_level(tau):
    rng = np.random.default_rng(3)
    T = 20
    X = np.column_stack([np.ones(T), rng.normal(size=T)])
    y = X @ np.array([0.5, 1.0]) + rng.normal(size=T)
    fit = fit_dqlm(y, X, DQLMSpec(tau=tau), mcmc=(50, 20), rng=rng)
    fc = forecast_dqlm(fit, X[-1], rng)
    assert _finite(fit.beta, fit.sigma, fit.C_T, fc.a, fc.A)


@pytest.mark.parametrize("tau", EXTREME_TAUS)
def test_drqs_at_extreme_level(tau):
    rng = np.random.default_rng(4)
    T, J = 20, 2
    y = rng.normal(size=T)
    a = y[:, None] + rng.normal(0.0, 0.5, (T, J))
    draws = gibbs_drqs(y, (a, np.full((T, J), 0.3)), DRQSConfig(tau=tau, J=J), mcmc=(30, 10), rng=rng)
    fc = forecast_drqs(draws, (np.zeros(J), np.full(J, 0.3)), rng)
    assert _finite(draws.theta, draws.sigma, draws.n_T, draws.s_T, draws.C_T, fc.draws)


@pytest.mark.parametrize("tau", EXTREME_TAUS)
def test_fdrqs_at_extreme_level(tau):
    rng = np.random.default_rng(5)
    T, N, J = 15, 3, 2
    Y = rng.normal(size=(T, N))
    a = Y[:, :, None] + rng.normal(0.0, 0.5, (T, N, J))
    cfg = FDRQSConfig(tau=tau, N=N, J=J, L=1)
    draws = gibbs_fdrqs(Y, (a, np.full((T, N, J), 0.3)), cfg, mcmc=(20, 10), rng=rng)
    ff = forecast_fdrqs(draws, (np.zeros((N, J)), np.full((N, J), 0.3)), rng)
    assert _finite(draws.u, draws.lam, draws.sigma, draws.deltas, draws.u_C_T, ff.joint)
