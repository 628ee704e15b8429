"""Edge inputs on purpose: extreme quantile levels, near-constant series and floored variances.

Levels near 0 and 1 go through every sampler and forecaster.  A
near-constant series drives the squared residuals below ``CHI_FLOOR``, agent
reports can sit at ``VARIANCE_FLOOR``, and a scale so large that
``sigma * kappa2`` overflows sends the GIG's ``chi`` to 0; each must still
give finite draws.  A failure inside a sampler's sweep loop carries the
sweep it happened in.
"""

import numpy as np
import pytest

import oracles
from quantsynth import agents, drqs, fdrqs
from quantsynth.agents import VARIANCE_FLOOR, DQLMSpec, fit_dqlm, forecast_dqlm
from quantsynth.distributions import CHI_FLOOR, _gig_params, mixture_constants, sample_gig_half
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
    a, A = forecast_dqlm(fit, X[-1], rng)
    assert _finite(fit.beta, fit.sigma, fit.C_T, a, A)


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


@pytest.fixture
def floored_sweeps(monkeypatch):
    """Per sweep of the agent and DRQS samplers, how many squared residuals fell below ``CHI_FLOOR``."""
    counts = []

    def recording(resid, sigma, consts):
        counts.append(int(np.sum(resid * resid < CHI_FLOOR)))
        return _gig_params(resid, sigma, consts)

    monkeypatch.setattr(agents, "_gig_params", recording)
    monkeypatch.setattr(drqs, "_gig_params", recording)
    return counts


def _near_constant(rng, T: int) -> np.ndarray:
    return 2.0 + 1e-9 * rng.normal(size=T)


@pytest.mark.parametrize("sigma_rate, floored_A", [(0.01, False), (1e-20, True)])
def test_agent_model_on_near_constant_series(floored_sweeps, sigma_rate, floored_A):
    # A tiny prior rate lets sigma collapse with the series, down to a
    # forecast variance at its floor.
    rng = np.random.default_rng(8)
    T = 16
    X = np.ones((T, 1))
    fit = fit_dqlm(_near_constant(rng, T), X, DQLMSpec(tau=0.5, sigma_rate=sigma_rate), (60, 20), rng)
    a, A = forecast_dqlm(fit, X[-1], rng)
    assert any(floored_sweeps)
    assert _finite(fit.beta, fit.sigma, fit.C_T, a, A)
    assert (A == VARIANCE_FLOOR) == floored_A


@pytest.mark.parametrize("A", [0.3, VARIANCE_FLOOR])
def test_drqs_on_near_constant_series(floored_sweeps, A):
    # Agents that report the series itself; at A = VARIANCE_FLOOR they are
    # as sure as an agent forecast can be.
    rng = np.random.default_rng(9)
    T, J = 16, 2
    y = _near_constant(rng, T)
    a = y[:, None] + 1e-9 * rng.normal(size=(T, J))
    draws = gibbs_drqs(y, (a, np.full((T, J), A)), DRQSConfig(tau=0.5, J=J), mcmc=(40, 20), rng=rng)
    fc = forecast_drqs(draws, (np.full(J, 2.0), np.full(J, A)), rng)
    assert any(floored_sweeps)
    assert _finite(draws.theta, draws.sigma, draws.n_T, draws.s_T, draws.C_T, fc.draws)


def test_huge_scale_sends_chi_to_zero_and_draws_the_gamma_limit():
    # sigma * kappa2 overflows at tau = 0.01, so chi = CHI_FLOOR / inf = 0
    # while psi = 2 / sigma stays positive: the GIG draw takes its gamma
    # branch for those entries and the Wald branch for the rest.
    consts = mixture_constants(0.01)
    sigma = np.array([1e306, 1.0, 1e306, 0.5])
    with np.errstate(over="ignore"):
        chi, psi = _gig_params(np.array([0.0, 0.3, 5.0, 1e-8]), sigma, consts)
    assert np.array_equal(chi == 0.0, [True, False, True, False]) and np.all(psi > 0.0)
    v = np.maximum(sample_gig_half(chi, psi, np.random.default_rng(0)), CHI_FLOOR)
    assert _finite(v) and np.all(v > 0.0)
    assert np.array_equal(v, np.maximum(oracles.sample_gig_half(chi, psi, np.random.default_rng(0)), CHI_FLOOR))


def _run_agent_model(rng):
    T = 12
    X = np.column_stack([np.ones(T), rng.normal(size=T)])
    fit_dqlm(X @ np.array([0.5, 1.0]) + rng.normal(size=T), X, DQLMSpec(tau=0.5), (6, 4), rng)


def _run_drqs(rng):
    T, J = 12, 2
    y = rng.normal(size=T)
    a = y[:, None] + rng.normal(0.0, 0.5, (T, J))
    gibbs_drqs(y, (a, np.full((T, J), 0.3)), DRQSConfig(tau=0.5, J=J), mcmc=(6, 4), rng=rng)


def _run_fdrqs(rng):
    T, N, J = 12, 3, 2
    Y = rng.normal(size=(T, N))
    a = Y[:, :, None] + rng.normal(0.0, 0.5, (T, N, J))
    cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=1)
    gibbs_fdrqs(Y, (a, np.full((T, N, J), 0.3)), cfg, mcmc=(6, 4), rng=rng)


@pytest.mark.parametrize(
    "module, ffbs, run",
    [(agents, "ffbs_known_variance", _run_agent_model), (drqs, "ffbs_conjugate", _run_drqs),
     (fdrqs, "ffbs_known_variance", _run_fdrqs)],
)
@pytest.mark.parametrize("k", [1, 5, 10])
def test_failure_names_its_sweep(monkeypatch, module, ffbs, run, k):
    # Fault injection: the sampler's FFBS raises on its k-th call, which is
    # sweep k - 1 (burn-in counted) of the chain's 10.
    real, calls = getattr(module, ffbs), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise FloatingPointError("planted")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, ffbs, failing)
    with pytest.raises(FloatingPointError, match="planted") as info:
        run(np.random.default_rng(6))
    assert info.value.quantsynth_sweep == k - 1
