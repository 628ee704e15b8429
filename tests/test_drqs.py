"""Tests for the univariate quantile-synthesis sampler and forecaster."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binomtest

from quantsynth import drqs
from quantsynth.distributions import mixture_constants
from quantsynth.dlm import DiscountConfig, NormalGammaPrior, psd_sqrt
from quantsynth.drqs import (
    DRQSConfig,
    DRQSDraws,
    _evolve_scale,
    default_synthesis_prior,
    forecast_drqs,
    gibbs_drqs,
    latent_predictor_moments,
)


def _hand_draws(cfg, theta, sigma, n_T, s_T, C_T):
    """Assemble a DRQSDraws container from explicit arrays."""
    R = theta.shape[0]
    return DRQSDraws(
        cfg=cfg,
        theta=theta,
        sigma=sigma,
        n_T=np.full(R, float(n_T)),
        s_T=np.full(R, float(s_T)),
        C_T=np.broadcast_to(C_T, (R, cfg.J + 1, cfg.J + 1)).copy(),
    )


class TestLatentPredictorStep:
    def test_zero_weight_decouples_to_agent_report(self):
        # With all agent weights zero the observation carries no information
        # about f, so the full conditional is exactly the agent report.
        rng = np.random.default_rng(3)
        T, J = 6, 2
        consts = mixture_constants(0.3)
        theta = np.zeros((T, J + 1))
        theta[:, 0] = 0.7
        a = rng.normal(size=(T, J))
        A = rng.uniform(0.5, 2.0, size=(T, J))
        y = rng.normal(size=T)
        v = rng.uniform(0.5, 1.5, size=T)
        sigma = rng.uniform(0.5, 2.0, size=T)

        f_hat, cov, root = latent_predictor_moments(y, theta, sigma, v, a, A, consts)
        np.testing.assert_allclose(f_hat, a, atol=1e-12)
        for t in range(T):
            np.testing.assert_allclose(cov[t], np.diag(A[t]), atol=1e-12)
            np.testing.assert_allclose(root[t] @ root[t], cov[t], atol=1e-12)

    @pytest.mark.parametrize("A_val", [0.8, 1e12])
    def test_single_site_moments_match_quadrature(self, A_val):
        # J=1 full conditional: numeric moments of the product of the
        # Gaussian likelihood term and the agent-report prior.
        consts = mixture_constants(0.3)
        k1, k2 = consts
        theta = np.array([[0.4, 1.3]])
        y = np.array([2.0])
        v = np.array([0.7])
        sigma = np.array([1.2])
        a = np.array([[0.3]])
        A = np.array([[A_val]])

        f_hat, cov, _ = latent_predictor_moments(y, theta, sigma, v, a, A, consts)

        c = sigma[0] * k2 * v[0]

        def dens(fv):
            like = np.exp(-0.5 * (y[0] - theta[0, 0] - fv * theta[0, 1] - k1 * v[0]) ** 2 / c)
            return like * np.exp(-0.5 * (fv - a[0, 0]) ** 2 / A[0, 0])

        Z, _ = quad(dens, -60, 60, limit=400)
        m1, _ = quad(lambda fv: fv * dens(fv) / Z, -60, 60, limit=400)
        m2, _ = quad(lambda fv: fv * fv * dens(fv) / Z, -60, 60, limit=400)
        assert abs(f_hat[0, 0] - m1) < 1e-7
        assert abs(cov[0, 0, 0] - (m2 - m1 * m1)) < 1e-7

    def test_nan_precision_is_refused(self):
        # A NaN weight gives a NaN eigenvalue, which the positivity check
        # refuses with np.linalg.eigh's message for a failed eigh.
        theta = np.array([[0.4, 1.3, 0.2], [0.4, np.nan, 0.2]])
        ones = np.ones(2)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            latent_predictor_moments(ones, theta, ones, ones, np.zeros((2, 2)), np.ones((2, 2)),
                                     mixture_constants(0.3))


class TestGibbsDRQS:
    def test_failed_eigh_raises_without_a_warning(self, monkeypatch):
        # Fault injection: the latent-predictor eigh gets NaN (3, 3) matrices,
        # on which the gufunc fails and sets the invalid flag.
        eigh = drqs._eigh
        monkeypatch.setattr(drqs, "_eigh", lambda a: eigh(np.full_like(a, np.nan)))
        rng = np.random.default_rng(5)
        y = rng.normal(size=8)
        agents = (y[:, None] + rng.normal(0.0, 0.5, (8, 3)), np.full((8, 3), 0.3))
        with warnings.catch_warnings(), pytest.raises(
            np.linalg.LinAlgError, match="^Eigenvalues did not converge$"
        ) as info:
            warnings.simplefilter("error")
            gibbs_drqs(y, agents, DRQSConfig(tau=0.5, J=3), mcmc=(2, 2), rng=rng)
        assert info.value.quantsynth_sweep == 0

    def test_recovers_unit_weight_on_truth_telling_agent(self):
        # One agent reports the true quantile with tiny variance; the
        # posterior weight band should cover 1 at nearly every time.
        rng = np.random.default_rng(3)
        T, tau = 150, 0.3
        k1, k2 = mixture_constants(tau)
        true_q = 1.5 * np.sin(np.arange(T) / 18.0)
        sig_true = 1.0
        v_true = rng.exponential(sig_true, size=T)
        y = true_q + k1 * v_true + np.sqrt(sig_true * k2 * v_true) * rng.normal(size=T)

        cfg = DRQSConfig(tau=tau, J=1, disc=DiscountConfig(0.95, 0.95))
        draws = gibbs_drqs(
            y, (true_q[:, None], np.full((T, 1), 1e-6)), cfg, mcmc=(600, 300), rng=rng
        )
        w_mean = draws.theta[:, :, 1].mean(axis=0)
        w_sd = draws.theta[:, :, 1].std(axis=0)
        coverage = np.mean(np.abs(w_mean - 1.0) <= 3.0 * w_sd)
        assert coverage >= 0.9

    def test_one_sweep_is_exchangeable_in_agent_order(self):
        # Name-keyed substreams: permuting the agent columns together with
        # their names permutes the draw, bit for bit up to float noise.  The
        # weights depend on the sweep's mixing variables and latent
        # predictors, so a permuted weight draw checks those too.
        rng = np.random.default_rng(5)
        T = 40
        a = rng.normal(size=(T, 2))
        A = rng.uniform(0.5, 1.5, size=(T, 2))
        y = rng.normal(size=T)
        cfg = DRQSConfig(tau=0.5, J=2)

        d1 = gibbs_drqs(y, (a, A), cfg, mcmc=(1, 0), rng=np.random.default_rng(99),
                        agent_names=["alpha", "beta"])
        d2 = gibbs_drqs(y, (a[:, ::-1], A[:, ::-1]), cfg, mcmc=(1, 0),
                        rng=np.random.default_rng(99), agent_names=["beta", "alpha"])

        np.testing.assert_allclose(d1.theta[0], d2.theta[0][:, [0, 2, 1]], atol=1e-8)

    def test_static_scale_discount_freezes_sigma_path(self):
        # beta = 1 removes the scale evolution, so every retained draw
        # carries a single sigma value replicated across time.
        rng = np.random.default_rng(11)
        T = 12
        y = rng.normal(size=T)
        a = rng.normal(size=(T, 1))
        A = np.full((T, 1), 1.0)
        cfg = DRQSConfig(tau=0.5, J=1, disc=DiscountConfig(0.9, 1.0))
        draws = gibbs_drqs(y, (a, A), cfg, mcmc=(5, 5), rng=rng)
        spread = np.abs(draws.sigma - draws.sigma[:, :1]).max()
        assert spread == 0.0

    def test_posterior_draws_average_back_to_prior(self):
        # Marginal-conditional check: simulate (parameters, data) from the
        # model, run the sampler on each data set, and keep one draw.  The
        # kept draws are then draws from the prior, so their first and
        # second moments must match the closed-form prior moments.
        tau = 0.3
        k1, k2 = mixture_constants(tau)
        T, J, M = 20, 2, 400
        m0 = np.array([0.2, 0.5, 0.5])
        C0 = np.diag([1.0, 0.5, 0.5])
        n0, s0 = 6.0, 1.0
        cfg = DRQSConfig(
            tau=tau, J=J, prior=NormalGammaPrior(m0, C0, n0, s0),
            disc=DiscountConfig(1.0, 1.0),
        )
        a = np.zeros((T, J))
        A = np.ones((T, J))
        C0_root = psd_sqrt(C0)

        rng = np.random.default_rng(77)
        kept_theta = np.empty((M, J + 1))
        kept_sigma = np.empty(M)
        for m in range(M):
            phi = rng.gamma(n0 / 2.0, 2.0 / (n0 * s0))
            theta = m0 + C0_root @ rng.standard_normal(J + 1) / np.sqrt(phi * s0)
            f = a + np.sqrt(A) * rng.standard_normal((T, J))
            v = rng.exponential(1.0 / phi, size=T)
            y = (theta[0] + f @ theta[1:] + k1 * v
                 + np.sqrt(k2 * v / phi) * rng.standard_normal(T))
            d = gibbs_drqs(y, (a, A), cfg, mcmc=(1, 50), rng=rng)
            kept_theta[m] = d.theta[0, 0]
            kept_sigma[m] = d.sigma[0, 0]

        # prior: theta_i has mean m0_i and variance C0_ii * E[1/phi] with
        # E[1/phi] = (n0 s0/2) / (n0/2 - 1); sigma = 1/phi has that mean too.
        e_inv_phi = (n0 * s0 / 2.0) / (n0 / 2.0 - 1.0)
        var_theta = np.diag(C0) * e_inv_phi / s0
        for i in range(J + 1):
            se = kept_theta[:, i].std(ddof=1) / np.sqrt(M)
            assert abs(kept_theta[:, i].mean() - m0[i]) < 4.0 * se
            sq = kept_theta[:, i] ** 2
            se2 = sq.std(ddof=1) / np.sqrt(M)
            assert abs(sq.mean() - (m0[i] ** 2 + var_theta[i])) < 4.0 * se2
        se_s = kept_sigma.std(ddof=1) / np.sqrt(M)
        assert abs(kept_sigma.mean() - e_inv_phi) < 4.0 * se_s

    def test_rejects_bad_inputs(self):
        y = np.zeros(5)
        a = np.zeros((5, 1))
        cfg = DRQSConfig(tau=0.5, J=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="positive and finite"):
            gibbs_drqs(y, (a, np.zeros((5, 1))), cfg, mcmc=(1, 0), rng=rng)
        with pytest.raises(ValueError, match="shape"):
            gibbs_drqs(y, (np.zeros((4, 1)), np.ones((4, 1))), cfg, mcmc=(1, 0), rng=rng)
        with pytest.raises(ValueError, match="draw count"):
            gibbs_drqs(y, (a, np.ones((5, 1))), cfg, mcmc=(0, 10), rng=rng)
        y_bad = y.copy()
        y_bad[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gibbs_drqs(y_bad, (a, np.ones((5, 1))), cfg, mcmc=(1, 0), rng=rng)
        with pytest.raises(ValueError, match="burn-in must be nonnegative, got -3"):
            gibbs_drqs(y, (a, np.ones((5, 1))), cfg, mcmc=(5, -3), rng=rng)

    def test_rejects_tau_and_dimension_errors(self):
        with pytest.raises(ValueError, match="tau"):
            DRQSConfig(tau=1.2, J=1)
        with pytest.raises(ValueError, match="at least one agent"):
            DRQSConfig(tau=0.5, J=0)
        with pytest.raises(ValueError, match="prior dimension"):
            DRQSConfig(tau=0.5, J=2, prior=default_synthesis_prior(1))


class TestForecastDRQS:
    def test_point_mass_agent_passes_through(self):
        # Unit weight, negligible scale, static discounts: the forecast is
        # the lone agent's reported mean.
        R = 3000
        cfg = DRQSConfig(
            tau=0.5, J=1, disc=DiscountConfig(1.0, 1.0),
            prior=NormalGammaPrior(np.zeros(2), np.eye(2), 1.0, 1.0),
        )
        theta = np.zeros((R, 3, 2))
        theta[:, :, 1] = 1.0
        dd = _hand_draws(cfg, theta, np.full((R, 3), 1e-8), 10.0, 1.0, np.eye(2))
        fc = forecast_drqs(dd, (np.array([2.5]), np.array([1e-12])),
                           np.random.default_rng(1))
        assert abs(fc.point - 2.5) < 1e-3
        assert fc.interval[0] <= fc.point <= fc.interval[1]
        assert fc.tau == 0.5

    def test_equal_weight_prior_averages_agent_means(self):
        # theta pinned at the default prior mean (weight 1/J each): the
        # forecast centre is the average of the agent means.
        R, J = 3000, 3
        prior = default_synthesis_prior(J)
        cfg = DRQSConfig(tau=0.5, J=J, disc=DiscountConfig(1.0, 1.0))
        theta = np.broadcast_to(prior.m0, (R, 2, J + 1)).copy()
        dd = _hand_draws(cfg, theta, np.ones((R, 2)), 5.0, 1.0, np.eye(J + 1))
        a_next = np.array([1.0, 3.0, -2.0])
        A_next = np.full(J, 0.5)
        fc = forecast_drqs(dd, (a_next, A_next), np.random.default_rng(7))
        assert abs(fc.point - a_next.mean()) < 0.05

    def test_wider_agent_variance_widens_interval(self):
        # Doubling every agent's reported variance should widen the central
        # 95% interval; a sign test over independent seeds confirms it.
        R, J = 2000, 2
        cfg = DRQSConfig(tau=0.5, J=J, disc=DiscountConfig(1.0, 1.0))
        a_next = np.array([0.5, -0.25])
        A_next = np.array([0.6, 1.1])
        wider = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rng = np.random.default_rng(1000 + seed)
            theta = rng.normal(0.0, 0.4, size=(R, 2, J + 1))
            dd = _hand_draws(cfg, theta, np.ones((R, 2)), 5.0, 1.0, np.eye(J + 1))
            fc1 = forecast_drqs(dd, (a_next, A_next), np.random.default_rng(seed))
            fc2 = forecast_drqs(dd, (a_next, 2.0 * A_next), np.random.default_rng(seed))
            w1 = fc1.interval[1] - fc1.interval[0]
            w2 = fc2.interval[1] - fc2.interval[0]
            wider += int(w2 > w1)
        assert binomtest(wider, n_seeds, 0.5, alternative="greater").pvalue < 0.01

    def test_static_beta_keeps_scale_fixed(self):
        sigma_T = np.array([0.3, 1.7, 2.2])
        out = _evolve_scale(sigma_T, np.full(3, 8.0), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, sigma_T)

    def test_beta_shock_preserves_scale_on_average(self):
        # E[beta/gamma] with gamma ~ Beta(beta n/2, (1-beta) n/2) equals
        # beta (n/2 - 1) / (beta n/2 - 1); check the Monte Carlo mean.
        rng = np.random.default_rng(21)
        n_T, beta = 30.0, 0.9
        R = 200_000
        out = _evolve_scale(np.ones(R), np.full(R, n_T), beta, rng)
        expect = beta * (n_T / 2.0 - 1.0) / (beta * n_T / 2.0 - 1.0)
        se = out.std(ddof=1) / np.sqrt(R)
        assert abs(out.mean() - expect) < 3.0 * se

    def test_rejects_bad_next_step_inputs(self):
        R = 100
        cfg = DRQSConfig(tau=0.5, J=2, disc=DiscountConfig(1.0, 1.0))
        theta = np.zeros((R, 2, 3))
        dd = _hand_draws(cfg, theta, np.ones((R, 2)), 5.0, 1.0, np.eye(3))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="must have shape \\(2,\\)"):
            forecast_drqs(dd, (np.zeros(1), np.ones(1)), rng)
        with pytest.raises(ValueError, match="positive"):
            forecast_drqs(dd, (np.zeros(2), np.array([1.0, 0.0])), rng)
        with pytest.raises(ValueError, match="agent means must be finite"):
            forecast_drqs(dd, (np.array([0.0, np.nan]), np.ones(2)), rng)
        with pytest.raises(ValueError, match="positive and finite"):
            forecast_drqs(dd, (np.zeros(2), np.array([1.0, np.inf])), rng)
