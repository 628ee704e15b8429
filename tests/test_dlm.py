"""Filtering and backward-sampling checks against closed-form and dense oracles."""

import numpy as np
import pytest

from conftest import dense_joint_smoother
from oracles import conjugate_filter, known_variance_scalar_filter
from quantsynth.distributions import CHI_FLOOR, mixture_constants
from quantsynth.dlm import (
    DiscountConfig,
    NormalGammaPrior,
    _sample_precisions,
    _sample_states,
    ffbs_conjugate,
    ffbs_known_variance,
    gbrw_filter_sample,
    psd_sqrt,
)


class TestConjugateFFBS:
    def test_one_step_matches_conjugate_update(self):
        # One observation, no discounting: the filter must reproduce the
        # closed-form normal-gamma Bayes update exactly.
        y = 1.3
        consts = mixture_constants(0.5)
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        disc = DiscountConfig(delta=1.0, beta=1.0)
        rng = np.random.default_rng(7)
        res = ffbs_conjugate(np.array([y]), np.ones((1, 1)), np.ones(1), consts, prior, disc, rng)
        # With kappa2*v = 8: Q = C0 + 8 = 9, gain = 1/9
        assert res.m[0, 0] == pytest.approx(y / 9.0, abs=1e-12)
        assert res.C[0, 0, 0] / res.s[0] == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert res.n[0] == pytest.approx(4.0, abs=1e-12)
        assert res.n[0] * res.s[0] / 2.0 == pytest.approx(1.5 + y**2 / 18.0, abs=1e-12)

    def test_one_step_sampled_moments_match_exact_posterior(self):
        # phi ~ Gamma(2, rate), theta | phi ~ N(y/9, (8/9)/phi) in the scaled
        # parameterization, so E[phi], E[theta] and Var(theta) are closed form.
        y = 1.3
        consts = mixture_constants(0.5)
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        disc = DiscountConfig(delta=1.0, beta=1.0)
        rng = np.random.default_rng(17)
        R = 30000
        phis = np.empty(R)
        thetas = np.empty(R)
        for r in range(R):
            d = ffbs_conjugate(
                np.array([y]), np.ones((1, 1)), np.ones(1), consts, prior, disc, rng
            )
            phis[r] = d.phi[0]
            thetas[r] = d.theta[0, 0]
        rate = 1.5 + y**2 / 18.0
        assert phis.mean() == pytest.approx(2.0 / rate, abs=3 * phis.std() / np.sqrt(R))
        assert thetas.mean() == pytest.approx(y / 9.0, abs=3 * thetas.std() / np.sqrt(R))
        # Var(theta) = (8/9) * E[1/phi] with E[1/phi] = rate / (shape - 1)
        var_target = (8.0 / 9.0) * rate
        assert thetas.var() == pytest.approx(var_target, rel=0.08)

    def test_zero_innovation_keeps_prior_mean(self):
        rng = np.random.default_rng(3)
        T, p = 12, 2
        consts = mixture_constants(0.3)
        prior = NormalGammaPrior(
            m0=np.array([0.4, -1.1]), C0=np.diag([2.0, 0.5]), n0=2.0, s0=1.0
        )
        F = rng.normal(size=(T, p))
        v = rng.uniform(0.5, 1.5, size=T)
        y = F @ prior.m0 + consts.kappa1 * v
        res = ffbs_conjugate(y, F, v, consts, prior, DiscountConfig(0.9, 0.9), rng)
        assert np.abs(res.m - prior.m0).max() < 1e-12

    def test_static_regression_matches_closed_form(self):
        # delta = beta = 1 freezes the state and precision, so the terminal
        # filter must equal the static Bayesian linear regression posterior.
        rng = np.random.default_rng(7)
        T, p, tau = 30, 2, 0.8
        consts = mixture_constants(tau)
        F = rng.normal(size=(T, p))
        v = rng.exponential(1.0, size=T) + 0.05
        y = F @ np.array([0.5, -1.0]) + consts.kappa1 * v + rng.normal(size=T)
        prior = NormalGammaPrior(
            m0=np.array([0.1, -0.2]), C0=np.diag([2.0, 5.0]), n0=2.0, s0=0.7
        )
        res = ffbs_conjugate(y, F, v, consts, prior, DiscountConfig(1.0, 1.0), rng)
        H = prior.s0 * np.linalg.inv(prior.C0) + (F.T / (consts.kappa2 * v)) @ F
        b = prior.s0 * np.linalg.inv(prior.C0) @ prior.m0
        b = b + (F.T / (consts.kappa2 * v)) @ (y - consts.kappa1 * v)
        m_hat = np.linalg.solve(H, b)
        assert np.abs(res.m[-1] - m_hat).max() < 1e-9
        assert np.abs(res.C[-1] / res.s[-1] - np.linalg.inv(H)).max() < 1e-9
        assert res.n[-1] == pytest.approx(2.0 + 3 * T, abs=1e-10)

    def test_beta_one_collapses_precision_path(self):
        rng = np.random.default_rng(9)
        T = 8
        consts = mixture_constants(0.5)
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        y = rng.normal(size=T)
        F = np.ones((T, 1))
        v = rng.uniform(0.5, 1.5, size=T)
        R = 5000
        paths = np.empty((R, T))
        for r in range(R):
            d = ffbs_conjugate(y, F, v, consts, prior, DiscountConfig(0.9, 1.0), rng)
            paths[r] = d.phi
            assert np.abs(np.diff(d.phi)).max() == 0.0
        # constant paths make the per-t means equal by construction; the MC
        # equality-of-means comparison still documents the invariant
        means = paths.mean(axis=0)
        ses = paths.std(axis=0) / np.sqrt(R)
        assert np.all(np.abs(means - means[-1]) <= 3 * np.hypot(ses, ses[-1]))

    def test_rejects_nonpositive_mixing(self):
        consts = mixture_constants(0.5)
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        with pytest.raises(ValueError):
            ffbs_conjugate(
                np.zeros(2), np.ones((2, 1)), np.array([1.0, 0.0]), consts,
                prior, DiscountConfig(), np.random.default_rng(0),
            )


class TestKnownVarianceFFBS:
    def test_two_step_hand_kalman(self):
        # delta=1, scalar state, unit design and variance: textbook updates
        # m1 = y1/2, C1 = 1/2, then Q2 = 3/2, m2 = m1 + (y2-m1)/3, C2 = 1/3.
        y = np.array([1.0, -0.5])
        res = ffbs_known_variance(
            y, np.ones((2, 1, 1)), np.zeros((2, 1)), np.ones((2, 1)),
            np.zeros(1), np.eye(1), 1.0, np.random.default_rng(0),
        )
        m1 = y[0] / 2.0
        assert res.m[0, 0] == pytest.approx(m1, abs=1e-14)
        assert res.C[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert res.m[1, 0] == pytest.approx(m1 + (y[1] - m1) / 3.0, abs=1e-14)
        assert res.C[1, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_zero_design_returns_inflated_prior(self):
        delta = 0.8
        T = 3
        res = ffbs_known_variance(
            np.zeros((T, 1)), np.zeros((T, 1, 2)), np.zeros((T, 1)), np.ones((T, 1)),
            np.array([0.3, -0.7]), np.diag([2.0, 1.0]), delta, np.random.default_rng(1),
        )
        assert np.abs(res.m - np.array([0.3, -0.7])).max() < 1e-14
        expected_C = np.diag([2.0, 1.0]) / delta**T
        assert np.abs(res.C[-1] - expected_C).max() < 1e-12

    def test_terminal_moments_match_dense_oracle(self):
        rng = np.random.default_rng(7)
        T, N, p = 4, 3, 2
        delta = 0.8
        F = rng.normal(size=(T, N, p))
        offs = rng.normal(size=(T, N)) * 0.3
        ovar = rng.uniform(0.3, 1.5, size=(T, N))
        m0 = np.array([0.2, -0.1])
        C0 = np.array([[1.0, 0.2], [0.2, 0.8]])
        y = rng.normal(size=(T, N))
        res = ffbs_known_variance(y, F, offs, ovar, m0, C0, delta, rng)
        post_mean, post_cov = dense_joint_smoother(y, F, offs, ovar, m0, C0, delta)
        assert np.abs(res.m[-1] - post_mean[-p:]).max() < 1e-8
        assert np.abs(res.C[-1] - post_cov[-p:, -p:]).max() < 1e-8

    def test_sampled_paths_match_dense_posterior(self):
        rng = np.random.default_rng(8)
        T, N, p = 5, 2, 2
        delta = 0.8
        F = rng.normal(size=(T, N, p))
        offs = rng.normal(size=(T, N)) * 0.3
        ovar = rng.uniform(0.3, 1.5, size=(T, N))
        m0 = np.array([0.2, -0.1])
        C0 = np.array([[1.0, 0.2], [0.2, 0.8]])
        y = rng.normal(size=(T, N))
        post_mean, post_cov = dense_joint_smoother(y, F, offs, ovar, m0, C0, delta)
        R = 8000
        paths = np.empty((R, T * p))
        for r in range(R):
            paths[r] = ffbs_known_variance(y, F, offs, ovar, m0, C0, delta, rng).state.ravel()
        se = paths.std(axis=0) / np.sqrt(R)
        assert np.all(np.abs(paths.mean(axis=0) - post_mean) <= 3 * se)
        assert np.abs(np.cov(paths.T) - post_cov).max() < 0.05

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            ffbs_known_variance(
                np.zeros((2, 1)), np.ones((2, 1, 1)), np.zeros((2, 1)),
                np.array([[1.0], [0.0]]), np.zeros(1), np.eye(1), 1.0,
                np.random.default_rng(0),
            )


def _scalar_cases(seed: int, count: int):
    """Edge cases, then random ones: ``(T, p, tau, delta, beta, v, rng)``.

    The first case has T=1, p=1, delta=beta=1 and ``v`` at ``CHI_FLOOR``;
    random cases put a quarter of their ``v`` at the floor and a fifth of
    their discounts at exactly 1.
    """
    rng = np.random.default_rng(seed)
    yield 1, 1, 0.5, 1.0, 1.0, np.full(1, CHI_FLOOR), rng
    yield 1, 1, 0.05, 1.0, 1.0, np.ones(1), rng
    unit_or = lambda: 1.0 if rng.uniform() < 0.2 else float(rng.uniform(0.5, 1.0))
    for _ in range(count):
        T, p = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        v = rng.exponential(size=T)
        v[rng.uniform(size=T) < 0.25] = CHI_FLOOR
        yield T, p, float(rng.uniform(0.01, 0.99)), unit_or(), unit_or(), v, rng


def _random_prior_scale(rng, p: int) -> np.ndarray:
    A = rng.normal(size=(p, p))
    return A @ A.T / p + 0.1 * np.eye(p)


class TestScalarFilterMatchesOracle:
    """Both scalar FFBS paths reproduce their reference loops bit for bit."""

    def test_learned_scale(self):
        for i, (T, p, tau, delta, beta, v, rng) in enumerate(_scalar_cases(21, 300)):
            consts = mixture_constants(tau)
            prior = NormalGammaPrior(
                m0=rng.normal(size=p), C0=_random_prior_scale(rng, p),
                n0=float(rng.uniform(0.5, 5.0)), s0=float(rng.uniform(0.1, 3.0)),
            )
            disc = DiscountConfig(delta=delta, beta=beta)
            F = rng.normal(size=(T, p))
            y = rng.normal(scale=2.0, size=T)
            z = rng.standard_normal((T, p))
            seed = int(rng.integers(2**32))
            got = ffbs_conjugate(y, F, v, consts, prior, disc, np.random.default_rng(seed), z_state=z)
            m, C, n, s = conjugate_filter(y, F, v, consts, prior, disc)
            phi = _sample_precisions(n, n * s, beta, np.random.default_rng(seed))
            theta = _sample_states(m, C, delta, z, np.sqrt(phi * s))
            for name, want in (("m", m), ("C", C), ("n", n), ("s", s), ("phi", phi), ("theta", theta)):
                assert np.array_equal(getattr(got, name), want), (i, name)

    def test_known_scale(self):
        for i, (T, p, tau, delta, _, v, rng) in enumerate(_scalar_cases(22, 300)):
            # The agent model's inputs: offsets k1*v and variances sigma*k2*v.
            k1, k2 = mixture_constants(tau)
            sigma = float(rng.uniform(0.1, 5.0))
            offsets, obs_var = (k1 * v)[:, None], (sigma * k2 * v)[:, None]
            m0, C0 = rng.normal(size=p), _random_prior_scale(rng, p)
            F = rng.normal(size=(T, 1, p))
            y = rng.normal(scale=2.0, size=(T, 1))
            z = rng.standard_normal((T, p))
            got = ffbs_known_variance(
                y, F, offsets, obs_var, m0, C0, delta, np.random.default_rng(0), z_state=z
            )
            m, C = known_variance_scalar_filter(y, F, offsets, obs_var, m0, C0, delta)
            state = _sample_states(m, C, delta, z, np.ones(T))
            for name, want in (("m", m), ("C", C), ("state", state)):
                assert np.array_equal(getattr(got, name), want), (i, name)

    def test_bad_predictive_variance_raises_floating_point_error(self):
        # A negative prior scale (known scale) or a NaN design (learned scale) spoils Q.
        with pytest.raises(FloatingPointError, match="predictive variance Q at t=0"):
            ffbs_known_variance(
                np.zeros((2, 1)), np.ones((2, 1, 1)), 0.0, 1.0, np.zeros(1), -10.0 * np.eye(1),
                1.0, np.random.default_rng(0),
            )
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        with pytest.raises(FloatingPointError, match="predictive variance Q at t=0"):
            ffbs_conjugate(
                np.zeros(2), np.full((2, 1), np.nan), np.ones(2), mixture_constants(0.5),
                prior, DiscountConfig(), np.random.default_rng(0),
            )


class TestGBRW:
    def test_discount_one_freezes_path(self):
        rng = np.random.default_rng(7)
        sq = rng.uniform(0.1, 2.0, size=(5, 3))
        v = rng.uniform(0.2, 1.5, size=(5, 3))
        g = gbrw_filter_sample(sq, v, 8.0, 0.01, 0.01, 1.0, rng)
        assert np.abs(np.diff(g.phi, axis=0)).max() == 0.0

    def test_one_step_filter_and_gamma_moment(self):
        rng = np.random.default_rng(11)
        g1 = gbrw_filter_sample(np.array([2.0]), np.array([0.5]), 8.0, 1.0, 2.0, 0.9, rng)
        assert g1.n[0] == pytest.approx(0.9 * 1.0 + 3.0, abs=1e-14)
        assert g1.d[0] == pytest.approx(0.9 * 2.0 + 2.0 / (8.0 * 0.5) + 1.0, abs=1e-14)
        R = 60000
        g = gbrw_filter_sample(np.full((1, R), 2.0), np.full((1, R), 0.5), 8.0, 1.0, 2.0, 0.9, rng)
        se = g.phi[0].std() / np.sqrt(R)
        assert g.phi[0].mean() == pytest.approx(g1.n[0] / g1.d[0], abs=3 * se)

    def test_zero_residual_geometric_recursion(self):
        # resid 0, v = 1, kappa2 = 8 adds exactly 2 per step:
        # d_t = beta^t d0 + 2 (1 - beta^t) / (1 - beta)
        beta, d0, T = 0.7, 1.5, 6
        g = gbrw_filter_sample(
            np.zeros(T), np.ones(T), 8.0, 1.0, d0, beta, np.random.default_rng(0)
        )
        steps = np.arange(1, T + 1)
        expected = beta**steps * d0 + 2.0 * (1.0 - beta**steps) / (1.0 - beta)
        np.testing.assert_allclose(g.d, expected, atol=1e-12)

    def test_filtered_mean_at_every_prefix(self):
        # E[phi_t | data through t] = n_t / d_t: check by running the sampler
        # on each prefix, where the terminal draw is the filtered law.
        rng = np.random.default_rng(13)
        sq = np.array([1.2, 0.4, 2.5])
        v = np.array([0.8, 1.1, 0.6])
        R = 40000
        for t in range(1, 4):
            tiled_sq = np.tile(sq[:t, None], (1, R))
            tiled_v = np.tile(v[:t, None], (1, R))
            g = gbrw_filter_sample(tiled_sq, tiled_v, 8.0, 1.0, 1.0, 0.9, rng)
            term = g.phi[t - 1]
            se = term.std() / np.sqrt(R)
            assert term.mean() == pytest.approx(g.n[t - 1, 0] / g.d[t - 1, 0], abs=3 * se)

    def test_rejects_nonpositive_mixing(self):
        with pytest.raises(ValueError):
            gbrw_filter_sample(
                np.ones(2), np.array([1.0, 0.0]), 8.0, 1.0, 1.0, 0.9,
                np.random.default_rng(0),
            )


class TestPsdSqrt:
    def test_square_recovers_matrix(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))
        C = A @ A.T
        S = psd_sqrt(C)
        assert np.abs(S @ S - C).max() < 1e-10
        assert np.abs(S - S.T).max() < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))
        C = A @ A.T
        P = np.eye(4)[np.array([2, 0, 3, 1])]
        assert np.abs(psd_sqrt(P @ C @ P.T) - P @ psd_sqrt(C) @ P.T).max() < 1e-10

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(5, 3, 3))
        batch = batch @ np.swapaxes(batch, 1, 2)
        out = psd_sqrt(batch)
        for k in range(5):
            assert np.abs(out[k] - psd_sqrt(batch[k])).max() < 1e-12

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(np.linalg.LinAlgError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))
