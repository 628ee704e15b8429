"""Filtering and backward-sampling checks against closed-form and dense oracles."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_joint_smoother
import oracles
from oracles import (
    conjugate_filter,
    known_variance_scalar_filter,
    sample_precisions,
    sample_states,
)
from quantsynth import dlm
from quantsynth.distributions import CHI_FLOOR, mixture_constants
from quantsynth.dlm import (
    DiscountConfig,
    NormalGammaPrior,
    _cholesky,
    _eigh,
    _sample_precisions,
    _sample_states,
    _solve,
    ffbs_conjugate,
    ffbs_known_variance,
    gbrw_filter_sample,
    psd_sqrt,
)


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
@pytest.mark.parametrize("name", ["n0", "s0"])
def test_prior_refuses_bad_hyperparameter(name, value):
    kwargs = {"m0": np.zeros(1), "C0": np.eye(1), "n0": 1.0, "s0": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
        NormalGammaPrior(**kwargs)


class TestConjugateFFBS:
    def test_one_step_matches_conjugate_update(self):
        # One observation, no discounting: the filter must reproduce the
        # closed-form normal-gamma Bayes update exactly.
        y = 1.3
        consts = mixture_constants(0.5)
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        disc = DiscountConfig(delta=1.0, beta=1.0)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((1, 1))
        res = ffbs_conjugate(
            np.array([y]), np.ones((1, 1)), np.ones(1), consts, prior, disc, rng, z_state=z
        )
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
            z = rng.standard_normal((1, 1))
            d = ffbs_conjugate(
                np.array([y]), np.ones((1, 1)), np.ones(1), consts, prior, disc, rng, z_state=z
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
        z = rng.standard_normal((T, p))
        res = ffbs_conjugate(y, F, v, consts, prior, DiscountConfig(0.9, 0.9), rng, z_state=z)
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
        z = rng.standard_normal((T, p))
        res = ffbs_conjugate(y, F, v, consts, prior, DiscountConfig(1.0, 1.0), rng, z_state=z)
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
            z = rng.standard_normal((T, 1))
            d = ffbs_conjugate(y, F, v, consts, prior, DiscountConfig(0.9, 1.0), rng, z_state=z)
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
                prior, DiscountConfig(), np.random.default_rng(0), z_state=np.zeros((2, 1)),
            )


class TestKnownVarianceFFBS:
    def test_two_step_hand_kalman(self):
        # delta=1, scalar state, unit design and variance: textbook updates
        # m1 = y1/2, C1 = 1/2, then Q2 = 3/2, m2 = m1 + (y2-m1)/3, C2 = 1/3.
        y = np.array([[1.0], [-0.5]])
        res = ffbs_known_variance(
            y, np.ones((2, 1, 1)), np.zeros((2, 1)), np.ones((2, 1)),
            np.zeros(1), np.eye(1), 1.0, np.random.default_rng(0),
        )
        m1 = y[0, 0] / 2.0
        assert res.m[0, 0] == pytest.approx(m1, abs=1e-14)
        assert res.C[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert res.m[1, 0] == pytest.approx(m1 + (y[1, 0] - m1) / 3.0, abs=1e-14)
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

    def test_vector_filter_refuses_indefinite_predictive_covariance(self):
        # A negative prior scale makes Q_0 indefinite: the N >= 2 filter names
        # the step and Q_0's smallest eigenvalue, and warns of nothing first.
        rng = np.random.default_rng(0)
        T, N, p = 4, 2, 3
        F, y = rng.normal(size=(T, N, p)), rng.normal(size=(T, N))
        message = "singular predictive covariance at t=0: min eigenvalue -8.342e+02"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=f"^{re.escape(message)}$"):
                ffbs_known_variance(y, F, np.zeros((T, N)), np.ones((T, N)), np.zeros(p),
                                    -1000.0 * np.eye(p), 0.9, rng)

    def test_vector_filter_refuses_a_failed_solve(self, monkeypatch):
        # Fault injection: a failed solve comes back all NaN, as the gufunc
        # gives it for a singular matrix, and the step raises as np.linalg did.
        monkeypatch.setattr(dlm, "_solve", lambda a, b: np.full(b.shape, np.nan))
        rng = np.random.default_rng(0)
        F, y = rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 2))
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            ffbs_known_variance(y, F, np.zeros((3, 2)), np.ones((3, 2)), np.zeros(2), np.eye(2),
                                0.9, rng)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            ffbs_known_variance(
                np.zeros((2, 1)), np.ones((2, 1, 1)), np.zeros((2, 1)),
                np.array([[1.0], [0.0]]), np.zeros(1), np.eye(1), 1.0,
                np.random.default_rng(0),
            )

    def test_requires_one_panel_shape(self):
        # y, offsets and obs_var are (T, N) arrays; no 1-D or scalar form.
        y, F, ones = np.zeros((2, 1)), np.ones((2, 1, 1)), np.ones((2, 1))
        for yy, offsets, obs_var in ((y[:, 0], ones, ones), (y, 0.0, ones), (y, ones, np.ones(2))):
            with pytest.raises(ValueError, match="must share one \\(T, N\\) shape"):
                ffbs_known_variance(yy, F, offsets, obs_var, np.zeros(1), np.eye(1), 1.0,
                                    np.random.default_rng(0))


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


def _nearly_symmetric(C0: np.ndarray, asymmetry: float) -> np.ndarray:
    """``C0`` with its top-right entry moved by ``asymmetry`` of the top-left one.

    A small move keeps ``np.allclose(C0, C0.T)``, which is all
    ``NormalGammaPrior`` asks, while ``C0`` differs from its transpose; a
    zero move returns ``C0``'s values unchanged.
    """
    C0 = C0.copy()
    C0[0, -1] += asymmetry * C0[0, 0]
    return C0


class TestScalarFilterMatchesOracle:
    """Both scalar FFBS paths reproduce their reference loops bit for bit."""

    def _check_learned_scale(self, cases, asymmetry: float):
        for i, (T, p, tau, delta, beta, v, rng) in enumerate(cases):
            p = max(p, 2) if asymmetry else p
            consts = mixture_constants(tau)
            C0 = _nearly_symmetric(_random_prior_scale(rng, p), asymmetry)
            assert np.allclose(C0, C0.T) and np.array_equal(C0, C0.T) == (not asymmetry)
            prior = NormalGammaPrior(
                m0=rng.normal(size=p), C0=C0,
                n0=float(rng.uniform(0.5, 5.0)), s0=float(rng.uniform(0.1, 3.0)),
            )
            disc = DiscountConfig(delta=delta, beta=beta)
            F = rng.normal(size=(T, p))
            y = rng.normal(scale=2.0, size=T)
            z = rng.standard_normal((T, p))
            seed = int(rng.integers(2**32))
            gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = ffbs_conjugate(y, F, v, consts, prior, disc, gen, z_state=z)
            m, C, n, s = conjugate_filter(y, F, v, consts, prior, disc)
            phi = sample_precisions(n, n * s, beta, want_gen)
            theta = sample_states(m, C, delta, z, np.sqrt(phi * s))
            for name, want in (("m", m), ("C", C), ("n", n), ("s", s), ("phi", phi), ("theta", theta)):
                assert np.array_equal(getattr(got, name), want), (i, name)
            assert gen.bit_generator.state == want_gen.bit_generator.state, i

    def _check_known_scale(self, cases, asymmetry: float):
        for i, (T, p, tau, delta, _, v, rng) in enumerate(cases):
            p = max(p, 2) if asymmetry else p
            # The agent model's inputs: offsets k1*v and variances sigma*k2*v.
            k1, k2 = mixture_constants(tau)
            sigma = float(rng.uniform(0.1, 5.0))
            offsets, obs_var = (k1 * v)[:, None], (sigma * k2 * v)[:, None]
            m0, C0 = rng.normal(size=p), _nearly_symmetric(_random_prior_scale(rng, p), asymmetry)
            assert np.allclose(C0, C0.T) and np.array_equal(C0, C0.T) == (not asymmetry)
            F = rng.normal(size=(T, 1, p))
            y = rng.normal(scale=2.0, size=(T, 1))
            seed = int(rng.integers(2**32))
            gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = ffbs_known_variance(y, F, offsets, obs_var, m0, C0, delta, gen)
            m, C = known_variance_scalar_filter(y, F, offsets, obs_var, m0, C0, delta)
            state = sample_states(m, C, delta, want_gen.standard_normal((T, p)), np.ones(T))
            for name, want in (("m", m), ("C", C), ("state", state)):
                assert np.array_equal(getattr(got, name), want), (i, name)
            assert gen.bit_generator.state == want_gen.bit_generator.state, i

    def test_learned_scale(self):
        self._check_learned_scale(_scalar_cases(21, 300), asymmetry=0.0)

    def test_known_scale(self):
        self._check_known_scale(_scalar_cases(22, 300), asymmetry=0.0)

    # A prior scale that is only close to symmetric: the filter symmetrizes
    # the first filtered scale alone, and must still give the loops' bits.
    @pytest.mark.parametrize("asymmetry", [1e-12, 1e-9])
    def test_learned_scale_nearly_symmetric_prior(self, asymmetry):
        self._check_learned_scale(_scalar_cases(23, 150), asymmetry)

    @pytest.mark.parametrize("asymmetry", [1e-12, 1e-9])
    def test_known_scale_nearly_symmetric_prior(self, asymmetry):
        self._check_known_scale(_scalar_cases(24, 150), asymmetry)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 40),
        p=st.integers(1, 6),
        learned=st.booleans(),
        delta=st.floats(0.5, 1.0),
        design_scale=st.floats(1e-3, 1e3),
        asymmetry=st.sampled_from([0.0, 1e-12, 1e-9]),
    )
    def test_every_filtered_scale_equals_its_transpose(
        self, seed, T, p, learned, delta, design_scale, asymmetry
    ):
        # The reason one symmetrization suffices: every returned C_t is
        # exactly symmetric, whatever the inputs.
        rng = np.random.default_rng(seed)
        C0 = _nearly_symmetric(_random_prior_scale(rng, p), asymmetry)
        F = design_scale * rng.normal(size=(T, p))
        y = rng.normal(scale=2.0, size=T)
        v = rng.exponential(size=T) + CHI_FLOOR
        consts = mixture_constants(float(rng.uniform(0.01, 0.99)))
        if learned:
            prior = NormalGammaPrior(m0=rng.normal(size=p), C0=C0, n0=2.0, s0=0.5)
            disc = DiscountConfig(delta=delta, beta=float(rng.uniform(0.5, 1.0)))
            z = rng.standard_normal((T, p))
            C = ffbs_conjugate(y, F, v, consts, prior, disc, rng, z_state=z).C
        else:
            C = ffbs_known_variance(
                y[:, None], F[:, None, :], (consts.kappa1 * v)[:, None],
                (consts.kappa2 * v)[:, None], rng.normal(size=p), C0, delta, rng,
            ).C
        assert np.array_equal(C, np.swapaxes(C, 1, 2))

    def test_bad_predictive_variance_raises_floating_point_error(self):
        # A negative prior scale (known scale) or a NaN design (learned scale) spoils Q.
        with pytest.raises(FloatingPointError, match="predictive variance Q at t=0"):
            ffbs_known_variance(
                np.zeros((2, 1)), np.ones((2, 1, 1)), np.zeros((2, 1)), np.ones((2, 1)),
                np.zeros(1), -10.0 * np.eye(1), 1.0, np.random.default_rng(0),
            )
        prior = NormalGammaPrior(m0=np.zeros(1), C0=np.eye(1), n0=1.0, s0=1.0)
        with pytest.raises(FloatingPointError, match="predictive variance Q at t=0"):
            ffbs_conjugate(
                np.zeros(2), np.full((2, 1), np.nan), np.ones(2), mixture_constants(0.5),
                prior, DiscountConfig(), np.random.default_rng(0), z_state=np.zeros((2, 1)),
            )


def _vector_cases(seed: int, count: int):
    """``(T, N, p, delta, F, m0, C0, rng)`` for the N >= 2 filter: edge cases, then random ones.

    First T = 1 with delta = 1; then the factor benchmark's shape (N = 6,
    J = 3, L = 5, so K = 20) with its structured design and default prior;
    then random cases with N in 2..8, p in 1..20 and a fifth of the
    discounts at exactly 1.
    """
    rng = np.random.default_rng(seed)
    yield 1, 2, 1, 1.0, rng.normal(size=(1, 2, 1)), np.zeros(1), np.eye(1), rng
    yield 1, 8, 20, 1.0, rng.normal(size=(1, 8, 20)), rng.normal(size=20), _random_prior_scale(rng, 20), rng
    T, N, J, L = 16, 6, 3, 5
    mult = np.concatenate([np.ones((T, N, 1)), rng.normal(size=(T, N, J))], axis=2)
    lam = np.zeros((N, (J + 1) * L))
    lam[:, ::L] = 1.0
    lam += 0.1 * rng.normal(size=lam.shape)
    m0 = np.concatenate([np.zeros(L), np.full(L * J, 1.0 / J)])
    C0 = np.diag(np.concatenate([np.full(L, 1000.0), np.ones(L * J)]))
    yield T, N, (J + 1) * L, 0.85, np.repeat(mult, L, axis=2) * lam, m0, C0, rng
    for _ in range(count):
        T, N, p = int(rng.integers(1, 30)), int(rng.integers(2, 9)), int(rng.integers(1, 21))
        delta = 1.0 if rng.uniform() < 0.2 else float(rng.uniform(0.5, 1.0))
        F = rng.normal(size=(T, N, p)) * 10.0 ** rng.uniform(-2.0, 2.0)
        yield T, N, p, delta, F, rng.normal(size=p), _random_prior_scale(rng, p), rng


def test_vector_filter_matches_oracle():
    # The N >= 2 path of ffbs_known_variance, as FDRQS calls it: offsets
    # k1*v and variances k2*sigma*v, against the reference loop bit for bit.
    for i, (T, N, p, delta, F, m0, C0, rng) in enumerate(_vector_cases(25, 200)):
        k1, k2 = mixture_constants(float(rng.uniform(0.01, 0.99)))
        v = np.maximum(rng.exponential(size=(T, N)), CHI_FLOOR)
        sigma = rng.uniform(0.1, 5.0, size=(T, N))
        offsets, obs_var = k1 * v, k2 * sigma * v
        y = rng.normal(scale=2.0, size=(T, N))
        seed = int(rng.integers(2**32))
        gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ffbs_known_variance(y, F, offsets, obs_var, m0, C0, delta, gen)
        m, C = oracles.known_variance_vector_filter(y, F, offsets, obs_var, m0, C0, delta)
        state = sample_states(m, C, delta, want_gen.standard_normal((T, p)), np.ones(T))
        for name, want in (("m", m), ("C", C), ("state", state)):
            assert np.array_equal(getattr(got, name), want), (i, T, N, p, name)
        assert gen.bit_generator.state == want_gen.bit_generator.state, i


def _scale_cases(seed: int, count: int):
    """``(C, rng)`` stacks of PSD scale matrices: p in 1..6 and 20, some singular or zero.

    Rank-deficient stacks put eigenvalues at rounding level, often slightly
    negative, so the clip to ``PSD_CLIP_RATIO`` of the largest one fires.
    """
    rng = np.random.default_rng(seed)
    dims = [1, 2, 3, 4, 5, 6, 20]
    for i in range(count):
        p = dims[i % len(dims)]
        T = int(rng.integers(1, 40))
        A = rng.normal(size=(T, p, int(rng.integers(1, p + 1)) if rng.uniform() < 0.4 else p))
        C = A @ np.swapaxes(A, 1, 2) * 10.0 ** rng.uniform(-8.0, 4.0)
        C[rng.uniform(size=T) < 0.1] = 0.0
        yield C, rng


class TestKernelsMatchOracle:
    """``psd_sqrt`` and ``_sample_states`` reproduce their one-matvec-per-step originals bit for bit."""

    def test_psd_sqrt(self):
        for i, (C, _) in enumerate(_scale_cases(41, 350)):
            assert np.array_equal(psd_sqrt(C), oracles.psd_sqrt(C)), i
            assert np.array_equal(psd_sqrt(C[0]), oracles.psd_sqrt(C[0])), i

    def test_psd_sqrt_refuses_what_the_oracle_refuses(self):
        C = np.stack([np.eye(3), np.diag([1.0, 0.5, -1e-3])])
        with pytest.raises(np.linalg.LinAlgError) as want:
            oracles.psd_sqrt(C)
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(want.value))):
            psd_sqrt(C)

    @pytest.mark.parametrize("scale", ["ones", "random"])
    def test_sample_states(self, scale):
        for i, (C, rng) in enumerate(_scale_cases(42, 350)):
            T, p = C.shape[:2]
            m = rng.normal(size=(T, p))
            z = rng.standard_normal((T, p))
            delta = 1.0 if rng.uniform() < 0.2 else float(rng.uniform(0.5, 1.0))
            s = {"ones": np.ones(T), "random": rng.uniform(0.01, 30.0, size=T)}[scale]
            want = sample_states(m, C, delta, z, s)
            assert np.array_equal(_sample_states(m, C, delta, z, s), want), i


def _spd(rng, n: int, *stack) -> np.ndarray:
    """Symmetric positive definite ``(*stack, n, n)`` matrices on scales from 1e-4 to 1e4."""
    A = rng.normal(size=(*stack, n, n)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(*stack, 1, 1))
    return A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(n)


def _same_eigh(C) -> bool:
    got, want = _eigh(C), np.linalg.eigh(C)
    return np.array_equal(got[0], want.eigenvalues) and np.array_equal(got[1], want.eigenvectors)


class TestLapackHelpersMatchNumpy:
    """``_cholesky``, ``_solve`` and ``_eigh`` give ``np.linalg``'s bits at the samplers' shapes.

    The helpers call NumPy-private gufuncs; these pins are what fail if a
    NumPy release gives them other bits.  Each call is written as the
    sampler writes it, with the same transposed views.
    """

    def test_scale_stacks(self):
        # psd_sqrt's (T, p, p) stacks of filtered scales, singular ones included.
        for i, (C, _) in enumerate(_scale_cases(43, 120)):
            C = 0.5 * (C + C.swapaxes(-1, -2))
            assert _same_eigh(C), i
        rng = np.random.default_rng(44)
        for p in range(1, 7):
            for T in (1, 16, 60, 250):
                C = _spd(rng, p, T)
                assert _same_eigh(C), (p, T)
                assert np.array_equal(_cholesky(C), np.linalg.cholesky(C)), (p, T)

    def test_vector_filter_shapes(self):
        # One N x N predictive covariance per step, a (p, N) R F' and the two
        # triangular solves of the gain, for N = 1..12 and p up to K = 20.
        rng = np.random.default_rng(45)
        for N in range(1, 13):
            for p in (1, 3, 20):
                Q = _spd(rng, N)
                RFt = rng.normal(size=(p, N))
                Lq = _cholesky(Q)
                assert np.array_equal(Lq, np.linalg.cholesky(Q)), (N, p)
                got = _solve(Lq.T, _solve(Lq, RFt.T)).T
                want = np.linalg.solve(Lq.T, np.linalg.solve(Lq, RFt.T)).T
                assert np.array_equal(got, want), (N, p)

    def test_loading_shapes(self):
        # FDRQS's stacked loading block: N (K, K) precisions, (N, K, 1) right-hand sides.
        rng = np.random.default_rng(46)
        for N in (2, 6, 10):
            for K in (2, 8, 20):
                prec = _spd(rng, K, N)
                rhs = rng.normal(size=(N, K, 1))
                z = rng.standard_normal((N, K))[:, :, None]
                cf = _cholesky(prec)
                want_cf = np.linalg.cholesky(prec)
                assert np.array_equal(cf, want_cf), (N, K)
                cf_t, want_t = cf.transpose(0, 2, 1), want_cf.transpose(0, 2, 1)
                got = _solve(cf_t, _solve(cf, rhs))
                assert np.array_equal(got, np.linalg.solve(want_t, np.linalg.solve(want_cf, rhs)))
                assert np.array_equal(_solve(cf_t, z), np.linalg.solve(want_t, z)), (N, K)

    def test_latent_precision_stacks(self):
        # The latent-predictor precisions of all N series in one (N*T, J, J) stack.
        rng = np.random.default_rng(47)
        for NT in (16, 96, 1500):
            for J in (1, 2, 3, 6):
                th = rng.normal(size=(NT, J))
                prec = th[:, :, None] * th[:, None, :] / rng.uniform(0.1, 5.0, size=(NT, 1, 1))
                prec[:, np.arange(J), np.arange(J)] += 1.0 / rng.uniform(0.1, 2.0, size=(NT, J))
                assert _same_eigh(prec), (NT, J)

    def test_failed_matrix_comes_back_nan_without_a_warning(self):
        # np.linalg refuses the whole stack; the helpers fill only the failed
        # matrix with NaN, and under errstate(invalid="ignore") warn of nothing.
        rng = np.random.default_rng(48)
        stack = _spd(rng, 4, 5)
        stack[2] = np.diag([1.0, 2.0, -1.0, 3.0])
        singular = stack.copy()
        singular[2] = np.ones((4, 4))
        b = rng.normal(size=(5, 4, 2))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            np.linalg.cholesky(stack)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(singular, b)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            cf, x = _cholesky(stack), _solve(singular, b)
        ok = [0, 1, 3, 4]
        assert np.isnan(cf[2]).all() and np.isnan(x[2]).all()
        assert np.array_equal(cf[ok], np.linalg.cholesky(stack[ok]))
        assert np.array_equal(x[ok], np.linalg.solve(singular[ok], b[ok]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_nan_matrix_fails_psd_check_with_numpy_message(self, p):
        # eigh_lo gives a NaN matrix NaN eigenvalues; from 3x3 on it also sets
        # the invalid flag, where np.linalg.eigh raises this same message.
        C = np.stack([np.eye(p), np.full((p, p), np.nan)])
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                psd_sqrt(C)
        if p == 3:
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                np.linalg.eigh(C)


class TestPrecisionRecursionsMatchOracle:
    """The gamma-beta recursions on Python floats against their NumPy-row originals, bit for bit.

    ``beta = 1`` gives every backward shape zero, so no shock is drawn.
    """

    @pytest.mark.parametrize("beta", [0.5, 0.85, 1.0])
    def test_gbrw_filter_sample(self, beta):
        rng = np.random.default_rng(int(beta * 100))
        for T in (1, 2, 16, 40):
            for N in (1, 6, 9):
                sq = rng.exponential(size=(T, N)) * 10.0 ** rng.uniform(-3.0, 3.0)
                sq[rng.uniform(size=(T, N)) < 0.1] = 0.0
                v = np.maximum(rng.exponential(size=(T, N)), CHI_FLOOR)
                kappa2 = float(rng.uniform(2.0, 40.0))
                n0, d0 = (float(x) for x in 10.0 ** rng.uniform(-3.0, 1.0, size=2))
                seed = int(rng.integers(2**32))
                gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
                got = gbrw_filter_sample(sq, v, kappa2, n0, d0, beta, gen)
                want = oracles.gbrw_filter_sample(sq, v, kappa2, n0, d0, beta, want_gen)
                for name in ("phi", "n", "d"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (T, N, name)
                assert gen.bit_generator.state == want_gen.bit_generator.state, (T, N)

    @pytest.mark.parametrize("beta", [0.5, 0.85, 1.0])
    def test_sample_precisions(self, beta):
        rng = np.random.default_rng(int(beta * 100) + 1)
        for T in (1, 2, 16, 40):
            for shape in ((T, 1), (T, 6), (T, 9)):
                n = 10.0 ** rng.uniform(-2.0, 2.0, size=shape)
                d = n * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
                seed = int(rng.integers(2**32))
                gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _sample_precisions(n, d, beta, gen)
                assert np.array_equal(got, sample_precisions(n, d, beta, want_gen)), shape
                assert gen.bit_generator.state == want_gen.bit_generator.state, shape


class TestGBRW:
    def test_discount_one_freezes_path(self):
        rng = np.random.default_rng(7)
        sq = rng.uniform(0.1, 2.0, size=(5, 3))
        v = rng.uniform(0.2, 1.5, size=(5, 3))
        g = gbrw_filter_sample(sq, v, 8.0, 0.01, 0.01, 1.0, rng)
        assert np.abs(np.diff(g.phi, axis=0)).max() == 0.0

    def test_one_step_filter_and_gamma_moment(self):
        rng = np.random.default_rng(11)
        g1 = gbrw_filter_sample(np.array([[2.0]]), np.array([[0.5]]), 8.0, 1.0, 2.0, 0.9, rng)
        assert g1.n[0, 0] == pytest.approx(0.9 * 1.0 + 3.0, abs=1e-14)
        assert g1.d[0, 0] == pytest.approx(0.9 * 2.0 + 2.0 / (8.0 * 0.5) + 1.0, abs=1e-14)
        R = 60000
        g = gbrw_filter_sample(np.full((1, R), 2.0), np.full((1, R), 0.5), 8.0, 1.0, 2.0, 0.9, rng)
        se = g.phi[0].std() / np.sqrt(R)
        assert g.phi[0].mean() == pytest.approx(g1.n[0, 0] / g1.d[0, 0], abs=3 * se)

    def test_zero_residual_geometric_recursion(self):
        # resid 0, v = 1, kappa2 = 8 adds exactly 2 per step:
        # d_t = beta^t d0 + 2 (1 - beta^t) / (1 - beta)
        beta, d0, T = 0.7, 1.5, 6
        g = gbrw_filter_sample(
            np.zeros((T, 1)), np.ones((T, 1)), 8.0, 1.0, d0, beta, np.random.default_rng(0)
        )
        steps = np.arange(1, T + 1)
        expected = beta**steps * d0 + 2.0 * (1.0 - beta**steps) / (1.0 - beta)
        np.testing.assert_allclose(g.d[:, 0], expected, atol=1e-12)

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

    @pytest.mark.parametrize("n0, d0", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan),
                                         (0.0, 1.0), (1.0, -1.0)])
    def test_rejects_bad_prior(self, n0, d0):
        with pytest.raises(ValueError, match="must be finite and positive"):
            gbrw_filter_sample(np.ones((2, 1)), np.ones((2, 1)), 8.0, n0, d0, 0.9,
                               np.random.default_rng(0))

    def test_rejects_nonpositive_mixing(self):
        with pytest.raises(ValueError):
            gbrw_filter_sample(
                np.ones((2, 1)), np.array([[1.0], [0.0]]), 8.0, 1.0, 1.0, 0.9,
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
