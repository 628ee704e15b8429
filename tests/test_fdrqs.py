"""Tests for the factor-structured multivariate synthesis model."""

import warnings

import numpy as np
import pytest

from conftest import density_chisquare_pvalue
import oracles
from oracles import gibbs_fdrqs_per_series, mgp_prior_omegas
from quantsynth import fdrqs
from quantsynth.distributions import mixture_constants
from quantsynth.dlm import NormalGammaPrior
from quantsynth.fdrqs import (
    FDRQSConfig,
    FDRQSDraws,
    forecast_fdrqs,
    gibbs_fdrqs,
    omegas_from_deltas,
    sample_local_precisions,
)


class TestShrinkagePrior:
    def test_omegas_are_running_products(self):
        om = omegas_from_deltas(np.array([[2.0], [3.0], [0.5]]))
        np.testing.assert_allclose(om.ravel(), [2.0, 6.0, 3.0])

    def test_prior_omega_means_grow_geometrically(self):
        # E[omega_l] = a1 * a2^(l-1); precisions must increase with the
        # factor index so higher factors shrink harder.
        rng = np.random.default_rng(4)
        a1, a2, size = 2.0, 3.0, 20_000
        om = mgp_prior_omegas(5, a1, a2, size, rng)
        means = om.mean(axis=0)
        ses = om.std(axis=0, ddof=1) / np.sqrt(size)
        expect = a1 * a2 ** np.arange(5)
        assert np.all(np.diff(means) > 3.0 * np.hypot(ses[1:], ses[:-1]))
        assert np.all(np.abs(means - expect) < 4.0 * ses)

    def test_zero_loadings_reduce_delta_conditional_to_prior(self):
        rng = np.random.default_rng(9)
        N, L, J = 3, 2, 1
        lam_blocks = np.zeros((N, L, J + 1))
        phi = rng.gamma(2.0, size=(N, L, J + 1))
        deltas = rng.gamma(2.0, size=(L, J + 1))
        a1, a2 = 2.5, 3.5
        sums = fdrqs._block_sums(lam_blocks, phi, 0).tolist()
        shape, rate = fdrqs._delta_site(sums, deltas[:, 0].tolist(), 0, N, a1, a2)
        assert shape == N * L / 2.0 + a1
        assert rate == 1.0

    def test_delta_conditional_matches_hand_computation(self):
        # N=1, L=2, one block: leave-one-out products and the quadratic
        # tail sum are small enough to evaluate by hand.
        lam_blocks = np.array([[[1.0], [2.0]]])  # (1, 2, 1)
        phi = np.array([[[3.0], [0.5]]])
        deltas = np.array([[4.0], [5.0]])
        a1, a2 = 2.5, 3.5

        sums, dj = fdrqs._block_sums(lam_blocks, phi, 0).tolist(), deltas[:, 0].tolist()
        assert sums == [3.0, 2.0]
        # h=0: omega_wo = (1, 5); tail = 1*3 + 5*2 = 13
        shape0, rate0 = fdrqs._delta_site(sums, dj, 0, 1, a1, a2)
        assert shape0 == 1 * 2 / 2.0 + 2.5
        assert abs(rate0 - (1.0 + 0.5 * 13.0)) < 1e-12
        # h=1: omega_wo = (4, 4); tail = 4*2 = 8
        shape1, rate1 = fdrqs._delta_site(sums, dj, 1, 1, a1, a2)
        assert shape1 == 1 * (2 - 1) / 2.0 + 3.5
        assert abs(rate1 - (1.0 + 0.5 * 8.0)) < 1e-12

    @pytest.mark.parametrize("L", [1, 5, 9, 12])
    def test_delta_cycle_matches_oracle(self, L):
        # From 8 terms on, NumPy's pairwise sum no longer adds left to right,
        # so L = 9 and 12 pin the order of the tail sums.
        rng = np.random.default_rng(70 + L)
        for N in (2, 6, 9):
            for J in (1, 3):
                scale = 10.0 ** rng.uniform(-2.0, 2.0, (1, L, 1))
                lam_blocks = rng.normal(size=(N, L, J + 1)) * scale
                phi = rng.gamma(2.0, size=(N, L, J + 1))
                deltas = rng.gamma(3.0, size=(L, J + 1))
                seed = int(rng.integers(2**32))
                gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
                got = fdrqs._update_deltas(lam_blocks, phi, deltas, 2.5, 3.5, gen)
                want = oracles.update_deltas(lam_blocks, phi, deltas, 2.5, 3.5, want_gen)
                assert np.array_equal(got, want), (N, J)
                assert gen.bit_generator.state == want_gen.bit_generator.state, (N, J)

    def test_local_precision_site_matches_density(self):
        # Single site: full conditional is Gamma((nu+1)/2, (omega lam^2+nu)/2);
        # compare the sampler's histogram against the unnormalized density.
        rng = np.random.default_rng(14)
        lam_b = np.full((1, 1, 1), 0.7)
        omega = np.full((1, 1), 2.0)
        nu = 3.0
        draws = np.array(
            [sample_local_precisions(lam_b, omega, nu, rng)[0, 0, 0] for _ in range(20_000)]
        )
        c = (omega[0, 0] * lam_b[0, 0, 0] ** 2 + nu) / 2.0
        p = density_chisquare_pvalue(draws, lambda x: x ** ((nu + 1) / 2 - 1) * np.exp(-x * c))
        assert p > 0.01


def _hand_factor_draws(cfg, R, lam, u, sigma, u_C_T, n_T):
    """Assemble FDRQSDraws with trivial shrinkage fields."""
    J, L = cfg.J, cfg.L
    return FDRQSDraws(
        cfg=cfg,
        u=u,
        lam=lam,
        sigma=sigma,
        deltas=np.ones((R, L, J + 1)),
        u_C_T=u_C_T,
        n_T=n_T,
    )


class TestGibbsFDRQS:
    def test_tracks_weights_built_from_fixed_loadings(self):
        # Two series share one factor per block with known loadings; the
        # 95% band of the implied agent weight should cover the truth at
        # nearly every (t, i).
        rng = np.random.default_rng(21)
        T, N, J, L = 120, 2, 1, 1
        tau = 0.5
        k1, k2 = mixture_constants(tau)
        lam_true = np.array([[0.3, 1.0], [0.7, 0.8]])
        u_true = np.broadcast_to(np.array([0.2, 1.0]), (T, 2)).copy()
        a_pan = np.stack(
            [1.5 * np.sin(np.arange(T) / 15.0), 1.0 + 0.8 * np.cos(np.arange(T) / 10.0)],
            axis=1,
        )[:, :, None]
        A_pan = np.full((T, N, J), 0.05)
        f_true = a_pan[:, :, 0] + np.sqrt(0.05) * rng.normal(size=(T, N))
        theta_true = np.einsum("nk,tk->tnk", lam_true, u_true)
        v_true = rng.exponential(1.0, size=(T, N))
        y = (theta_true[:, :, 0] + f_true * theta_true[:, :, 1]
             + k1 * v_true + np.sqrt(k2 * v_true) * rng.normal(size=(T, N)))

        cfg = FDRQSConfig(
            tau=tau, N=N, J=J, L=L, delta=0.95, beta=0.95, n0=5.0, s0=1.0,
            fixed_loadings=lam_true, m0=np.array([0.0, 1.0]), C0=np.diag([5.0, 1.0]),
        )
        dr = gibbs_fdrqs(y, (a_pan, A_pan), cfg, mcmc=(800, 400), rng=rng)

        theta_draws = np.stack([dr.theta(r) for r in range(dr.n_draws)])
        lo, hi = np.percentile(theta_draws[:, :, :, 1], [2.5, 97.5], axis=0)
        truth = theta_true[:, :, 1]
        coverage = np.mean((truth >= lo) & (truth <= hi))
        assert coverage >= 0.9
        assert np.array_equal(dr.theta(0), dr.theta(0))

    def test_free_loadings_sweep_stays_finite(self):
        rng = np.random.default_rng(8)
        T, N, J, L = 30, 3, 1, 1
        y = rng.normal(size=(T, N))
        a = rng.normal(size=(T, N, J))
        A = np.full((T, N, J), 0.5)
        cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=L, delta=0.95, beta=0.95)
        dr = gibbs_fdrqs(y, (a, A), cfg, mcmc=(30, 30), rng=rng)
        assert np.all(np.isfinite(dr.lam)) and np.all(np.isfinite(dr.u))
        assert np.all(dr.deltas > 0.0) and np.all(dr.sigma > 0.0)
        assert dr.theta(5).shape == (T, N, J + 1)
        np.testing.assert_allclose(omegas_from_deltas(dr.deltas[3]), np.cumprod(dr.deltas[3], axis=0))

    def test_rejects_bad_inputs(self):
        T, N, J = 10, 2, 1
        y = np.zeros((T, N))
        a = np.zeros((T, N, J))
        A = np.ones((T, N, J))
        cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="\\(T, N\\) panel"):
            gibbs_fdrqs(np.zeros(T), (a, A), cfg, mcmc=(1, 0), rng=rng)
        with pytest.raises(ValueError, match="config says"):
            gibbs_fdrqs(np.zeros((T, 3)), (a, A), cfg, mcmc=(1, 0), rng=rng)
        with pytest.raises(ValueError, match="positive and finite"):
            gibbs_fdrqs(y, (a, np.zeros((T, N, J))), cfg, mcmc=(1, 0), rng=rng)
        with pytest.raises(ValueError, match="draw count"):
            gibbs_fdrqs(y, (a, A), cfg, mcmc=(0, 5), rng=rng)
        with pytest.raises(ValueError, match="burn-in must be nonnegative, got -3"):
            gibbs_fdrqs(y, (a, A), cfg, mcmc=(5, -3), rng=rng)

    def test_loading_failure_names_its_series(self, monkeypatch):
        # Fault injection: from its second call (sweep 1) the local precision
        # draw gives series k a negative precision, so the stacked loading
        # factorization of sweep 2 fails, and the error must name series k.
        # The shrinkage shocks are held at their start, since a negative
        # precision would first give their gamma draw a negative rate.
        T, N, J, L, k = 12, 4, 1, 1, 2
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(T, N))
        a = Y[:, :, None] + rng.normal(0.0, 0.5, (T, N, J))
        real, calls = fdrqs.sample_local_precisions, []

        def negative_for_k(*args, **kwargs):
            phi = real(*args, **kwargs)
            calls.append(None)
            if len(calls) >= 2:
                phi[k] = -1e8
            return phi

        monkeypatch.setattr(fdrqs, "sample_local_precisions", negative_for_k)
        monkeypatch.setattr(fdrqs, "_update_deltas", lambda lam_b, phi, deltas, *rest: deltas)
        cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=L)
        sids = [f"s{i}" for i in range(N)]
        with warnings.catch_warnings(), pytest.raises(
            np.linalg.LinAlgError, match=f"failed for series s{k}$"
        ) as info:
            warnings.simplefilter("error")  # the failed factorization warns of nothing
            gibbs_fdrqs(Y, (a, np.full((T, N, J), 0.3)), cfg, mcmc=(5, 5), rng=rng,
                        series_ids=sids)
        assert info.value.quantsynth_sweep == 2

    def test_failed_loading_solve_raises(self, monkeypatch):
        # Fault injection: a failed solve comes back all NaN, as the gufunc
        # gives it for a singular matrix, and the loading draw raises as np.linalg did.
        monkeypatch.setattr(fdrqs, "_solve", lambda a, b: np.full(b.shape, np.nan))
        T, N, J = 8, 3, 1
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(T, N))
        agents = (Y[:, :, None] + rng.normal(0.0, 0.5, (T, N, J)), np.full((T, N, J), 0.3))
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$") as info:
            gibbs_fdrqs(Y, agents, FDRQSConfig(tau=0.5, N=N, J=J, L=1), mcmc=(2, 2), rng=rng)
        assert info.value.quantsynth_sweep == 0

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    @pytest.mark.parametrize("name", ["n0", "s0", "nu", "a1", "a2"])
    def test_config_refuses_bad_hyperparameter(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
            FDRQSConfig(tau=0.5, N=3, J=1, L=1, **{name: value})

    @pytest.mark.parametrize("C0, message", [
        (np.array([[1.0, 5.0], [0.0, 1.0]]), "C0 must be symmetric"),
        (-np.eye(2), "C0 must be positive semidefinite"),
    ])
    def test_prior_scale_must_be_symmetric_and_psd(self, C0, message):
        # One rule for the prior state scale of both synthesizers.
        with pytest.raises(ValueError, match=message):
            FDRQSConfig(tau=0.5, N=3, J=1, L=1, C0=C0)
        with pytest.raises(ValueError, match=message):
            NormalGammaPrior(m0=np.zeros(2), C0=C0, n0=1.0, s0=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="L < N"):
            FDRQSConfig(tau=0.5, N=2, J=1, L=3)
        with pytest.raises(ValueError, match="fixed_loadings"):
            FDRQSConfig(tau=0.5, N=2, J=1, L=3, fixed_loadings=np.zeros((2, 5)))
        with pytest.raises(ValueError, match="m0"):
            FDRQSConfig(tau=0.5, N=3, J=1, L=1, m0=np.zeros(5))
        with pytest.raises(ValueError, match="delta"):
            FDRQSConfig(tau=0.5, N=3, J=1, L=1, delta=0.0)
        with pytest.raises(ValueError, match="beta"):
            FDRQSConfig(tau=0.5, N=3, J=1, L=1, beta=1.5)
        cfg = FDRQSConfig(tau=0.5, N=3, J=2, L=1, n0=2.0)
        assert cfg.K == 3
        assert cfg.n0 == 2.0
        np.testing.assert_allclose(cfg.m0, [0.0, 0.5, 0.5])


# (T, N, J, L, loadings): K = 6 at N = 2 (fixed) and N = 3; the factor
# benchmark's shape; N >= 8, once at L = 1, where each block sums one factor.
ORACLE_SHAPES = [
    (10, 2, 2, 2, "fixed"), (10, 3, 2, 2, "free"), (16, 6, 3, 5, "free"),
    (12, 9, 2, 1, "free"), (20, 10, 2, 3, "free"),
]


class TestGibbsFDRQSMatchesOracle:
    """The stacked sweep against the per-series loops of ``tests/oracles.py``.

    Every retained draw array and the generator state must match bit for
    bit: stacking the latent-predictor and loading steps must reproduce
    each series' products, factorizations and normal draws exactly.
    """

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("T, N, J, L, loadings", ORACLE_SHAPES)
    def test_draws_match_per_series_loops(self, T, N, J, L, loadings, tau):
        rng = np.random.default_rng(1000 * N + T)
        Y = rng.normal(size=(T, N))
        a = Y[:, :, None] + rng.normal(0.0, 0.5, (T, N, J))
        A = rng.uniform(0.1, 0.6, (T, N, J))
        fixed = rng.normal(size=(N, L * (J + 1))) if loadings == "fixed" else None
        cfg = FDRQSConfig(tau=tau, N=N, J=J, L=L, fixed_loadings=fixed)
        seed = int(rng.integers(2**32))
        gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        got = gibbs_fdrqs(Y, (a, A), cfg, mcmc=(20, 10), rng=gen)
        want = gibbs_fdrqs_per_series(Y, (a, A), cfg, (20, 10), want_gen)
        for name, w in zip(("u", "lam", "sigma", "deltas", "u_C_T", "n_T"), want):
            assert np.array_equal(getattr(got, name), w), name
        assert gen.bit_generator.state == want_gen.bit_generator.state


class TestForecastFDRQS:
    def test_disjoint_loadings_give_uncorrelated_series(self):
        # Each series loads on its own factor coordinates, so the joint
        # forecast draws should show no cross-series correlation.
        R, N, J, L = 4000, 2, 1, 2
        K = L * (J + 1)
        lam = np.zeros((R, N, K))
        lam[:, 0, 0] = 1.0
        lam[:, 0, 2] = 1.0
        lam[:, 1, 1] = 1.0
        lam[:, 1, 3] = 1.0
        cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=L, delta=0.5, beta=1.0,
                          fixed_loadings=np.zeros((N, K)))
        dd = _hand_factor_draws(
            cfg, R, lam, np.zeros((R, 3, K)), np.ones((R, 3, N)),
            np.broadcast_to(np.eye(K) * 0.2, (R, K, K)).copy(), np.full((R, N), 10.0),
        )
        fj = forecast_fdrqs(dd, (np.zeros((N, J)), np.full((N, J), 0.5)),
                            np.random.default_rng(9))
        rho = np.corrcoef(fj.joint.T)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(R)
        # beta = 1: evolved scales are carried over unchanged
        np.testing.assert_array_equal(fj.sigma_next, dd.sigma[:, -1, :])

    def test_zero_agent_loading_ignores_that_agent_report(self):
        # Series 1 has zero loading on the agent block, so moving that
        # series' agent report leaves every draw bit-for-bit unchanged;
        # moving series 2's report changes series 2 only.
        R, N, J, L = 500, 2, 1, 1
        K = L * (J + 1)
        rng = np.random.default_rng(12)
        lam = np.zeros((R, N, K))
        lam[:, 0, 0] = 1.0  # series 1: intercept only
        lam[:, 1, 0] = 0.5
        lam[:, 1, 1] = 0.8
        u = rng.normal(size=(R, 4, K))
        cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=L, delta=0.5, beta=1.0)
        dd = _hand_factor_draws(
            cfg, R, lam, u, np.ones((R, 4, N)),
            np.broadcast_to(np.eye(K) * 0.1, (R, K, K)).copy(), np.full((R, N), 8.0),
        )
        a = np.array([[0.3], [-0.7]])
        A = np.array([[0.4], [0.9]])
        base = forecast_fdrqs(dd, (a, A), np.random.default_rng(33))

        a_shift0 = a.copy()
        a_shift0[0, 0] += 50.0
        same = forecast_fdrqs(dd, (a_shift0, A), np.random.default_rng(33))
        assert np.array_equal(base.joint, same.joint)

        a_shift1 = a.copy()
        a_shift1[1, 0] += 50.0
        moved = forecast_fdrqs(dd, (a_shift1, A), np.random.default_rng(33))
        assert np.array_equal(base.joint[:, 0], moved.joint[:, 0])
        assert not np.array_equal(base.joint[:, 1], moved.joint[:, 1])

    def test_rejects_bad_agent_shapes(self):
        R, N, J, L = 50, 2, 1, 1
        K = L * (J + 1)
        cfg = FDRQSConfig(tau=0.5, N=N, J=J, L=L)
        dd = _hand_factor_draws(
            cfg, R, np.zeros((R, N, K)), np.zeros((R, 2, K)), np.ones((R, 2, N)),
            np.broadcast_to(np.eye(K), (R, K, K)).copy(), np.full((R, N), 5.0),
        )
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="must have shape \\(2, 1\\)"):
            forecast_fdrqs(dd, (np.zeros((1, J)), np.ones((1, J))), rng)
        with pytest.raises(ValueError, match="positive and finite"):
            forecast_fdrqs(dd, (np.zeros((N, J)), np.zeros((N, J))), rng)
        with pytest.raises(ValueError, match="positive and finite"):
            forecast_fdrqs(dd, (np.zeros((N, J)), np.full((N, J), np.inf)), rng)
