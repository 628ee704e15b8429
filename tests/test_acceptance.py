"""Acceptance checks for the whole package, one printed verdict per criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and time
budget, prints a single ``[PASS]``/``[FAIL]`` line (visible even under
pytest's capture), and then asserts.
"""

import filecmp
import time

import numpy as np
from scipy import stats
from scipy.integrate import quad

from conftest import (
    backtest_config,
    dense_joint_smoother,
    density_chisquare_pvalue,
    ks_distance,
    uniform_ecdf_distance,
    write_level_panel,
)
from oracles import al_cdf, al_log_density, al_rvs_mixture, mgp_prior_omegas
from quantsynth.config import DEFAULT_TAUS
from quantsynth.distributions import mixture_constants, sample_gig_half
from quantsynth.dlm import (
    DiscountConfig,
    NormalGammaPrior,
    ffbs_conjugate,
    ffbs_known_variance,
)
from quantsynth.drqs import DRQSConfig, forecast_drqs, gibbs_drqs
from quantsynth.evaluation import (
    QuantileGrid,
    ScorePanel,
    crps_quantile_weighted,
    pit,
    reconstruct_predictive,
)
from quantsynth.fdrqs import (
    FDRQSConfig,
    _update_deltas,
    forecast_fdrqs,
    gibbs_fdrqs,
    sample_local_precisions,
)
from quantsynth.pipeline import audit_lookahead, run_backtest

BACKTEST_FILES = (
    "agent_forecasts.csv",
    "forecasts.csv",
    "scores.csv",
    "ratios.csv",
    "pit.csv",
    "plots/rcs_curve.csv",
    "plots/fan.csv",
    "plots/pit_ecdf.csv",
    "plots/correlation.csv",
)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


class TestAcceptance:
    def test_01_mixture_sampler_matches_closed_form_cdf(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for tau in (0.1, 0.5, 0.9):
            for sigma in (0.5, 2.0):
                draws = al_rvs_mixture(tau, sigma, 100_000, rng)
                worst = max(worst, ks_distance(draws, lambda x: al_cdf(x, tau, sigma)))
        dt = time.perf_counter() - t0
        ok = worst < 0.01 and dt < 10.0
        _verdict(capsys, 1, ok,
                 f"normal-exponential mixture vs closed CDF, worst KS {worst:.4f} < 0.01 "
                 f"over 6 (tau, sigma) settings at n=1e5 ({dt:.1f}s < 10s)")

    def test_02_density_mass_below_zero_equals_tau(self, capsys):
        t0 = time.perf_counter()
        worst = 0.0
        for tau in np.linspace(0.1, 0.9, 9):
            mass, _ = quad(lambda x: np.exp(al_log_density(x, tau, 1.3)), -np.inf, 0.0,
                           limit=200)
            worst = max(worst, abs(mass - tau))
        dt = time.perf_counter() - t0
        ok = worst < 1e-8 and dt < 1.0
        _verdict(capsys, 2, ok,
                 f"quadrature mass below 0 equals tau, worst error {worst:.2e} < 1e-8 "
                 f"over 9 levels ({dt:.2f}s < 1s)")

    def test_03_filter_matches_conjugate_bayes_and_smoother(self, capsys):
        t0 = time.perf_counter()
        # Part 1: one observation, static discounts; the filter must equal
        # the normal-gamma posterior computed directly from Bayes' rule.
        tau = 0.3
        consts = mixture_constants(tau)
        k1, k2 = consts
        m0 = np.array([0.3, -0.2])
        C0 = np.array([[1.0, 0.2], [0.2, 0.5]])
        n0, s0 = 2.5, 1.4
        F = np.array([1.0, 0.7])
        v, y_obs = 0.9, 1.1
        rng = np.random.default_rng(0)
        z = rng.standard_normal((1, 2))
        res = ffbs_conjugate(
            np.array([y_obs]), F[None, :], np.array([v]), consts,
            NormalGammaPrior(m0, C0, n0, s0), DiscountConfig(1.0, 1.0), rng, z_state=z,
        )
        e = y_obs - F @ m0 - k1 * v
        Qstar = F @ C0 @ F / s0 + k2 * v
        n1 = n0 + 3.0
        s1 = (n0 * s0 + e * e / Qstar + 2.0 * v) / n1
        C0inv = np.linalg.inv(C0)
        C1 = np.linalg.inv(s0 * C0inv + np.outer(F, F) / (k2 * v))
        m1 = C1 @ (s0 * C0inv @ m0 + F * (y_obs - k1 * v) / (k2 * v))
        err = max(
            abs(res.n[-1] - n1),
            abs(res.s[-1] - s1),
            float(np.abs(res.m[-1] - m1).max()),
            float(np.abs(res.C[-1] / res.s[-1] - C1).max()),
        )

        # Part 2: sampled smoothing paths against a dense joint-normal
        # smoother built independently of the filter code.
        rng = np.random.default_rng(42)
        T, N, p = 5, 2, 2
        Fdes = rng.normal(size=(T, N, p))
        offs = 0.3 * rng.normal(size=(T, N))
        ovar = rng.uniform(0.5, 1.5, size=(T, N))
        y = rng.normal(size=(T, N))
        m0v, C0v, delta = np.zeros(p), np.eye(p), 0.9
        post_mean, _ = dense_joint_smoother(y, Fdes, offs, ovar, m0v, C0v, delta)
        R = 10_000
        paths = np.empty((R, T * p))
        for r in range(R):
            paths[r] = ffbs_known_variance(
                y, Fdes, offs, ovar, m0v, C0v, delta, rng
            ).state.ravel()
        se = paths.std(axis=0, ddof=1) / np.sqrt(R)
        z = np.abs(paths.mean(axis=0) - post_mean) / se
        dt = time.perf_counter() - t0
        ok = err < 1e-12 and np.all(z <= 3.0) and dt < 30.0
        _verdict(capsys, 3, ok,
                 f"one-step filter vs conjugate Bayes (max err {err:.1e} < 1e-12); "
                 f"smoothing means within 3 SE over 1e4 draws (max z {z.max():.2f}) "
                 f"({dt:.1f}s < 30s)")

    def test_04_gig_half_moments_match_closed_form(self, capsys):
        # E[X] = sqrt(chi/psi) + 1/psi and E[X^2] = chi/psi
        # + 3 sqrt(chi)/psi^1.5 + 3/psi^2 (Bessel-ratio identities at
        # half-integer order, valid down to chi = 0).
        t0 = time.perf_counter()
        rng = np.random.default_rng(104)
        n = 100_000
        worst_z = 0.0
        pairs = 0
        for chi in (0.0, 0.1, 0.5, 2.0, 5.0):
            for psi in (0.3, 1.0, 3.0, 10.0):
                x = sample_gig_half(np.full(n, chi), np.full(n, psi), rng)
                m1 = np.sqrt(chi / psi) + 1.0 / psi
                m2 = chi / psi + 3.0 * np.sqrt(chi) / psi**1.5 + 3.0 / psi**2
                z1 = abs(x.mean() - m1) / (x.std(ddof=1) / np.sqrt(n))
                sq = x * x
                z2 = abs(sq.mean() - m2) / (sq.std(ddof=1) / np.sqrt(n))
                worst_z = max(worst_z, z1, z2)
                pairs += 1
        dt = time.perf_counter() - t0
        ok = worst_z <= 3.0 and pairs == 20 and dt < 30.0
        _verdict(capsys, 4, ok,
                 f"first two moments over {pairs} (chi, psi) pairs at n=1e5, "
                 f"worst z {worst_z:.2f} <= 3 ({dt:.1f}s < 30s)")

    def test_05_synthesis_recovers_informative_agent_weight(self, capsys):
        # Agent 1 reports the true quantile with tiny variance, agent 2 is
        # pure noise; the posterior band for the agent-1 weight must cover
        # its true value 1 at 90% of times, averaged over 5 seeds.
        t0 = time.perf_counter()
        T, tau = 200, 0.25
        k1, k2 = mixture_constants(tau)
        cfg = DRQSConfig(tau=tau, J=2, disc=DiscountConfig(0.95, 0.95))
        coverages = []
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            true_q = 0.5 + 1.2 * np.sin(np.arange(T) / 25.0)
            v = rng.exponential(1.0, size=T)
            y = true_q + k1 * v + np.sqrt(k2 * v) * rng.normal(size=T)
            a = np.column_stack([true_q + 1e-3 * rng.normal(size=T), np.zeros(T)])
            A = np.column_stack([np.full(T, 1e-6), np.full(T, 25.0)])
            draws = gibbs_drqs(y, (a, A), cfg, mcmc=(600, 300), rng=rng)
            lo, hi = np.percentile(draws.theta[:, :, 1], [2.5, 97.5], axis=0)
            coverages.append(float(np.mean((lo <= 1.0) & (1.0 <= hi))))
        mean_cov = float(np.mean(coverages))
        dt = time.perf_counter() - t0
        ok = mean_cov >= 0.9 and dt < 600.0
        _verdict(capsys, 5, ok,
                 f"weight-path 95% bands cover the truth at {mean_cov:.1%} of times "
                 f"(need >= 90%) over 5 seeds, T=200, J=2 ({dt:.1f}s < 600s)")

    def test_06_factor_model_reduces_to_univariate_synthesis(self, capsys):
        # N=1, L=1, loadings pinned at 1, static discounts, and a precision
        # prior concentrated at 1: both samplers then target the same
        # posterior, so their forecast draws must agree in distribution.
        t0 = time.perf_counter()
        rng = np.random.default_rng(21)
        T, tau = 50, 0.5
        k1, k2 = mixture_constants(tau)
        a1 = np.sin(np.arange(T) / 9.0)[:, None]
        A1 = np.full((T, 1), 0.3)
        v = rng.exponential(1.0, size=T)
        y = 0.2 + 0.9 * a1[:, 0] + k1 * v + np.sqrt(k2 * v) * rng.normal(size=T)
        m0 = np.array([0.0, 1.0])
        C0 = np.diag([3.0, 3.0])
        dcfg = DRQSConfig(tau=tau, J=1, prior=NormalGammaPrior(m0, C0, 1e8, 1.0),
                          disc=DiscountConfig(1.0, 1.0))
        fcfg = FDRQSConfig(tau=tau, N=1, J=1, L=1, m0=m0, C0=C0, n0=1e8, s0=1.0,
                           delta=1.0, beta=1.0, fixed_loadings=np.array([[1.0, 1.0]]))
        du = gibbs_drqs(y, (a1, A1), dcfg, mcmc=(3000, 500), rng=np.random.default_rng(100))
        df = gibbs_fdrqs(y[:, None], (a1[:, None, :], A1[:, None, :]), fcfg,
                         mcmc=(3000, 500), rng=np.random.default_rng(200))
        fu = forecast_drqs(du, (np.array([0.4]), np.array([0.3])), np.random.default_rng(300))
        ff = forecast_fdrqs(df, (np.array([[0.4]]), np.array([[0.3]])), np.random.default_rng(400))
        ks = stats.ks_2samp(fu.draws, ff.joint[:, 0]).statistic
        dt = time.perf_counter() - t0
        ok = ks < 0.05 and dt < 600.0
        _verdict(capsys, 6, ok,
                 f"matched single-series forecast draws, two-sample KS {ks:.3f} < 0.05 "
                 f"at 3000 draws ({dt:.1f}s < 600s)")

    def test_07_shrinkage_prior_weights_increase(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(107)
        om = mgp_prior_omegas(5, 2.5, 3.5, 100_000, rng)
        means = om.mean(axis=0)
        ses = om.std(axis=0, ddof=1) / np.sqrt(om.shape[0])
        margins = np.diff(means) - 3.0 * np.hypot(ses[1:], ses[:-1])
        expect = 2.5 * 3.5 ** np.arange(5)
        match = np.all(np.abs(means - expect) < 4.0 * ses)
        dt = time.perf_counter() - t0
        ok = bool(np.all(margins > 0.0) and match and dt < 10.0)
        _verdict(capsys, 7, ok,
                 f"prior precision means strictly increase with the factor index "
                 f"(min 3-SE margin {margins.min():.3f} > 0, means match a1*a2^l) "
                 f"({dt:.1f}s < 10s)")

    def test_08_shrinkage_full_conditionals_match_quadrature(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(108)

        # phi site: Gamma((nu+1)/2, (omega lam^2 + nu)/2) up to normalization.
        n = 100_000
        lam_val, omega_val, nu_val = 0.7, 2.0, 3.0
        lam_blocks = np.full((n, 1, 1), lam_val)
        phi_draws = sample_local_precisions(
            lam_blocks, np.array([[omega_val]]), nu_val, rng
        )[:, 0, 0]
        c_phi = (omega_val * lam_val**2 + nu_val) / 2.0
        p_phi = density_chisquare_pvalue(
            phi_draws, lambda x: x ** ((nu_val + 1.0) / 2.0 - 1.0) * np.exp(-x * c_phi)
        )

        # delta site (first shock of a block): density derived directly from
        # the joint model, with the quadratic term assembled by raw loops.
        N, L = 2, 2
        lam_b = np.array([[[0.9], [0.4]], [[-0.6], [1.1]]])  # (N, L, 1)
        phi_b = np.array([[[1.3], [0.8]], [[0.5], [2.0]]])
        deltas0 = np.array([[1.7], [0.6]])
        a1v, a2v = 2.5, 3.5
        c_quad = 0.0
        for ell in range(L):
            partial = 1.0
            for s in range(1, ell + 1):
                partial *= deltas0[s, 0]
            c_quad += partial * sum(
                phi_b[i, ell, 0] * lam_b[i, ell, 0] ** 2 for i in range(N)
            )
        shape_exp = a1v + N * L / 2.0
        rate_exp = 1.0 + 0.5 * c_quad
        m = 100_000
        delta_draws = np.empty(m)
        for r in range(m):
            delta_draws[r] = _update_deltas(lam_b, phi_b, deltas0, a1v, a2v, rng)[0, 0]
        p_delta = density_chisquare_pvalue(
            delta_draws, lambda x: x ** (shape_exp - 1.0) * np.exp(-x * rate_exp)
        )
        dt = time.perf_counter() - t0
        ok = p_phi > 0.01 and p_delta > 0.01 and dt < 60.0
        _verdict(capsys, 8, ok,
                 f"site histograms vs quadrature at n=1e5: phi p={p_phi:.3f}, "
                 f"delta p={p_delta:.3f} (both > 0.01) ({dt:.1f}s < 60s)")

    def test_09_score_identities(self, capsys):
        t0 = time.perf_counter()
        grid2 = QuantileGrid(np.array([0.25, 0.75]))
        err_two_node = abs(crps_quantile_weighted(0.0, np.array([-1.0, 1.0]), grid2) - 0.25)

        grid = QuantileGrid(DEFAULT_TAUS)
        q = np.linspace(-2.0, 2.0, grid.taus.size)
        err_perfect = abs(crps_quantile_weighted(0.3, np.full(grid.taus.size, 0.3), grid))
        err_homog = max(
            abs(crps_quantile_weighted(1.2, 3.0 * q, grid, kind)
                - 3.0 * crps_quantile_weighted(0.4, q, grid, kind))
            for kind in ("none", "right", "left")
        )
        x = np.random.default_rng(9).uniform(0.5, 2.0, size=12)
        panel = ScorePanel("m", "none", ["s"], np.arange(x.size), x[None, :])
        ref = ScorePanel("ref", "none", ["s"], np.arange(x.size), x[None, :])
        err_rcs = abs(panel.rtcs_vs(ref)[-1] - 1.0)
        worst = max(err_two_node, err_perfect, err_homog, err_rcs)
        dt = time.perf_counter() - t0
        ok = worst < 1e-12 and dt < 1.0
        _verdict(capsys, 9, ok,
                 f"perfect-forecast zero, positive homogeneity, self-ratio one, "
                 f"two-node trapezoid 0.25; worst error {worst:.1e} < 1e-12 ({dt:.2f}s < 1s)")

    def test_10_reconstruction_recovers_normal(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(110)
        grid = QuantileGrid(DEFAULT_TAUS)
        qn = stats.norm.ppf(grid.taus)
        rec = reconstruct_predictive(qn, grid, R=10_000, rng=rng)
        tail_err = max(abs(rec.mu1), abs(rec.sigma1 - 1.0),
                       abs(rec.mu2), abs(rec.sigma2 - 1.0))
        emp = np.quantile(rec.draws, grid.taus)
        se = np.sqrt(grid.taus * (1.0 - grid.taus) / 10_000) / stats.norm.pdf(qn)
        worst_z = float(np.max(np.abs(emp - qn) / se))
        dt = time.perf_counter() - t0
        ok = tail_err < 1e-10 and worst_z <= 3.0 and dt < 5.0
        _verdict(capsys, 10, ok,
                 f"tail fit error {tail_err:.1e} < 1e-10; empirical quantiles of 1e4 "
                 f"draws within 3 binomial SE (worst z {worst_z:.2f}) ({dt:.1f}s < 5s)")

    def test_11_pit_uniform_under_correct_model(self, capsys):
        # Issue the true conditional quantiles of a shifting normal, rebuild
        # the predictive, and score PIT: its ECDF must stay inside the
        # alpha=0.01 Kolmogorov band around the uniform.
        t0 = time.perf_counter()
        rng = np.random.default_rng(111)
        grid = QuantileGrid(DEFAULT_TAUS)
        zq = stats.norm.ppf(grid.taus)
        T = 2000
        mu = np.sin(np.arange(T) / 7.0)
        sd = 0.5 + 0.3 * np.abs(np.cos(np.arange(T) / 13.0))
        pits = np.empty(T)
        for t in range(T):
            rec = reconstruct_predictive(mu[t] + sd[t] * zq, grid, R=2000, rng=rng)
            pits[t] = pit(rng.normal(mu[t], sd[t]), rec.draws)
        D = uniform_ecdf_distance(pits)
        crit = 1.628 / np.sqrt(T)
        dt = time.perf_counter() - t0
        ok = D < crit and dt < 300.0
        _verdict(capsys, 11, ok,
                 f"PIT ECDF distance {D:.4f} < {crit:.4f} (alpha=0.01 band, T=2000) "
                 f"({dt:.1f}s < 300s)")

    def test_12_backtest_reproducibility_and_no_lookahead(self, capsys, tmp_path):
        t0 = time.perf_counter()
        panel_csv = tmp_path / "levels.csv"
        write_level_panel(panel_csv)
        cfg1 = backtest_config(panel_csv, tmp_path / "w1", workers=1)
        cfg8 = backtest_config(panel_csv, tmp_path / "w8", workers=8)
        m1 = run_backtest(cfg1)
        m8 = run_backtest(cfg8)
        mismatched = [
            name for name in BACKTEST_FILES
            if not filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w8" / name, shallow=False)
        ]
        audit_rows = audit_lookahead(cfg1)
        violations = [r for r in audit_rows if not r["ok"]]
        dt = time.perf_counter() - t0
        ok = (m1.complete and m8.complete and not mismatched and not violations
              and dt < 300.0)
        _verdict(capsys, 12, ok,
                 f"{len(BACKTEST_FILES)} artifact files byte-identical across 1 and 8 "
                 f"workers; {len(audit_rows)} audited jobs, {len(violations)} look-ahead "
                 f"violations ({dt:.1f}s < 300s)")
