"""Closed-form laws and reference filters the tests check the samplers against.

The package samples the asymmetric Laplace (AL) law only through its
normal-exponential mixture and draws shrinkage weights only inside the
factor sampler; the direct forms here are the independent references.
``AL(tau, sigma)`` has density ``tau*(1-tau)/sigma * exp(-rho_tau(x/sigma))``
with ``rho_tau`` the check loss, so its ``tau``-quantile is exactly 0.

The two scalar forward filters below are the loops ``ffbs_conjugate`` and
the one-series case of ``ffbs_known_variance`` ran before they shared one
filter.  ``known_variance_vector_filter`` is the N >= 2 loop of
``ffbs_known_variance`` as it ran with ``@`` for every product, before its
per-step products moved to ``ndarray.dot``.  ``sample_gig_half``, ``psd_sqrt`` and ``sample_states`` are the
GIG draw, symmetric root and backward state sampler as they were before
their per-call overhead was cut.  ``sample_precisions``,
``gbrw_filter_sample`` and ``update_deltas`` are the backward gamma-beta
precision draw, the forward gamma filter and the shrinkage-shock cycle as
they ran on NumPy rows, before their recursions moved to Python floats.
``gibbs_fdrqs_per_series`` is the factor sampler as it ran before its
per-series work was stacked into one call per sweep; it calls those two
oracles for its precision paths and shrinkage shocks.  ``score_ratio`` is
the cumulative score-ratio loop over ``(series, time) -> score`` maps that
``ScorePanel`` ran before it held its scores as one (series x time) array.
The package must reproduce all of them bit for bit, drawing the same random
numbers in the same order.
"""

from __future__ import annotations

import numpy as np

from quantsynth.distributions import (
    CHI_FLOOR, _gig_params, _validate_tau, mixture_constants, sample_gig_half,
)
from quantsynth.dlm import PSD_CLIP_RATIO, PSD_FAIL_RATIO, GBRWSample, ffbs_known_variance
from quantsynth.drqs import latent_predictor_moments
from quantsynth.fdrqs import omegas_from_deltas, sample_local_precisions


def _validate_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"scale sigma must be positive, got {sigma}")
    return sigma


def check_loss(u, tau: float):
    """Check (pinball) loss ``u * (tau - 1{u < 0})``.

    Nonnegative, zero only at ``u = 0``; accepts scalars or arrays.
    """
    tau = _validate_tau(tau)
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u < 0.0))
    return float(out) if out.ndim == 0 else out


def al_log_density(eps, tau: float, sigma: float):
    """Log density of ``AL(tau, sigma)`` at ``eps``."""
    tau = _validate_tau(tau)
    sigma = _validate_sigma(sigma)
    eps = np.asarray(eps, dtype=float)
    out = np.log(tau * (1.0 - tau) / sigma) - check_loss(eps / sigma, tau)
    return float(out) if np.ndim(out) == 0 else out


def al_cdf(x, tau: float, sigma: float):
    """Distribution function of ``AL(tau, sigma)``.

    Closed form: ``tau*exp((1-tau)*x/sigma)`` for ``x <= 0`` and
    ``1 - (1-tau)*exp(-tau*x/sigma)`` for ``x > 0``; in particular the mass
    below zero is exactly ``tau``.
    """
    tau = _validate_tau(tau)
    sigma = _validate_sigma(sigma)
    x = np.asarray(x, dtype=float)
    left = tau * np.exp((1.0 - tau) * np.minimum(x, 0.0) / sigma)
    right = 1.0 - (1.0 - tau) * np.exp(-tau * np.maximum(x, 0.0) / sigma)
    out = np.where(x <= 0.0, left, right)
    return float(out) if out.ndim == 0 else out


def al_ppf(p, tau: float, sigma: float):
    """Quantile function of ``AL(tau, sigma)`` (inverse of :func:`al_cdf`)."""
    tau = _validate_tau(tau)
    sigma = _validate_sigma(sigma)
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("probabilities must lie strictly in (0, 1)")
    lower = sigma / (1.0 - tau) * np.log(p / tau)
    upper = -sigma / tau * np.log((1.0 - p) / (1.0 - tau))
    out = np.where(p <= tau, lower, upper)
    return float(out) if out.ndim == 0 else out


def al_rvs(tau: float, sigma: float, size, rng: np.random.Generator):
    """Draw from ``AL(tau, sigma)`` by inversion."""
    u = rng.uniform(size=size)
    # keep u strictly inside (0, 1) for the log transforms
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    return al_ppf(u, tau, sigma)


def al_rvs_mixture(tau: float, sigma: float, size, rng: np.random.Generator):
    """Draw from ``AL(tau, sigma)`` through the normal-exponential mixture.

    This is the construction the Gibbs samplers rely on; :func:`al_rvs` is the
    independent inversion route, so the two can be checked against each other.
    """
    sigma = _validate_sigma(sigma)
    k1, k2 = mixture_constants(tau)
    v = rng.exponential(scale=sigma, size=size)
    z = rng.standard_normal(size=size)
    return k1 * v + np.sqrt(sigma * k2 * v) * z


def mgp_prior_omegas(
    L: int, a1: float, a2: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw (size, L) omega vectors from the shrinkage prior.

    delta_1 ~ Gamma(a1, 1), delta_h ~ Gamma(a2, 1) for h >= 2, omega is the
    running product; precisions grow (loading variances shrink) with the
    factor index when a2 > 1.
    """
    deltas = np.empty((size, L))
    deltas[:, 0] = rng.gamma(shape=a1, scale=1.0, size=size)
    if L > 1:
        deltas[:, 1:] = rng.gamma(shape=a2, scale=1.0, size=(size, L - 1))
    return np.cumprod(deltas, axis=1)


def conjugate_filter(y, F, v, consts, prior, disc):
    """Learned-scale forward filter of ``ffbs_conjugate``: ``(m, C, n, s)``."""
    y = np.asarray(y, dtype=float)
    F = np.atleast_2d(np.asarray(F, dtype=float))
    v = np.asarray(v, dtype=float)
    T = y.size
    p = prior.m0.size

    k1, k2 = consts
    delta, beta = disc.delta, disc.beta

    m = np.empty((T, p))
    C = np.empty((T, p, p))
    n = np.empty(T)
    s = np.empty(T)

    m_prev, C_prev = prior.m0, prior.C0
    n_prev, s_prev = float(prior.n0), float(prior.s0)
    for t in range(T):
        R = C_prev / delta
        RF = R @ F[t]
        f_t = float(F[t] @ m_prev)
        Q = float(F[t] @ RF) + s_prev * k2 * v[t]
        if not np.isfinite(Q) or Q <= 0.0:
            raise FloatingPointError(f"non-finite or nonpositive predictive variance Q at t={t}")
        e = y[t] - f_t - k1 * v[t]
        n_t = beta * n_prev + 3.0
        r_t = (beta * n_prev + e * e / Q + 2.0 * v[t] / s_prev) / n_t
        A = RF / Q
        m[t] = m_prev + A * e
        C_t = r_t * (R - Q * np.outer(A, A))
        C[t] = 0.5 * (C_t + C_t.T)
        n[t] = n_t
        s[t] = r_t * s_prev
        m_prev, C_prev = m[t], C[t]
        n_prev, s_prev = n[t], s[t]
    return m, C, n, s


def known_variance_scalar_filter(y, F, offsets, obs_var, m0, C0, delta):
    """Known-variance forward filter of ``ffbs_known_variance`` for one series: ``(m, C)``.

    ``y``, ``offsets`` and ``obs_var`` are ``(T, 1)``, ``F`` is ``(T, 1, p)``.
    """
    y = np.asarray(y, dtype=float)
    F = np.asarray(F, dtype=float)
    T = y.shape[0]
    p = F.shape[2]
    offsets = np.broadcast_to(np.asarray(offsets, dtype=float), (T, 1))
    obs_var = np.broadcast_to(np.asarray(obs_var, dtype=float), (T, 1))

    m = np.empty((T, p))
    C = np.empty((T, p, p))

    m_prev = np.atleast_1d(np.asarray(m0, dtype=float)).copy()
    C_prev = np.atleast_2d(np.asarray(C0, dtype=float)).copy()
    for t in range(T):
        R = C_prev / delta
        Ft = F[t, 0]
        RFt = R @ Ft
        q = float(Ft @ RFt) + obs_var[t, 0]
        if not np.isfinite(q) or q <= 0.0:
            raise np.linalg.LinAlgError(
                f"singular predictive covariance at t={t}: min eigenvalue {q:.3e}"
            )
        e = y[t, 0] - offsets[t, 0] - float(Ft @ m_prev)
        gain = RFt / q
        m[t] = m_prev + gain * e
        C_t = R - np.outer(gain, gain) * q
        C[t] = 0.5 * (C_t + C_t.T)
        m_prev, C_prev = m[t], C[t]
    return m, C


def known_variance_vector_filter(y, F, offsets, obs_var, m0, C0, delta):
    """Known-variance forward filter of ``ffbs_known_variance`` for N >= 2 series: ``(m, C)``.

    ``y``, ``offsets`` and ``obs_var`` are ``(T, N)``, ``F`` is ``(T, N, p)``.
    """
    y = np.asarray(y, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    obs_var = np.asarray(obs_var, dtype=float)
    F = np.asarray(F, dtype=float)
    T = y.shape[0]
    p = F.shape[2]
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    C0 = np.atleast_2d(np.asarray(C0, dtype=float))

    m = np.empty((T, p))
    C = np.empty((T, p, p))
    m_prev, C_prev = m0, C0
    for t in range(T):
        R = C_prev / delta
        Ft = F[t]
        f_t = offsets[t] + Ft @ m_prev
        RFt = R @ Ft.T  # (p, N)
        Q = Ft @ RFt + np.diag(obs_var[t])
        Q = 0.5 * (Q + Q.T)
        try:
            Lq = np.linalg.cholesky(Q)
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(Q)
            raise np.linalg.LinAlgError(
                f"singular predictive covariance at t={t}: min eigenvalue {w[0]:.3e}"
            ) from None
        e = y[t] - f_t
        gain = np.linalg.solve(Lq.T, np.linalg.solve(Lq, RFt.T)).T  # R F' Q^{-1}, (p, N)
        m[t] = m_prev + gain @ e
        C_t = R - gain @ Q @ gain.T
        C[t] = 0.5 * (C_t + C_t.T)
        m_prev, C_prev = m[t], C[t]
    return m, C


def sample_gig_half(chi, psi, rng: np.random.Generator):
    """``GIG(1/2, chi, psi)`` draws: gamma where ``chi == 0``, reciprocal Wald elsewhere."""
    chi = np.asarray(chi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if np.any(~np.isfinite(chi)) or np.any(~np.isfinite(psi)):
        raise ValueError("chi and psi must be finite")
    if np.any(psi <= 0.0):
        raise ValueError("psi must be positive")
    if np.any(chi < 0.0):
        raise ValueError("chi must be nonnegative")

    chi_b, psi_b = np.broadcast_arrays(chi, psi)
    out = np.empty(chi_b.shape, dtype=float)

    zero = chi_b == 0.0
    if np.any(zero):
        out[zero] = rng.gamma(shape=0.5, scale=2.0 / psi_b[zero])
    if np.any(~zero):
        c = chi_b[~zero]
        p = psi_b[~zero]
        y = rng.wald(np.sqrt(p / c), p)
        out[~zero] = 1.0 / y

    if out.ndim == 0 or (np.ndim(chi) == 0 and np.ndim(psi) == 0):
        return float(out.reshape(-1)[0]) if out.size == 1 else out
    return out


def psd_sqrt(C: np.ndarray) -> np.ndarray:
    """Symmetric root of (a batch of) PSD matrices, small negative eigenvalues clipped."""
    C = np.asarray(C, dtype=float)
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    w, V = np.linalg.eigh(C)
    trace = np.trace(C, axis1=-2, axis2=-1)
    bad = w[..., 0] < -PSD_FAIL_RATIO * np.maximum(np.abs(trace), 1.0)
    if np.any(bad):
        raise np.linalg.LinAlgError(
            "state scale matrix failed PSD check: "
            f"min eigenvalue {w[..., 0].min():.3e} vs trace {np.max(np.abs(trace)):.3e}"
        )
    floor = PSD_CLIP_RATIO * np.maximum(w[..., -1:], 0.0)
    w = np.clip(w, floor, None)
    return (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)


def sample_states(m, C, delta: float, z, scale) -> np.ndarray:
    """Backward state draw from filtered ``m`` (T, p) and ``C`` (T, p, p), one matvec per step."""
    sqrtC = psd_sqrt(C)
    T = m.shape[0]
    x = np.empty_like(m)
    x[T - 1] = m[T - 1] + (sqrtC[T - 1] @ z[T - 1]) / scale[T - 1]
    sd_factor = np.sqrt(1.0 - delta)
    for t in range(T - 2, -1, -1):
        mean = m[t] + delta * (x[t + 1] - m[t])
        x[t] = mean + sd_factor * (sqrtC[t] @ z[t]) / scale[t]
    return x


def sample_precisions(n, d, beta, rng: np.random.Generator) -> np.ndarray:
    """Backward gamma-beta precision draw from the filtered ``(n, d)``: terminal gamma first."""
    T = n.shape[0]
    phi = np.empty_like(n)
    phi[T - 1] = rng.gamma(shape=n[T - 1] / 2.0, scale=2.0 / d[T - 1])
    if T > 1:
        shape = (1.0 - beta) * n[: T - 1] / 2.0
        eta = np.zeros_like(shape)
        pos = shape > 0.0
        if np.any(pos):
            eta[pos] = rng.gamma(shape=shape[pos], scale=2.0 / d[: T - 1][pos])
        for t in range(T - 2, -1, -1):
            phi[t] = beta * phi[t + 1] + eta[t]
    return phi


def gbrw_filter_sample(sq_resid, v, kappa2, n0, d0, beta, rng: np.random.Generator):
    """Forward gamma filter on ``(T, N)`` rows, then :func:`sample_precisions`; inputs are valid."""
    T, N = sq_resid.shape
    n = np.empty((T, N))
    d = np.empty((T, N))
    n_prev, d_prev = n0, d0
    for t in range(T):
        n[t] = beta * n_prev + 3.0
        d[t] = beta * d_prev + sq_resid[t] / (kappa2 * v[t]) + 2.0 * v[t]
        n_prev, d_prev = n[t], d[t]
    return GBRWSample(phi=sample_precisions(n, d, beta, rng), n=n, d=d)


def update_deltas(lam_blocks, phi, deltas, a1, a2, rng: np.random.Generator) -> np.ndarray:
    """Shrinkage shocks site by site, each site summing its block afresh with ``np.sum``."""
    N = len(lam_blocks)
    L, Jp1 = deltas.shape
    out = deltas.copy()
    for j in range(Jp1):
        for h in range(L):
            dj = out[:, j].copy()
            dj[h] = 1.0
            omega_wo = np.cumprod(dj)
            sums = np.sum(phi[:, :, j] * lam_blocks[:, :, j] ** 2, axis=0)
            tail = float(np.sum(omega_wo[h:] * sums[h:]))
            shape = N * L / 2.0 + a1 if h == 0 else N * (L - h) / 2.0 + a2
            out[h, j] = rng.gamma(shape=shape, scale=1.0 / (1.0 + 0.5 * tail))
    return out


def gibbs_fdrqs_per_series(Y, agents, cfg, mcmc, rng: np.random.Generator):
    """The factor sampler's sweeps with the series loops it ran before they were stacked.

    Each sweep draws the latent predictors and the loadings one series at a
    time (one ``latent_predictor_moments`` call, one cholesky, three solves
    and one normal draw per series), and every shrinkage site sums its
    block's ``phi * lambda^2`` afresh.  Inputs must be valid; returns
    ``(u, lam, sigma, deltas, u_C_T, n_T)`` stacked over retained draws, as
    ``gibbs_fdrqs`` stores them.
    """
    n_keep, n_burn = mcmc
    a_mean, A_var = agents
    T, N = Y.shape
    J, L, K = cfg.J, cfg.L, cfg.K
    consts = mixture_constants(cfg.tau)
    k1, k2 = consts
    free_lam = cfg.fixed_loadings is None
    if free_lam:
        lam = np.zeros((N, K))
        lam[:, ::L] = 1.0
    else:
        lam = cfg.fixed_loadings.copy()
    u = np.broadcast_to(cfg.m0, (T, K)).copy()
    sigma = np.ones((T, N))
    f = a_mean.copy()
    phi_load = np.ones((N, L, J + 1))
    deltas = np.ones((L, J + 1))
    keep = [[] for _ in range(6)]
    for it in range(n_burn + n_keep):
        lam_blocks = lam.reshape(N, J + 1, L).transpose(0, 2, 1)
        theta = np.einsum("nlj,tjl->tnj", lam_blocks, u.reshape(T, J + 1, L))
        mult = np.concatenate([np.ones((T, N, 1)), f], axis=2)
        resid = Y - np.einsum("tnj,tnj->tn", theta, mult)
        chi, psi = _gig_params(resid, sigma, consts)
        v = np.maximum(sample_gig_half(chi, psi, rng), CHI_FLOOR)
        for i in range(N):
            f_hat, _, root = latent_predictor_moments(
                Y[:, i], theta[:, i, :], sigma[:, i], v[:, i],
                a_mean[:, i, :], A_var[:, i, :], consts,
            )
            f[:, i, :] = f_hat + np.einsum("tjk,tk->tj", root, rng.standard_normal((T, J)))
        mult = np.concatenate([np.ones((T, N, 1)), f], axis=2)
        if free_lam:
            omegas = omegas_from_deltas(deltas)
            prior_prec = (phi_load * omegas[None, :, :]).transpose(0, 2, 1).reshape(N, K)
            w_obs = 1.0 / (k2 * sigma * v)
            for i in range(N):
                util = np.repeat(mult[:, i, :], L, axis=1) * u
                prec = util.T @ (util * w_obs[:, i, None])
                prec[np.arange(K), np.arange(K)] += prior_prec[i]
                rhs = util.T @ ((Y[:, i] - k1 * v[:, i]) * w_obs[:, i])
                cf = np.linalg.cholesky(prec)
                h_hat = np.linalg.solve(cf.T, np.linalg.solve(cf, rhs))
                lam[i] = h_hat + np.linalg.solve(cf.T, rng.standard_normal(K))
            lam_blocks = lam.reshape(N, J + 1, L).transpose(0, 2, 1)
            phi_load = sample_local_precisions(lam_blocks, omegas, cfg.nu, rng)
            deltas = update_deltas(lam_blocks, phi_load, deltas, cfg.a1, cfg.a2, rng)
        Ftil = np.repeat(mult, L, axis=2) * lam[None, :, :]
        ffbs = ffbs_known_variance(Y, Ftil, k1 * v, k2 * sigma * v, cfg.m0, cfg.C0, cfg.delta, rng)
        u = ffbs.state
        sq = (Y - np.einsum("tnk,tk->tn", Ftil, u) - k1 * v) ** 2
        g = gbrw_filter_sample(sq, v, k2, cfg.n0, cfg.n0 * cfg.s0, cfg.beta, rng)
        sigma = 1.0 / g.phi
        if it >= n_burn:
            for store, x in zip(keep, (u, lam, sigma, deltas, ffbs.C[-1], g.n[-1])):
                store.append(np.array(x))
    return tuple(np.stack(store) for store in keep)


def score_ratio(crps: dict, ref_crps: dict, series_ids, t_star: int) -> float:
    """Scores of ``series_ids`` summed from each series' first time to ``t_star``, over the reference's.

    Each series' window is summed on its own and the sums are added in order.
    """
    num = 0.0
    den = 0.0
    for s in series_ids:
        times = np.array(sorted(t for si, t in crps if si == s), dtype=int)
        window = times[times <= t_star]
        num += float(np.sum(np.array([crps[(s, t)] for t in window])))
        den += float(np.sum(np.array([ref_crps[(s, t)] for t in window])))
    if den <= 0.0:
        raise ZeroDivisionError("reference score sum is zero over the window")
    return num / den
