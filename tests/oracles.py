"""Closed-form laws and reference filters the tests check the samplers against.

The package samples the asymmetric Laplace (AL) law only through its
normal-exponential mixture and draws shrinkage weights only inside the
factor sampler; the direct forms here are the independent references.
``AL(tau, sigma)`` has density ``tau*(1-tau)/sigma * exp(-rho_tau(x/sigma))``
with ``rho_tau`` the check loss, so its ``tau``-quantile is exactly 0.

The two scalar forward filters below are the loops ``ffbs_conjugate`` and
the one-series case of ``ffbs_known_variance`` ran before they shared one
filter; the package's filter must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from quantsynth.distributions import _validate_tau, mixture_constants


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
