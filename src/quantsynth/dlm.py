"""Discount-factor dynamic linear model machinery.

Three samplers shared by the agent model and both synthesizers:

* :func:`ffbs_conjugate` -- joint forward-filter / backward-sample draw of a
  state path together with a gamma-beta random-walk precision path, for the
  conditionally Gaussian model produced by the asymmetric-Laplace mixture
  (scalar observations, unknown time-varying scale).
* :func:`ffbs_known_variance` -- standard FFBS for a vector-observation DLM
  with known diagonal observation variances and discount-specified state
  evolution.
* :func:`gbrw_filter_sample` -- forward gamma filter and backward sampler for
  per-series precision paths under the gamma-beta random walk.

There are two forward filters: one scalar-observation filter
(:func:`_filter_scalar`, known or learned scale) behind :func:`ffbs_conjugate`
and the scalar case of :func:`ffbs_known_variance`, and the vector filter of
:func:`ffbs_known_variance`.  Both FFBS samplers share one backward state
sampler (:func:`_sample_states`); :func:`ffbs_conjugate` and
:func:`gbrw_filter_sample` share one backward precision sampler
(:func:`_sample_precisions`).

All evolution noise is discount-implied: the time-``t`` prior scale matrix is
``R_t = C_{t-1} / delta``.  Gamma laws are (shape, rate) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import MixtureConstants

__all__ = [
    "DiscountConfig",
    "NormalGammaPrior",
    "ConjugateFFBS",
    "KnownVarianceFFBS",
    "GBRWSample",
    "ffbs_conjugate",
    "ffbs_known_variance",
    "gbrw_filter_sample",
    "psd_sqrt",
]

# Eigenvalue handling for filtered state scale matrices: anything below
# -PSD_FAIL_RATIO * trace(C) is a hard error, small negatives up to
# PSD_CLIP_RATIO * max eigenvalue are clipped.
PSD_FAIL_RATIO = 1e-8
PSD_CLIP_RATIO = 1e-12


@dataclass(frozen=True)
class DiscountConfig:
    """Discount factors: ``delta`` for the state scale, ``beta`` for the precision walk."""

    delta: float = 0.9
    beta: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


@dataclass(frozen=True)
class NormalGammaPrior:
    """Conjugate prior: ``theta_0 | phi ~ N(m0, C0/(phi*s0))``, ``phi_0 ~ Gamma(n0/2, n0*s0/2)``."""

    m0: np.ndarray
    C0: np.ndarray
    n0: float
    s0: float

    def __post_init__(self):
        m0 = np.atleast_1d(np.asarray(self.m0, dtype=float))
        C0 = np.atleast_2d(np.asarray(self.C0, dtype=float))
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "C0", C0)
        if C0.shape != (m0.size, m0.size):
            raise ValueError("C0 must be square with dimension matching m0")
        if not np.allclose(C0, C0.T):
            raise ValueError("C0 must be symmetric")
        if np.linalg.eigvalsh(C0).min() < -PSD_FAIL_RATIO * max(np.trace(C0), 1.0):
            raise ValueError("C0 must be positive semidefinite")
        if not (self.n0 > 0 and self.s0 > 0):
            raise ValueError("n0 and s0 must be positive")


def psd_sqrt(C: np.ndarray) -> np.ndarray:
    """Symmetric square root of (a batch of) PSD matrices via eigendecomposition.

    Eigenvalues below ``-1e-8 * trace`` are treated as a numerical failure;
    small negative eigenvalues are clipped to ``1e-12`` of the largest one.
    The symmetric (rather than Cholesky) root keeps the map equivariant under
    coordinate permutations, which the samplers rely on for agent
    exchangeability.
    """
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


def _state_normals(z_state, T: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """The ``(T, p)`` standard normals of a backward state draw: given, or drawn from ``rng``."""
    if z_state is None:
        return rng.standard_normal((T, p))
    if z_state.shape != (T, p):
        raise ValueError(f"z_state must have shape ({T}, {p})")
    return z_state


def _sample_states(m, C, delta: float, z, scale) -> np.ndarray:
    """Backward state draw from the filtered moments ``m`` (T, p) and ``C`` (T, p, p).

    ``x_T = m_T + sqrt(C_T) z_T / scale_T``, then
    ``x_t = m_t + delta (x_{t+1} - m_t) + sqrt(1 - delta) sqrt(C_t) z_t / scale_t``
    with the symmetric root of :func:`psd_sqrt`; ``scale`` is ``(T,)``.
    """
    sqrtC = psd_sqrt(C)
    T = m.shape[0]
    x = np.empty_like(m)
    x[T - 1] = m[T - 1] + (sqrtC[T - 1] @ z[T - 1]) / scale[T - 1]
    sd_factor = np.sqrt(1.0 - delta)
    for t in range(T - 2, -1, -1):
        mean = m[t] + delta * (x[t + 1] - m[t])
        x[t] = mean + sd_factor * (sqrtC[t] @ z[t]) / scale[t]
    return x


def _sample_precisions(n, d, beta, rng: np.random.Generator) -> np.ndarray:
    """Backward gamma-beta draw of a precision path from the filtered ``(n, d)``.

    ``phi_T ~ Gamma(n_T/2, d_T/2)``, then
    ``phi_t = beta*phi_{t+1} + Gamma((1-beta)*n_t/2, d_t/2)``; a zero shape
    adds nothing.  ``n`` and ``d`` are ``(T,)`` or ``(T, N)``, and ``beta``
    broadcasts over series.  Draws the terminal gamma, then the others.
    """
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


def _filter_scalar(y, F, v, k1, k2, m0, C0, delta, s0, beta=None, n0=None):
    """Forward filter for ``y_t = F_t' theta_t + k1 v_t + N(0, s k2 v_t)``, ``R_t = C_{t-1}/delta``.

    With ``beta=None`` the scale ``s`` is the known ``s0``; otherwise it is
    learned by the normal-gamma recursion with discount ``beta`` from
    ``(n0, s0)``.  ``y`` and ``v`` are ``(T,)``, ``F`` is ``(T, p)``.  Returns
    ``(m, C, n, s)``; ``n`` and ``s`` are ``(T,)`` paths, or None for a known
    scale.
    """
    T, p = F.shape
    learned = beta is not None
    m = np.empty((T, p))
    C = np.empty((T, p, p))
    n = np.empty(T) if learned else None
    s = np.empty(T) if learned else None

    m_prev, C_prev = m0, C0
    n_prev, s_prev = n0, s0
    for t in range(T):
        R = C_prev / delta
        RF = R @ F[t]
        f_t = float(F[t] @ m_prev)
        Q = float(F[t] @ RF) + s_prev * k2 * v[t]
        if not np.isfinite(Q) or Q <= 0.0:
            raise FloatingPointError(f"non-finite or nonpositive predictive variance Q at t={t}")
        e = y[t] - f_t - k1 * v[t]
        A = RF / Q
        m[t] = m_prev + A * e
        C_t = R - Q * np.outer(A, A)
        if learned:
            n[t] = beta * n_prev + 3.0
            r_t = (beta * n_prev + e * e / Q + 2.0 * v[t] / s_prev) / n[t]
            C_t = r_t * C_t
            s[t] = r_t * s_prev
            n_prev, s_prev = n[t], s[t]
        C[t] = 0.5 * (C_t + C_t.T)
        m_prev, C_prev = m[t], C[t]
    return m, C, n, s


@dataclass
class ConjugateFFBS:
    """One joint draw of ``(theta_{1:T}, phi_{1:T})`` plus the filtered moments behind it."""

    theta: np.ndarray  # (T, p) sampled state path
    phi: np.ndarray  # (T,) sampled precision path (sigma_t = 1/phi_t)
    m: np.ndarray  # (T, p) filtered means
    C: np.ndarray  # (T, p, p) filtered scale matrices
    n: np.ndarray  # (T,) degrees of freedom
    s: np.ndarray  # (T,) scale point estimates


def ffbs_conjugate(
    y: np.ndarray,
    F: np.ndarray,
    v: np.ndarray,
    consts: MixtureConstants,
    prior: NormalGammaPrior,
    disc: DiscountConfig,
    rng: np.random.Generator,
    z_state: np.ndarray | None = None,
) -> ConjugateFFBS:
    """Forward filter, backward sample for the mixture-form quantile DLM.

    Observation ``t`` is ``y_t = F_t' theta_t + kappa1 * v_t + e_t`` with
    ``e_t ~ N(0, sigma_t * kappa2 * v_t)``; the precision ``phi_t = 1/sigma_t``
    follows a gamma-beta random walk with discount ``beta``, and ``theta_t``
    a random walk with discount ``delta`` and ``sigma_t``-scaled noise.

    Parameters
    ----------
    y : (T,) observations.
    F : (T, p) design vectors per time.
    v : (T,) positive mixing variables (conditioned on).
    consts : mixture constants for the targeted quantile level.
    prior, disc : conjugate prior and discounts.
    rng : generator for the gamma draws.
    z_state : optional (T, p) standard normals for the state draws; supplying
        them lets the caller key the noise by coordinate identity.  Drawn from
        ``rng`` when omitted.
    """
    y = np.asarray(y, dtype=float)
    F = np.atleast_2d(np.asarray(F, dtype=float))
    v = np.asarray(v, dtype=float)
    T = y.size
    p = prior.m0.size
    if F.shape != (T, p):
        raise ValueError(f"F must have shape ({T}, {p}), got {F.shape}")
    if v.shape != (T,) or np.any(v <= 0.0):
        raise ValueError("v must be positive with one entry per observation")

    k1, k2 = consts
    m, C, n, s = _filter_scalar(
        y, F, v, k1, k2, prior.m0, prior.C0, disc.delta, float(prior.s0),
        beta=disc.beta, n0=float(prior.n0),
    )

    z_state = _state_normals(z_state, T, p, rng)
    phi = _sample_precisions(n, n * s, disc.beta, rng)
    theta = _sample_states(m, C, disc.delta, z_state, np.sqrt(phi * s))
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise FloatingPointError("non-finite state draw in backward pass")
    return ConjugateFFBS(theta=theta, phi=phi, m=m, C=C, n=n, s=s)


@dataclass
class KnownVarianceFFBS:
    """One sampled state path from a known-variance DLM, with filtered moments."""

    state: np.ndarray  # (T, p) sampled path
    m: np.ndarray  # (T, p) filtered means
    C: np.ndarray  # (T, p, p) filtered covariances


def ffbs_known_variance(
    y: np.ndarray,
    F: np.ndarray,
    offsets: np.ndarray,
    obs_var: np.ndarray,
    m0: np.ndarray,
    C0: np.ndarray,
    delta: float,
    rng: np.random.Generator,
    z_state: np.ndarray | None = None,
) -> KnownVarianceFFBS:
    """FFBS for ``y_t = offsets_t + F_t state_t + N(0, diag(obs_var_t))``.

    The state follows a random walk with discount-implied evolution
    covariance ``R_t = C_{t-1}/delta``.  ``y`` is ``(T, N)`` (``N`` may be 1),
    ``F`` is ``(T, N, p)``.  Returns the sampled path along with the filtered
    moments.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    T, N = y.shape
    F = np.asarray(F, dtype=float)
    if F.shape[:2] != (T, N):
        raise ValueError(f"F must have shape ({T}, {N}, p), got {F.shape}")
    p = F.shape[2]
    offsets = np.broadcast_to(np.asarray(offsets, dtype=float), (T, N))
    obs_var = np.broadcast_to(np.asarray(obs_var, dtype=float), (T, N))
    if np.any(obs_var <= 0.0):
        raise ValueError("observation variances must be positive")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")

    m0 = np.atleast_1d(np.asarray(m0, dtype=float)).copy()
    C0 = np.atleast_2d(np.asarray(C0, dtype=float)).copy()
    if N == 1:
        # Offsets folded into y, k1 = 0 and k2 = s = 1: subtracting 0.0 * v and
        # scaling by 1.0 are exact, so this is the known-variance update bit for bit.
        m, C, _, _ = _filter_scalar(
            y[:, 0] - offsets[:, 0], F[:, 0], obs_var[:, 0], 0.0, 1.0, m0, C0, delta, 1.0
        )
    else:
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

    z_state = _state_normals(z_state, T, p, rng)
    # A unit scale divides exactly, so this is the plain discount smoother draw.
    state = _sample_states(m, C, delta, z_state, np.ones(T))
    return KnownVarianceFFBS(state=state, m=m, C=C)


@dataclass
class GBRWSample:
    """Sampled precision path(s) plus the forward gamma filter parameters."""

    phi: np.ndarray  # (T,) or (T, N)
    n: np.ndarray
    d: np.ndarray


def gbrw_filter_sample(
    sq_resid: np.ndarray,
    v: np.ndarray,
    kappa2: float,
    n0,
    d0,
    beta,
    rng: np.random.Generator,
) -> GBRWSample:
    """Forward gamma filter and backward draw of precision paths.

    Forward recursion per series: ``n_t = beta*n_{t-1} + 3`` and
    ``d_t = beta*d_{t-1} + sq_resid_t/(kappa2*v_t) + 2*v_t``.  Backward:
    ``phi_T ~ Gamma(n_T/2, d_T/2)`` then
    ``phi_t = beta*phi_{t+1} + Gamma((1-beta)*n_t/2, d_t/2)``.

    ``sq_resid`` and ``v`` are ``(T,)`` or ``(T, N)``; ``n0``, ``d0`` and
    ``beta`` broadcast over series.
    """
    sq_resid = np.asarray(sq_resid, dtype=float)
    v = np.asarray(v, dtype=float)
    squeeze = sq_resid.ndim == 1
    if squeeze:
        sq_resid = sq_resid[:, None]
        v = v[:, None]
    if v.shape != sq_resid.shape:
        raise ValueError("sq_resid and v must share a shape")
    if np.any(v <= 0.0):
        raise ValueError("mixing variables v must be positive")
    if np.any(sq_resid < 0.0):
        raise ValueError("squared residuals must be nonnegative")
    T, N = sq_resid.shape
    n0 = np.broadcast_to(np.asarray(n0, dtype=float), (N,))
    d0 = np.broadcast_to(np.asarray(d0, dtype=float), (N,))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (N,))
    if np.any(n0 <= 0) or np.any(d0 <= 0):
        raise ValueError("n0 and d0 must be positive")
    if np.any((beta <= 0) | (beta > 1)):
        raise ValueError("beta must lie in (0, 1]")

    n = np.empty((T, N))
    d = np.empty((T, N))
    n_prev, d_prev = n0, d0
    for t in range(T):
        n[t] = beta * n_prev + 3.0
        d[t] = beta * d_prev + sq_resid[t] / (kappa2 * v[t]) + 2.0 * v[t]
        n_prev, d_prev = n[t], d[t]

    phi = _sample_precisions(n, d, beta, rng)
    if squeeze:
        return GBRWSample(phi=phi[:, 0], n=n[:, 0], d=d[:, 0])
    return GBRWSample(phi=phi, n=n, d=d)
