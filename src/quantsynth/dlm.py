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
:func:`ffbs_known_variance`.  The scalar filter writes each step's moments in
place and symmetrizes only the first filtered scale matrix.  Both FFBS
samplers share one backward state sampler (:func:`_sample_states`), which
takes the noise of all ``T`` steps from one stacked product;
:func:`ffbs_conjugate` and :func:`gbrw_filter_sample` share one backward
precision sampler (:func:`_sample_precisions`).

The state dimension is small (2 to 6 in the agent model) and the panels
are short (N = 1 to 10 series), so the cost of a sweep is mostly NumPy's
per-call overhead on rows of a few elements, not arithmetic: the kernels
keep NumPy calls per time step few.  Where a step is scalar arithmetic
it runs on Python floats, with no NumPy call per step:

* the per-step scalars of :func:`_filter_scalar` (``f_t``, ``Q_t``,
  ``e_t``, and the learned scale's ``n_t`` and ``s_t``);
* the backward state recursion of :func:`_sample_states`;
* the backward precision recursion ``phi_t = beta*phi_{t+1} + eta_t`` of
  :func:`_sample_precisions`, one series at a time;
* the forward gamma filter of :func:`gbrw_filter_sample`: ``n_t`` once for
  all series, ``d_t`` one series at a time.

A Python float operation is the same IEEE double operation as NumPy's
elementwise one, so written in the same association these give the same
bits.  Every output bit is kept, and the reference loops in
``tests/oracles.py`` pin them.

The per-step products of both filters are 1-D/2-D and go through
``ndarray.dot``: it reaches the same BLAS routine as ``@`` (``gemv``,
``ddot``, ``gemm``), so the bits are the same, with about half of the
``matmul`` gufunc's dispatch cost.  Stacked products (``psd_sqrt``, the
noise of :func:`_sample_states`) keep ``@``.

The linear algebra that runs once per sweep or per step -- the Cholesky
factor and the two triangular solves of each vector-filter step, the eigh
of :func:`psd_sqrt` and of ``drqs.latent_predictor_moments``, and FDRQS's
stacked loading factorization and solves -- goes through :func:`_cholesky`,
:func:`_solve` and :func:`_eigh`.  Each calls the gufunc of
``numpy.linalg._umath_linalg`` (``cholesky_lo``, ``solve``, ``eigh_lo``)
that ``np.linalg`` calls once its checks pass, on the same float64 arrays,
so the bits are the same.  What they skip is the wrapper's checks,
conversions and ``errstate``, which at these sizes cost more than LAPACK:
a 6x6 Cholesky takes 4.3 us through ``np.linalg`` and 1.1 us as the gufunc,
a 6x6 solve with 20 right-hand sides 7.0 against 3.6 us (2-CPU Xeon host,
one BLAS thread).  The gufunc module is NumPy-private; ``tests/test_dlm.py``
pins each helper to ``np.linalg`` bit for bit, so a NumPy release that
changes it fails there.  A failed gufunc does not raise: it fills that
matrix's output with NaN and sets the invalid flag (``eigh_lo`` fails on a
NaN matrix of size 3 or more; smaller ones come back NaN without the flag).
The callers check one entry per matrix and raise ``LinAlgError`` with
``np.linalg``'s message (``Singular matrix``, ``Eigenvalues did not
converge``); the vector filter keeps its ``singular predictive covariance``
message and FDRQS names the failed series.  The PSD and latent-precision
checks are written so that a NaN eigenvalue fails them.  The samplers
(``agents.fit_dqlm``, ``drqs.gibbs_drqs``, ``fdrqs.gibbs_fdrqs``) and the
vector filter enter ``np.errstate(invalid="ignore")`` once per call, so the
flag warns of nothing; called on its own, :func:`psd_sqrt` warns before it
raises on such a matrix.

All evolution noise is discount-implied: the time-``t`` prior scale matrix is
``R_t = C_{t-1} / delta``.  Gamma laws are (shape, rate) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# NumPy-private: the gufuncs that np.linalg.cholesky, solve and eigh call once
# their checks pass.  tests/test_dlm.py pins the helpers below to np.linalg bit
# for bit, so a NumPy release that changes this module fails there.
from numpy.linalg import _umath_linalg

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

# Eigenvalue handling for filtered state scale matrices: an eigenvalue below
# -PSD_FAIL_RATIO * max(|trace(C)|, 1), for its own matrix C, is a hard error;
# small negatives are clipped up to PSD_CLIP_RATIO * max eigenvalue.
PSD_FAIL_RATIO = 1e-8
PSD_CLIP_RATIO = 1e-12


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a float64 matrix or stack; a matrix that fails comes back all NaN."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^{-1} b`` for float64 ``a`` (..., M, M) and ``b`` (..., M, K); a singular ``a`` gives all NaN."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of symmetric float64 matrices, from the lower triangle."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


def _check_discount(name: str, value) -> None:
    """The one rule for a discount factor (``delta`` or ``beta``): it lies in (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _check_hyperparameter(name: str, value) -> None:
    """The one rule for a prior hyperparameter: finite and positive, so ``inf`` and ``nan`` fail."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_psd(name: str, C: np.ndarray) -> None:
    """The one rule for a prior state scale matrix: symmetric and positive semidefinite."""
    if not np.allclose(C, C.T):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(C).min() < -PSD_FAIL_RATIO * max(np.trace(C), 1.0):
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class DiscountConfig:
    """Discount factors: ``delta`` for the state scale, ``beta`` for the precision walk."""

    delta: float = 0.9
    beta: float = 0.9

    def __post_init__(self):
        _check_discount("delta", self.delta)
        _check_discount("beta", self.beta)


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
        _check_psd("C0", C0)
        _check_hyperparameter("n0", self.n0)
        _check_hyperparameter("s0", self.s0)


def psd_sqrt(C: np.ndarray) -> np.ndarray:
    """Symmetric square root of (a batch of) PSD matrices via eigendecomposition.

    An eigenvalue below ``-1e-8 * max(|trace|, 1)`` of its own matrix is
    treated as a numerical failure, and a NaN smallest one (a failed eigh)
    raises ``np.linalg.eigh``'s own error; small negative eigenvalues are
    clipped to ``1e-12`` of the largest one.
    The symmetric (rather than Cholesky) root keeps the map equivariant under
    coordinate permutations, which the samplers rely on for agent
    exchangeability.
    """
    C = np.asarray(C, dtype=float)
    C = 0.5 * (C + C.swapaxes(-1, -2))
    w, V = _eigh(C)
    # The failure threshold is at most -PSD_FAIL_RATIO, so the trace is
    # only needed when some smallest eigenvalue falls below that.  Written
    # as "not >=", the test lets a NaN eigenvalue through to the checks.
    if not w[..., 0].min() >= -PSD_FAIL_RATIO:
        if np.isnan(w[..., 0]).any():  # a failed eigh fills its matrix with NaN
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        trace = np.trace(C, axis1=-2, axis2=-1)
        if np.any(w[..., 0] < -PSD_FAIL_RATIO * np.maximum(np.abs(trace), 1.0)):
            raise np.linalg.LinAlgError(
                "state scale matrix failed PSD check: "
                f"min eigenvalue {w[..., 0].min():.3e} vs trace {np.max(np.abs(trace)):.3e}"
            )
    w = np.maximum(w, PSD_CLIP_RATIO * np.maximum(w[..., -1:], 0.0))
    return (V * np.sqrt(w)[..., None, :]) @ V.swapaxes(-1, -2)


def _sample_states(m, C, delta: float, z, scale) -> np.ndarray:
    """Backward state draw from the filtered moments ``m`` (T, p) and ``C`` (T, p, p).

    ``x_T = m_T + sqrt(C_T) z_T / scale_T``, then
    ``x_t = m_t + delta (x_{t+1} - m_t) + sqrt(1 - delta) sqrt(C_t) z_t / scale_t``
    with the symmetric root of :func:`psd_sqrt`; ``scale`` is ``(T,)``.  All
    ``T`` noise terms come from one stacked product, which gives the bits of
    ``T`` separate matrix-vector products.  The recursion itself runs on
    Python floats: no NumPy call per step, and the same elementwise IEEE
    arithmetic, in the same association, as NumPy row operations.
    """
    noise = (psd_sqrt(C) @ z[:, :, None])[:, :, 0]
    noise[:-1] *= math.sqrt(1.0 - delta)
    noise /= scale[:, None]
    delta = float(delta)
    rows_m, rows_n = m.tolist(), noise.tolist()
    x_next = [m_i + n_i for m_i, n_i in zip(rows_m[-1], rows_n[-1])]
    x = [x_next]
    for m_t, n_t in zip(rows_m[-2::-1], rows_n[-2::-1]):
        x_next = [m_i + delta * (x_i - m_i) + n_i for m_i, x_i, n_i in zip(m_t, x_next, n_t)]
        x.append(x_next)
    x.reverse()
    return np.array(x)


def _sample_precisions(n, d, beta, rng: np.random.Generator) -> np.ndarray:
    """Backward gamma-beta draw of a precision path from the filtered ``(n, d)``.

    ``phi_T ~ Gamma(n_T/2, d_T/2)``, then
    ``phi_t = beta*phi_{t+1} + Gamma((1-beta)*n_t/2, d_t/2)``; a zero shape
    adds nothing.  ``n`` and ``d`` are ``(T, N)``, and ``beta`` is a scalar.
    Draws the terminal gamma, then the others, each in one call; the
    recursion runs on Python floats, one series (column) at a time.
    """
    T = n.shape[0]
    phi = np.empty_like(n)
    phi[T - 1] = rng.gamma(shape=n[T - 1] / 2.0, scale=2.0 / d[T - 1])
    if T > 1:
        shape = (1.0 - beta) * n[: T - 1] / 2.0
        eta = np.zeros_like(shape)
        pos = shape > 0.0
        if pos.any():
            eta[pos] = rng.gamma(shape=shape[pos], scale=2.0 / d[: T - 1][pos])
        beta = float(beta)
        cols = eta.T.tolist()  # one column of floats per series
        for i, (p, eta_col) in enumerate(zip(phi[T - 1].tolist(), cols)):
            col = []
            for e in reversed(eta_col):
                p = beta * p + e
                col.append(p)
            col.reverse()
            cols[i] = col
        phi[: T - 1] = np.array(cols).T
    return phi


def _filter_scalar(y, F, v, k1, k2, m0, C0, delta, s0, beta=None, n0=None):
    """Forward filter for ``y_t = F_t' theta_t + k1 v_t + N(0, s k2 v_t)``, ``R_t = C_{t-1}/delta``.

    With ``beta=None`` the scale ``s`` is the known ``s0``; otherwise it is
    learned by the normal-gamma recursion with discount ``beta`` from
    ``(n0, s0)``.  ``y`` and ``v`` are ``(T,)``, ``F`` is ``(T, p)``.  Returns
    ``(m, C, n, s)``; ``n`` and ``s`` are ``(T,)`` paths, or None for a known
    scale.

    Each step writes ``m_t`` and ``C_t`` into their rows of ``m`` and ``C``.
    Only the first step's ``C_t`` is symmetrized, as ``(C + C')/2``: ``C0``
    need only be close to symmetric, and from an exactly symmetric
    ``C_{t-1}`` on every ``C_t`` is exactly symmetric, so the average would
    return its input.
    """
    T, p = F.shape
    learned = beta is not None
    m = np.empty((T, p))
    C = np.empty((T, p, p))
    n = np.empty(T) if learned else None
    s = np.empty(T) if learned else None

    m_prev, C_prev = m0, C0
    n_prev, s_prev = n0, s0
    # Python floats for the per-step scalars: the same IEEE arithmetic as
    # NumPy's, without a NumPy scalar per operation.
    for t, (F_t, m_t, C_t, y_t, v_t) in enumerate(zip(F, m, C, y.tolist(), v.tolist())):
        R = C_prev / delta
        RF = R.dot(F_t)
        f_t = float(F_t.dot(m_prev))
        Q = float(F_t.dot(RF)) + s_prev * k2 * v_t
        if not math.isfinite(Q) or Q <= 0.0:
            raise FloatingPointError(f"non-finite or nonpositive predictive variance Q at t={t}")
        e = y_t - f_t - k1 * v_t
        A = RF / Q
        # Each step is written in place; IEEE + and * commute, so these are
        # the bits of m_prev + A e and R - Q (A A').
        np.multiply(A, e, out=m_t)
        m_t += m_prev
        AA = A[:, None] * A
        AA *= Q
        np.subtract(R, AA, out=C_t)
        if learned:
            n_t = beta * n_prev + 3.0
            r_t = (beta * n_prev + e * e / Q + 2.0 * v_t / s_prev) / n_t
            C_t *= r_t
            n_prev, s_prev = n_t, r_t * s_prev
            n[t], s[t] = n_prev, s_prev
        if t == 0:  # later C_t are exactly symmetric already (see above)
            C_t[...] = 0.5 * (C_t + C_t.T)
        m_prev, C_prev = m_t, C_t
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
    z_state: np.ndarray,
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
    z_state : (T, p) standard normals for the state draws; the caller draws
        them, so it can key the noise by coordinate identity.
    """
    y = np.asarray(y, dtype=float)
    F = np.atleast_2d(np.asarray(F, dtype=float))
    v = np.asarray(v, dtype=float)
    T = y.size
    p = prior.m0.size
    if F.shape != (T, p):
        raise ValueError(f"F must have shape ({T}, {p}), got {F.shape}")
    if v.shape != (T,) or (v <= 0.0).any():
        raise ValueError("v must be positive with one entry per observation")
    if z_state.shape != (T, p):
        raise ValueError(f"z_state must have shape ({T}, {p})")

    k1, k2 = consts
    m, C, n, s = _filter_scalar(
        y, F, v, k1, k2, prior.m0, prior.C0, disc.delta, float(prior.s0),
        beta=disc.beta, n0=float(prior.n0),
    )
    # The one path is one column of the (T, N) precision sampler.
    phi = _sample_precisions(n[:, None], (n * s)[:, None], disc.beta, rng)[:, 0]
    theta = _sample_states(m, C, disc.delta, z_state, np.sqrt(phi * s))
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
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
) -> KnownVarianceFFBS:
    """FFBS for ``y_t = offsets_t + F_t state_t + N(0, diag(obs_var_t))``.

    The state follows a random walk with discount-implied evolution
    covariance ``R_t = C_{t-1}/delta``.  ``y``, ``offsets`` and ``obs_var``
    are ``(T, N)`` (``N`` may be 1), ``F`` is ``(T, N, p)``.  Returns the
    sampled path along with the filtered moments.
    """
    y = np.asarray(y, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    obs_var = np.asarray(obs_var, dtype=float)
    if y.ndim != 2 or offsets.shape != y.shape or obs_var.shape != y.shape:
        raise ValueError("y, offsets and obs_var must share one (T, N) shape")
    T, N = y.shape
    F = np.asarray(F, dtype=float)
    if F.shape[:2] != (T, N):
        raise ValueError(f"F must have shape ({T}, {N}, p), got {F.shape}")
    p = F.shape[2]
    if (obs_var <= 0.0).any():
        raise ValueError("observation variances must be positive")
    _check_discount("delta", delta)

    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    C0 = np.atleast_2d(np.asarray(C0, dtype=float))
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
        # A failed helper fills its output with NaN and sets the invalid
        # flag; the flag is silenced once per call, and the NaN checks raise.
        with np.errstate(invalid="ignore"):
            for t in range(T):
                R = C_prev / delta
                Ft = F[t]
                f_t = offsets[t] + Ft.dot(m_prev)
                RFt = R.dot(Ft.T)  # (p, N)
                Q = Ft.dot(RFt) + np.diag(obs_var[t])
                Q = 0.5 * (Q + Q.T)
                Lq = _cholesky(Q)
                if math.isnan(Lq[0, 0]):  # a failed factor is all NaN
                    w = np.linalg.eigvalsh(Q)
                    raise np.linalg.LinAlgError(
                        f"singular predictive covariance at t={t}: min eigenvalue {w[0]:.3e}"
                    )
                e = y[t] - f_t
                gain = _solve(Lq.T, _solve(Lq, RFt.T)).T  # R F' Q^{-1}, (p, N)
                if math.isnan(gain[0, 0]):  # either solve failing leaves all of gain NaN
                    raise np.linalg.LinAlgError("Singular matrix")
                m[t] = m_prev + gain.dot(e)
                C_t = R - gain.dot(Q).dot(gain.T)
                C[t] = 0.5 * (C_t + C_t.T)
                m_prev, C_prev = m[t], C[t]

    # A unit scale divides exactly, so this is the plain discount smoother draw.
    state = _sample_states(m, C, delta, rng.standard_normal((T, p)), np.ones(T))
    return KnownVarianceFFBS(state=state, m=m, C=C)


@dataclass
class GBRWSample:
    """Sampled precision paths plus the forward gamma filter parameters, all ``(T, N)``."""

    phi: np.ndarray
    n: np.ndarray
    d: np.ndarray


def gbrw_filter_sample(
    sq_resid: np.ndarray,
    v: np.ndarray,
    kappa2: float,
    n0: float,
    d0: float,
    beta: float,
    rng: np.random.Generator,
) -> GBRWSample:
    """Forward gamma filter and backward draw of precision paths.

    Forward recursion per series: ``n_t = beta*n_{t-1} + 3`` and
    ``d_t = beta*d_{t-1} + sq_resid_t/(kappa2*v_t) + 2*v_t``, added left to
    right.  Backward: ``phi_T ~ Gamma(n_T/2, d_T/2)`` then
    ``phi_t = beta*phi_{t+1} + Gamma((1-beta)*n_t/2, d_t/2)``.

    ``sq_resid`` and ``v`` are ``(T, N)``; ``n0``, ``d0`` and ``beta`` are
    scalars shared by every series, so the ``n`` path is one scalar
    recursion, broadcast to ``(T, N)``.  The two ``d`` increments are
    whole-array operations; the recursions run on Python floats.
    """
    sq_resid = np.asarray(sq_resid, dtype=float)
    v = np.asarray(v, dtype=float)
    if sq_resid.ndim != 2 or v.shape != sq_resid.shape:
        raise ValueError("sq_resid and v must share one (T, N) shape")
    if (v <= 0.0).any():
        raise ValueError("mixing variables v must be positive")
    if (sq_resid < 0.0).any():
        raise ValueError("squared residuals must be nonnegative")
    _check_hyperparameter("n0", n0)
    _check_hyperparameter("d0", d0)
    _check_discount("beta", beta)

    T, N = sq_resid.shape
    beta = float(beta)
    n_path, n_prev = [], float(n0)
    for _ in range(T):
        n_prev = beta * n_prev + 3.0
        n_path.append(n_prev)
    n = np.repeat(np.array(n_path)[:, None], N, axis=1)
    cols = []
    for a_col, b_col in zip((sq_resid / (kappa2 * v)).T.tolist(), (2.0 * v).T.tolist()):
        col, d_prev = [], float(d0)
        for a_t, b_t in zip(a_col, b_col):
            d_prev = beta * d_prev + a_t + b_t
            col.append(d_prev)
        cols.append(col)
    d = np.array(cols).T

    return GBRWSample(phi=_sample_precisions(n, d, beta, rng), n=n, d=d)
