"""Factor-structured multivariate synthesis sampler and forecaster.

Extends the univariate synthesis model to N series by putting a factor
structure on the synthesis weights: series i's weight on agent j is
``theta_itj = lambda_ij' u_tj`` with an L-vector of loadings per (series,
agent block) and shared factor paths ``u_tj``.  Loadings get a multiplicative
gamma process prior that shrinks higher-index factors.  Per-series scales
follow independent discounted random walks.

State layout: blocks are ordered (intercept block, agent 1, ..., agent J),
each of length L, so vectors over factors have dimension K = L*(J+1) and the
(j, l) coordinate sits at index j*L + l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    CHI_FLOOR, _chain_lengths, _gig_params, _validate_tau, mixture_constants, sample_gig_half,
)
from .dlm import (
    _check_discount, _check_hyperparameter, _check_psd, _cholesky, _solve, ffbs_known_variance,
    gbrw_filter_sample, psd_sqrt,
)
from .drqs import QuantileForecast, _agent_reports, _evolve_scale, latent_predictor_moments

__all__ = [
    "FDRQSConfig",
    "FDRQSDraws",
    "FactorForecast",
    "gibbs_fdrqs",
    "forecast_fdrqs",
    "omegas_from_deltas",
    "sample_local_precisions",
]

OMEGA_UNDERFLOW = 1e-300


@dataclass(frozen=True)
class FDRQSConfig:
    """Factor synthesis configuration.

    ``L`` must be smaller than ``N`` when loadings are free; passing
    ``fixed_loadings`` (an (N, L*(J+1)) array) freezes the loading matrix,
    skips the shrinkage-prior updates, and lifts that restriction (used for
    degenerate and reduction setups).
    """

    tau: float
    N: int
    J: int
    L: int = 5
    m0: np.ndarray | None = None
    C0: np.ndarray | None = None
    n0: float = 0.001
    s0: float = 0.001
    nu: float = 3.0
    a1: float = 2.5
    a2: float = 3.5
    delta: float = 0.85
    beta: float = 0.85
    fixed_loadings: np.ndarray | None = None

    def __post_init__(self):
        _validate_tau(self.tau)
        if self.N < 1 or self.J < 1 or self.L < 1:
            raise ValueError("N, J, L must all be at least 1")
        K = self.L * (self.J + 1)
        if self.fixed_loadings is None:
            if self.L >= self.N:
                raise ValueError(
                    f"free loadings need L < N, got L={self.L}, N={self.N}; "
                    "pass fixed_loadings to override"
                )
        else:
            fl = np.asarray(self.fixed_loadings, dtype=float)
            if fl.shape != (self.N, K):
                raise ValueError(f"fixed_loadings must have shape ({self.N}, {K})")
            object.__setattr__(self, "fixed_loadings", fl)
        m0 = self.m0
        if m0 is None:
            m0 = np.concatenate([np.zeros(self.L), np.full(self.L * self.J, 1.0 / self.J)])
        m0 = np.asarray(m0, dtype=float)
        if m0.shape != (K,):
            raise ValueError(f"m0 must have shape ({K},)")
        object.__setattr__(self, "m0", m0)
        C0 = self.C0
        if C0 is None:
            C0 = np.diag(np.concatenate([np.full(self.L, 1000.0), np.ones(self.L * self.J)]))
        C0 = np.asarray(C0, dtype=float)
        if C0.shape != (K, K):
            raise ValueError(f"C0 must have shape ({K}, {K})")
        _check_psd("C0", C0)
        object.__setattr__(self, "C0", C0)
        for name in ("n0", "s0", "nu", "a1", "a2"):
            _check_hyperparameter(name, getattr(self, name))
        _check_discount("delta", self.delta)
        _check_discount("beta", self.beta)

    @property
    def K(self) -> int:
        return self.L * (self.J + 1)


def omegas_from_deltas(deltas: np.ndarray) -> np.ndarray:
    """Cumulative products down the factor index: omega_l = prod_{h<=l} delta_h."""
    return np.cumprod(np.asarray(deltas, dtype=float), axis=0)


def sample_local_precisions(
    lam_blocks: np.ndarray,
    omegas: np.ndarray,
    nu: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the local loading precisions phi_ilj.

    ``lam_blocks`` is (N, L, J+1) loadings, ``omegas`` (L, J+1); the full
    conditional is Gamma((nu + 1)/2, (omega_lj * lambda^2 + nu)/2).
    """
    rate = (omegas[None, :, :] * lam_blocks**2 + nu) / 2.0
    return rng.gamma(shape=(nu + 1.0) / 2.0, scale=1.0 / rate)


def _block_sums(lam_blocks: np.ndarray, phi: np.ndarray, j: int) -> np.ndarray:
    """``sum_i phi_ilj * lambda_ilj^2`` for every factor l of block j, shape (L,)."""
    return (phi[:, :, j] * lam_blocks[:, :, j] ** 2).sum(axis=0)


def _delta_site(
    sums: list[float], dj: list[float], h: int, N: int, a1: float, a2: float
) -> tuple[float, float]:
    """(shape, rate) of the full conditional of delta_hj, ``h`` zero-based.

    ``sums`` is the block's :func:`_block_sums` and ``dj`` its current deltas, both (L,) lists.
    Runs on Python floats: the leave-one-out products are the running
    products of ``dj`` with ``delta_hj`` set to 1, and the tail
    ``sum_{l>=h} omega^(h)_l * sums_l`` is taken with ``np.add.reduce`` over
    the list.  That keeps NumPy's pairwise summation order, which from 8
    terms on no longer adds left to right as a plain ``sum`` would.
    """
    L = len(dj)
    omega = 1.0
    for d in dj[:h]:
        omega *= d
    terms = [omega * sums[h]]
    for d, s in zip(dj[h + 1:], sums[h + 1:]):
        omega *= d
        terms.append(omega * s)
    tail = float(np.add.reduce(terms))
    if h == 0:
        shape = N * L / 2.0 + a1
    else:
        shape = N * (L - h) / 2.0 + a2
    return shape, 1.0 + 0.5 * tail


def _update_deltas(
    lam_blocks: np.ndarray,
    phi: np.ndarray,
    deltas: np.ndarray,
    a1: float,
    a2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Cycle through delta_hj site by site, refreshing products as they change.

    A block's sums do not depend on the deltas, so each is taken once.  They
    are summed block by block, not as one ``(L, J+1)`` sum: at ``L = 1`` the
    two reduce the series in different orders.  Each site then runs on
    Python floats (:func:`_delta_site`), with its tail summed by
    ``np.add.reduce`` in NumPy's pairwise order, at every ``L``.
    """
    N = len(lam_blocks)
    L, Jp1 = deltas.shape
    out = deltas.copy()
    for j in range(Jp1):
        sums = _block_sums(lam_blocks, phi, j).tolist()
        dj = out[:, j].tolist()
        for h in range(L):
            shape, rate = _delta_site(sums, dj, h, N, a1, a2)
            dj[h] = rng.gamma(shape=shape, scale=1.0 / rate)
        out[:, j] = dj
    return out


def _loading_factors(prec: np.ndarray, sids: list[str]) -> np.ndarray:
    """Cholesky factors of the (N, K, K) loading precisions; a failure names its series.

    A factorization that fails comes back all NaN, so a NaN leading entry marks it.
    """
    cf = _cholesky(prec)
    failed = np.isnan(cf[:, 0, 0])
    if failed.any():
        raise np.linalg.LinAlgError(
            f"loading precision factorization failed for series {sids[failed.argmax()]}"
        )
    return cf


@dataclass
class FDRQSDraws:
    """Stacked retained draws from :func:`gibbs_fdrqs`.

    ``theta(r)`` recomputes the implied synthesis weights from the stored
    loadings and factors; weights are never stored independently.
    """

    cfg: FDRQSConfig
    u: np.ndarray  # (R, T, K)
    lam: np.ndarray  # (R, N, K)
    sigma: np.ndarray  # (R, T, N)
    deltas: np.ndarray  # (R, L, J+1)
    u_C_T: np.ndarray  # (R, K, K)
    n_T: np.ndarray  # (R, N)

    @property
    def n_draws(self) -> int:
        return self.u.shape[0]

    @property
    def T(self) -> int:
        return self.u.shape[1]

    def theta(self, r: int) -> np.ndarray:
        """Implied weights (T, N, J+1) for draw r: theta_itj = lambda_ij' u_tj."""
        cfg = self.cfg
        lam_b = self.lam[r].reshape(cfg.N, cfg.J + 1, cfg.L)
        u_b = self.u[r].reshape(self.T, cfg.J + 1, cfg.L)
        return np.einsum("njl,tjl->tnj", lam_b, u_b)


# A failed LAPACK helper sets the invalid flag (dlm's module docstring): one
# errstate per call keeps it from warning before the NaN checks raise.
@np.errstate(invalid="ignore")
def gibbs_fdrqs(
    Y: np.ndarray,
    agents,
    cfg: FDRQSConfig,
    mcmc: tuple[int, int],
    rng: np.random.Generator,
    series_ids: list[str] | None = None,
) -> FDRQSDraws:
    """Gibbs sampler for the factor synthesis model.

    Sweep: mixing variables and latent predictors (as in the univariate
    sampler), loadings, local precisions, shrinkage shocks, the factor path
    in one FFBS block, and per-series precision paths.  The latent
    predictors of all N series come from one stacked call over the N*T rows,
    and the N loading rows from one stacked factorization and solve; both
    draw their normals series by series in the order a per-series loop
    would, and give its bits.

    ``Y`` is (T, N); ``agents`` a pair of (T, N, J) arrays (means,
    variances).  ``mcmc`` (retained draws, burn-in) and the generator
    ``rng`` are required.  ``series_ids`` names the series in error
    messages and defaults to ``series1..seriesN``.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a (T, N) panel")
    T, N = Y.shape
    if N != cfg.N:
        raise ValueError(f"panel has {N} series, config says {cfg.N}")
    J, L, K = cfg.J, cfg.L, cfg.K
    a_mean, A_var = _agent_reports(agents, (T, N, J))
    sids = list(series_ids) if series_ids is not None else [f"series{i + 1}" for i in range(N)]
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must be finite")
    n_keep, n_burn = _chain_lengths(mcmc)

    consts = mixture_constants(cfg.tau)
    k1, k2 = consts
    free_lam = cfg.fixed_loadings is None
    d0 = cfg.n0 * cfg.s0

    # initial state: unit loading on the first factor of each block
    if free_lam:
        lam = np.zeros((N, K))
        lam[:, ::L] = 1.0
    else:
        lam = cfg.fixed_loadings.copy()
    u = np.broadcast_to(cfg.m0, (T, K)).copy()
    sigma = np.ones((T, N))
    mult = np.ones((T, N, J + 1))  # the intercept's column of ones, then the latent predictors
    mult[:, :, 1:] = a_mean
    # series-major rows for the stacked latent-predictor step
    Y_rows = Y.T.reshape(-1)
    a_rows = a_mean.transpose(1, 0, 2).reshape(N * T, J)
    A_rows = A_var.transpose(1, 0, 2).reshape(N * T, J)
    phi_load = np.ones((N, L, J + 1))
    deltas = np.ones((L, J + 1))

    keep = FDRQSDraws(
        cfg=cfg,
        u=np.empty((n_keep, T, K)),
        lam=np.empty((n_keep, N, K)),
        sigma=np.empty((n_keep, T, N)),
        deltas=np.empty((n_keep, L, J + 1)),
        u_C_T=np.empty((n_keep, K, K)),
        n_T=np.empty((n_keep, N)),
    )

    try:
        for it in range(n_burn + n_keep):
            lam_blocks = lam.reshape(N, J + 1, L).transpose(0, 2, 1)  # (N, L, J+1)
            u_blocks = u.reshape(T, J + 1, L)
            theta = np.einsum("nlj,tjl->tnj", lam_blocks, u_blocks)  # (T, N, J+1)

            # (1) mixing variables, then the latent predictors of all series in
            # one call over the N*T rows in series-major order
            resid = Y - np.einsum("tnj,tnj->tn", theta, mult)
            chi, psi = _gig_params(resid, sigma, consts)
            v = np.maximum(sample_gig_half(chi, psi, rng), CHI_FLOOR)
            f_hat, _, root = latent_predictor_moments(
                Y_rows, theta.transpose(1, 0, 2).reshape(N * T, J + 1), sigma.T.reshape(-1),
                v.T.reshape(-1), a_rows, A_rows, consts,
            )
            f_rows = f_hat + np.einsum("tjk,tk->tj", root, rng.standard_normal((N * T, J)))
            mult[:, :, 1:] = f_rows.reshape(N, T, J).transpose(1, 0, 2)

            # (2)-(4) loadings of all series in one stacked pass, then the
            # shrinkage prior
            if free_lam:
                omegas = omegas_from_deltas(deltas)
                if (omegas < OMEGA_UNDERFLOW).any():
                    raise FloatingPointError(f"shrinkage weight underflow at sweep {it}")
                prior_prec = (phi_load * omegas[None, :, :]).transpose(0, 2, 1).reshape(N, K)
                w_obs = 1.0 / (k2 * sigma * v)  # (T, N)
                util = np.repeat(mult.transpose(1, 0, 2), L, axis=2) * u  # (N, T, K)
                util_t = util.transpose(0, 2, 1)
                prec = util_t @ (util * w_obs.T[:, :, None])
                prec[:, np.arange(K), np.arange(K)] += prior_prec
                # Each series' (T,) weight vector must be contiguous, as it was
                # per series: a strided one takes matmul's non-BLAS loop, whose
                # sums round differently.
                rhs = util_t @ np.ascontiguousarray(((Y - k1 * v) * w_obs).T)[:, :, None]
                cf = _loading_factors(prec, sids)
                cf_t = cf.transpose(0, 2, 1)
                h_hat = _solve(cf_t, _solve(cf, rhs))
                noise = _solve(cf_t, rng.standard_normal((N, K))[:, :, None])
                lam = (h_hat + noise)[:, :, 0]
                if np.isnan(lam[:, 0]).any():  # a failed solve leaves its series' row NaN
                    raise np.linalg.LinAlgError("Singular matrix")
                lam_blocks = lam.reshape(N, J + 1, L).transpose(0, 2, 1)
                phi_load = sample_local_precisions(lam_blocks, omegas, cfg.nu, rng)
                deltas = _update_deltas(lam_blocks, phi_load, deltas, cfg.a1, cfg.a2, rng)

            # (5) factor path in one block
            Ftil = np.repeat(mult, L, axis=2) * lam[None, :, :]  # (T, N, K)
            ffbs = ffbs_known_variance(
                Y, Ftil, k1 * v, k2 * sigma * v, cfg.m0, cfg.C0, cfg.delta, rng
            )
            u = ffbs.state

            # (6) per-series precision paths
            fitted = np.einsum("tnk,tk->tn", Ftil, u)
            sq = (Y - fitted - k1 * v) ** 2
            g = gbrw_filter_sample(sq, v, k2, cfg.n0, d0, cfg.beta, rng)
            sigma = 1.0 / g.phi

            if not (np.isfinite(u).all() and np.isfinite(lam).all() and np.isfinite(sigma).all()):
                raise FloatingPointError(f"non-finite sweep state at iteration {it}")
            if it >= n_burn:
                r = it - n_burn
                keep.u[r] = u
                keep.lam[r] = lam
                keep.sigma[r] = sigma
                keep.deltas[r] = deltas
                keep.u_C_T[r] = ffbs.C[-1]
                keep.n_T[r] = g.n[-1]
    except Exception as exc:
        exc.quantsynth_sweep = it  # the sweep that failed travels with the exception
        raise

    return keep


@dataclass
class FactorForecast:
    """Joint one-step forecast: per-series summaries plus aligned joint draws."""

    forecasts: list[QuantileForecast]
    joint: np.ndarray  # (R, N) aligned across series
    sigma_next: np.ndarray  # (R, N) evolved scales


def forecast_fdrqs(draws: FDRQSDraws, agents_next, rng: np.random.Generator) -> FactorForecast:
    """One-step-ahead joint quantile forecast for all series.

    Per retained draw: advance the factors by a random-walk step with
    covariance ``C_T (1-delta)/delta``, evolve each series' scale by a beta
    shock, draw fresh latent predictors from the agents' reports, and emit
    the N quantiles from one shared draw so cross-series dependence is
    preserved.
    """
    cfg = draws.cfg
    N, J, L = cfg.N, cfg.J, cfg.L
    a_next, A_next = _agent_reports(agents_next, (N, J))

    R = draws.n_draws
    delta = cfg.delta
    u_T = draws.u[:, -1, :]
    if delta < 1.0:
        sqrtC = psd_sqrt(draws.u_C_T * ((1.0 - delta) / delta))
        z = rng.standard_normal(u_T.shape)
        u_next = u_T + np.einsum("rkq,rq->rk", sqrtC, z)
    else:
        u_next = u_T

    sigma_T = draws.sigma[:, -1, :]  # (R, N)
    sigma_next = np.empty_like(sigma_T)
    for i in range(N):
        sigma_next[:, i] = _evolve_scale(sigma_T[:, i], draws.n_T[:, i], cfg.beta, rng)

    f_next = a_next[None, :, :] + np.sqrt(A_next)[None, :, :] * rng.standard_normal((R, N, J))
    mult = np.concatenate([np.ones((R, N, 1)), f_next], axis=2)  # (R, N, J+1)
    design = np.repeat(mult, L, axis=2) * draws.lam  # (R, N, K)
    q = np.einsum("rnk,rk->rn", design, u_next)
    forecasts = [QuantileForecast.from_draws(cfg.tau, q[:, i]) for i in range(N)]
    return FactorForecast(forecasts=forecasts, joint=q, sigma_next=sigma_next)
