"""Dynamic regression quantile synthesis: univariate sampler and forecaster.

The synthesis model treats each agent's quantile forecast as a noisy report
``f_tj ~ N(a_tj, A_tj)`` of a latent predictor and regresses the observed
series on ``F_t = (1, f_t1, ..., f_tJ)`` with time-varying weights
``theta_t``, asymmetric-Laplace errors at level tau, and a discounted
random-walk scale.  A Gibbs sweep alternates

1. mixing variables ``v_t`` (generalized inverse Gaussian),
2. latent predictors ``f_t`` (Gaussian, combining agent report and fit),
3. the joint state/precision path ``(theta_{1:T}, sigma_{1:T})`` by FFBS.

Random draws that belong to an agent (its latent-predictor and state noise)
come from a substream keyed by the agent's name, so reordering agents
permutes the posterior weight labels without changing the draws.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    CHI_FLOOR, _chain_lengths, _gig_params, _validate_tau, mixture_constants, sample_gig_half,
)
from .dlm import DiscountConfig, NormalGammaPrior, _eigh, ffbs_conjugate, psd_sqrt

__all__ = [
    "DRQSConfig",
    "DRQSDraws",
    "QuantileForecast",
    "default_synthesis_prior",
    "latent_predictor_moments",
    "gibbs_drqs",
    "forecast_drqs",
]


def default_synthesis_prior(J: int) -> NormalGammaPrior:
    """Equal-weight prior over (intercept, J agent weights).

    Mean puts weight 1/J on every agent and 0 on the intercept; the intercept
    scale is diffuse (1000) while agent weights start at unit scale.
    """
    m0 = np.concatenate([[0.0], np.full(J, 1.0 / J)])
    C0 = np.diag(np.concatenate([[1000.0], np.ones(J)]))
    return NormalGammaPrior(m0=m0, C0=C0, n0=0.01, s0=0.01)


@dataclass(frozen=True)
class DRQSConfig:
    """Synthesis configuration: quantile level, agent count, prior, discounts."""

    tau: float
    J: int
    prior: NormalGammaPrior | None = None
    disc: DiscountConfig = field(default_factory=DiscountConfig)

    def __post_init__(self):
        _validate_tau(self.tau)
        if self.J < 1:
            raise ValueError("need at least one agent")
        if self.prior is None:
            object.__setattr__(self, "prior", default_synthesis_prior(self.J))
        if self.prior.m0.size != self.J + 1:
            raise ValueError(f"prior dimension {self.prior.m0.size} != J+1 = {self.J + 1}")


@dataclass
class DRQSDraws:
    """Stacked retained draws plus the terminal filter quantities forecasting needs."""

    cfg: DRQSConfig
    theta: np.ndarray  # (R, T, J+1)
    sigma: np.ndarray  # (R, T)
    n_T: np.ndarray  # (R,)
    s_T: np.ndarray  # (R,)
    C_T: np.ndarray  # (R, J+1, J+1)

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]


def _agent_stream(root_entropy: np.ndarray, kind: str, name: str) -> np.random.Generator:
    """Generator keyed by (root entropy, role, stable name hash), order-free."""
    digest = hashlib.sha256(f"{kind}\x00{name}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([*root_entropy.tolist(), key]))


def _agent_reports(agents, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Agent report ``(means, variances)`` as float arrays of ``shape``, finite, variances > 0."""
    a_mean, A_var = (np.asarray(x, dtype=float) for x in agents)
    if a_mean.shape != shape or A_var.shape != shape:
        raise ValueError(
            f"agent means and variances must have shape {shape}, "
            f"got {a_mean.shape} and {A_var.shape}"
        )
    if not np.all(np.isfinite(a_mean)):
        raise ValueError("agent means must be finite")
    if not (np.all(np.isfinite(A_var)) and np.all(A_var > 0.0)):
        raise ValueError("agent variances must be positive and finite")
    return a_mean, A_var


def latent_predictor_moments(
    y: np.ndarray,
    theta: np.ndarray,
    sigma: np.ndarray,
    v: np.ndarray,
    a_mean: np.ndarray,
    A_var: np.ndarray,
    consts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-conditional moments of the latent predictors at every time.

    Combines the agent report ``N(a_t, diag(A_t))`` with the observation
    ``y_t ~ N(theta_t0 + f_t' theta_t+, sigma_t kappa2 v_t)`` shifted by
    ``kappa1 v_t``.  Returns ``(f_hat, F_cov, F_root)`` with shapes
    ``(T, J)``, ``(T, J, J)``, ``(T, J, J)``; the covariance root is the
    symmetric square root, so it is permutation-equivariant in the agents.
    When a row of ``theta_t+`` is zero, the agent report is returned
    unchanged.
    """
    k1, k2 = consts
    c = sigma * k2 * v
    thp = theta[:, 1:]
    J = thp.shape[1]
    idx = np.arange(J)
    prec = thp[:, :, None] * thp[:, None, :] / c[:, None, None]
    prec[:, idx, idx] += 1.0 / A_var
    rhs = thp * ((y - theta[:, 0] - k1 * v) / c)[:, None] + a_mean / A_var
    w, V = _eigh(prec)
    if not (w > 0.0).all():  # written so that a NaN eigenvalue fails too
        if np.isnan(w).any():  # a failed eigh fills its matrix with NaN
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        raise FloatingPointError("latent-predictor precision not positive definite")
    Vt = V.swapaxes(1, 2)
    cov = (V / w[:, None, :]) @ Vt
    f_hat = np.einsum("tij,tj->ti", cov, rhs)
    root = (V / np.sqrt(w)[:, None, :]) @ Vt
    return f_hat, cov, root


# A failed LAPACK helper sets the invalid flag (dlm's module docstring): one
# errstate per call keeps it from warning before the NaN checks raise.
@np.errstate(invalid="ignore")
def gibbs_drqs(
    y: np.ndarray,
    agents,
    cfg: DRQSConfig,
    mcmc: tuple[int, int],
    rng: np.random.Generator,
    agent_names: list[str] | None = None,
) -> DRQSDraws:
    """Gibbs sampler for the univariate synthesis model.

    Parameters
    ----------
    y : (T,) observed series.
    agents : pair of (T, J) arrays (means, variances) of the agents' reports.
    cfg : model configuration.
    mcmc : (retained draws, burn-in); required.
    rng : main generator, required; agent substreams are derived from it.
    agent_names : J names keying the agents' substreams; ``agent1..agentJ``
        when omitted.
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    J = cfg.J
    a_mean, A_var = _agent_reports(agents, (T, J))
    names = list(agent_names) if agent_names is not None else [f"agent{j + 1}" for j in range(J)]
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    n_keep, n_burn = _chain_lengths(mcmc)

    consts = mixture_constants(cfg.tau)
    p = J + 1
    prior, disc = cfg.prior, cfg.disc

    root_entropy = rng.integers(0, 2**63 - 1, size=4)
    f_streams = [_agent_stream(root_entropy, "predictor", nm) for nm in names]
    state_streams = [_agent_stream(root_entropy, "state", nm) for nm in ["intercept"] + names]

    theta = np.broadcast_to(prior.m0, (T, p)).copy()
    sigma = np.ones(T)
    f = a_mean.copy()

    keep = DRQSDraws(
        cfg=cfg,
        theta=np.empty((n_keep, T, p)),
        sigma=np.empty((n_keep, T)),
        n_T=np.empty(n_keep),
        s_T=np.empty(n_keep),
        C_T=np.empty((n_keep, p, p)),
    )

    try:
        for it in range(n_burn + n_keep):
            # (1) mixing variables
            resid = y - theta[:, 0] - np.einsum("tj,tj->t", f, theta[:, 1:])
            chi, psi = _gig_params(resid, sigma, consts)
            v = np.maximum(sample_gig_half(chi, psi, rng), CHI_FLOOR)

            # (2) latent predictors, jointly across agents at each t
            f_hat, _, root = latent_predictor_moments(y, theta, sigma, v, a_mean, A_var, consts)
            z_f = np.column_stack([st.standard_normal(T) for st in f_streams])
            f = f_hat + np.einsum("tij,tj->ti", root, z_f)

            # (3) joint weight and scale path
            Fdes = np.column_stack([np.ones(T), f])
            z_state = np.column_stack([st.standard_normal(T) for st in state_streams])
            ffbs = ffbs_conjugate(y, Fdes, v, consts, prior, disc, rng, z_state=z_state)
            theta = ffbs.theta
            sigma = 1.0 / ffbs.phi

            if not (np.isfinite(theta).all() and np.isfinite(sigma).all() and (sigma > 0).all()):
                raise FloatingPointError(f"non-finite sweep state at iteration {it}")
            if it >= n_burn:
                r = it - n_burn
                keep.theta[r] = theta
                keep.sigma[r] = sigma
                keep.n_T[r] = ffbs.n[-1]
                keep.s_T[r] = ffbs.s[-1]
                keep.C_T[r] = ffbs.C[-1]
    except Exception as exc:
        exc.quantsynth_sweep = it  # the sweep that failed travels with the exception
        raise

    return keep


@dataclass
class QuantileForecast:
    """Posterior predictive draws of one conditional quantile plus summaries."""

    tau: float
    draws: np.ndarray
    point: float
    interval: tuple[float, float]

    @classmethod
    def from_draws(cls, tau: float, draws: np.ndarray) -> "QuantileForecast":
        draws = np.asarray(draws, dtype=float)
        lo, hi = np.percentile(draws, [2.5, 97.5])
        return cls(tau=float(tau), draws=draws, point=float(draws.mean()), interval=(float(lo), float(hi)))


def _evolve_scale(sigma_T, n_T, beta, rng):
    """One-step scale evolution: a beta shock divides the terminal scale."""
    if beta >= 1.0:
        return np.asarray(sigma_T, dtype=float)
    gam = rng.beta(beta * n_T / 2.0, (1.0 - beta) * n_T / 2.0)
    return beta * sigma_T / gam


def forecast_drqs(draws: DRQSDraws, agents_next, rng: np.random.Generator) -> QuantileForecast:
    """One-step-ahead synthesized quantile forecast.

    Per retained draw: evolve the scale by a beta shock, advance the weights
    by a random-walk step with discount-implied covariance
    ``(1-delta)/delta * C_T * sigma_{T+1}/s_T``, draw fresh latent predictors
    from the agents' reported ``N(a, A)``, and emit ``Q = F'theta``.

    ``agents_next`` is a pair of length-J arrays (means, variances).
    """
    cfg = draws.cfg
    J = cfg.J
    a_next, A_next = _agent_reports(agents_next, (J,))

    R = draws.n_draws
    delta, beta = cfg.disc.delta, cfg.disc.beta
    sigma_next = _evolve_scale(draws.sigma[:, -1], draws.n_T, beta, rng)
    theta_T = draws.theta[:, -1, :]
    if delta < 1.0:
        scale = (1.0 - delta) / delta * sigma_next / draws.s_T
        sqrtC = psd_sqrt(draws.C_T)
        z = rng.standard_normal(theta_T.shape)
        theta_next = theta_T + np.sqrt(scale)[:, None] * np.einsum("rpq,rq->rp", sqrtC, z)
    else:
        theta_next = theta_T
    f_next = a_next + np.sqrt(A_next) * rng.standard_normal((R, J))
    q = theta_next[:, 0] + np.einsum("rj,rj->r", f_next, theta_next[:, 1:])
    return QuantileForecast.from_draws(cfg.tau, q)
