"""Agent quantile-forecast models and forecast ingestion.

Two sources of agent forecasts feed the synthesizers:

* :func:`fit_dqlm` / :func:`forecast_dqlm` -- a dynamic quantile linear model
  with fixed predictors, random-walk coefficients and a single constant
  asymmetric-Laplace scale, fitted by Gibbs sampling.
* :func:`AgentForecastSet.from_csv` -- ingestion of externally produced
  forecast moment files (any model that can export per-time Gaussian
  summaries of its quantile forecasts).

Each agent forecast is a Gaussian summary ``(a, A)``: the predictive mean and
variance of the agent's tau-quantile at one time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .distributions import CHI_FLOOR, mixture_constants, sample_gig_half
from .dlm import ffbs_known_variance, psd_sqrt
from .quarters import format_time, is_quarter_label, parse_time

__all__ = [
    "DQLMSpec",
    "DQLMFit",
    "AgentForecast",
    "AgentForecastSet",
    "fit_dqlm",
    "predictive_cloud",
    "forecast_dqlm",
]

VARIANCE_FLOOR = 1e-10


@dataclass(frozen=True)
class DQLMSpec:
    """Configuration for one dynamic quantile linear model."""

    tau: float
    delta: float = 0.95
    prior_scale: float = 1000.0
    sigma_shape: float = 0.01
    sigma_rate: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.prior_scale <= 0 or self.sigma_shape <= 0 or self.sigma_rate <= 0:
            raise ValueError("prior hyperparameters must be positive")


@dataclass
class DQLMFit:
    """Retained posterior draws from :func:`fit_dqlm`.

    ``beta`` has shape (draws, T, p); ``sigma`` (draws,); ``C_T`` (draws, p, p)
    holds the terminal filtered covariance of each draw's coefficient path,
    which fixes the discount-implied one-step evolution covariance used for
    forecasting.
    """

    spec: DQLMSpec
    beta: np.ndarray
    sigma: np.ndarray
    C_T: np.ndarray

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]

    @property
    def T(self) -> int:
        return self.beta.shape[1]


def fit_dqlm(
    y: np.ndarray,
    X: np.ndarray,
    spec: DQLMSpec,
    mcmc: tuple[int, int] = (3000, 1000),
    rng: np.random.Generator | None = None,
) -> DQLMFit:
    """Gibbs sampler for the dynamic quantile linear model.

    Model: ``y_t = x_t' beta_t + eps_t`` with ``eps_t`` asymmetric Laplace at
    level ``spec.tau`` and constant scale ``sigma``; ``beta_t`` follows a
    random walk with discount ``spec.delta``.  The sweep alternates the
    mixing variables ``v_t`` (generalized inverse Gaussian), the coefficient
    path (known-variance FFBS on the conditionally Gaussian form) and
    ``sigma`` (inverse gamma).

    Parameters
    ----------
    y : (T,) response.
    X : (T, p) design, no missing values.
    mcmc : (retained draws, burn-in iterations).
    """
    if rng is None:
        rng = np.random.default_rng()
    y = np.asarray(y, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = y.size
    if X.shape[0] != T:
        raise ValueError(f"X must have {T} rows, got {X.shape[0]}")
    p = X.shape[1]
    if T < p:
        raise ValueError(f"need at least p={p} observations, got T={T}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
        raise ValueError("y and X must be finite")
    n_keep, n_burn = int(mcmc[0]), int(mcmc[1])
    if n_keep <= 0:
        raise ValueError("mcmc draw count must be positive")
    if n_burn < 0:
        raise ValueError("burn-in must be nonnegative")

    k1, k2 = mixture_constants(spec.tau)
    m0 = np.zeros(p)
    C0 = spec.prior_scale * np.eye(p)

    beta = np.zeros((T, p))
    sigma = max(float(np.var(y)), 1.0)
    v = np.ones(T)

    keep_beta = np.empty((n_keep, T, p))
    keep_sigma = np.empty(n_keep)
    keep_CT = np.empty((n_keep, p, p))

    Fdes = X[:, None, :]
    for it in range(n_burn + n_keep):
        resid = y - np.einsum("tp,tp->t", X, beta)
        chi = np.maximum(resid * resid, CHI_FLOOR) / (sigma * k2)
        psi = 2.0 / sigma + k1 * k1 / (sigma * k2)
        v = np.maximum(sample_gig_half(chi, np.full(T, psi), rng), CHI_FLOOR)

        ffbs = ffbs_known_variance(
            y[:, None], Fdes, (k1 * v)[:, None], (sigma * k2 * v)[:, None],
            m0, C0, spec.delta, rng,
        )
        beta = ffbs.state

        resid2 = y - np.einsum("tp,tp->t", X, beta) - k1 * v
        rate = spec.sigma_rate + float(np.sum(resid2 * resid2 / (2.0 * k2 * v) + v))
        shape = spec.sigma_shape + 1.5 * T
        sigma = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)

        if not (np.isfinite(sigma) and sigma > 0.0 and np.all(np.isfinite(beta))):
            raise FloatingPointError(f"non-finite sampler state at iteration {it}")
        if it >= n_burn:
            r = it - n_burn
            keep_beta[r] = beta
            keep_sigma[r] = sigma
            keep_CT[r] = ffbs.C[-1]

    return DQLMFit(spec=spec, beta=keep_beta, sigma=keep_sigma, C_T=keep_CT)


def predictive_cloud(fit: DQLMFit, x_next: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One-step-ahead draws of ``x_next' beta_{T+1}``, one per retained draw.

    Each coefficient path is advanced one step with the discount-implied
    evolution covariance ``C_T (1 - delta) / delta`` before projecting.
    """
    x_next = np.asarray(x_next, dtype=float)
    p = fit.beta.shape[2]
    if x_next.shape != (p,):
        raise ValueError(f"x_next must have shape ({p},), got {x_next.shape}")
    if not np.all(np.isfinite(x_next)):
        raise ValueError("x_next must be fully observed")
    beta_T = fit.beta[:, -1, :]
    delta = fit.spec.delta
    if delta < 1.0:
        sqrtW = psd_sqrt(fit.C_T * ((1.0 - delta) / delta))
        z = rng.standard_normal(beta_T.shape)
        beta_next = beta_T + np.einsum("rpq,rq->rp", sqrtW, z)
    else:
        beta_next = beta_T
    return beta_next @ x_next


@dataclass(frozen=True)
class AgentForecast:
    """Gaussian summary of one agent's tau-quantile forecast at one time."""

    t: int
    tau: float
    a: float
    A: float

    def __post_init__(self):
        if not np.isfinite(self.a):
            raise ValueError("forecast mean a must be finite")
        if not (np.isfinite(self.A) and self.A > 0.0):
            raise ValueError("forecast variance A must be positive")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")


def forecast_dqlm(
    fit: DQLMFit,
    x_next: np.ndarray,
    rng: np.random.Generator,
    t_next: int | None = None,
) -> AgentForecast:
    """Summarize the one-step predictive quantile as an ``(a, A)`` Gaussian.

    ``a`` is the mean and ``A`` the variance of the predictive draw cloud
    from :func:`predictive_cloud`; ``A`` is floored at 1e-10 so degenerate
    posteriors still yield a valid variance.
    """
    if fit.n_draws < 50:
        raise ValueError(f"need at least 50 retained draws for a stable variance, got {fit.n_draws}")
    cloud = predictive_cloud(fit, x_next, rng)
    a = float(cloud.mean())
    A = max(float(cloud.var()), VARIANCE_FLOOR)
    t = fit.T if t_next is None else int(t_next)
    return AgentForecast(t=t, tau=fit.spec.tau, a=a, A=A)


def _tau_key(tau: float) -> float:
    return round(float(tau), 10)


_CSV_COLUMNS = ("series", "time", "agent", "tau", "a", "A")


@dataclass
class AgentForecastSet:
    """Validated collection of agent forecasts keyed by (series, time, agent, tau).

    Completeness contract: within a series, every (agent, tau) pair covers the
    same gap-free run of time indices, so panel extraction is well defined.
    """

    _data: dict = field(default_factory=dict)
    quarterly: bool = False

    def add(self, series: str, t: int, agent: str, tau: float, a: float, A: float) -> None:
        key = (str(series), int(t), str(agent), _tau_key(tau))
        if key in self._data:
            raise ValueError(f"duplicate forecast key {key}")
        self._data[key] = AgentForecast(t=int(t), tau=float(tau), a=float(a), A=float(A))

    def __len__(self) -> int:
        return len(self._data)

    def get(self, series: str, t: int, agent: str, tau: float) -> AgentForecast:
        """The stored forecast; a missing one raises ``ValueError`` naming its time as written."""
        key = (str(series), int(t), str(agent), _tau_key(tau))
        if key not in self._data:
            raise ValueError(
                f"missing forecast for series={series} t={format_time(t, self.quarterly)} "
                f"agent={agent} tau={tau}"
            )
        return self._data[key]

    def series_ids(self) -> list[str]:
        return sorted({k[0] for k in self._data})

    def panel(self, series: str, tau: float, times, agents) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(a, A)`` arrays for one series at one tau level.

        Both have shape (len(times), len(agents)), rows in the order of
        ``times`` and agent columns in the order of ``agents``.
        """
        a = np.empty((len(times), len(agents)))
        A = np.empty((len(times), len(agents)))
        for j, agent in enumerate(agents):
            for i, t in enumerate(times):
                fc = self.get(series, t, agent, tau)
                a[i, j] = fc.a
                A[i, j] = fc.A
        return a, A

    def validate(self) -> None:
        """Check the completeness contract; raise naming the first violation."""
        for series in self.series_ids():
            pair_times: dict[tuple[str, float], set[int]] = {}
            for (s, t, agent, tk) in self._data:
                if s != series:
                    continue
                pair_times.setdefault((agent, tk), set()).add(t)
            ref_pair = min(pair_times)
            ref = pair_times[ref_pair]
            for pair, ts in pair_times.items():
                if ts != ref:
                    raise ValueError(
                        f"series {series}: (agent, tau)={pair} covers times "
                        f"{sorted(ts)} but {ref_pair} covers {sorted(ref)}"
                    )
            lo, hi = min(ref), max(ref)
            missing = sorted(set(range(lo, hi + 1)) - ref)
            if missing:
                raise ValueError(f"series {series}: gap in time index at {missing[:5]}")

    @classmethod
    def from_csv(cls, path) -> "AgentForecastSet":
        """Load and validate a forecast CSV with header ``series,time,agent,tau,a,A``."""
        out = cls()
        quarterly = None
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            got = tuple(reader.fieldnames or ())
            if got != _CSV_COLUMNS:
                raise ValueError(f"expected header {','.join(_CSV_COLUMNS)}, got {','.join(got)}")
            for i, row in enumerate(reader, start=2):
                try:
                    cells = {c: row[c] for c in _CSV_COLUMNS}
                    if any(c is None or str(c).strip() == "" for c in cells.values()):
                        raise ValueError("missing cell")
                    t = parse_time(cells["time"])
                    row_quarterly = is_quarter_label(cells["time"])
                    if quarterly is None:
                        quarterly = row_quarterly
                    elif quarterly != row_quarterly:
                        raise ValueError("mixed quarterly and integer time formats")
                    tau = float(cells["tau"])
                    a = float(cells["a"])
                    A = float(cells["A"])
                    out.add(cells["series"], t, cells["agent"], tau, a, A)
                except (ValueError, KeyError) as exc:
                    raise ValueError(f"{path}, row {i}: {exc}") from None
        out.quarterly = bool(quarterly)
        out.validate()
        return out

    def to_csv(self, path, quarterly: bool | None = None) -> None:
        if quarterly is None:
            quarterly = self.quarterly
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            for key in sorted(self._data):
                series, t, agent, _ = key
                fc = self._data[key]
                writer.writerow([
                    series,
                    format_time(t, quarterly),
                    agent,
                    f"{fc.tau:.2f}" if abs(fc.tau - round(fc.tau, 2)) < 1e-12 else repr(fc.tau),
                    repr(fc.a),
                    repr(fc.A),
                ])
