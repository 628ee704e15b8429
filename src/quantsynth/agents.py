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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import MIN_AGENT_DRAWS, tau_key
from .distributions import (
    CHI_FLOOR, _chain_lengths, _gig_params, _validate_tau, mixture_constants, sample_gig_half,
)
from .dlm import _check_discount, _check_hyperparameter, ffbs_known_variance, psd_sqrt
from .quarters import format_time, is_quarter_label, parse_time

__all__ = [
    "DQLMSpec",
    "DQLMFit",
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
        _validate_tau(self.tau)
        _check_discount("delta", self.delta)
        for name in ("prior_scale", "sigma_shape", "sigma_rate"):
            _check_hyperparameter(name, getattr(self, name))


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


# A failed LAPACK helper sets the invalid flag (dlm's module docstring): one
# errstate per call keeps it from warning before the NaN checks raise.
@np.errstate(invalid="ignore")
def fit_dqlm(
    y: np.ndarray,
    X: np.ndarray,
    spec: DQLMSpec,
    mcmc: tuple[int, int],
    rng: np.random.Generator,
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
    mcmc : (retained draws, burn-in iterations); required.
    rng : the generator every draw comes from; required.
    """
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
    n_keep, n_burn = _chain_lengths(mcmc)

    consts = mixture_constants(spec.tau)
    k1, k2 = consts
    m0 = np.zeros(p)
    C0 = spec.prior_scale * np.eye(p)

    beta = np.zeros((T, p))
    sigma = max(float(np.var(y)), 1.0)

    keep_beta = np.empty((n_keep, T, p))
    keep_sigma = np.empty(n_keep)
    keep_CT = np.empty((n_keep, p, p))

    Fdes = X[:, None, :]
    # X beta of the current path: formed once per sweep, after the state draw,
    # and carried into the next sweep's residual.
    fitted = np.einsum("tp,tp->t", X, beta)
    try:
        for it in range(n_burn + n_keep):
            resid = y - fitted
            chi, psi = _gig_params(resid, sigma, consts)
            v = np.maximum(sample_gig_half(chi, psi, rng), CHI_FLOOR)

            ffbs = ffbs_known_variance(
                y[:, None], Fdes, (k1 * v)[:, None], (sigma * k2 * v)[:, None],
                m0, C0, spec.delta, rng,
            )
            beta = ffbs.state
            fitted = np.einsum("tp,tp->t", X, beta)

            resid2 = y - fitted - k1 * v
            rate = spec.sigma_rate + float((resid2 * resid2 / (2.0 * k2 * v) + v).sum())
            shape = spec.sigma_shape + 1.5 * T
            sigma = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)

            if not (math.isfinite(sigma) and sigma > 0.0 and np.isfinite(beta).all()):
                raise FloatingPointError(f"non-finite sampler state at iteration {it}")
            if it >= n_burn:
                r = it - n_burn
                keep_beta[r] = beta
                keep_sigma[r] = sigma
                keep_CT[r] = ffbs.C[-1]
    except Exception as exc:
        exc.quantsynth_sweep = it  # the sweep that failed travels with the exception
        raise

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


def _check_report(tau: float, a: float, A: float) -> None:
    """Refuse a non-finite mean, a nonpositive variance or a level outside (0, 1)."""
    if not math.isfinite(a):
        raise ValueError("forecast mean a must be finite")
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError("forecast variance A must be positive")
    _validate_tau(tau)


def forecast_dqlm(fit: DQLMFit, x_next: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """Summarize the one-step predictive quantile as the Gaussian ``(a, A)`` pair.

    ``a`` is the mean and ``A`` the variance of the predictive draw cloud
    from :func:`predictive_cloud`; ``A`` is floored at 1e-10 so degenerate
    posteriors still yield a valid variance.  A report ``_check_report``
    refuses (a non-finite mean, say) raises here, in the fit's own job.
    """
    if fit.n_draws < MIN_AGENT_DRAWS:
        raise ValueError(
            f"need at least {MIN_AGENT_DRAWS} retained draws for a stable variance, got {fit.n_draws}"
        )
    cloud = predictive_cloud(fit, x_next, rng)
    a = float(cloud.mean())
    A = max(float(cloud.var()), VARIANCE_FLOOR)
    _check_report(fit.spec.tau, a, A)
    return a, A


_CSV_COLUMNS = ("series", "time", "agent", "tau", "a", "A")


def _read_rows(path, columns: tuple, parse, lines: list | None = None):
    """``parse(cells)`` of each non-blank data row under the header ``columns``.

    A short or long row, or one ``parse`` refuses, is refused naming the file and the
    row by its line in the file.  ``lines``, if given, gets the line of each row yielded.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = tuple(next(reader, ()))
        if got != columns:
            raise ValueError(f"{path}: expected header {','.join(columns)}, got {','.join(got)}")
        for cells in filter(None, reader):
            try:
                if len(cells) != len(columns):
                    raise ValueError(f"more cells than the {len(columns)}-column header"
                                     if len(cells) > len(columns) else "missing cell")
                record = parse(cells)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, row {reader.line_num}: {exc}") from None
            if lines is not None:
                lines.append(reader.line_num)
            yield record


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: ``header``, then every row of the iterable ``rows`` as it comes.

    Rows may be a generator, so a large artifact streams to disk.  The file's
    parent directory is made if missing, one level deep (``plots/`` in a run directory).
    """
    Path(path).parent.mkdir(exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _positions(labels, wanted) -> np.ndarray:
    """The index of each wanted label in ``labels``, -1 for one not there."""
    pos = {label: k for k, label in enumerate(labels)}
    return np.array([pos.get(x, -1) for x in wanted], dtype=np.intp)


@dataclass(eq=False)  # arrays have no single truth value; sets compare by identity
class AgentForecastSet:
    """Agent reports ``(a, A)`` on one (level, time, series, agent) grid, NaN where none is.

    Axis labels: ``taus`` ascending (each as its rows write it), times ``t0, t0 + 1, ...``,
    sorted ``series`` and ``agents``.  Checked on construction: within a series, every
    (agent, tau) pair with reports covers one shared gap-free run of times.
    """

    taus: tuple
    t0: int
    series: tuple
    agents: tuple
    a: np.ndarray
    A: np.ndarray
    quarterly: bool = False

    def __post_init__(self):
        pairs = [(agent, tau_key(tau)) for agent in self.agents for tau in self.taus]
        for n, series in enumerate(self.series):
            cover = ~np.isnan(self.a[:, :, n, :]).transpose(2, 0, 1).reshape(len(pairs), -1)
            has = np.flatnonzero(cover.any(axis=1))
            times = [(np.flatnonzero(cover[k]) + self.t0).tolist() for k in has]
            for k, ts in zip(has, times):
                if ts != times[0]:
                    raise ValueError(
                        f"series {series}: (agent, tau)={pairs[k]} covers times {ts} "
                        f"but {pairs[has[0]]} covers {times[0]}"
                    )
            missing = [t for ts in times[:1] for t in range(ts[0], ts[-1]) if t not in ts]
            if missing:
                raise ValueError(f"series {series}: gap in time index at {missing[:5]}")

    @classmethod
    def from_rows(cls, rows, quarterly: bool = False, where=lambda i: f"row {i}") -> "AgentForecastSet":
        """The set of ``(series, t, agent, tau, a, A)`` rows; ``where(i)`` names row i (from 0) in a refusal.

        Refused: a repeated (series, t, agent, ``tau_key(tau)``) key, a bad report, or
        a level written with another float than its first row's.
        """
        cells, levels = {}, {}
        for i, (series, t, agent, tau, a, A) in enumerate(rows):
            try:
                tau, a, A = float(tau), float(a), float(A)
                key = (str(series), int(t), str(agent), tau_key(tau))
                if key in cells:
                    raise ValueError(f"duplicate forecast key {key}")
                _check_report(tau, a, A)
                if levels.setdefault(key[3], tau) != tau:
                    raise ValueError(f"level {key[3]} is written as {levels[key[3]]!r} and as {tau!r}")
            except ValueError as exc:
                raise ValueError(f"{where(i)}: {exc}") from None
            cells[key] = (a, A)
        cols = list(zip(*cells)) or [()] * 4  # series, time, agent, level
        series, agents, keys = sorted(set(cols[0])), sorted(set(cols[2])), sorted(levels)
        t0 = min(cols[1], default=0)
        i = np.array(cols[1], dtype=np.intp) - t0
        a, A = np.full((2, len(keys), i.max(initial=-1) + 1, len(series), len(agents)), np.nan)
        cell = (_positions(keys, cols[3]), i, _positions(series, cols[0]), _positions(agents, cols[2]))
        a[cell], A[cell] = np.array(list(cells.values())).reshape(-1, 2).T
        return cls(tuple(levels[k] for k in keys), t0, tuple(series), tuple(agents), a, A, quarterly)

    def reports(self, taus, times, series, agents) -> tuple[np.ndarray, np.ndarray]:
        """New C-contiguous ``(a, A)`` blocks (levels, times, series, agents); refuses the first uncovered cell."""
        grid = np.ix_(  # an unknown label indexes -1: the NaN cell padded onto its axis
            _positions(map(tau_key, self.taus), map(tau_key, taus)),
            _positions(range(self.t0, self.t0 + self.a.shape[1]), map(int, times)),
            _positions(self.series, series),
            _positions(self.agents, agents),
        )
        a, A = (np.pad(x, [(0, 1)] * 4, constant_values=np.nan)[grid] for x in (self.a, self.A))
        missing = np.isnan(a)
        if missing.any():
            l, i, n, j = np.unravel_index(np.argmax(missing), a.shape)
            raise ValueError(
                f"missing forecast for series={series[n]} t={format_time(times[i], self.quarterly)} "
                f"agent={agents[j]} tau={taus[l]}"
            )
        return a, A

    @classmethod
    def from_csv(cls, path) -> "AgentForecastSet":
        """Load a forecast CSV with header ``series,time,agent,tau,a,A``.

        Refused, naming the file and row: an empty cell, a time format other than the first row's.
        """
        times = {}  # time cell -> time

        def parse(cells):
            if not all(map(str.strip, cells)):
                raise ValueError("missing cell")
            series, label, agent, tau, a, A = cells
            if label not in times:
                t = parse_time(label)
                if times and is_quarter_label(label) != is_quarter_label(next(iter(times))):
                    raise ValueError("mixed quarterly and integer time formats")
                times[label] = t
            return series, times[label], agent, tau, a, A  # from_rows reads the numbers

        lines = []  # the file line of each row
        rows = _read_rows(path, _CSV_COLUMNS, parse, lines)
        out = cls.from_rows(rows, where=lambda i: f"{path}, row {lines[i]}")
        out.quarterly = any(map(is_quarter_label, times))
        return out

    def to_csv(self, path) -> None:
        """One row per report, in (series, time, agent, level) order."""
        a, A = self.a.transpose(2, 1, 3, 0), self.A.transpose(2, 1, 3, 0)
        cell = np.nonzero(~np.isnan(a))
        labels = [format_time(self.t0 + k, self.quarterly) for k in range(a.shape[1])]
        levels = [f"{tau:.2f}" if float(f"{tau:.2f}") == tau else repr(tau) for tau in self.taus]
        _write_csv(path, _CSV_COLUMNS, (
            (self.series[n], labels[i], self.agents[j], levels[k], repr(x), repr(y))
            for n, i, j, k, x, y in zip(*(ix.tolist() for ix in cell), a[cell].tolist(), A[cell].tolist())
        ))
