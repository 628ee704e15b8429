"""Forecast evaluation: weighted CRPS on a quantile grid, cumulative score
ratios, probability integral transforms, and predictive-density
reconstruction from a set of quantile forecasts.

The CRPS variant integrates the quantile check loss over a grid of levels
with an optional emphasis weight (uniform, right-tail ``tau^2`` or left-tail
``(1-tau)^2``), approximated by the trapezoidal rule on exactly the grid
span (no tail extrapolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .config import WEIGHT_SCHEMES

__all__ = [
    "QuantileGrid",
    "quantile_weights",
    "crps_quantile_weighted",
    "pit",
    "ReconstructedPredictive",
    "reconstruct_predictive",
    "ScorePanel",
]


@dataclass(frozen=True)
class QuantileGrid:
    """Strictly increasing quantile levels in (0, 1)."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if taus.ndim != 1 or taus.size < 1:
            raise ValueError("need a one-dimensional grid of levels")
        if np.any(taus <= 0.0) or np.any(taus >= 1.0):
            raise ValueError("levels must lie strictly inside (0, 1)")
        if np.any(np.diff(taus) <= 0.0):
            raise ValueError("levels must be strictly increasing")

    @classmethod
    def default(cls) -> "QuantileGrid":
        """The 19-level grid 0.05, 0.10, ..., 0.95."""
        return cls(np.round(np.arange(1, 20) * 0.05, 10))

    @property
    def K(self) -> int:
        return self.taus.size


def quantile_weights(taus: np.ndarray, kind: str = "none") -> np.ndarray:
    """Emphasis weight nu(tau): 1, tau^2 (right tail) or (1-tau)^2 (left tail)."""
    taus = np.asarray(taus, dtype=float)
    if kind == "none":
        return np.ones_like(taus)
    if kind == "right":
        return taus**2
    if kind == "left":
        return (1.0 - taus) ** 2
    raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_SCHEMES}")


def crps_quantile_weighted(y: float, qhat: np.ndarray, grid: QuantileGrid, kind: str = "none") -> float:
    """Trapezoidal quantile-weighted CRPS of forecasts ``qhat`` on the grid.

    The integrand at each level is ``2 (1{y < qhat} - tau)(qhat - y) nu(tau)``,
    which is nonnegative node by node.
    """
    qhat = np.asarray(qhat, dtype=float)
    taus = grid.taus
    if qhat.shape != taus.shape:
        raise ValueError(f"forecasts must match the grid: {qhat.shape} vs {taus.shape}")
    nu = quantile_weights(taus, kind)
    integrand = 2.0 * ((y < qhat).astype(float) - taus) * (qhat - y) * nu
    return float(np.trapezoid(integrand, taus))


def pit(y: float, draws: np.ndarray) -> float:
    """Fraction of predictive draws at or above the realized value."""
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise ValueError("need at least one predictive draw")
    return float(np.mean(y <= draws))


@dataclass
class ReconstructedPredictive:
    """Draws reconstructed from grid quantiles plus the fitted tail parameters."""

    draws: np.ndarray
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    counts: np.ndarray  # pieces: left tail, K-1 interior intervals, right tail


def _largest_remainder_counts(weights: np.ndarray, R: int) -> np.ndarray:
    """Integer piece sizes summing to R, proportional to nonnegative weights."""
    raw = weights * R
    counts = np.floor(raw).astype(int)
    short = R - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - np.floor(raw)), kind="stable")
        counts[order[:short]] += 1
    return counts


def reconstruct_predictive(
    qhat: np.ndarray,
    grid: QuantileGrid,
    R: int = 10000,
    rng: np.random.Generator | None = None,
) -> ReconstructedPredictive:
    """Rebuild a predictive sample from quantile forecasts on a grid.

    Steps: sort the forecasts ascending (monotone rearrangement); fill each
    interior interval ``(qhat_{k-1}, qhat_k]`` with its probability share of
    uniform draws; fit a Gaussian to each tail through the two outermost
    quantiles and draw the tail mass from it.

    Tail draws are confined to their tail regions (left at or below the
    lowest quantile, right above the highest), so the empirical quantiles of
    the sample reproduce the sorted inputs.
    """
    if rng is None:
        rng = np.random.default_rng()
    qhat = np.sort(np.asarray(qhat, dtype=float))
    taus = grid.taus
    K = taus.size
    if qhat.shape != taus.shape:
        raise ValueError(f"forecasts must match the grid: {qhat.shape} vs {taus.shape}")
    if K < 4:
        raise ValueError("need at least 4 grid levels to fit both tails")

    z = norm.ppf(taus)
    if qhat[1] == qhat[0]:
        raise ValueError("two lowest quantiles coincide after rearrangement; left tail scale is zero")
    if qhat[-1] == qhat[-2]:
        raise ValueError("two highest quantiles coincide after rearrangement; right tail scale is zero")
    sigma1 = (qhat[1] - qhat[0]) / (z[1] - z[0])
    mu1 = qhat[0] - sigma1 * z[0]
    sigma2 = (qhat[-1] - qhat[-2]) / (z[-1] - z[-2])
    mu2 = qhat[-1] - sigma2 * z[-1]

    weights = np.concatenate([[taus[0]], np.diff(taus), [1.0 - taus[-1]]])
    counts = _largest_remainder_counts(weights, int(R))

    # Inverse-CDF draws restricted to quantile levels (0, tau_1] and
    # [tau_K, 1) of the fitted Gaussians.
    u = rng.uniform(size=counts[0])
    pieces = [mu1 + sigma1 * norm.ppf(taus[0] * (1.0 - u))]
    for k in range(1, K):
        lo, hi = qhat[k - 1], qhat[k]
        u = rng.uniform(size=counts[k])
        pieces.append(hi - u * (hi - lo))  # lands in (lo, hi]
    u = rng.uniform(size=counts[-1])
    pieces.append(mu2 + sigma2 * norm.ppf(taus[-1] + u * (1.0 - taus[-1])))
    draws = np.concatenate(pieces)
    return ReconstructedPredictive(
        draws=draws, mu1=float(mu1), sigma1=float(sigma1),
        mu2=float(mu2), sigma2=float(sigma2), counts=counts,
    )


@dataclass
class ScorePanel:
    """Per-(series, time) scores for one model under one weighting scheme."""

    model: str
    scheme: str
    crps: dict = field(default_factory=dict)  # (series, time) -> score

    def add(self, series: str, t: int, crps_value: float) -> None:
        if crps_value < 0.0:
            raise ValueError("scores must be nonnegative")
        self.crps[(series, int(t))] = float(crps_value)

    def series_ids(self) -> list[str]:
        return sorted({k[0] for k in self.crps})

    def times(self, series: str) -> np.ndarray:
        return np.array(sorted(t for s, t in self.crps if s == series), dtype=int)

    def _ratio(self, ref: "ScorePanel", series_ids, t_star: int, t_start: int | None) -> float:
        """Summed scores over the inclusive window ``[t_start, t_star]``, self over reference.

        Every time in the window must be scored exactly once per series.  Each
        series' window is summed on its own and the sums are added in order.
        With ``t_start`` None each series' window starts at its first time.
        """
        num = 0.0
        den = 0.0
        for s in series_ids:
            times = self.times(s)
            if not np.array_equal(times, ref.times(s)):
                raise ValueError(f"panels disagree on times for series {s}")
            start = int(times.min()) if t_start is None else int(t_start)
            window = times[(times >= start) & (times <= t_star)]
            if not np.array_equal(window, np.arange(start, t_star + 1)):
                raise ValueError(f"scores do not cover the window [{start}, {t_star}]")
            num += float(np.sum(np.array([self.crps[(s, t)] for t in window])))
            den += float(np.sum(np.array([ref.crps[(s, t)] for t in window])))
        if den <= 0.0:
            raise ZeroDivisionError("reference score sum is zero over the window")
        return num / den

    def rcs_vs(self, ref: "ScorePanel", series: str, t_star: int, t_start: int | None = None) -> float:
        """Per-series cumulative ratio against a reference panel."""
        return self._ratio(ref, [series], t_star, t_start)

    def rtcs_vs(self, ref: "ScorePanel", t_star: int, t_start: int | None = None) -> float:
        """Cumulative ratio summed over every series in the panel."""
        sids = self.series_ids()
        if sids != ref.series_ids():
            raise ValueError("panels cover different series")
        return self._ratio(ref, sids, t_star, t_start)
