"""Forecast evaluation: weighted CRPS on a quantile grid, cumulative score
ratios, probability integral transforms, and predictive-density
reconstruction from a set of quantile forecasts.

The CRPS variant integrates the quantile check loss over a grid of levels
with an optional emphasis weight (uniform, right-tail ``tau^2`` or left-tail
``(1-tau)^2``), approximated by the trapezoidal rule on exactly the grid
span (no tail extrapolation).

:func:`ndtri`, the standard normal quantile that reconstruction calls, is
Cephes' rational approximation as SciPy 1.17.1 builds it for x86-64: the same
coefficients and operation order, and its logarithms from ``math.log``, the
C library's, as in Cephes (``np.log`` rounds differently on some CPUs).
It matches ``scipy.special.ndtri`` bit for bit on (0, 1), so the pinned
bytes stay, and it lives here because importing SciPy costs a run about
0.19 s and 17 MB, nearly all of a small ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

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


# Cephes ndtri: the central branch takes |p - 1/2| <= 1/2 - exp(-2); with
# x = sqrt(-2 log p), the tail branches split at x = 8, that is p = exp(-32).
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient.

    A leading 1.0 gives Cephes' ``p1evl`` bit for bit, since ``1.0 * x`` is exact.
    """
    ans = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _log(v: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of each value, as Cephes calls it; ``np.log`` may round otherwise."""
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each level in the open interval (0, 1).

    A level of 0 or 1 (or outside) raises ``ValueError`` from ``math.log``.
    """
    y = np.array(p, dtype=float)
    upper = y > 1.0 - _EXP_M2
    y[upper] = 1.0 - y[upper]
    central = y > _EXP_M2
    out = np.empty_like(y)
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1), z * _polevl(z, _P2) / _polevl(z, _Q2))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


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
    R: int,
    *,
    rng: np.random.Generator,
) -> ReconstructedPredictive:
    """Rebuild a predictive sample from quantile forecasts on a grid.

    Steps: sort the forecasts ascending (monotone rearrangement); fill each
    interior interval ``(qhat_{k-1}, qhat_k]`` with its probability share of
    uniform draws; fit a Gaussian to each tail through the two outermost
    quantiles and draw the tail mass from it.

    Tail draws are confined to their tail regions (left at or below the
    lowest quantile, right above the highest), so the empirical quantiles of
    the sample reproduce the sorted inputs.  ``rng``, the generator of
    every draw, is required.
    """
    qhat = np.sort(np.asarray(qhat, dtype=float))
    taus = grid.taus
    K = taus.size
    if qhat.shape != taus.shape:
        raise ValueError(f"forecasts must match the grid: {qhat.shape} vs {taus.shape}")
    if K < 4:
        raise ValueError("need at least 4 grid levels to fit both tails")

    z = ndtri(taus)
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
    pieces = [mu1 + sigma1 * ndtri(taus[0] * (1.0 - u))]
    for k in range(1, K):
        lo, hi = qhat[k - 1], qhat[k]
        u = rng.uniform(size=counts[k])
        pieces.append(hi - u * (hi - lo))  # lands in (lo, hi]
    u = rng.uniform(size=counts[-1])
    # A u within ~2^-50 of 1 rounds the level to 1.0, outside ndtri's domain.
    level = np.minimum(taus[-1] + u * (1.0 - taus[-1]), np.nextafter(1.0, 0.0))
    pieces.append(mu2 + sigma2 * ndtri(level))
    draws = np.concatenate(pieces)
    return ReconstructedPredictive(
        draws=draws, mu1=float(mu1), sigma1=float(sigma1),
        mu2=float(mu2), sigma2=float(sigma2), counts=counts,
    )


@dataclass
class ScorePanel:
    """One model's scores under one weighting scheme, ``series[i]`` at ``times[k]`` in ``crps[i, k]``."""

    model: str
    scheme: str
    series: list
    times: np.ndarray
    crps: np.ndarray  # (len(series), len(times))

    def __post_init__(self):
        if np.any(self.crps < 0.0):
            raise ValueError("scores must be nonnegative")

    def _window_sums(self, ref: "ScorePanel") -> tuple[np.ndarray, np.ndarray]:
        """(N, T) sums of self and ref over each window ``[times[0], times[k]]``.

        Each window is summed on its own; a running sum rounds differently.
        """
        if self.series != ref.series or not np.array_equal(self.times, ref.times):
            raise ValueError(f"panels {self.model} and {ref.model} cover different grids")
        return tuple(
            np.array([[row[: k + 1].sum() for k in range(row.size)] for row in p.crps])
            for p in (self, ref)
        )

    def rcs_vs(self, ref: "ScorePanel") -> np.ndarray:
        """(N, T) cumulative ratio of each series' scores against a reference panel."""
        return _ratio_curve(*self._window_sums(ref))

    def rtcs_vs(self, ref: "ScorePanel") -> np.ndarray:
        """(T,) cumulative ratio of the scores summed over series, added in series order.

        The rows are added one by one: ``sum(axis=0)`` of an (N, 1) array
        goes pairwise from N = 8 on.
        """
        num, den = self._window_sums(ref)
        return _ratio_curve(reduce(np.add, num), reduce(np.add, den))


def _ratio_curve(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    if np.any(den <= 0.0):
        raise ZeroDivisionError("reference score sum is zero over a window")
    return num / den
