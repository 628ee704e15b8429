"""Asymmetric Laplace mixture constants and the GIG draw shared by the Gibbs samplers.

The quantile samplers in this package all rest on the same machinery: the
asymmetric Laplace (AL) error law whose ``tau``-quantile is zero, its
normal-exponential mixture representation, and the generalised inverse
Gaussian (GIG) full conditional of the exponential mixing variable.  This
module provides the mixture constants, the GIG draw (a pure function of an
explicit ``numpy.random.Generator``) and the two rules all three samplers
share: ``_gig_params`` (the GIG ``(chi, psi)``) and ``_chain_lengths``.

Conventions
-----------
* ``AL(tau, sigma)`` has density ``tau*(1-tau)/sigma * exp(-rho_tau(x/sigma))``
  where ``rho_tau`` is the check loss; its ``tau``-quantile is exactly 0.
* The exponential mixing variable is parameterised by its MEAN: ``v ~ Exp(sigma)``
  means ``E[v] = sigma`` (density ``exp(-v/sigma)/sigma``).  This is the one
  place the rate/mean convention is fixed; everything else derives from it.
* ``GIG(lam, chi, psi)`` has density proportional to
  ``x**(lam-1) * exp(-(chi/x + psi*x)/2)`` on ``x > 0``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "MixtureConstants",
    "mixture_constants",
    "sample_gig_half",
    "CHI_FLOOR",
]

# Floor applied to squared residuals (the chi parameter of the GIG full
# conditional) and to sampled mixing variables before they appear in a
# denominator.
CHI_FLOOR = 1e-12


def _validate_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level tau must lie in (0, 1), got {tau}")
    return tau


class MixtureConstants(NamedTuple):
    """Constants of the normal-exponential mixture representation of the AL law.

    With ``v ~ Exp(sigma)`` (mean ``sigma``) and ``z ~ N(0, 1)``,
    ``kappa1*v + sqrt(sigma*kappa2*v)*z`` is distributed ``AL(tau, sigma)``.
    """

    kappa1: float
    kappa2: float


def mixture_constants(tau: float) -> MixtureConstants:
    """Return ``(kappa1, kappa2)`` for quantile level ``tau``."""
    tau = _validate_tau(tau)
    denom = tau * (1.0 - tau)
    return MixtureConstants((1.0 - 2.0 * tau) / denom, 2.0 / denom)


def _gig_params(resid, sigma, consts: MixtureConstants) -> tuple:
    """``(chi, psi)`` of the mixing variables' GIG(1/2) conditional; floors ``resid**2``."""
    k1, k2 = consts
    chi = np.maximum(resid * resid, CHI_FLOOR) / (sigma * k2)
    psi = 2.0 / sigma + k1 * k1 / (sigma * k2)
    return chi, psi


def _chain_lengths(mcmc) -> tuple[int, int]:
    """``(retained draws, burn-in sweeps)`` of ``mcmc``; refuse ``draws <= 0`` or ``burn < 0``."""
    n_keep, n_burn = int(mcmc[0]), int(mcmc[1])
    if n_keep <= 0:
        raise ValueError(f"mcmc draw count must be positive, got {n_keep}")
    if n_burn < 0:
        raise ValueError(f"mcmc burn-in must be nonnegative, got {n_burn}")
    return n_keep, n_burn


def sample_gig_half(chi, psi, rng: np.random.Generator):
    """Draw from ``GIG(1/2, chi, psi)``, elementwise over broadcast arrays.

    Uses the exact reciprocal inverse-Gaussian construction: if
    ``Y ~ InverseGaussian(mean=sqrt(psi/chi), shape=psi)`` then ``1/Y`` has the
    ``GIG(1/2, chi, psi)`` law.  ``chi = 0`` degenerates to the
    ``Gamma(1/2, rate=psi/2)`` limit.

    Parameters
    ----------
    chi : float or array
        Nonnegative "squared residual" parameter.
    psi : float or array
        Positive rate-like parameter.
    rng : numpy.random.Generator

    Returns
    -------
    float or ndarray
        Positive draws with the broadcast shape of ``chi`` and ``psi``.
    """
    chi = np.asarray(chi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if (chi.size and psi.size and chi.min() > 0.0 and psi.min() > 0.0
            and max(chi.max(), psi.max()) < np.inf):
        # Valid and no chi at zero, as the samplers' floored chi always is:
        # one Wald draw over the broadcast shape, in the masked path's C order.
        out = 1.0 / rng.wald(np.sqrt(psi / chi), psi)
    else:
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
    return float(out) if np.ndim(out) == 0 else out
