"""Checks for the asymmetric Laplace law, its mixture form, and GIG sampling."""

import re

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ks_distance
import oracles
from oracles import al_cdf, al_log_density, al_ppf, al_rvs, al_rvs_mixture, check_loss
from quantsynth.distributions import CHI_FLOOR, mixture_constants, sample_gig_half


class TestCheckLoss:
    def test_zero_case(self):
        assert check_loss(0.0, 0.3) == 0.0

    def test_positive_branch(self):
        assert check_loss(2.0, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_negative_branch(self):
        assert check_loss(-2.0, 0.3) == pytest.approx(1.4, abs=1e-15)

    def test_reflection_identity(self):
        u = np.linspace(-5.0, 5.0, 101)
        for tau in (0.1, 0.37, 0.5, 0.9):
            np.testing.assert_allclose(
                check_loss(u, tau), check_loss(-u, 1.0 - tau), atol=1e-14
            )

    def test_nonnegative_and_zero_only_at_origin(self):
        u = np.linspace(-3.0, 3.0, 601)
        vals = check_loss(u, 0.25)
        assert np.all(vals >= 0.0)
        assert np.count_nonzero(vals == 0.0) == 1

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            check_loss(1.0, 1.0)


class TestALDensity:
    def test_zero_point(self):
        assert al_log_density(0.0, 0.5, 1.0) == pytest.approx(np.log(0.25), abs=1e-15)

    def test_unit_point(self):
        expected = np.log(0.25) - 0.5
        assert al_log_density(1.0, 0.5, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_mass_below_zero_is_tau(self):
        val, _ = quad(lambda x: np.exp(al_log_density(x, 0.2, 1.3)), -np.inf, 0.0)
        assert abs(val - 0.2) < 1e-8

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            al_log_density(0.0, 0.5, 0.0)

    def test_cdf_matches_density_integral(self):
        for tau, sigma in ((0.2, 1.3), (0.7, 0.6)):
            for x in (-1.5, -0.2, 0.4, 2.0):
                val, _ = quad(
                    lambda s: np.exp(al_log_density(s, tau, sigma)), -np.inf, x
                )
                assert al_cdf(x, tau, sigma) == pytest.approx(val, abs=1e-9)

    def test_ppf_inverts_cdf(self):
        p = np.linspace(0.01, 0.99, 25)
        q = al_ppf(p, 0.3, 2.0)
        np.testing.assert_allclose(al_cdf(q, 0.3, 2.0), p, atol=1e-12)

    def test_quantile_at_level_tau_is_zero(self):
        for tau in (0.05, 0.5, 0.95):
            assert al_ppf(tau, tau, 1.7) == pytest.approx(0.0, abs=1e-12)

    def test_inversion_sampler_matches_cdf(self):
        rng = np.random.default_rng(4)
        d = ks_distance(al_rvs(0.3, 1.5, 40000, rng), lambda x: al_cdf(x, 0.3, 1.5))
        assert d < 0.01


class TestMixtureConstants:
    def test_symmetric_case(self):
        k = mixture_constants(0.5)
        assert k.kappa1 == 0.0
        assert k.kappa2 == pytest.approx(8.0, abs=1e-14)

    def test_direct_substitution(self):
        k = mixture_constants(0.1)
        assert k.kappa1 == pytest.approx(0.8 / 0.09, rel=1e-14)
        assert k.kappa2 == pytest.approx(2.0 / 0.09, rel=1e-14)

    def test_tau_reflection_antisymmetry(self):
        lo, hi = mixture_constants(0.1), mixture_constants(0.9)
        assert hi.kappa1 == pytest.approx(-lo.kappa1, rel=1e-14)
        assert hi.kappa2 == pytest.approx(lo.kappa2, rel=1e-14)

    def test_mixture_sampler_matches_cdf(self):
        rng = np.random.default_rng(5)
        for tau, sigma in ((0.1, 0.5), (0.5, 1.0), (0.9, 2.0)):
            sample = al_rvs_mixture(tau, sigma, 30000, rng)
            d = ks_distance(sample, lambda x: al_cdf(x, tau, sigma))
            assert d < 0.012, f"tau={tau}, sigma={sigma}: KS={d:.4f}"


def gig_half_moment(chi: float, psi: float, power: int) -> float:
    """Moment of GIG(1/2, chi, psi) by adaptive quadrature of its density."""

    def dens(x):
        return x ** (-0.5) * np.exp(-0.5 * (chi / x + psi * x))

    Z, _ = quad(dens, 0.0, np.inf, limit=400)
    m, _ = quad(lambda x: x**power * dens(x), 0.0, np.inf, limit=400)
    return m / Z


class TestGIGHalf:
    def test_gamma_limit_mean(self):
        rng = np.random.default_rng(8)
        x = sample_gig_half(np.zeros(100000), np.full(100000, 2.0), rng)
        se = x.std() / np.sqrt(x.size)
        assert x.mean() == pytest.approx(0.5, abs=3 * se)

    def test_mean_matches_quadrature(self):
        rng = np.random.default_rng(9)
        x = sample_gig_half(np.ones(100000), np.ones(100000), rng)
        se = x.std() / np.sqrt(x.size)
        assert x.mean() == pytest.approx(gig_half_moment(1.0, 1.0, 1), abs=3 * se)

    def test_reciprocal_matches_swapped_parameters(self):
        # 1/X follows the order -1/2 law with chi and psi swapped
        rng = np.random.default_rng(10)
        chi, psi = 1.4, 0.8
        x = sample_gig_half(np.full(100000, chi), np.full(100000, psi), rng)
        recip = 1.0 / x

        def dens(t):
            return t ** (-1.5) * np.exp(-0.5 * (psi / t + chi * t))

        Z, _ = quad(dens, 0.0, np.inf, limit=400)
        m1, _ = quad(lambda t: t * dens(t), 0.0, np.inf, limit=400)
        m2, _ = quad(lambda t: t * t * dens(t), 0.0, np.inf, limit=400)
        se1 = recip.std() / np.sqrt(recip.size)
        se2 = (recip**2).std() / np.sqrt(recip.size)
        assert recip.mean() == pytest.approx(m1 / Z, abs=3 * se1)
        assert (recip**2).mean() == pytest.approx(m2 / Z, abs=3 * se2)

    def test_scalar_round_trip(self):
        rng = np.random.default_rng(11)
        val = sample_gig_half(1.0, 2.0, rng)
        assert isinstance(val, float) and val > 0.0

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gig_half(1.0, 0.0, rng)
        with pytest.raises(ValueError):
            sample_gig_half(-1.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gig_half(np.inf, 1.0, rng)


def _gig_cases(seed: int, count: int):
    """``(chi, psi)`` pairs: scalars, broadcast shapes, exact zeros in chi, floored and huge values."""
    rng = np.random.default_rng(seed)
    yield 1.0, 2.0
    yield 0.0, 2.0
    yield np.zeros(7), 3.0
    yield 0.5, rng.uniform(0.1, 5.0, size=6)
    yield np.full((4, 3), CHI_FLOOR), rng.uniform(0.1, 5.0, size=3)
    yield rng.exponential(size=(5, 1)), rng.uniform(0.1, 5.0, size=(1, 4))
    for _ in range(count):
        shape = tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(1, 3)))
        chi = rng.exponential(size=shape) * 10.0 ** rng.uniform(-14.0, 3.0, size=shape)
        chi[rng.uniform(size=shape) < rng.choice([0.0, 0.3, 1.0])] = 0.0
        psi = rng.uniform(0.01, 50.0, size=shape[-1:] if rng.uniform() < 0.3 else shape)
        yield chi, psi


class TestGIGMatchesOracle:
    """The GIG draw reproduces the pre-fast-path sampler: same values, same generator state."""

    def test_draws_and_generator_state(self):
        for i, (chi, psi) in enumerate(_gig_cases(31, 400)):
            got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
            got = sample_gig_half(chi, psi, got_rng)
            want = oracles.sample_gig_half(chi, psi, want_rng)
            assert type(got) is type(want), i
            assert np.array_equal(got, want), i
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, i

    @pytest.mark.parametrize("chi, psi", [
        (np.nan, 1.0), (1.0, np.nan), (np.array([1.0, np.inf]), 1.0), (1.0, np.array([1.0, np.inf])),
        (np.array([1.0, -1.0]), 1.0), (1.0, np.array([1.0, 0.0])), (np.array([0.0, 1.0]), -1.0),
    ])
    def test_rejects_what_the_oracle_rejects(self, chi, psi):
        with pytest.raises(ValueError) as want:
            oracles.sample_gig_half(chi, psi, np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            sample_gig_half(chi, psi, np.random.default_rng(0))
