"""Tests for scoring, calibration, and predictive-density reconstruction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm

from oracles import check_loss, score_ratio
from quantsynth.config import DEFAULT_TAUS, WEIGHT_SCHEMES
from quantsynth.evaluation import (
    QuantileGrid,
    ScorePanel,
    crps_quantile_weighted,
    ndtri,
    pit,
    quantile_weights,
    reconstruct_predictive,
)


class TestQuantileGrid:
    def test_default_grid(self):
        g = QuantileGrid(DEFAULT_TAUS)
        assert g.taus.size == 19
        np.testing.assert_allclose(g.taus, np.linspace(0.05, 0.95, 19))

    def test_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            QuantileGrid(np.array([[0.2, 0.8]]))
        with pytest.raises(ValueError, match="inside"):
            QuantileGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="increasing"):
            QuantileGrid(np.array([0.5, 0.5]))


class TestQuantileWeights:
    def test_kinds(self):
        taus = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(quantile_weights(taus, "none"), 1.0)
        np.testing.assert_allclose(quantile_weights(taus, "right"), taus**2)
        np.testing.assert_allclose(quantile_weights(taus, "left"), (1 - taus) ** 2)
        with pytest.raises(ValueError, match="unknown weight kind"):
            quantile_weights(taus, "middle")


class TestCRPS:
    def test_two_node_hand_trapezoid(self):
        # integrand at tau=0.25 is 2*(1-0.25)*(-1-0)*... = 2*(0-0.25)*(-1) = 0.5
        # and at tau=0.75 is 2*(1-0.75)*(1) = 0.5; trapezoid over width 0.5
        # gives 0.25.
        grid = QuantileGrid(np.array([0.25, 0.75]))
        val = crps_quantile_weighted(0.0, np.array([-1.0, 1.0]), grid)
        assert abs(val - 0.25) < 1e-12

    def test_perfect_forecast_scores_zero(self):
        grid = QuantileGrid(DEFAULT_TAUS)
        flat = np.full(grid.taus.size, 0.3)
        for kind in ("none", "right", "left"):
            assert crps_quantile_weighted(0.3, flat, grid, kind) == 0.0

    def test_positive_homogeneity(self):
        grid = QuantileGrid(DEFAULT_TAUS)
        q = np.linspace(-2.0, 2.0, grid.taus.size)
        for kind in ("none", "right", "left"):
            c1 = crps_quantile_weighted(0.4, q, grid, kind)
            c2 = crps_quantile_weighted(3.0 * 0.4, 3.0 * q, grid, kind)
            assert abs(c2 - 3.0 * c1) < 1e-12

    def test_nonnegative_on_random_monotone_forecasts(self):
        rng = np.random.default_rng(13)
        grid = QuantileGrid(DEFAULT_TAUS)
        kinds = ("none", "right", "left")
        for i in range(10_000):
            q = np.sort(rng.normal(size=grid.taus.size))
            y = rng.normal()
            assert crps_quantile_weighted(y, q, grid, kinds[i % 3]) >= 0.0

    @settings(derandomize=True, deadline=None)
    @given(
        taus=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    def test_nonnegative_for_any_sorted_curve(self, taus, data):
        grid = QuantileGrid(np.sort(taus))
        values = st.floats(-1e12, 1e12)
        q = np.sort(data.draw(st.lists(values, min_size=grid.taus.size, max_size=grid.taus.size)))
        y = data.draw(values)
        for kind in WEIGHT_SCHEMES:
            assert crps_quantile_weighted(y, q, grid, kind) >= 0.0

    def test_matches_check_loss_trapezoid(self):
        # Independent composition: the integrand is 2 nu(tau) rho_tau(y - q).
        rng = np.random.default_rng(7)
        grid = QuantileGrid(DEFAULT_TAUS)
        taus = grid.taus
        for kind in ("none", "right", "left"):
            nu = quantile_weights(taus, kind)
            for _ in range(50):
                q = np.sort(rng.normal(size=grid.taus.size))
                y = rng.normal()
                integrand = np.array(
                    [2.0 * nu[k] * check_loss(y - q[k], taus[k]) for k in range(grid.taus.size)]
                )
                expect = np.trapezoid(integrand, taus)
                got = crps_quantile_weighted(y, q, grid, kind)
                assert abs(got - expect) < 1e-12

    def test_rejects_shape_mismatch(self):
        grid = QuantileGrid(DEFAULT_TAUS)
        with pytest.raises(ValueError, match="match the grid"):
            crps_quantile_weighted(0.0, np.zeros(5), grid)


def _score_panels(values, ref_values, times=None):
    """A model and a reference :class:`ScorePanel` from (series x time) score arrays."""
    values, ref_values = np.atleast_2d(values), np.atleast_2d(ref_values)
    times = np.arange(values.shape[1]) if times is None else times
    series = [f"s{i}" for i in range(values.shape[0])]
    return (ScorePanel("m", "none", series, times, values),
            ScorePanel("ref", "none", series, times, ref_values))


def _cells(panel: ScorePanel) -> dict:
    return {(s, t): v for s, row in zip(panel.series, panel.crps.tolist())
            for t, v in zip(panel.times.tolist(), row)}


class TestScoreRatios:
    def test_identities(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.5, 2.0, size=10)
        assert np.all(ScorePanel.rtcs_vs(*_score_panels(x, x)) == 1.0)
        np.testing.assert_allclose(ScorePanel.rtcs_vs(*_score_panels(2.0 * x, x)), 2.0, rtol=1e-12)
        # single-point window
        assert abs(ScorePanel.rcs_vs(*_score_panels(x, x))[0, 0] - 1.0) < 1e-12

    def test_explicit_times_axis(self):
        # Windows run from the first scored time, whatever its index.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        panel, ref = _score_panels(np.array([2.0, 1.0, 1.0, 1.0]) * x, x, np.array([7, 8, 9, 10]))
        np.testing.assert_allclose(panel.rtcs_vs(ref), [2.0, 4 / 3, 7 / 6, 11 / 10], rtol=1e-12)

    def test_multiseries_total_ratio(self):
        rng = np.random.default_rng(13)
        xm = rng.uniform(0.5, 2.0, size=(3, 10))
        np.testing.assert_allclose(ScorePanel.rtcs_vs(*_score_panels(2.0 * xm, xm)), 2.0, rtol=1e-12)
        # the ratio is of the totals over all series in the window
        worse = xm.copy()
        worse[0] *= 3.0
        expect = (3.0 * xm[0, :6].sum() + xm[1:, :6].sum()) / xm[:, :6].sum()
        assert abs(ScorePanel.rtcs_vs(*_score_panels(worse, xm))[5] - expect) < 1e-12
        rcs = ScorePanel.rcs_vs(*_score_panels(worse, xm))
        assert rcs.shape == (3, 10)
        np.testing.assert_allclose(rcs[0], 3.0, rtol=1e-12)
        np.testing.assert_allclose(rcs[1:], 1.0, rtol=1e-12)

    def test_errors(self):
        x = np.ones(5)
        with pytest.raises(ZeroDivisionError):
            ScorePanel.rtcs_vs(*_score_panels(x, np.zeros(5)))
        with pytest.raises(ZeroDivisionError):
            ScorePanel.rcs_vs(*_score_panels(x, np.zeros(5)))


class TestRatiosMatchOracle:
    """Both curves equal the per-window loop of ``oracles.score_ratio`` bit for bit.

    From 8 terms on NumPy sums a contiguous slice pairwise, so a running sum
    (``np.cumsum``) rounds differently; the T >= 8 cases catch one.  The
    N = 20, T = 1 case catches a series total taken with ``sum(axis=0)``,
    which also goes pairwise there.
    """

    @pytest.mark.parametrize("T", [1, 7, 8, 30])
    @pytest.mark.parametrize("N", [1, 3, 20])
    def test_curves_bit_for_bit(self, N, T):
        rng = np.random.default_rng(100 * N + T)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(2, N, T))
        values, ref_values = rng.exponential(size=(2, N, T)) * scales
        if T >= 8:
            # A running sum rounds each small term away; the pairwise sum keeps them.
            values[0, :8] = [1.0] + [2.0**-53] * 7
        panel, ref = _score_panels(values, ref_values, np.arange(3, 3 + T))
        cells, ref_cells = _cells(panel), _cells(ref)
        rcs, rtcs = panel.rcs_vs(ref), panel.rtcs_vs(ref)
        assert rcs.shape == (N, T) and rtcs.shape == (T,)
        times = panel.times.tolist()
        assert rcs.tolist() == [
            [score_ratio(cells, ref_cells, [s], t) for t in times] for s in panel.series
        ]
        assert rtcs.tolist() == [score_ratio(cells, ref_cells, panel.series, t) for t in times]

    def test_zero_reference_raises(self):
        values = np.ones((3, 4))
        ref_values = np.ones((3, 4))
        ref_values[:, 0] = 0.0
        panel, ref = _score_panels(values, ref_values)
        with pytest.raises(ZeroDivisionError):
            score_ratio(_cells(panel), _cells(ref), panel.series, 0)
        with pytest.raises(ZeroDivisionError):
            panel.rtcs_vs(ref)
        with pytest.raises(ZeroDivisionError):
            panel.rcs_vs(ref)


class TestPIT:
    def test_counting_definition(self):
        d = np.array([1.0, 2.0, 3.0])
        assert pit(0.5, d) == 1.0
        assert pit(4.0, d) == 0.0
        dsym = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert pit(0.0, dsym) == 3 / 5

    def test_matches_direct_fraction(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(size=500)
        for y in (-1.3, 0.0, 0.8):
            assert pit(y, draws) == np.mean(draws >= y)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            pit(0.0, np.array([]))


class TestNdtri:
    def test_matches_scipy_bit_for_bit(self):
        """The package's ndtri equals ``scipy.special.ndtri`` on 1.2M levels over every branch."""
        rng = np.random.default_rng(23)
        n = 200_000
        e2, e32 = np.exp(-2.0), np.exp(-32.0)
        ulps = np.arange(-100, 101)
        boundaries = [b + ulps * np.spacing(b) for b in (e2, 1.0 - e2, e32, 1.0 - e32)]
        u = rng.uniform(size=n)
        levels = np.concatenate([
            rng.uniform(e2, 1.0 - e2, n),  # central
            np.exp(-rng.uniform(2.0, 32.0, n)),  # tail, exp(-32) .. exp(-2)
            np.maximum(np.exp(-rng.uniform(32.0, 745.0, n)), 5e-324),  # far tail, to the least subnormal
            np.minimum(1.0 - np.exp(-rng.uniform(2.0, 37.0, n)), np.nextafter(1.0, 0.0)),  # upper flip
            1.0 - np.arange(1.0, 2_001.0) * 2.0**-53,  # the top 2000 levels below 1
            *boundaries,
            np.array([5e-324, np.nextafter(5e-324, 1.0), np.nextafter(1.0, 0.0), 0.5]),
            np.asarray(DEFAULT_TAUS), np.linspace(0.01, 0.99, 99), np.array([0.1, 0.35, 0.65, 0.9, 0.95, 0.99]),
            0.05 * (1.0 - u), 0.95 + u * (1.0 - 0.95),  # reconstruction's tail levels
        ])
        assert levels.size >= 1_000_000
        assert np.all((levels > 0.0) & (levels < 1.0))
        given = levels.copy()
        ours, theirs = ndtri(levels), special.ndtri(levels)
        assert np.array_equal(ours, theirs)
        assert np.array_equal(np.signbit(ours), np.signbit(theirs))
        assert np.array_equal(levels, given)  # reconstruction passes the grid's own array


class TestReconstruction:
    def test_normal_quantiles_recover_tail_parameters(self):
        # Feeding exact standard-normal quantiles must return mu=0, sigma=1
        # for both fitted tails, to solver precision.
        rng = np.random.default_rng(13)
        grid = QuantileGrid(DEFAULT_TAUS)
        qn = norm.ppf(grid.taus)
        rec = reconstruct_predictive(qn, grid, R=10_000, rng=rng)
        assert abs(rec.mu1) < 1e-10 and abs(rec.sigma1 - 1.0) < 1e-10
        assert abs(rec.mu2) < 1e-10 and abs(rec.sigma2 - 1.0) < 1e-10
        assert rec.draws.size == 10_000
        # default grid splits [0,1] into 20 pieces of probability 0.05 each
        assert np.all(rec.counts == 500)

    def test_empirical_quantiles_match_inputs(self):
        rng = np.random.default_rng(13)
        grid = QuantileGrid(DEFAULT_TAUS)
        qn = norm.ppf(grid.taus)
        rec = reconstruct_predictive(qn, grid, R=10_000, rng=rng)
        emp = np.quantile(rec.draws, grid.taus)
        se = np.sqrt(grid.taus * (1 - grid.taus) / 10_000) / norm.pdf(qn)
        assert np.all(np.abs(emp - qn) <= 3.0 * se)

    def test_tail_draws_stay_in_tail_regions(self):
        rng = np.random.default_rng(13)
        grid = QuantileGrid(DEFAULT_TAUS)
        qn = norm.ppf(grid.taus)
        rec = reconstruct_predictive(qn, grid, R=10_000, rng=rng)
        left = rec.draws[: rec.counts[0]]
        right = rec.draws[-rec.counts[-1]:]
        assert np.all(left <= qn[0]) and np.all(right >= qn[-1])

    def test_unsorted_input_is_rearranged(self):
        rng = np.random.default_rng(13)
        grid = QuantileGrid(np.array([0.2, 0.5, 0.7, 0.9]))
        rec = reconstruct_predictive(np.array([3.0, 1.0, 2.0, 4.0]), grid, R=1000, rng=rng)
        interior = rec.draws[rec.counts[0]: rec.counts[0] + rec.counts[1]]
        assert np.all((interior > 1.0) & (interior <= 2.0))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        levels=st.lists(st.integers(1, 99), min_size=4, max_size=12, unique=True),
        data=st.data(),
    )
    def test_any_curve_gives_nondecreasing_empirical_quantiles(self, levels, data):
        # Monotone rearrangement (Chernozhukov, Fernandez-Val & Galichon 2010):
        # a curve in any order, crossing quantiles included, is read as its
        # sorted self, and the sample's quantiles follow that sorted curve.
        grid = QuantileGrid(np.sort(levels) / 100.0)
        values = st.lists(st.floats(-1e6, 1e6), min_size=grid.taus.size, max_size=grid.taus.size)
        curve = np.array(data.draw(values))
        q = np.sort(curve)
        assume(q[1] != q[0] and q[-1] != q[-2])
        rec = reconstruct_predictive(curve, grid, R=400, rng=np.random.default_rng(0))
        sorted_rec = reconstruct_predictive(q, grid, R=400, rng=np.random.default_rng(0))
        assert np.array_equal(rec.draws, sorted_rec.draws)
        # Piece k lies between sorted values k-1 and k (the tails beyond the
        # ends), up to the rounding of the tail maps and interval fills.
        tol = 1e-12 * (np.abs(q).max() + abs(rec.mu1) + abs(rec.mu2) + rec.sigma1 + rec.sigma2)
        edges = np.concatenate([[-np.inf], q, [np.inf]])
        pieces = np.split(rec.draws, np.cumsum(rec.counts)[:-1])
        for k, piece in enumerate(pieces):
            assert np.all((piece >= edges[k] - tol) & (piece <= edges[k + 1] + tol)), k
        emp = np.quantile(rec.draws, grid.taus, method="inverted_cdf")
        assert np.all(np.diff(emp) >= 0.0)

    @pytest.mark.parametrize("R", [9_999, 10_000, 10_001, 777])
    def test_piece_counts_always_sum_to_R(self, R):
        rng = np.random.default_rng(13)
        grid = QuantileGrid(DEFAULT_TAUS)
        qn = norm.ppf(grid.taus)
        rec = reconstruct_predictive(qn, grid, R=R, rng=rng)
        assert rec.counts.sum() == R and rec.draws.size == R

    @pytest.mark.parametrize(
        "taus", [DEFAULT_TAUS, (0.1, 0.35, 0.65, 0.9), (0.1, 0.35, 0.65, 0.95), (0.2, 0.4, 0.6, 0.8)]
    )
    def test_ndtri_equals_norm_ppf_bit_for_bit(self, taus):
        # Reconstruction calls ndtri where it called norm.ppf, and its bytes are pinned:
        # check every argument it forms, the grid and both tails' uniform maps.
        taus = np.asarray(taus)
        u = np.random.default_rng(17).uniform(size=100_000)
        for q in (taus, taus[0] * (1.0 - u), taus[-1] + u * (1.0 - taus[-1]),
                  np.array([0.5, 1e-300])):
            z = ndtri(q)
            assert np.array_equal(z, norm.ppf(q))
            assert not np.any(np.signbit(z) & (z == 0.0))  # array_equal takes -0.0 for 0.0

    @pytest.mark.parametrize("tau_K", [0.9, 0.95, 0.99])
    def test_uniforms_next_to_one_give_finite_right_tail(self, tau_K):
        # A level taus[-1] + u * (1 - taus[-1]) rounds to 1.0 for these u, outside ndtri's domain.
        class NearOne:
            def uniform(self, size):
                return 1.0 - np.resize(np.arange(1.0, 6.0), size) * 2.0**-53

        grid = QuantileGrid(np.array([0.1, 0.35, 0.65, tau_K]))
        qhat = norm.ppf(grid.taus)
        rec = reconstruct_predictive(qhat, grid, R=100, rng=NearOne())
        assert np.all(np.isfinite(rec.draws))
        right = rec.draws[-rec.counts[-1]:]
        assert right.size > 0 and np.all(right >= qhat[-1])

    def test_errors(self):
        rng = np.random.default_rng(0)
        grid3 = QuantileGrid(np.array([0.2, 0.5, 0.8]))
        with pytest.raises(ValueError, match="at least 4"):
            reconstruct_predictive(np.array([1.0, 2.0, 3.0]), grid3, R=100, rng=rng)
        grid4 = QuantileGrid(np.array([0.2, 0.4, 0.6, 0.8]))
        with pytest.raises(ValueError, match="match the grid"):
            reconstruct_predictive(np.zeros(3), grid4, R=100, rng=rng)
        with pytest.raises(ValueError, match="left tail"):
            reconstruct_predictive(np.array([1.0, 1.0, 2.0, 3.0]), grid4, R=100, rng=rng)
        with pytest.raises(ValueError, match="right tail"):
            reconstruct_predictive(np.array([0.0, 1.0, 3.0, 3.0]), grid4, R=100, rng=rng)


class TestScorePanel:
    def test_ratio_methods(self):
        p1 = ScorePanel("m", "none", ["a", "b"], np.arange(5), np.full((2, 5), 2.0))
        p0 = ScorePanel("ref", "none", ["a", "b"], np.arange(5), np.ones((2, 5)))
        assert np.all(p1.rcs_vs(p0) == 2.0)
        assert np.all(p1.rtcs_vs(p0) == 2.0)
        assert p1.series == ["a", "b"]
        np.testing.assert_array_equal(p1.times, np.arange(5))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScorePanel("m", "none", ["a"], np.arange(2), np.array([[1.0, -1.0]]))

    def test_mismatch_errors(self):
        ones = np.ones((1, 2))
        p1 = ScorePanel("m", "none", ["a"], np.arange(2), ones)
        p0 = ScorePanel("ref", "none", ["a"], np.array([0, 2]), ones)
        with pytest.raises(ValueError, match="cover different grids"):
            p1.rcs_vs(p0)
        p0b = ScorePanel("ref", "none", ["b"], np.arange(2), ones)
        with pytest.raises(ValueError, match="cover different grids"):
            p1.rtcs_vs(p0b)
