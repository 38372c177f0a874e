"""Channel model: density values, normalization, sampling statistics."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from norsim.channel import (
    LevelGrid,
    NoiseModel,
    RngStream,
    derive_5level_margin,
    five_level_grid,
    four_level_grid,
    read_density,
    _read_offsets,
    sample_read,
    sample_read_conditioned,
)


def quad_density(grid, noise, level, lo, hi):
    """Independent quadrature of the read density (piecewise split)."""
    center = grid.level_voltage(level)
    w = noise.width
    pieces = sorted({lo, center - w / 2.0, center + w / 2.0, hi})
    pieces = [p for p in pieces if lo <= p <= hi]
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val, _ = quad(lambda v: read_density(v, level, grid, noise), a, b, limit=200)
        total += val
    return total


class TestDerive5LevelMargin:
    def test_zero_width(self):
        assert derive_5level_margin(1.0, 0.0) == pytest.approx(0.75)

    def test_finite_width(self):
        assert derive_5level_margin(1.0, 0.2) == pytest.approx(0.7)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ValueError):
            derive_5level_margin(1.0, 3.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            derive_5level_margin(-1.0, 0.0)
        with pytest.raises(ValueError):
            derive_5level_margin(1.0, -0.1)


class TestGrids:
    def test_levels_increasing_constant_pitch(self):
        grid = LevelGrid(n_levels=5, margin=0.7, width=0.2, l0=-1.0)
        diffs = np.diff(grid.levels)
        assert np.allclose(diffs, grid.pitch)
        assert grid.pitch == pytest.approx(0.9)

    def test_five_level_same_window_as_four_level(self):
        g4 = four_level_grid(delta0=1.0, width=0.2)
        g5 = five_level_grid(delta0=1.0, width=0.2)
        assert 4 * g5.pitch == pytest.approx(3 * g4.pitch)
        assert g5.levels[-1] == pytest.approx(g4.levels[-1])

    def test_boundaries_mid_gap(self):
        grid = LevelGrid(n_levels=4, margin=0.6, width=0.4, l0=0.5)
        expected = grid.levels[:-1] + grid.width / 2.0 + grid.margin / 2.0
        assert np.allclose(grid.boundaries(), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            LevelGrid(n_levels=1, margin=1.0)
        with pytest.raises(ValueError):
            LevelGrid(n_levels=4, margin=0.0)
        with pytest.raises(ValueError):
            NoiseModel(a=0.0, tail=0.5)
        with pytest.raises(ValueError):
            NoiseModel(a=1.0, tail=1.5)
        with pytest.raises(ValueError):
            NoiseModel(a=1.0, tail=0.5, width=-1.0)

    @pytest.mark.parametrize("bad", [2.5, np.float64(4.5), True, np.True_, math.nan, math.inf])
    def test_level_count_must_be_whole(self, bad):
        # 2.5 would give arange(2.5), three levels, against n_levels 2.5
        with pytest.raises(ValueError, match="^n_levels must be a whole number"):
            LevelGrid(n_levels=bad, margin=1.0)

    def test_integral_float_level_count_is_an_int(self):
        grid = LevelGrid(n_levels=5.0, margin=1.0)
        assert type(grid.n_levels) is int and grid == LevelGrid(n_levels=5, margin=1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="^a must be finite"):
            NoiseModel(a=bad, tail=0.5)
        with pytest.raises(ValueError, match="^width must be finite"):
            NoiseModel(a=1.0, tail=0.5, width=bad)
        with pytest.raises(ValueError, match="^margin must be finite"):
            LevelGrid(n_levels=5, margin=bad)
        with pytest.raises(ValueError, match="^width must be finite"):
            LevelGrid(n_levels=5, margin=1.0, width=bad)
        with pytest.raises(ValueError, match="^l0 must be finite"):
            LevelGrid(n_levels=5, margin=1.0, l0=bad)
        with pytest.raises(ValueError, match="^delta0 must be finite"):
            derive_5level_margin(bad, 0.0)

    def test_level_voltage_range_check(self):
        grid = LevelGrid(n_levels=4, margin=1.0)
        with pytest.raises(ValueError):
            grid.level_voltage(4)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.5, math.inf, [1, 2.5], [0, math.nan]])
    def test_level_voltage_rejects_nan_and_fractions(self, bad):
        grid = LevelGrid(n_levels=4, margin=1.0)
        with pytest.raises(ValueError, match="whole number in 0..3"):
            grid.level_voltage(bad)

    def test_level_voltage_takes_integral_floats(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        assert grid.level_voltage(2.0) == grid.level_voltage(2) == 3.0
        assert np.array_equal(grid.level_voltage(np.array([0.0, 3.0])), [0.0, 4.5])

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    def test_samplers_and_density_reject_non_levels(self, bad):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        noise = NoiseModel(a=1.0, tail=0.1, width=0.5)
        with pytest.raises(ValueError, match="whole number"):
            sample_read(bad, grid, noise, RngStream(0))
        with pytest.raises(ValueError, match="whole number"):
            sample_read(np.array([1.0, bad]), grid, noise, RngStream(0))
        with pytest.raises(ValueError, match="whole number"):
            sample_read_conditioned(bad, grid, noise, True, RngStream(0))
        with pytest.raises(ValueError, match="whole number"):
            read_density(1.0, bad, grid, noise)


class TestReadDensity:
    def test_interior_value(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=1.0)
        noise = NoiseModel(a=2.0, tail=0.1, width=1.0)
        assert read_density(grid.levels[1], 1, grid, noise) == pytest.approx(0.9)

    def test_one_efold_halves_tail(self):
        a = 3.0
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        noise = NoiseModel(a=a, tail=0.2, width=0.5)
        v = grid.levels[2] + 0.25 + np.log(2) / (2 * a)
        assert read_density(v, 2, grid, noise) == pytest.approx(a * 0.2 / 2)

    @pytest.mark.parametrize(
        "a,tail,width", [(1.0, 0.3, 1.0), (4.0, 1.0, 0.0), (0.5, 0.0, 2.0), (2.5, 0.05, 0.4)]
    )
    def test_normalizes_to_one(self, a, tail, width):
        grid = LevelGrid(n_levels=4, margin=1.0, width=width)
        noise = NoiseModel(a=a, tail=tail, width=width)
        span = width / 2.0 + 40.0 / a
        center = grid.level_voltage(2)
        total = quad_density(grid, noise, 2, center - span, center + span)
        if width == 0.0:
            # the interior point mass carries weight 1 - tail
            total += 1.0 - tail
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_tail_mass_is_half_tail_per_side(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.8)
        noise = NoiseModel(a=1.7, tail=0.25, width=0.8)
        center = grid.level_voltage(0)
        above = quad_density(grid, noise, 0, center + 0.4, center + 0.4 + 40 / 1.7)
        assert above == pytest.approx(noise.tail / 2.0, rel=1e-9)

    def test_invalid_level_rejected(self):
        grid = LevelGrid(n_levels=4, margin=1.0)
        noise = NoiseModel(a=1.0, tail=0.1)
        with pytest.raises(ValueError):
            read_density(0.0, 7, grid, noise)

    def test_grid_noise_width_mismatch_rejected(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        noise = NoiseModel(a=1.0, tail=0.1, width=0.2)
        with pytest.raises(ValueError):
            read_density(0.0, 0, grid, noise)

    def test_scale_invariance(self):
        # halving all voltages while doubling the slope doubles the density
        g1 = LevelGrid(n_levels=4, margin=1.0, width=0.6)
        n1 = NoiseModel(a=2.0, tail=0.3, width=0.6)
        g2 = LevelGrid(n_levels=4, margin=0.5, width=0.3)
        n2 = NoiseModel(a=4.0, tail=0.3, width=0.3)
        for dv in (0.1, 0.35, 0.9, 2.2):
            d1 = read_density(g1.levels[1] + dv, 1, g1, n1)
            d2 = read_density(g2.levels[1] + dv / 2, 1, g2, n2)
            assert d2 == pytest.approx(2.0 * d1)


class TestSampleRead:
    def test_no_tail_stays_in_window(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        noise = NoiseModel(a=1.0, tail=0.0, width=0.5)
        v = sample_read(1, grid, noise, RngStream(1), size=100_000)
        assert np.all(np.abs(v - grid.levels[1]) <= 0.25)

    def test_pure_exponential_mean(self):
        a = 3.0
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.0)
        noise = NoiseModel(a=a, tail=1.0, width=0.0)
        v = sample_read(2, grid, noise, RngStream(2), size=1_000_000)
        dev = np.abs(v - grid.levels[2])
        assert np.mean(dev) == pytest.approx(1.0 / (2 * a), rel=0.01)

    def test_empirical_tail_fraction(self):
        t = 0.05
        n = 1_000_000
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.8)
        noise = NoiseModel(a=2.0, tail=t, width=0.8)
        v = sample_read(1, grid, noise, RngStream(3), size=n)
        frac = np.mean(np.abs(v - grid.levels[1]) > 0.4)
        assert abs(frac - t) <= 3.0 * np.sqrt(t / n)

    def test_tail_memorylessness(self):
        # mean excess beyond any threshold past the window edge is 1/(2a)
        a = 2.0
        grid = LevelGrid(n_levels=4, margin=2.0, width=0.5)
        noise = NoiseModel(a=a, tail=0.5, width=0.5)
        v = sample_read(1, grid, noise, RngStream(4), size=1_000_000)
        thresh = grid.levels[1] + 0.25 + 0.3
        excess = v[v > thresh] - thresh
        sigma = (1.0 / (2 * a)) / np.sqrt(len(excess))
        assert abs(np.mean(excess) - 1.0 / (2 * a)) <= 3.0 * sigma

    def test_deterministic_and_platform_pinned(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        noise = NoiseModel(a=1.0, tail=0.2, width=0.5)
        v1 = sample_read(0, grid, noise, RngStream(42, 0), size=5)
        v2 = sample_read(0, grid, noise, RngStream(42, 0), size=5)
        assert np.array_equal(v1, v2)
        v3 = sample_read(0, grid, noise, RngStream(42, 1), size=5)
        assert not np.array_equal(v1, v3)
        # counter-based stream pinned across platforms and versions
        assert v1 == pytest.approx(
            [-0.06225432, -0.09354317, 0.36610009, 0.09464158, 0.22385053], abs=1e-8
        )

    def test_vector_levels(self):
        grid = LevelGrid(n_levels=5, margin=1.0, width=0.0)
        noise = NoiseModel(a=8.0, tail=0.0, width=0.0)
        levels = np.array([0, 1, 2, 3, 4])
        v = sample_read(levels, grid, noise, RngStream(5))
        assert np.allclose(v, grid.levels)


class TestSampleReadConditioned:
    def test_forced_tail_always_outside_window(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.6)
        noise = NoiseModel(a=1.5, tail=0.01, width=0.6)
        v, side = sample_read_conditioned(2, grid, noise, True, RngStream(6), size=50_000)
        assert np.all(np.abs(v - grid.levels[2]) > 0.3)
        assert set(np.unique(side)) == {-1, 1}

    def test_forced_tail_valid_even_for_zero_tail_fraction(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.5)
        noise = NoiseModel(a=1.0, tail=0.0, width=0.5)
        v, side = sample_read_conditioned(0, grid, noise, True, RngStream(7))
        assert abs(v - grid.levels[0]) > 0.25 and side in (-1, 1)

    def test_interior_with_zero_width_is_level_voltage(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=0.0)
        noise = NoiseModel(a=1.0, tail=0.5, width=0.0)
        v, side = sample_read_conditioned(2, grid, noise, False, RngStream(8), size=1000)
        assert np.all(v == grid.levels[2]) and np.all(side == 0)

    def test_interior_symmetric_about_level(self):
        grid = LevelGrid(n_levels=4, margin=1.0, width=1.0)
        noise = NoiseModel(a=1.0, tail=0.3, width=1.0)
        n = 200_000
        v, side = sample_read_conditioned(1, grid, noise, False, RngStream(9), size=n)
        assert np.all(side == 0)
        # uniform on the window: sd = width / sqrt(12)
        sigma = (1.0 / np.sqrt(12)) / np.sqrt(n)
        assert abs(np.mean(v) - grid.levels[1]) <= 3.0 * sigma

    def test_mixture_reproduces_read_density(self):
        """Binomial mix of the two conditional laws vs quadrature CDF (KS)."""
        a, t, w = 2.0, 0.15, 0.8
        grid = LevelGrid(n_levels=4, margin=1.0, width=w)
        noise = NoiseModel(a=a, tail=t, width=w)
        rng = RngStream(10)
        n = 1_000_000
        n_tail = int(rng.gen.binomial(n, t))
        v_tail, _ = sample_read_conditioned(1, grid, noise, True, rng, size=n_tail)
        v_int, _ = sample_read_conditioned(1, grid, noise, False, rng, size=n - n_tail)
        sample = np.sort(np.concatenate([v_tail, v_int]))

        center = grid.level_voltage(1)
        span = w / 2.0 + 12.0 / a
        xs = np.linspace(center - span, center + span, 80_001)
        pdf = read_density(xs, 1, grid, noise)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(xs))])
        cdf /= cdf[-1]
        f = np.interp(sample, xs, cdf)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert ks < 0.002


class TestRngStream:
    def test_reproducible_pairs(self):
        a = RngStream(123, 5).gen.random(8)
        b = RngStream(123, 5).gen.random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).gen.random(8)
        b = RngStream(123, 1).gen.random(8)
        c = RngStream(124, 0).gen.random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestConditionedSamplerLaw:
    """Fixed-seed draws of sample_read_conditioned against the read law.

    Tolerances were fixed before the first run: 5 sigma on the side
    fraction and KS p-values above 1e-3."""

    A, W, N = 1.5, 0.6, 200_000

    def setup_method(self):
        self.grid = LevelGrid(n_levels=4, margin=1.0, width=self.W)
        self.noise = NoiseModel(a=self.A, tail=0.01, width=self.W)

    def test_tail_sides_and_excess(self):
        v, side = sample_read_conditioned(
            2, self.grid, self.noise, True, RngStream(31), size=self.N
        )
        d = v - self.grid.levels[2]
        assert np.array_equal(side, np.where(d < 0, -1, 1))
        assert abs((side > 0).mean() - 0.5) <= 5 * 0.5 / math.sqrt(self.N)
        excess = np.abs(d) - self.W / 2
        law = stats.expon(scale=1 / (2 * self.A)).cdf
        for s in (-1, 1):
            assert stats.kstest(excess[side == s], law).pvalue > 1e-3

    def test_interior_is_uniform_on_the_window(self):
        v, side = sample_read_conditioned(
            1, self.grid, self.noise, False, RngStream(32), size=self.N
        )
        d = v - self.grid.levels[1]
        assert np.all(side == 0) and np.all(np.abs(d) <= self.W / 2)
        law = stats.uniform(loc=-self.W / 2, scale=self.W).cdf
        assert stats.kstest(d, law).pvalue > 1e-3

    def test_excess_bound_at_extreme_uniforms(self):
        # 0 and 1/2 give zero excess below and above the window; the
        # largest uniforms below 1/2 and 1 give the largest excess
        a = 2.0
        noise = NoiseModel(a=a, tail=1.0, width=0.0)
        u = [0.0, 0.5, 0.5 - 2**-53, 1 - 2**-53]
        off = _read_offsets(np.ones(4, bool), np.array(u), noise)
        assert off[0] == 0.0 and np.signbit(off[0])
        assert off[1] == 0.0 and not np.signbit(off[1])
        bound = 52 * math.log(2) / (2 * a)
        assert off[2:] == pytest.approx([-bound, bound], rel=1e-12)
