"""Closed forms: baseline and protected rates, capacity, reference table."""

import math

import numpy as np
import pytest

from norsim.analytic import (
    ChannelPoint,
    baseline_approximation,
    baseline_rates,
    capacity,
    crosspolytope_word_bound,
    fit_loglog_slope,
    protected_rates,
    ratio_approximation,
    regime_approximations,
    scaling_sweep,
    table1,
)
from norsim.cli import format_sig1
from norsim.codec import N_CELLS


def point_from_exp_margin(em, tail, aw_like_margin=True):
    ad0 = -math.log(em)
    return ChannelPoint(a_delta0=ad0, a_w=ad0 if aw_like_margin else 0.0, tail=tail)


class TestBaseline:
    def test_table_row_one(self):
        p0, e0 = baseline_rates(point_from_exp_margin(1e-2, 1e-3))
        assert p0 == pytest.approx(1e-5)
        assert format_sig1(e0) == "5.E-06"
        assert e0 == pytest.approx(4.99997e-6, rel=1e-4)

    def test_zero_tail(self):
        p0, e0 = baseline_rates(ChannelPoint(a_delta0=5.0, tail=0.0))
        assert p0 == 0.0 and e0 == 0.0

    def test_table_last_row(self):
        _, e0 = baseline_rates(point_from_exp_margin(1e-4, 1e-9))
        assert format_sig1(e0) == "5.E-14"

    def test_exact_vs_approx_bound(self):
        # relative gap below 2 * N_CELLS * p0 whenever p0 < 1e-3
        for ad0 in (3.0, 5.0, 8.0):
            for t in (1e-1, 1e-3, 1e-6):
                pt = ChannelPoint(a_delta0=ad0, tail=t)
                p0, e0 = baseline_rates(pt)
                if p0 >= 1e-3:
                    continue
                approx = baseline_approximation(pt)
                assert abs(e0 - approx) / e0 <= 2 * N_CELLS * p0


class TestProtected:
    def test_table_row_one_value(self):
        budget = protected_rates(point_from_exp_margin(1e-2, 1e-3))
        assert format_sig1(budget.e2_total) == "7.E-08"
        assert budget.e2_total == pytest.approx(7.1019e-8, rel=1e-3)

    def test_zero_tail_all_zero(self):
        b = protected_rates(ChannelPoint(a_delta0=5.0, a_w=1.0, tail=0.0))
        assert b.e2_i == b.e2_ii == b.e2_iii == b.e2_total == 0.0

    def test_mid_table_value(self):
        budget = protected_rates(point_from_exp_margin(1e-3, 1e-5))
        assert format_sig1(budget.e2_total) == "5.E-12"

    def test_total_is_component_sum(self):
        b = protected_rates(ChannelPoint(a_delta0=6.0, a_w=2.0, tail=0.01))
        assert b.e2_total == pytest.approx(b.e2_i + b.e2_ii + b.e2_iii, rel=1e-15)

    def test_total_matches_combined_form(self):
        pt = ChannelPoint(a_delta0=7.0, a_w=1.5, tail=0.02)
        b = protected_rates(pt)
        ad = pt.a_delta
        combined = 0.75 * pt.tail**2 * (ad + 0.5) * math.exp(-2 * ad) + 0.5 * (
            pt.tail * math.exp(-2 * ad - pt.a_w)
        )
        assert b.e2_total == pytest.approx(combined, rel=1e-12)

    def test_budget_rates_in_unit_interval(self):
        # the ratio itself can exceed 1 where the coding overhead hurts
        # (weak margins, large tail); every rate stays a probability
        for ad0 in (2.0, 5.0, 10.0):
            for aw in (0.0, 1.0, ad0):
                for t in (0.0, 1e-4, 0.5, 1.0):
                    b = protected_rates(ChannelPoint(a_delta0=ad0, a_w=aw, tail=t))
                    for v in (b.p0, b.e0, b.e2_i, b.e2_ii, b.e2_iii, b.e2_total):
                        assert 0.0 <= v <= 1.0
                    assert b.ratio >= 0.0

    def test_ratio_below_one_in_operating_regime(self):
        for em in (1e-2, 1e-3, 1e-4):
            for t in (1e-3, 1e-5, 1e-7, 1e-9):
                b = protected_rates(point_from_exp_margin(em, t))
                assert 0.0 < b.ratio < 1.0

    def test_monotone_in_tail_and_margin(self):
        tails = [1e-4, 1e-3, 1e-2, 1e-1]
        e0s = [baseline_rates(ChannelPoint(a_delta0=6, a_w=2, tail=t))[1] for t in tails]
        e2s = [protected_rates(ChannelPoint(a_delta0=6, a_w=2, tail=t)).e2_total for t in tails]
        assert all(a < b for a, b in zip(e0s, e0s[1:]))
        assert all(a < b for a, b in zip(e2s, e2s[1:]))
        margins = [4.0, 5.0, 6.0, 8.0]
        e0m = [baseline_rates(ChannelPoint(a_delta0=m, a_w=2, tail=0.01))[1] for m in margins]
        e2m = [protected_rates(ChannelPoint(a_delta0=m, a_w=2, tail=0.01)).e2_total for m in margins]
        assert all(a > b for a, b in zip(e0m, e0m[1:]))
        assert all(a > b for a, b in zip(e2m, e2m[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelPoint(a_delta0=-1.0)
        with pytest.raises(ValueError):
            ChannelPoint(a_delta0=1.0, a_w=4.0)  # derived margin <= 0
        with pytest.raises(ValueError):
            ChannelPoint(a_delta0=1.0, tail=1.0001)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="^a_delta0 must be finite"):
            ChannelPoint(a_delta0=bad)
        with pytest.raises(ValueError, match="^a_w must be finite"):
            ChannelPoint(a_delta0=1.0, a_w=bad)


class TestRatioApproximation:
    def test_row_one(self):
        r = ratio_approximation(point_from_exp_margin(1e-2, 1e-3))
        assert format_sig1(r) == "1.E-02"

    def test_small_tail(self):
        r = ratio_approximation(point_from_exp_margin(1e-4, 1e-7))
        assert format_sig1(r) == "1.E-04"

    def test_zero_tail_reduces_to_exp_margin(self):
        pt = ChannelPoint(a_delta0=9.0, tail=0.0)
        assert ratio_approximation(pt) == pytest.approx(math.exp(-9.0), rel=1e-15)


class TestRegimes:
    def test_tail_dominated_matches_total(self):
        pt = ChannelPoint(a_delta0=6.0, a_w=1.0, tail=1e-6)
        e2_tail, _ = regime_approximations(pt)
        total = protected_rates(pt).e2_total
        assert abs(e2_tail - total) / total < 0.05

    def test_swap_dominated_matches_pair_terms(self):
        pt = ChannelPoint(a_delta0=12.0, a_w=14.0, tail=1e-2)
        _, e2_swap = regime_approximations(pt)
        b = protected_rates(pt)
        target = b.e2_iii + b.e2_i
        assert abs(e2_swap - target) / target < 0.10

    def test_pure_exponential_scaling_exponent(self):
        # W=0, T=1: log-slope of the dominant exponential is exactly 3/2
        e0s, e2s = scaling_sweep([6.0, 12.0])
        pure = (np.log(e2s[0]) - np.log(e2s[1])) / (np.log(e0s[0]) - np.log(e0s[1]))
        assert 1.3 < pure < 1.6


class TestCapacity:
    def test_five_level_code(self):
        assert round(capacity(4, 313), 2) == 2.07

    def test_seven_level_distance3_bound(self):
        c = capacity(4, crosspolytope_word_bound(7))
        assert abs(c - 2.014) < 1e-3
        assert c > 2.0

    def test_uncoded_baseline(self):
        assert capacity(4, 4**4) == pytest.approx(2.0)

    def test_crosspolytope_bound_value(self):
        assert crosspolytope_word_bound(7) == pytest.approx(7**4 / 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity(4, 0)
        with pytest.raises(ValueError):
            capacity(0, 313)


class TestTable1:
    def test_twelve_rows(self):
        assert len(table1()) == 12

    def test_spec_rows_at_display_precision(self):
        rows = {(r.exp_margin, r.tail): r for r in table1()}
        r = rows[(1e-2, 1e-3)]
        assert (format_sig1(r.e0), format_sig1(r.e2), format_sig1(r.ratio)) == (
            "5.E-06", "7.E-08", "1.E-02",
        )
        r = rows[(1e-3, 1e-3)]
        assert (format_sig1(r.e0), format_sig1(r.e2), format_sig1(r.ratio)) == (
            "5.E-07", "3.E-09", "7.E-03",
        )
        r = rows[(1e-4, 1e-5)]
        assert (format_sig1(r.e0), format_sig1(r.e2), format_sig1(r.ratio)) == (
            "5.E-10", "9.E-14", "2.E-04",
        )

    def test_full_precision_consistency(self):
        for r in table1():
            assert r.e2 == pytest.approx(r.ratio * r.e0, rel=1e-12)


class TestScalingSweep:
    def test_slope_value_against_inline_recomputation(self):
        # independent reimplementation of the two rates
        ad0s = [5.0, 6.0, 7.0, 8.0]
        e0 = [(1 - (1 - math.exp(-x)) ** 4) / 8 for x in ad0s]
        e2 = [
            (0.75 * (0.75 * x) + 0.875) * math.exp(-1.5 * x) for x in ad0s
        ]
        expected = np.polyfit(np.log(e0), np.log(e2), 1)[0]
        e0s, e2s = scaling_sweep(ad0s)
        assert np.allclose(e0s, e0) and np.allclose(e2s, e2)
        slope = fit_loglog_slope(e0s, e2s)
        assert slope == pytest.approx(expected, abs=1e-12)
        assert slope == pytest.approx(1.3788, abs=5e-4)

    def test_single_point_has_no_slope(self):
        e0s, e2s = scaling_sweep([6.0])
        assert fit_loglog_slope(e0s, e2s) is None

    @pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan])
    @pytest.mark.parametrize("series", [0, 1])
    def test_non_positive_rate_has_no_slope(self, bad, series):
        # a sweep's closed form underflows to 0, a simulated point sees no event
        rates = scaling_sweep([5.0, 6.0, 7.0])
        rates[series][1] = bad
        assert fit_loglog_slope(*rates) is None
