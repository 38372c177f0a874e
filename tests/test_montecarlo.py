"""Simulation engine: determinism, sharding, classification, stratification."""

import json
import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from norsim import montecarlo
from norsim.analytic import ChannelPoint, baseline_rates
from norsim.channel import RngStream, _read_offsets, sample_read
from norsim.codec import N_CELLS, CodeBook, DecodeOutcome, decode, margin_sense, read_byte
from norsim.montecarlo import (
    BerEstimate,
    ErrorClass,
    SimConfig,
    _CHUNK,
    _CLASS_ORDER,
    _LATTICE,
    _POPCOUNT8,
    _STATES,
    _allocate,
    _classify,
    _count_wrong,
    _data_pool,
    _draw_rows,
    _lattice_u,
    _live_rows,
    _reach_threshold,
    _row_law,
    _stratum_weights,
    _tally,
    _wrong_rows,
    classify_error,
    confidence_interval,
    estimate_to_dict,
    run_stratified,
    run_trials,
    variance_reduction_factor,
)


def outcome(word, parity_passed):
    return DecodeOutcome(
        sensed=word if parity_passed else (0, 0, 0, 1),
        parity_passed=parity_passed,
        word=word,
        byte=None,
    )


class TestClassifyError:
    def test_match_is_none(self):
        assert classify_error((0, 0, 1, 1), outcome((0, 0, 1, 1), True)) is ErrorClass.NONE

    def test_parity_pass_mismatch_is_type_i(self):
        assert classify_error((1, 1, 0, 0), outcome((0, 2, 0, 0), True)) is ErrorClass.TYPE_I

    def test_single_two_level_shift_is_type_ii(self):
        assert classify_error((0, 0, 1, 1), outcome((2, 0, 1, 1), False)) is ErrorClass.TYPE_II

    def test_opposite_pair_shift_is_type_iii(self):
        assert classify_error((0, 0, 1, 1), outcome((1, 0, 0, 1), False)) is ErrorClass.TYPE_III

    def test_same_direction_pair_is_other(self):
        assert classify_error((1, 1, 1, 1), outcome((2, 2, 1, 1), False)) is ErrorClass.OTHER

    def test_triple_upset_is_other(self):
        assert classify_error((1, 1, 1, 1), outcome((2, 2, 2, 1), False)) is ErrorClass.OTHER


class TestConfidenceInterval:
    def test_zero_events_upper_bound(self):
        lo, hi = confidence_interval(0, 10**6)
        assert lo == 0.0 and hi < 4e-6

    def test_half_million(self):
        lo, hi = confidence_interval(500_000, 10**6)
        assert lo == pytest.approx(0.499, abs=5e-4)
        assert hi == pytest.approx(0.501, abs=5e-4)

    def test_all_events(self):
        lo, hi = confidence_interval(10**6, 10**6)
        assert hi == 1.0 and lo < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(5, 0)
        with pytest.raises(ValueError):
            confidence_interval(11, 10)


class TestRunTrials:
    def test_noiseless_channel_has_zero_errors(self):
        for protected in (True, False):
            cfg = SimConfig(
                a=1.0, tail=0.0, width=0.3, delta0=3.0,
                protected=protected, trials=20_000, seed=1,
            )
            est = run_trials(cfg)
            assert est.word_error_events == 0
            assert est.bit_errors_hamming == 0
            assert est.ci95[0] == 0.0

    def test_unprotected_rate_matches_closed_form(self):
        point = ChannelPoint(a_delta0=4.0, a_w=0.0, tail=1.0)
        _, e0 = baseline_rates(point)
        cfg = SimConfig(
            a=1.0, tail=1.0, width=0.0, delta0=4.0, protected=False,
            trials=400_000, seed=2, data_mode="interior",
        )
        est = run_trials(cfg)
        sigma = (est.ci95[1] - est.ci95[0]) / (2 * 1.959964)
        assert abs(est.event_rate_per_bit - e0) <= 3 * sigma

    def test_deterministic(self):
        cfg = SimConfig(
            a=1.0, tail=0.3, width=0.2, delta0=3.0, trials=50_000, seed=3, shards=4
        )
        a = run_trials(cfg)
        b = run_trials(cfg)
        assert a == b

    def test_shard_assignment_changes_draws_not_statistics(self):
        base = dict(a=1.0, tail=1.0, width=0.0, delta0=3.0, protected=False,
                    trials=400_000, data_mode="interior")
        e1 = run_trials(SimConfig(seed=4, shards=1, **base))
        e8 = run_trials(SimConfig(seed=4, shards=8, **base))
        assert e1.word_error_events != e8.word_error_events  # different streams
        s1 = (e1.ci95[1] - e1.ci95[0]) / (2 * 1.959964)
        s8 = (e8.ci95[1] - e8.ci95[0]) / (2 * 1.959964)
        combined = math.hypot(s1, s8)
        assert abs(e1.event_rate_per_bit - e8.event_rate_per_bit) <= 3 * combined

    def test_scale_invariance_bit_exact(self):
        # same dimensionless products, same seed: identical decisions
        e1 = run_trials(SimConfig(a=1.0, tail=0.4, width=1.0, delta0=5.0,
                                  trials=30_000, seed=5))
        e2 = run_trials(SimConfig(a=2.0, tail=0.4, width=0.5, delta0=2.5,
                                  trials=30_000, seed=5))
        assert e1 == e2

    @staticmethod
    def engine_counts(written, v, grid, byte_of):
        """The 6 counts _tally's two counting steps give for one batch:
        the wrong rows, classified and counted in bits, and NONE for the rest."""
        wrong = _wrong_rows(written, v, grid, byte_of)
        assert len(wrong[0]) < len(v)  # some rows are decoded right
        got = _count_wrong(*wrong, grid, byte_of)
        assert got[0] == 0 and got[1:5].sum() == len(wrong[0])
        got[0] = len(v) - len(wrong[0])
        return got

    def test_engine_matches_scalar_decoder(self):
        # reads drawn through the public API, decoded one word at a time by
        # read_byte and classified by classify_error, against the counting
        # steps _tally calls
        cfg = SimConfig(a=0.7, tail=1.0, width=0.1, delta0=4.0, trials=1, seed=6)
        grid, noise, book = cfg.grid(), cfg.noise(), CodeBook.build(5)
        rng = RngStream(99)
        written_bytes = rng.gen.integers(0, 256, 400)
        written = book.words[:256][written_bytes]
        v = sample_read(written, grid, noise, rng)
        want = np.zeros(6, dtype=np.int64)
        for i in range(len(v)):
            out = read_byte(v[i], grid, book)
            want[_CLASS_ORDER.index(classify_error(written[i], out))] += 1
            flips = 8 if out.byte is None else bin(written_bytes[i] ^ out.byte).count("1")
            want[5] += flips
        assert want[1:5].sum() > 0
        got = self.engine_counts(written, v, grid, book.byte_of)
        assert got.tolist() == want.tolist()

    def test_engine_matches_margin_sensing_unprotected(self):
        cfg = SimConfig(a=0.7, tail=1.0, width=0.1, delta0=4.0, trials=1, seed=6,
                        protected=False)
        grid, noise = cfg.grid(), cfg.noise()
        rng = RngStream(98)
        written = rng.gen.integers(0, 4, (400, 4))
        v = sample_read(written, grid, noise, rng)
        want = np.zeros(6, dtype=np.int64)
        for i in range(len(v)):
            sensed = margin_sense(v[i], grid)
            want[4 if (sensed != written[i]).any() else 0] += 1
            # with 4 levels a word's radix-4 value is its byte
            wb, sb = (int("".join(map(str, w)), 4) for w in (written[i], sensed))
            want[5] += bin(wb ^ sb).count("1")
        assert want[4] > 0
        got = self.engine_counts(written, v, grid, None)
        assert got.tolist() == want.tolist()

    def test_events_bounded_by_hamming_bits(self):
        cfg = SimConfig(a=1.0, tail=1.0, width=0.0, delta0=3.0, trials=100_000, seed=7)
        est = run_trials(cfg)
        assert est.word_error_events > 0
        assert est.word_error_events <= est.bit_errors_hamming
        assert est.bit_errors_hamming <= 8 * est.word_error_events
        assert est.event_rate_per_bit <= est.hamming_rate

    def test_per_class_counts_sum_to_events(self):
        cfg = SimConfig(a=1.0, tail=1.0, width=0.0, delta0=3.0, trials=100_000, seed=8)
        est = run_trials(cfg)
        errors = sum(v for k, v in est.per_class.items() if k != "none")
        assert errors == est.word_error_events
        assert est.per_class["none"] == est.trials - est.word_error_events

    def test_ci_contains_point_estimate(self):
        cfg = SimConfig(a=1.0, tail=1.0, width=0.0, delta0=3.0, trials=50_000, seed=20)
        est = run_trials(cfg)
        assert est.ci95[0] <= est.event_rate_per_bit <= est.ci95[1]

    def test_uniform_mode_measures_edge_healing(self):
        # outward drift at the outer levels clamps back to the written
        # symbol, so uniform data runs about 25% below the closed form
        # (two of four levels lose one exposed side)
        point = ChannelPoint(a_delta0=4.0, a_w=0.0, tail=1.0)
        _, e0 = baseline_rates(point)
        cfg = SimConfig(a=1.0, tail=1.0, width=0.0, delta0=4.0, protected=False,
                        trials=400_000, seed=21, data_mode="uniform")
        est = run_trials(cfg)
        assert 0.70 <= est.event_rate_per_bit / e0 <= 0.82

    def test_interior_pool_sizes(self):
        base = dict(a=1.0, tail=0.1, width=0.5, delta0=3.0, trials=1)
        _, _, uniform, byte_of = _data_pool(SimConfig(data_mode="uniform", **base))
        _, _, interior, _ = _data_pool(SimConfig(data_mode="interior", **base))
        assert len(uniform) == 256 and byte_of.tolist() == CodeBook.build(5).byte_of.tolist()
        # even-parity words over the three inner levels: (3**4 + 1) / 2
        assert len(interior) == 41
        assert interior.min() >= 1 and interior.max() <= 3
        # unprotected runs draw symbols 0..3, or 1..2 on interior data
        unprotected = dict(base, protected=False)
        assert _data_pool(SimConfig(data_mode="uniform", **unprotected)) == (0, 4, None, None)
        assert _data_pool(SimConfig(data_mode="interior", **unprotected)) == (1, 3, None, None)

    def test_stratified_flag_routes_away(self):
        cfg = SimConfig(a=1.0, tail=0.1, width=0.5, delta0=3.0, trials=100,
                        seed=9, stratified=True)
        with pytest.raises(ValueError):
            run_trials(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(a=1.0, tail=0.1, width=0.5, delta0=3.0, trials=0)
        with pytest.raises(ValueError):
            SimConfig(a=1.0, tail=0.1, width=0.5, delta0=3.0, trials=10, shards=0)
        with pytest.raises(ValueError):
            SimConfig(a=1.0, tail=0.1, width=0.5, delta0=3.0, trials=10,
                      data_mode="weird")
        with pytest.raises(ValueError):
            SimConfig(a=-1.0, tail=0.1, width=0.5, delta0=3.0, trials=10)
        with pytest.raises(ValueError, match="tail"):
            SimConfig(a=1.0, tail=0.0, width=0.5, delta0=3.0, stratified=True)

    def test_plain_config_rejects_subtrials(self):
        # a plain run has no strata to size, so it would ignore the field
        with pytest.raises(ValueError, match="^subtrials_per_stratum applies only to a stratified"):
            SimConfig(a=1.0, tail=0.1, width=0.5, delta0=3.0, subtrials_per_stratum=7)

    def test_counts_past_int64_rejected(self):
        base = dict(a=1.0, tail=1e-9, width=0.0, delta0=40.0)
        with pytest.raises(ValueError, match=r"^trials must be in \[1, 2\*\*63 - 1\]"):
            SimConfig(trials=2**63, **base)
        with pytest.raises(ValueError, match=r"^subtrials_per_stratum must be in"):
            SimConfig(stratified=True, subtrials_per_stratum=2**63, **base)
        # the largest count still runs: no word at this point reaches
        est = run_trials(SimConfig(trials=2**63 - 1, **base))
        assert est.trials == 2**63 - 1 and est.word_error_events == 0

    def test_subtrials_bound_keeps_every_stratum_in_int64(self):
        # a stratum may get nearly all of the 4 * subtrials budget, and
        # Generator.binomial takes its size as an int64; no word reaches here
        base = dict(a=1.0, tail=1e-9, width=0.0, delta0=40.0, stratified=True)
        top = (2**63 - 1) // 4
        est = run_stratified(SimConfig(subtrials_per_stratum=top, **base))
        assert est.trials == 4 * top and est.word_error_events == 0
        assert est.strata[1].trials >= 0.99 * est.trials
        with pytest.raises(ValueError, match=(r"^subtrials_per_stratum must be in "
                                              r"\[1, \(2\*\*63 - 1\) // 4\], got")):
            SimConfig(subtrials_per_stratum=top + 1, **base)

    @pytest.mark.parametrize("name, bad", [
        ("seed", 0.5), ("seed", np.float64(2.5)), ("seed", math.inf), ("trials", 1.5),
        ("trials", True), ("shards", 1.5), ("shards", np.True_), ("subtrials_per_stratum", 2.5),
    ])
    def test_counts_and_seed_must_be_whole(self, name, bad):
        # a fractional seed would run as its truncation, and range() refuses
        # a fractional count
        base = dict(a=1.0, tail=1.0, width=0.0, delta0=4.0, stratified=name.startswith("sub"))
        with pytest.raises(ValueError, match=f"^{name} must be a whole number, got"):
            SimConfig(**{name: bad}, **base)

    def test_integral_floats_run_as_ints(self):
        base = dict(a=1.0, tail=1.0, width=0.0, delta0=4.0)
        cfg = SimConfig(trials=20_000.0, seed=np.float64(3.0), shards=2.0, **base)
        assert [type(v) for v in (cfg.trials, cfg.seed, cfg.shards)] == [int] * 3
        assert run_trials(cfg) == run_trials(SimConfig(trials=20_000, seed=3, shards=2, **base))


class TestStratified:
    BASE = dict(a=1.0, tail=0.1, width=1.0, delta0=4.0, protected=True)

    def test_weights_sum_to_one(self):
        for t in (0.0, 1e-3, 0.25, 1.0):
            assert _stratum_weights(t).sum() == pytest.approx(1.0, rel=1e-12)

    def test_matches_plain_at_elevated_tail(self):
        plain = run_trials(SimConfig(trials=400_000, seed=10, **self.BASE))
        strat = run_stratified(
            SimConfig(trials=1, seed=10, stratified=True,
                      subtrials_per_stratum=50_000, **self.BASE)
        )
        lo = max(plain.ci95[0], strat.ci95[0])
        hi = min(plain.ci95[1], strat.ci95[1])
        assert lo <= hi, (plain.ci95, strat.ci95)

    def test_deterministic(self):
        cfg = SimConfig(trials=1, seed=11, stratified=True,
                        subtrials_per_stratum=20_000, **self.BASE)
        assert run_stratified(cfg) == run_stratified(cfg)

    def test_interior_stratum_not_simulated(self):
        cfg = SimConfig(trials=1, seed=12, stratified=True,
                        subtrials_per_stratum=10_000, **self.BASE)
        est = run_stratified(cfg)
        k0 = est.strata[0]
        assert not k0.simulated and k0.events == 0 and k0.trials == 0
        assert est.weighted

    def test_zero_weight_strata_skipped_at_full_tail(self):
        # T=1 with zero width: only the all-tail stratum carries weight
        cfg = SimConfig(a=1.0, tail=1.0, width=0.0, delta0=4.0, protected=True,
                        trials=1, seed=13, stratified=True,
                        subtrials_per_stratum=10_000)
        est = run_stratified(cfg)
        sim_flags = [s.simulated for s in est.strata]
        assert sim_flags == [False, False, False, False, True]

    def test_zero_width_with_partial_tail_matches_plain(self):
        # interior cells are a point mass at the level voltage
        base = dict(a=1.0, tail=0.5, width=0.0, delta0=4.0, protected=True, seed=14)
        plain = run_trials(SimConfig(trials=200_000, **base))
        strat = run_stratified(
            SimConfig(trials=1, stratified=True, subtrials_per_stratum=50_000, **base)
        )
        assert strat.event_rate_per_bit > 0
        lo = max(plain.ci95[0], strat.ci95[0])
        hi = min(plain.ci95[1], strat.ci95[1])
        assert lo <= hi, (plain.ci95, strat.ci95)

    def test_unprotected_rejected(self):
        # a run rule, so the config itself refuses it
        with pytest.raises(ValueError, match="^stratified runs support the protected mode only$"):
            SimConfig(a=1.0, tail=0.1, width=0.5, delta0=4.0, protected=False,
                      trials=1, seed=15, stratified=True)

    def test_variance_reduction_at_small_tail(self):
        cfg = SimConfig(a=1.0, tail=1e-3, width=6.9, delta0=6.9, protected=True,
                        trials=1, seed=16, stratified=True,
                        subtrials_per_stratum=50_000, data_mode="interior")
        est = run_stratified(cfg)
        assert est.event_rate_per_bit > 0
        assert variance_reduction_factor(est) > 10

    def test_zero_events_keep_a_positive_upper_bound(self):
        cfg = SimConfig(a=1.0, tail=1e-3, width=1.0, delta0=30.0, trials=1, seed=0,
                        stratified=True, subtrials_per_stratum=1_000)
        est = run_stratified(cfg)
        assert est.word_error_events == 0
        lo, hi = est.ci95
        assert lo == 0.0 and hi > 0.0

    def test_ci_contains_point_estimate(self):
        # the second point leaves stratum 1 with few or no events
        for base in (self.BASE, dict(a=1.0, tail=1e-3, width=6.9, delta0=6.9,
                                     data_mode="interior")):
            est = run_stratified(SimConfig(trials=1, seed=22, stratified=True,
                                           subtrials_per_stratum=5_000, **base))
            assert est.ci95[0] <= est.event_rate_per_bit <= est.ci95[1]
            assert est.ci95[0] < est.ci95[1]

    def test_weighted_wilson_coverage(self):
        # 0.91 is the 1% lower quantile of Binomial(200, 0.95) / 200
        base = dict(a=1.0, tail=0.05, width=1.0, delta0=4.0)
        true_rate = run_trials(
            SimConfig(trials=4_000_000, seed=0, **base)
        ).event_rate_per_bit
        covered = 0
        for seed in range(200):
            lo, hi = run_stratified(
                SimConfig(trials=1, seed=seed, stratified=True,
                          subtrials_per_stratum=2_000, **base)
            ).ci95
            covered += lo <= true_rate <= hi
        assert covered / 200 >= 0.91

    def test_variance_reduction_needs_stratified_estimate(self):
        est = run_trials(SimConfig(trials=1_000, seed=17, **self.BASE))
        with pytest.raises(ValueError):
            variance_reduction_factor(est)


class TestTaskMerge:
    """Shards and strata run one after another, each on its own stream,
    and merge in task order: results equal the sum of their tallies."""

    BASE = dict(a=1.0, tail=0.3, width=0.5, delta0=3.0)

    def test_pooled_equals_serial_tallies(self):
        plain = SimConfig(trials=40_003, seed=23, shards=5, **self.BASE)
        strat = SimConfig(trials=1, seed=23, stratified=True,
                          subtrials_per_stratum=5_000, **self.BASE)
        serial = sum(
            tally(plain, RngStream(23, i), len(range(i, plain.trials, 5)), tail_law(0.3))
            for i in range(5)
        )
        # the 20,000-word budget split by stratum weight
        sizes = dict(zip(range(1, 5), [10_832, 6_964, 1_990, 214]))
        serial_strata = [
            int(tally(strat, RngStream(23, 10_000 + k), sizes[k], tail_law(0.3, k))[1:5].sum())
            for k in range(1, 5)
        ]
        est = run_trials(plain)
        strata = [run_stratified(strat) for _ in range(3)]
        assert est.word_error_events == int(serial[1:5].sum())
        assert est.bit_errors_hamming == int(serial[5])
        assert est.per_class == {
            c.value: int(serial[i]) for i, c in enumerate(_CLASS_ORDER)
        }
        assert strata[0] == strata[1] == strata[2]
        assert [s.trials for s in strata[0].strata[1:]] == list(sizes.values())
        assert [s.events for s in strata[0].strata[1:]] == serial_strata

    def test_stratum_means_divide_whole_counts(self, monkeypatch):
        # above 2^53 words in a stratum a float cast of its size rounds; the
        # means divide the whole counts, as events / n does in Python
        events = {1: [1, 1, 0, 1, 5], 2: [0, 0, 1, 0, 2], 3: [2, 3, 1, 1, 9], 4: [0, 2, 2, 1, 8]}
        sizes = {}

        def fake_tally(config, tasks):
            for rng, n, weights in tasks:
                k = int(np.argmax(weights))
                sizes[k] = n
                yield np.array([n - sum(events[k][:4]), *events[k]], dtype=np.int64)

        monkeypatch.setattr(montecarlo, "_tally", fake_tally)
        config = SimConfig(trials=1, stratified=True, subtrials_per_stratum=2**53 + 1, **self.BASE)
        est = run_stratified(config)
        assert sizes[1] > 2**53 and float(sizes[1]) != sizes[1]
        p_hat = p_cast = 0.0
        for k, w in enumerate(_stratum_weights(config.tail).tolist()[1:], start=1):
            n_events = sum(events[k][:4])
            assert est.strata[k].trials == sizes[k]
            assert est.strata[k].mean == n_events / sizes[k]
            p_hat += w * (n_events / sizes[k])
            p_cast += w * (n_events / float(sizes[k]))
        assert est.event_rate_per_bit == p_hat / 8
        assert p_hat != p_cast  # the case tells the two divisions apart


class TestAllocate:
    """A stratified run's budget B, split over its strata by weight."""

    RARE = _stratum_weights(1e-3)[1:].tolist()  # 6.9/6.9/1e-3's strata

    @pytest.mark.parametrize("budget", [4, 400, 4 * (2**53 + 1), 4 * ((2**63 - 1) // 4)])
    @pytest.mark.parametrize("tail", [1e-3, 0.3, 0.9])
    def test_shares_sum_to_the_budget(self, tail, budget):
        sizes = _allocate(_stratum_weights(tail)[1:].tolist(), budget)
        assert sum(sizes) == budget and min(sizes) >= 1
        assert _allocate(_stratum_weights(tail)[1:].tolist(), budget) == sizes

    def test_rare_point_gives_stratum_1_nearly_all(self):
        # stratum 1 carries 99.85% of the weight of k >= 1 here
        assert _allocate(self.RARE, 16_384) == [16_356, 26, 1, 1]
        for budget in (400, 1 << 20, 4 * ((2**63 - 1) // 4)):
            assert _allocate(self.RARE, budget)[0] >= 0.99 * budget

    def test_lone_stratum_gets_the_budget(self):
        assert _allocate([1.0], 20_000) == [20_000]
        assert _allocate([5e-324], 2**63 - 1) == [2**63 - 1]

    def test_largest_remainders_tie_to_the_lower_stratum(self):
        # 2 spare words over equal weights: quotas 2/3 each
        assert _allocate([0.25, 0.25, 0.25], 5) == [2, 2, 1]
        assert _allocate([0.5, 0.25], 5) == [3, 2]  # quotas 2, 1: no remainder

    weights = st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                       min_size=1, max_size=N_CELLS)

    @seed(28)
    @settings(max_examples=300, deadline=None)
    @given(weights, st.integers(min_value=0, max_value=2**63 - 1 - N_CELLS))
    def test_within_one_of_the_proportional_quota(self, w, spare):
        budget = len(w) + spare
        sizes = _allocate(w, budget)
        assert sum(sizes) == budget and min(sizes) >= 1
        total = sum(map(Fraction, w))
        for x, n in zip(w, sizes):
            quota = spare * Fraction(x) / total
            assert math.floor(quota) <= n - 1 <= math.ceil(quota)

    @seed(29)
    @settings(max_examples=300, deadline=None)
    @given(weights, st.integers(min_value=0, max_value=10**6), st.data())
    def test_a_heavier_stratum_never_gets_fewer(self, w, spare, data):
        k = data.draw(st.integers(0, len(w) - 1))
        heavier = data.draw(st.floats(min_value=w[k], max_value=2.0, exclude_min=True))
        grown = w[:k] + [heavier] + w[k + 1:]
        budget = len(w) + spare
        assert _allocate(grown, budget)[k] >= _allocate(w, budget)[k]


class TestRunSetUp:
    """A run derives its set-up once, however many shards or strata it has."""

    @pytest.mark.parametrize("kwargs", [
        dict(trials=5_000, shards=50),
        dict(trials=4, stratified=True, subtrials_per_stratum=2_000),
    ], ids=["plain_50_shards", "stratified_4_strata"])
    def test_set_up_once_per_run(self, monkeypatch, kwargs):
        calls = {"_reach_threshold": 0, "CodeBook.build": 0}
        real_threshold, real_build = montecarlo._reach_threshold, CodeBook.build

        def threshold(config):
            calls["_reach_threshold"] += 1
            return real_threshold(config)

        def build(cls, n_levels=5):
            calls["CodeBook.build"] += 1
            return real_build(n_levels)

        monkeypatch.setattr(montecarlo, "_reach_threshold", threshold)
        monkeypatch.setattr(CodeBook, "build", classmethod(build))
        config = SimConfig(a=1.0, tail=0.3, width=0.5, delta0=3.0, seed=4, **kwargs)
        est = run_stratified(config) if config.stratified else run_trials(config)
        assert est.word_error_events > 0
        assert calls == {"_reach_threshold": 1, "CodeBook.build": 1}


class TestSerialization:
    def test_json_ready_document(self):
        cfg = SimConfig(a=1.0, tail=0.2, width=0.5, delta0=3.0, trials=10_000, seed=18)
        est = run_trials(cfg)
        doc = estimate_to_dict(est, cfg)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["config"]["trials"] == 10_000
        assert back["estimate"]["event_rate_per_bit"] == est.event_rate_per_bit
        assert set(back["estimate"]["per_class"]) == {
            "none", "type_i", "type_ii", "type_iii", "other",
        }

    def test_stratified_document_includes_strata(self):
        cfg = SimConfig(a=1.0, tail=0.1, width=1.0, delta0=4.0, protected=True,
                        trials=1, seed=19, stratified=True,
                        subtrials_per_stratum=5_000)
        est = run_stratified(cfg)
        doc = estimate_to_dict(est, cfg)
        assert len(doc["estimate"]["strata"]) == 5

    @staticmethod
    def hand_built(est, config):
        """The document layout, key order included, spelled out field by field."""
        doc = {
            "config": {
                "a": config.a, "tail": config.tail, "width": config.width,
                "delta0": config.delta0, "l0": config.l0,
                "protected": config.protected, "trials": config.trials,
                "seed": config.seed, "shards": config.shards,
                "stratified": config.stratified, "data_mode": config.data_mode,
                "subtrials_per_stratum": config.subtrials_per_stratum,
            },
            "estimate": {
                "trials": est.trials,
                "word_error_events": est.word_error_events,
                "bit_errors_hamming": est.bit_errors_hamming,
                "event_rate_per_bit": est.event_rate_per_bit,
                "hamming_rate": est.hamming_rate,
                "ci95": list(est.ci95),
                "per_class": est.per_class,
                "weighted": est.weighted,
            },
        }
        if est.strata is not None:
            doc["estimate"]["strata"] = [
                {"n_tail_cells": s.n_tail_cells, "weight": s.weight,
                 "trials": s.trials, "events": s.events, "mean": s.mean,
                 "simulated": s.simulated}
                for s in est.strata
            ]
        return doc

    def test_document_text_matches_layout(self):
        plain = SimConfig(a=1.0, tail=0.2, width=0.5, delta0=3.0, trials=10_000, seed=18)
        strat = SimConfig(a=1.0, tail=0.1, width=1.0, delta0=4.0, trials=1, seed=19,
                          stratified=True, subtrials_per_stratum=5_000)
        for cfg, est in ((plain, run_trials(plain)), (strat, run_stratified(strat))):
            assert json.dumps(estimate_to_dict(est, cfg), indent=2) == json.dumps(
                self.hand_built(est, cfg), indent=2
            )


REFERENCE_BATCH = 1 << 14


def tail_law(tail, k=None):
    """The tail-count law ``_tally`` draws from: the binomial law of a
    plain run, or the unit vector e_k of stratum k."""
    return _stratum_weights(tail) if k is None else np.eye(N_CELLS + 1)[k]


def tally(config, rng, n, weights):
    """The counts of one task ``(rng, n, weights)``, tallied on its own."""
    (counts,) = _tally(config, [(rng, n, weights)])
    return counts


def reference_tally(config, rng, n, k=None):
    """Every word drawn whole and decoded, in batches of REFERENCE_BATCH:
    each cell a tail cell with chance ``tail``, or stratum k's cells from
    an argsort, and a value uniform per cell.  ``_tally`` must agree with
    it in law."""
    noise, grid = config.noise(), config.grid()
    low, high, pool, _ = _data_pool(config)
    gen = rng.gen
    counts = np.zeros(6, dtype=np.int64)
    for lo in range(0, n, REFERENCE_BATCH):
        m = min(REFERENCE_BATCH, n - lo)
        if pool is None:
            written = gen.integers(low, high, (m, N_CELLS))
        else:
            written = pool[gen.integers(0, len(pool), m)]
        u = gen.random((m, N_CELLS))
        tail_mask = u < noise.tail if k is None else u.argsort(axis=1) < k
        v = _read_offsets(tail_mask, gen.random((m, N_CELLS)), noise)
        v += grid.l0 + grid.pitch * written
        counts += reference_counts(written, v, grid, config.protected)
    return counts


def reference_counts(written, v, grid, protected):
    """The 5 class counts, then the payload bit flips, of every row of
    ``written`` read back as ``v``, each row decoded and classified."""
    radix = grid.n_levels ** np.arange(N_CELLS - 1, -1, -1)
    byte_of = CodeBook.build(grid.n_levels).byte_of if protected else np.arange(256)
    if protected:
        _, decoded, passed = decode(v, grid)
    else:
        decoded, passed = margin_sense(v, grid), None
    counts = np.zeros(6, dtype=np.int64)
    counts[:5] = np.bincount(_classify(written, decoded, passed, protected), minlength=5)
    wb = byte_of[written @ radix]
    db = byte_of[decoded @ radix]
    counts[5] = np.where(db < 0, 8, _POPCOUNT8[(wb ^ db) & 0xFF]).sum()
    return counts


def far_from_zero(config, pitches=1e12):
    """``config`` with its levels moved ``pitches`` pitches from 0 V."""
    return replace(config, l0=pitches * config.grid().pitch)


def reach_share(config, k=None):
    """The engine's share pi of words with a reaching cell; 1 when every
    word is decoded because margin/2 is within the rounding slack."""
    t = _reach_threshold(config)
    if t is None:
        return 1.0
    return _row_law(tail_law(config.tail, k), (_LATTICE - 1 - t) * 2.0**-52)[0]


def assert_matches_reference(config, n, k, stream):
    """``_tally`` agrees with the reference in law: each class count within
    5 sqrt(a + b + 1) and the bit flips within 5 sqrt(8 (a + b) + 1), a
    word flipping at most 8 bits."""
    got = tally(config, RngStream(*stream), n, tail_law(config.tail, k))
    want = reference_tally(config, RngStream(*stream), n, k)
    assert got[:5].sum() == n
    for a, b in zip(got[:5], want[:5]):
        assert abs(a - b) <= 5 * math.sqrt(a + b + 1), (got, want)
    events = got[1:5].sum() + want[1:5].sum()
    assert abs(got[5] - want[5]) <= 5 * math.sqrt(8 * events + 1), (got, want)


WINDOW_READS = dict(a=1.0, tail=0.05, width=1.0, delta0=1e-5, protected=False)


class TestSampledRows:
    """``_tally`` draws only the words with a reaching cell, or every word
    when margin/2 is within the rounding slack, and must agree with the
    reference in law."""

    CASES = {
        "tail_0": (dict(a=1.0, tail=0.0, width=0.5, delta0=2.0), None),
        "tail_1_width_0": (dict(a=1.0, tail=1.0, width=0.0, delta0=6.0), None),
        "most_rows_sampled": (dict(a=1.0, tail=1.0, width=0.0, delta0=1.0), None),
        # 3 * delta0 just above w: margin/2 is below the slack
        "tiny_margin": (dict(a=1.0, tail=0.5, width=3.0, delta0=1.0 + 1e-14), None),
        # a * margin > 36: no point of r's lattice reaches, pi = 0
        "a_margin_37": (dict(a=1.0, tail=1.0, width=0.0, delta0=50.0), None),
        # c near 5e-15
        "a_margin_33": (dict(a=1.0, tail=1.0, width=0.0, delta0=44.0), None),
        "unprotected_uniform": (
            dict(a=1.0, tail=0.3, width=0.5, delta0=4.0, protected=False), None),
        "unprotected_interior": (
            dict(a=2.0, tail=0.3, width=0.2, delta0=2.0, protected=False,
                 data_mode="interior"), None),
        **{
            f"stratum_{k}": (
                dict(a=1.0, tail=1e-3, width=6.9, delta0=6.9, data_mode="interior"), k)
            for k in range(1, N_CELLS + 1)
        },
    }

    @pytest.mark.parametrize("far", [False, True], ids=["l0_0", "l0_1e12_pitch"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_reference(self, name, far):
        kwargs, k = self.CASES[name]
        config = SimConfig(**kwargs)
        if far:
            config = far_from_zero(config)
        n = (1 << 18) + 1234  # not a multiple of a batch or a chunk
        assert_matches_reference(config, n, k, (3, 1))

    @pytest.mark.parametrize("far", [False, True], ids=["l0_0", "l0_1e12_pitch"])
    def test_every_word_cases(self, far, monkeypatch):
        # the margins within the rounding slack: tiny_margin anywhere,
        # window_reads 1e12 pitches from 0 V
        cases = {name: SimConfig(**kwargs) for name, (kwargs, _) in self.CASES.items()}
        cases["window_reads"] = SimConfig(**WINDOW_READS)
        if far:
            cases = {name: far_from_zero(config) for name, config in cases.items()}
        every_word = {name for name, config in cases.items() if _reach_threshold(config) is None}
        assert every_word == ({"tiny_margin", "window_reads"} if far else {"tiny_margin"})
        decoded, real_wrong_rows = [], montecarlo._wrong_rows

        def wrong_rows(written, reads, *args):
            decoded.append(len(reads))
            return real_wrong_rows(written, reads, *args)

        monkeypatch.setattr(montecarlo, "_wrong_rows", wrong_rows)
        n = (1 << 14) + 7
        for name in sorted(every_word):
            decoded.clear()
            counts = tally(cases[name], RngStream(9), n, tail_law(cases[name].tail))
            assert sum(decoded) == n and counts[:5].sum() == n

    @pytest.mark.parametrize("kwargs", [
        dict(a=1.0, tail=0.5, width=0.0, delta0=0.001),
        dict(a=1.0, tail=0.5, width=0.0, delta0=0.001, protected=False),
        dict(a=1.0, tail=0.5, width=3.0, delta0=1.0 + 1e-14),  # every word drawn
    ], ids=["protected", "unprotected", "every_word"])
    def test_wrong_rows_counted_in_groups(self, kwargs, monkeypatch):
        # most words are wrong, so a group holds two chunks' wrong rows;
        # the groups stay below 2 _CHUNK rows, and their counts sum to
        # the counts of each chunk decoded on its own
        config = SimConfig(**kwargs)
        grid = config.grid()
        chunks, groups = [], []
        real_wrong_rows, real_count_wrong = montecarlo._wrong_rows, montecarlo._count_wrong

        def wrong_rows(written, reads, *args):
            chunks.append(reference_counts(written, reads, grid, config.protected))
            return real_wrong_rows(written, reads, *args)

        def count_wrong(written, *args):
            groups.append(len(written))
            return real_count_wrong(written, *args)

        monkeypatch.setattr(montecarlo, "_wrong_rows", wrong_rows)
        monkeypatch.setattr(montecarlo, "_count_wrong", count_wrong)
        n = 6 * _CHUNK + 123
        counts = tally(config, RngStream(11), n, tail_law(config.tail))
        assert len(chunks) >= 5 and len(groups) < len(chunks)
        assert 0 < max(groups) < 2 * _CHUNK
        want = sum(chunks)
        assert sum(groups) == want[1:5].sum() > 0.6 * n
        want[0] += n - want[:5].sum()  # the words never drawn
        assert counts.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "kwargs, n",
        [
            # reads 1e12 pitches from 0 V round to 1.2e-4 pitch: some reads
            # just inside a boundary are sensed past it
            (dict(a=1.0, tail=0.1, width=0.0, delta0=1.5, protected=False), 1 << 17),
            # with a margin below that rounding, reads inside the window
            # too, so every word is decoded
            (WINDOW_READS, 1 << 17),
            # no tail cells: about 1 word in 4000 is sensed wrong, all of
            # them words with no reaching cell
            (dict(WINDOW_READS, tail=0.0), 1 << 19),
        ],
        ids=["tail_reads", "window_reads", "window_reads_only"],
    )
    def test_rounding_far_from_zero(self, kwargs, n):
        config = far_from_zero(SimConfig(**kwargs))
        assert_matches_reference(config, n, None, (4,))

    @pytest.mark.parametrize(
        "name, k", [("tail_0", None), ("a_margin_37", None), ("a_margin_37", 2)]
    )
    def test_zero_share_counts_every_word_none(self, name, k):
        config = SimConfig(**self.CASES[name][0])
        if name == "a_margin_37":
            assert _reach_threshold(config) == _LATTICE - 1  # c = 0
        assert reach_share(config, k) == 0.0
        n = (3 << 14) + 7
        counts = tally(config, RngStream(5), n, tail_law(config.tail, k))
        assert counts.tolist() == [n, 0, 0, 0, 0, 0]

    @seed(13)
    @settings(max_examples=40, deadline=None)
    @given(
        a_delta0=st.floats(0.5, 40.0),
        aw_share=st.floats(0.0, 0.99),
        tail=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-4, 1.0)),
        protected=st.booleans(),
        interior=st.booleans(),
        far=st.booleans(),
        k=st.one_of(st.none(), st.integers(1, N_CELLS)),
        n=st.integers(1, REFERENCE_BATCH + 4000),
        seed=st.integers(0, 2**32),
    )
    def test_equals_reference_anywhere(
        self, a_delta0, aw_share, tail, protected, interior, far, k, n, seed
    ):
        config = SimConfig(
            a=1.0, tail=tail, width=3.0 * a_delta0 * aw_share, delta0=a_delta0,
            protected=protected, data_mode="interior" if interior else "uniform",
        )
        if far:
            config = far_from_zero(config)
        assert_matches_reference(config, n, k, (seed, 2))


# a tail cell's reach chance c, and the plain tail fractions and strata
REACH_CHANCES = pytest.mark.parametrize("c", [0.0, 5e-15, 0.011, 0.5, 1.0])
TAILS_AND_STRATA = pytest.mark.parametrize(
    "p, k",
    [(t, None) for t in (0.0, 1e-3, 0.3, 1.0)] + [(1e-3, k) for k in range(1, N_CELLS + 1)],
    ids=[f"tail_{t}" for t in (0.0, 1e-3, 0.3, 1.0)]
    + [f"stratum_{k}" for k in range(1, N_CELLS + 1)],
)


class TestRowLaw:
    """``_row_law`` against a direct enumeration of the per-cell states."""

    @staticmethod
    def brute_force(p, c, k):
        """Mass of each of the 3^4 state rows, with no cell-count shortcut."""
        mass = {}
        for row in product(range(3), repeat=N_CELLS):
            if k is None:
                cell = {0: 1.0 - p, 1: p * (1.0 - c), 2: p * c}
                w = math.prod(cell[s] for s in row)
            elif sum(s > 0 for s in row) == k:
                w = math.prod({1: 1.0 - c, 2: c}[s] for s in row if s > 0)
                w /= math.comb(N_CELLS, k)
            else:
                w = 0.0
            mass[row] = w
        return mass

    @REACH_CHANCES
    @TAILS_AND_STRATA
    def test_matches_enumeration(self, p, k, c):
        mass = self.brute_force(p, c, k)
        reach = sum(w for row, w in mass.items() if 2 in row)
        no_reach = sum(w for row, w in mass.items() if 2 not in row)
        pi, probs = _row_law(tail_law(p, k), c)
        assert pi == pytest.approx(reach, rel=1e-12, abs=1e-300)
        assert 1.0 - pi == pytest.approx(no_reach, rel=1e-12)
        if reach == 0.0:
            assert pi == 0.0 and not probs.any()
            return
        want = [mass[tuple(row)] / reach if 2 in row else 0.0 for row in _STATES.tolist()]
        assert probs == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)

    @REACH_CHANCES
    @TAILS_AND_STRATA
    def test_every_word_law(self, p, k, c):
        # every word is drawn from the unconditioned law, whose
        # all-interior row carries (1 - p)^4 in a plain run
        mass = self.brute_force(p, c, k)
        pi, probs = _row_law(tail_law(p, k), c, every_word=True)
        assert pi == 1.0
        want = [mass[tuple(row)] for row in _STATES.tolist()]
        assert probs == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)
        if k is None:
            assert probs[0] == pytest.approx((1.0 - p) ** N_CELLS, rel=1e-12)


class TestLiveRows:
    """``_tally`` draws each row from the rows of positive mass only; the
    draws and their cell-state counts must equal those of a search over
    the full 81-row table."""

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True).map(_stratum_weights),
            st.integers(0, N_CELLS).map(lambda k: np.eye(N_CELLS + 1)[k]),
        ),
        # 2^-52 is the least chance to reach, 1 the every-word case T = -1
        c=st.one_of(st.sampled_from([2.0**-52, 1.0]), st.floats(2.0**-52, 1.0)),
        seed=st.integers(0, 2**32),
    )
    def test_draws_equal_full_table(self, weights, c, seed):
        pi, probs = _row_law(weights, c, every_word=c == 1.0)
        live, cdf = _live_rows(probs)
        if pi == 0.0:  # no word is drawn
            assert len(live) == 0 and len(cdf) == 0
            return
        full = np.cumsum(probs)
        full /= full[-1]
        # 0, every cdf value and its neighbours, and uniforms in between
        u = np.concatenate((
            [0.0], full, np.nextafter(full, 0.0), np.nextafter(full, 1.0),
            np.random.default_rng(seed).random(2000),
        ))
        u = u[u < 1.0]
        rows, n_state = _draw_rows(live, cdf, u)
        assert np.array_equal(rows, np.searchsorted(full, u, side="right"))
        assert (probs.take(rows) > 0.0).all()
        states = _STATES.take(rows, axis=0).ravel()
        assert np.array_equal(n_state, np.bincount(states, minlength=3))


class FixedDraws:
    """Stands in for the generator: ``integers(0, high, n)`` returns
    ``pick(high)``."""

    def __init__(self, pick):
        self.pick = pick

    def integers(self, low, high, size):
        assert low == 0
        return np.asarray(self.pick(high), dtype=np.int64)


def ends_of_halves(high):
    """The first and last draw of each half of 0..high - 1."""
    return [0, high // 2 - 1, high // 2, high - 1]


def side_and_index(u):
    """(side, lattice index) of value uniforms, checked to be exact lattice
    points u = K 2^-53."""
    big_k = u * 2.0**53
    assert (big_k == np.floor(big_k)).all() and (u >= 0.0).all() and (u < 1.0).all()
    big_k = big_k.astype(np.int64)
    return (big_k >= _LATTICE).astype(int).tolist(), (big_k % _LATTICE).tolist()


class TestLattice:
    """``_lattice_u`` maps its draws onto the quiet (i <= T) and the
    reaching (i > T) lattice points, on both sides."""

    @pytest.mark.parametrize("t", [-1, 0, _LATTICE - 2, _LATTICE - 1])
    @pytest.mark.parametrize("reaching", [False, True], ids=["quiet", "reaching"])
    def test_bijection_at_end_points(self, t, reaching):
        lo, hi = (t + 1, _LATTICE - 1) if reaching else (0, t)
        if hi < lo:
            return  # an empty set, whose state has chance 0
        side, i = side_and_index(_lattice_u(FixedDraws(ends_of_halves), 4, t, reaching))
        assert side == [0, 0, 1, 1]
        assert i == [lo, hi, lo, hi]
        # the map increases strictly, so with these ends it is a bijection
        draws = np.sort(RngStream(6).gen.integers(0, 2 * (hi - lo + 1), 1000))
        u = _lattice_u(FixedDraws(lambda high: draws), len(draws), t, reaching)
        assert (np.diff(u)[np.diff(draws) > 0] > 0).all()
        side, i = side_and_index(u)
        assert lo <= min(i) and max(i) <= hi

    @pytest.mark.parametrize("t", [-1, 0, _LATTICE - 2, _LATTICE - 1])
    @pytest.mark.parametrize("reaching", [False, True], ids=["quiet", "reaching"])
    def test_draws_cover_both_sides(self, t, reaching):
        lo, hi = (t + 1, _LATTICE - 1) if reaching else (0, t)
        n = 0 if hi < lo else 2000
        side, i = side_and_index(_lattice_u(RngStream(7).gen, n, t, reaching))
        assert all(lo <= x <= hi for x in i)
        if n:
            assert 0.45 < np.mean(side) < 0.55


QUIET_CASES = {
    "plain_dense": dict(a=1.0, tail=1.0, width=0.0, delta0=6.0),
    "stratified_rare": dict(a=1.0, tail=1e-3, width=6.9, delta0=6.9),
    "a_margin_33": dict(a=1.0, tail=1.0, width=0.0, delta0=44.0),
    "a_margin_37": dict(a=1.0, tail=1.0, width=0.0, delta0=50.0),
    "unprotected": dict(a=1.0, tail=0.1, width=0.0, delta0=1.5, protected=False),
    # margin/2 a few times the slack 1e12 pitches from 0 V
    "small_margin": dict(a=3.0, tail=0.1, width=1.0, delta0=0.36),
}


class TestQuietCells:
    """A quiet tail cell, at its largest index T on either side, and an
    interior cell at either end of its window sense their written level,
    so words with no reaching cell are NONE."""

    @pytest.mark.parametrize("far", [False, True], ids=["l0_0", "l0_1e12_pitch"])
    @pytest.mark.parametrize("name", sorted(QUIET_CASES))
    def test_sense_written_level(self, name, far):
        config = SimConfig(**QUIET_CASES[name])
        if far:
            config = far_from_zero(config)
        noise, grid = config.noise(), config.grid()
        t = _reach_threshold(config)
        assert t is not None and t >= 0
        # per word: tail cells at the quiet lattice's largest index T, below
        # and above, and interior cells at u = 0 and u = 1 - 2^-53
        quiet = _lattice_u(FixedDraws(ends_of_halves), 4, t, reaching=False)
        u = np.array([quiet[1], quiet[3], 0.0, 1.0 - 2.0**-53])
        tail_mask = np.array([True, True, False, False])
        written = np.repeat(np.arange(grid.n_levels)[:, None], N_CELLS, axis=1)
        reads = _read_offsets(np.tile(tail_mask, (grid.n_levels, 1)),
                              np.tile(u, (grid.n_levels, 1)), noise)
        reads += grid.l0 + grid.pitch * written
        assert (margin_sense(reads, grid) == written).all()
