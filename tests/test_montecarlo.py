"""Simulation engine: determinism, sharding, classification, stratification."""

import json
import math
import os
import sys

import numpy as np
import pytest

from norsim.analytic import ChannelPoint, baseline_rates
from norsim.channel import RngStream, sample_read
from norsim.codec import CodeBook, DecodeOutcome, margin_sense, read_byte
from norsim.montecarlo import (
    BerEstimate,
    ErrorClass,
    SimConfig,
    _CLASS_ORDER,
    _data_pool,
    _stratum_weights,
    _tally,
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
        corrected=None if parity_passed else word,
        byte=None,
        decoder_distance=None if parity_passed else 0.1,
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

    def test_engine_matches_scalar_decoder(self):
        # the same stream drawn through the public API, decoded one word at
        # a time by read_byte and classified by classify_error
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
        got = _tally(cfg, RngStream(99), 400)
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
        got = _tally(cfg, RngStream(98), 400)
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
        *_, uniform = _data_pool(SimConfig(data_mode="uniform", **base))
        *_, interior = _data_pool(SimConfig(data_mode="interior", **base))
        assert len(uniform) == 256
        # even-parity words over the three inner levels: (3**4 + 1) / 2
        assert len(interior) == 41
        assert interior.min() >= 1 and interior.max() <= 3
        # unprotected runs draw symbols 0..3, or 1..2 on interior data
        assert _data_pool(SimConfig(data_mode="uniform", protected=False, **base)) == (0, 4, None)
        assert _data_pool(SimConfig(data_mode="interior", protected=False, **base)) == (1, 3, None)

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
        cfg = SimConfig(a=1.0, tail=0.1, width=0.5, delta0=4.0, protected=False,
                        trials=1, seed=15, stratified=True)
        with pytest.raises(ValueError):
            run_stratified(cfg)

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


class TestThreadPool:
    """Shards and strata run as thread-pool tasks, each on its own stream,
    and merge in task order: results equal a serial run's."""

    BASE = dict(a=1.0, tail=0.3, width=0.5, delta0=3.0)

    def test_pooled_equals_serial_tallies(self, monkeypatch):
        plain = SimConfig(trials=40_003, seed=23, shards=5, **self.BASE)
        strat = SimConfig(trials=1, seed=23, stratified=True,
                          subtrials_per_stratum=5_000, **self.BASE)
        serial = sum(
            _tally(plain, RngStream(23, i), len(range(i, plain.trials, 5)))
            for i in range(5)
        )
        serial_strata = [
            int(_tally(strat, RngStream(23, 10_000 + k), 5_000, k)[1:5].sum())
            for k in range(1, 5)
        ]
        monkeypatch.setattr(os, "cpu_count", lambda: 5)  # more workers than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = run_trials(plain)
            strata = [run_stratified(strat) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert est.word_error_events == int(serial[1:5].sum())
        assert est.bit_errors_hamming == int(serial[5])
        assert est.per_class == {
            c.value: int(serial[i]) for i, c in enumerate(_CLASS_ORDER)
        }
        assert strata[0] == strata[1] == strata[2]
        assert [s.events for s in strata[0].strata[1:]] == serial_strata

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_does_not_change_results(self, monkeypatch, workers):
        plain = SimConfig(trials=30_000, seed=24, shards=3, **self.BASE)
        strat = SimConfig(trials=1, seed=24, stratified=True,
                          subtrials_per_stratum=5_000, **self.BASE)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        want = run_trials(plain), run_stratified(strat)
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        assert (run_trials(plain), run_stratified(strat)) == want


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
