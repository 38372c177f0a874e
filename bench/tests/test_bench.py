"""The benchmark's own checks: wrong results must count as failures, and
the reported statistics must follow their stated formulas.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import math

import numpy as np
import pytest

import checks
from norsim.codec import CodeBook, read_byte
from spans import Tracer
from workloads import CALL_WORDS, WORKLOADS, draw_reads, run_cli

DENSE = WORKLOADS["plain_dense"]
RARE = WORKLOADS["stratified_rare"]


@pytest.fixture(scope="module")
def dense_doc():
    _, rc, text = run_cli(DENSE.simulate_args(seed=5))
    assert rc == 0
    return json.loads(text)


def stratified_doc(ref, trials_per_stratum=1 << 18, bias=None):
    """A stratified simulate document whose counts sit at the reference
    means, times ``bias[k]`` for the strata k it names."""
    w = checks.stratum_weights(ref["tail"])
    strata = []
    for s in ref["strata"]:
        n = trials_per_stratum
        events = round(n * s["events"] / s["trials"] * (bias or {}).get(s["k"], 1))
        strata.append({"n_tail_cells": s["k"], "weight": w[s["k"]], "trials": n,
                       "events": events, "mean": events / n, "simulated": True})
    p, var = checks.stratified_moments(
        [(s["n_tail_cells"], s["trials"], s["events"]) for s in strata], ref["tail"])
    half = 1.96 * math.sqrt(var)
    est = {"trials": sum(s["trials"] for s in strata), "event_rate_per_bit": p / 8,
           "ci95": [(p - half) / 8, (p + half) / 8], "strata": strata}
    return {"results": {"estimate": est}}


def plain_doc_with(doc, events):
    """A copy of a plain document with ``events`` word errors, consistently recounted."""
    doc = copy.deepcopy(doc)
    est = doc["results"]["estimate"]
    extra = events - est["word_error_events"]
    scale = events / est["word_error_events"]
    est["word_error_events"] = events
    est["per_class"]["other"] += extra
    est["per_class"]["none"] -= extra
    est["event_rate_per_bit"] *= scale
    est["ci95"] = [x * scale for x in est["ci95"]]
    return doc


def test_real_plain_run_passes(dense_doc):
    assert checks.check_plain(dense_doc, CALL_WORDS, checks.load_reference("plain_dense")) == []


def test_wrong_plain_estimate_fails(dense_doc):
    ref = checks.load_reference("plain_dense")
    doubled = plain_doc_with(dense_doc, 2 * dense_doc["results"]["estimate"]["word_error_events"])
    problems = checks.check_plain(doubled, CALL_WORDS, ref)
    assert len(problems) == 1 and "reference" in problems[0]

    inconsistent = copy.deepcopy(dense_doc)
    inconsistent["results"]["estimate"]["event_rate_per_bit"] *= 1.01
    assert checks.check_plain(inconsistent, CALL_WORDS, ref)
    assert checks.check_plain(dense_doc, CALL_WORDS // 2, ref)


def test_stratified_check():
    ref = checks.load_reference("stratified_rare")
    doc = stratified_doc(ref)
    assert checks.check_stratified(doc, RARE.tail, ref) == []

    inflated = copy.deepcopy(doc)
    s1 = inflated["results"]["estimate"]["strata"][0]
    s1["events"] *= 3
    assert any("stratum 1" in p for p in checks.check_stratified(inflated, RARE.tail, ref))

    wrong_rate = copy.deepcopy(doc)
    wrong_rate["results"]["estimate"]["event_rate_per_bit"] *= 2
    assert checks.check_stratified(wrong_rate, RARE.tail, ref)


def test_pooled_check_sees_small_biases(dense_doc):
    calls = 22  # the fewest timed calls a plain_dense run has made
    ref = checks.load_reference("plain_dense")
    expected = checks.reference_rate(ref) * CALL_WORDS
    doc = plain_doc_with(dense_doc, round(expected))
    biased = plain_doc_with(dense_doc, round(expected * 1.05))  # passes one call
    assert checks.check_plain(biased, CALL_WORDS, ref) == []
    assert checks.check_pooled([doc] * calls, ref) == []
    assert checks.check_pooled([biased] * calls, ref)

    calls = 18  # the same for stratified_rare
    ref = checks.load_reference("stratified_rare")
    doc = stratified_doc(ref)
    biased = stratified_doc(ref, bias={1: 1.3})  # passes one call
    assert checks.check_stratified(biased, RARE.tail, ref) == []
    assert checks.check_pooled([doc] * calls, ref) == []
    problems = checks.check_pooled([biased] * calls, ref)
    assert len(problems) == 1 and "stratum 1" in problems[0]


def test_wrong_decode_counts():
    grid, _ = DENSE.channel()
    book = CodeBook.build(grid.n_levels)
    _, reads = draw_reads(DENSE, seed=3, stream=0, words=4000)
    outs = [read_byte(r, grid, book) for r in reads]
    words = np.array([o.word for o in outs])
    passed = np.array([o.parity_passed for o in outs])
    byte = np.array([-1 if o.byte is None else o.byte for o in outs])
    assert (~passed).sum() > 50  # corrected reads are exercised
    decoder = checks.BruteForceDecoder(grid.n_levels, grid.l0, grid.pitch)
    assert checks.decode_mismatches(decoder, reads, words, passed, byte) == 0

    corrected = np.nonzero(~passed)[0][0]
    bad_words = words.copy()
    bad_words[corrected, 0] = (bad_words[corrected, 0] + 2) % grid.n_levels
    assert checks.decode_mismatches(decoder, reads, bad_words, passed, byte) == 1
    bad_byte = byte.copy()
    bad_byte[:3] = (bad_byte[:3] + 1) % 256
    assert checks.decode_mismatches(decoder, reads, words, passed, bad_byte) == 3
    assert checks.decode_mismatches(decoder, reads, words, ~passed, byte) == len(reads)


def test_time_to_rse():
    # RSE 0.1 already: the wall time itself; RSE 0.2 needs four times the work
    assert checks.time_to_rse(10.0, p=1e-3, var=1e-8) == pytest.approx(10.0)
    assert checks.time_to_rse(10.0, p=1e-3, var=4e-8) == pytest.approx(40.0)
    # plain Monte Carlo: n trials at p give var = p (1 - p) / n
    p, rate, n = 3e-3, 2e6, 1e6
    assert checks.plain_time_to_rse(rate, p) == pytest.approx(
        checks.time_to_rse(n / rate, p, p * (1 - p) / n))


def test_percentile_needs_ten_beyond():
    samples = np.arange(1, 1001)
    assert checks.percentile(samples, 0.5) == 500
    assert checks.percentile(samples, 0.99) == 990  # 10 samples lie above
    with pytest.raises(ValueError):
        checks.percentile(samples[:-1], 0.99)  # 999 samples leave 9 above
    with pytest.raises(ValueError):
        checks.percentile(np.arange(15), 0.5)


def test_poisson_tails():
    for mu in (0.5, 3.0, 400.0):
        for x in (0, 2, 380):
            total = checks.poisson_cdf(x, mu) + checks.poisson_sf(x + 1, mu)
            assert total == pytest.approx(1.0, abs=1e-12)
    assert checks.count_plausible(2, 1 << 20, 1e-6, 3e-6)
    assert not checks.count_plausible(40, 1 << 20, 1e-6, 3e-6)
    assert not checks.count_plausible(0, 1 << 20, 1e-4, 2e-4)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        with tracer.span("child", parent) as child:
            sum(range(10000))
    assert tracer.self_seconds(parent) == pytest.approx(parent.seconds - child.seconds)
    assert tracer.self_seconds(child) == child.seconds
