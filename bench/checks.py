"""Correctness checks and the statistics the benchmark reports.

Nothing here imports norsim: the reference decoder, the interval
arithmetic and the stratum combination are the benchmark's own, so a
defect in the program cannot hide behind the same defect in its check.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np

N_CELLS = 4
BITS_PER_WORD = 8
ALPHA = 1e-6  # per-check false-alarm probability of the statistical bounds
Z_REF = 5.0  # width, in standard errors, of a pinned reference interval
TARGET_RSE = 0.10

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


# ------------------------------------------------------------ statistics


def _poisson_term(i: int, mu: float) -> float:
    return math.exp(i * math.log(mu) - mu - math.lgamma(i + 1)) if mu > 0 else float(i == 0)


def poisson_cdf(x: int, mu: float) -> float:
    """P(X <= x) for X ~ Poisson(mu)."""
    return min(sum(_poisson_term(i, mu) for i in range(x + 1)), 1.0)


def poisson_sf(x: int, mu: float) -> float:
    """P(X >= x) for X ~ Poisson(mu), summed upward from x."""
    if x <= 0:
        return 1.0
    total, i = 0.0, x
    while True:
        term = _poisson_term(i, mu)
        total += term
        if i > mu and term <= 1e-17 * total:  # also ends a tail that underflows to 0
            return min(total, 1.0)
        i += 1


def count_plausible(events: int, n: int, p_lo: float, p_hi: float, alpha: float = ALPHA) -> bool:
    """Whether ``events`` in ``n`` trials fits some rate in [p_lo, p_hi].

    The Poisson law is wider than the binomial at the same mean, so the
    test errs toward accepting; it rejects only counts that are too high
    for p_hi or too low for p_lo at level ``alpha``."""
    return poisson_sf(events, n * p_hi) >= alpha and poisson_cdf(events, n * p_lo) >= alpha


def wilson(events: int, n: int, z: float = Z_REF) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    p = events / n
    z2n = z * z / n
    center = (p + z2n / 2) / (1 + z2n)
    half = z * math.sqrt(p * (1 - p) / n + z2n / (4 * n)) / (1 + z2n)
    return max(center - half, 0.0), min(center + half, 1.0)


def stratum_weights(tail: float) -> dict[int, float]:
    """Binomial probability of k tail cells among the four cells of a word."""
    return {
        k: math.comb(N_CELLS, k) * tail**k * (1 - tail) ** (N_CELLS - k)
        for k in range(N_CELLS + 1)
    }


def stratified_moments(strata, tail: float) -> tuple[float, float]:
    """(word error probability, its variance) from per-stratum counts.

    ``strata`` holds (k, trials, events) for every simulated stratum; the
    k = 0 stratum is error-free by construction and contributes nothing."""
    w = stratum_weights(tail)
    p = var = 0.0
    for k, n, events in strata:
        m = events / n
        p += w[k] * m
        var += w[k] ** 2 * m * (1 - m) / n
    return p, var


def time_to_rse(wall_s: float, p: float, var: float, target: float = TARGET_RSE) -> float:
    """Seconds to reach relative standard error ``target``: the work scales
    with 1/RSE^2, so wall * (RSE / target)^2."""
    return wall_s * (var / p**2) / target**2


def plain_time_to_rse(words_per_s: float, p: float, target: float = TARGET_RSE) -> float:
    """``time_to_rse`` of plain Monte Carlo at word error probability p: n
    trials give RSE^2 = (1 - p) / (n p), so n = (1 - p) / (p target^2)."""
    return (1 - p) / (p * target**2) / words_per_s


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank q-quantile, refused unless ``min_beyond`` samples lie
    above it: a tail percentile needs that many samples to mean anything."""
    s = np.sort(np.asarray(samples, dtype=float))
    rank = max(math.ceil(q * len(s)), 1)
    if len(s) - rank < min_beyond:
        raise ValueError(
            f"{len(s)} samples leave fewer than {min_beyond} beyond the {q:g} quantile"
        )
    return float(s[rank - 1])


# ------------------------------------------------------------ references


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload]


def reference_interval(ref: dict) -> tuple[float, float]:
    """Interval of the pinned word error probability, Z_REF wide.

    A stratified reference combines per-stratum Wilson bounds, which is
    conservative because the bounds cannot all be reached at once."""
    if ref["estimator"] == "plain":
        return wilson(ref["events"], ref["trials"])
    w = stratum_weights(ref["tail"])
    lo = hi = 0.0
    for s in ref["strata"]:
        a, b = wilson(s["events"], s["trials"])
        lo += w[s["k"]] * a
        hi += w[s["k"]] * b
    return lo, hi


def reference_rate(ref: dict) -> float:
    """Point value of the pinned word error probability."""
    if ref["estimator"] == "plain":
        return ref["events"] / ref["trials"]
    return stratified_moments(
        [(s["k"], s["trials"], s["events"]) for s in ref["strata"]], ref["tail"]
    )[0]


# ------------------------------------------------------------ simulate output


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_plain(doc: dict, trials: int, ref: dict) -> list[str]:
    """Problems with one plain ``simulate`` document; empty when correct."""
    est = doc["results"]["estimate"]
    problems = []
    if est["trials"] != trials:
        problems.append(f"trials {est['trials']} != requested {trials}")
    per_class = est["per_class"]
    if sum(per_class.values()) != est["trials"]:
        problems.append("per-class counts do not sum to trials")
    events = est["word_error_events"]
    if events != est["trials"] - per_class["none"]:
        problems.append("events disagree with the per-class counts")
    rate = est["event_rate_per_bit"]
    if not _close(rate, events / (est["trials"] * BITS_PER_WORD)):
        problems.append(f"rate {rate} != events / (8 trials)")
    lo, hi = est["ci95"]
    if not lo <= rate <= hi:
        problems.append(f"rate {rate} outside its own ci95 [{lo}, {hi}]")
    ref_lo, ref_hi = reference_interval(ref)
    if not count_plausible(int(events), est["trials"], ref_lo, ref_hi):
        problems.append(
            f"{events} events in {est['trials']} trials disagree with the "
            f"reference word rate [{ref_lo:.4g}, {ref_hi:.4g}]"
        )
    return problems


def check_stratified(doc: dict, tail: float, ref: dict) -> list[str]:
    """Problems with one stratified ``simulate`` document."""
    est = doc["results"]["estimate"]
    problems = []
    strata = [s for s in est.get("strata") or [] if s["simulated"]]
    weights = stratum_weights(tail)
    if sorted(s["n_tail_cells"] for s in strata) != [k for k in weights if k and weights[k]]:
        return [f"simulated strata {[s['n_tail_cells'] for s in strata]} are not k=1..4"]
    for s in strata:
        if not _close(s["weight"], weights[s["n_tail_cells"]]):
            problems.append(f"stratum {s['n_tail_cells']} weight {s['weight']} is wrong")
    if est["trials"] != sum(s["trials"] for s in strata):
        problems.append("trials do not sum over strata")
    p, _ = stratified_moments([(s["n_tail_cells"], s["trials"], s["events"]) for s in strata], tail)
    rate = est["event_rate_per_bit"]
    if not _close(rate, p / BITS_PER_WORD):
        problems.append(f"rate {rate} != weighted stratum means {p / BITS_PER_WORD}")
    lo, hi = est["ci95"]
    if not lo <= rate <= hi:
        problems.append(f"rate {rate} outside its own ci95 [{lo}, {hi}]")
    return problems + stratum_problems(
        [(s["n_tail_cells"], s["trials"], s["events"]) for s in strata], ref)


def stratum_problems(strata, ref: dict) -> list[str]:
    """Strata, given as (k, trials, events), whose counts disagree with the
    pinned per-stratum means."""
    pinned = {s["k"]: s for s in ref["strata"]}
    problems = []
    for k, n, events in strata:
        r_lo, r_hi = wilson(pinned[k]["events"], pinned[k]["trials"])
        if not count_plausible(events, n, r_lo, r_hi):
            problems.append(
                f"stratum {k}: {events} events in {n} "
                f"disagree with the reference mean [{r_lo:.4g}, {r_hi:.4g}]"
            )
    return problems


def check_pooled(docs, ref: dict) -> list[str]:
    """Problems with the summed counts of a run's checked ``simulate`` documents.

    One call leaves room for a sizeable bias: its expected counts pass the
    reference test at rates up to 8.5% off on plain_dense and 50-60% off on
    stratified_rare's stratum 1.  Summed over a run's calls (at least 22
    and 18), the same test rejects a bias of 2.5% and of 20%."""
    ests = [d["results"]["estimate"] for d in docs]
    if ref["estimator"] == "plain":
        n = sum(e["trials"] for e in ests)
        events = sum(int(e["word_error_events"]) for e in ests)
        lo, hi = reference_interval(ref)
        if count_plausible(events, n, lo, hi):
            return []
        return [f"pooled: {events} events in {n} trials disagree with the "
                f"reference word rate [{lo:.4g}, {hi:.4g}]"]
    pooled = {}
    for e in ests:
        for s in e["strata"]:
            if s["simulated"]:
                n, events = pooled.get(s["n_tail_cells"], (0, 0))
                pooled[s["n_tail_cells"]] = (n + s["trials"], events + s["events"])
    return ["pooled " + p for p in
            stratum_problems([(k, n, ev) for k, (n, ev) in sorted(pooled.items())], ref)]


# ------------------------------------------------------------ decoding


class BruteForceDecoder:
    """Margin sense, parity check and exhaustive L1 search over the
    codewords whose symbol sum is one off the sensed sum."""

    def __init__(self, n_levels: int, l0: float, pitch: float):
        self.levels = l0 + pitch * np.arange(n_levels)
        words = [w for w in product(range(n_levels), repeat=N_CELLS) if sum(w) % 2 == 0]
        self.words = np.array(words, dtype=np.int64)  # lexicographic order
        self.sums = self.words.sum(axis=1)
        self.word_volts = self.levels[self.words]
        self.place = n_levels ** np.arange(N_CELLS - 1, -1, -1)  # radix of a word
        self.rank = np.full(n_levels**N_CELLS, -1)
        self.rank[self.words @ self.place] = np.arange(len(self.words))

    def decode(self, reads) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(decoded words, parity passed, byte or -1) for reads of shape (m, 4)."""
        v = np.asarray(reads, dtype=float)
        # nearest level per cell; argmin keeps the lower level on exact ties
        sensed = np.abs(v[:, :, None] - self.levels).argmin(axis=2)
        sums = sensed.sum(axis=1)
        passed = sums % 2 == 0
        decoded = sensed.copy()
        for i in np.nonzero(~passed)[0]:
            dist = np.abs(v[i] - self.word_volts).sum(axis=1)
            dist[np.abs(self.sums - sums[i]) != 1] = np.inf
            decoded[i] = self.words[dist.argmin()]
        rank = self.rank[decoded @ self.place]
        return decoded, passed, np.where(rank < 256, rank, -1)


def decode_mismatches(decoder: BruteForceDecoder, reads, words, passed, byte) -> int:
    """Number of reads whose (word, parity_passed, byte) differs from the
    brute-force reference; ``byte`` uses -1 for an unmapped word."""
    ref_words, ref_passed, ref_byte = decoder.decode(reads)
    bad = (
        (np.asarray(words) != ref_words).any(axis=1)
        | (np.asarray(passed) != ref_passed)
        | (np.asarray(byte) != ref_byte)
    )
    return int(bad.sum())
