"""Monte Carlo estimation of word and bit error rates.

Writes place each cell exactly at its target level voltage (the read law
already describes the full spread of the read-back voltage), reads are
sampled per cell, and words are decoded either by margin sensing alone
(4-level, unprotected) or by the parity codec (5-level, protected).

Trials are sharded deterministically: trial t belongs to shard t mod
shards, and shard i consumes the random stream (seed, i), so a given
(seed, shards) pair is bit-reproducible regardless of scheduling.  The
tail-stratified estimator conditions on the number of tail cells per
word, which is the rare-event driver at small tail fractions; cells
inside the program window can never cross a decision boundary, so the
all-interior stratum is accounted analytically as error-free.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .analytic import ChannelPoint
from .channel import (
    LevelGrid,
    NoiseModel,
    RngStream,
    _sample_conditioned,
    _sample_mixture,
    five_level_grid,
    four_level_grid,
)
from .codec import N_CELLS, CodeBook, DecodeOutcome, decode, margin_sense

__all__ = [
    "ErrorClass",
    "SimConfig",
    "StratumResult",
    "BerEstimate",
    "run_trials",
    "run_stratified",
    "classify_error",
    "confidence_interval",
    "variance_reduction_factor",
    "estimate_to_dict",
]

BITS_PER_WORD = 8  # N_CELLS cells * 2 payload bits per cell

_BATCH = 1 << 20

_Z95 = 1.959963984540054

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
_POPCOUNT2 = np.array([0, 1, 1, 2], dtype=np.int64)


class ErrorClass(Enum):
    """Decode-error taxonomy of the protected system.

    TYPE_I: parity passed on a wrong word (undetected multi-cell upset).
    TYPE_II: correction moved one cell by exactly two levels.
    TYPE_III: correction swapped a pair one level up / one level down.
    OTHER: any remaining mismatch (same-direction pair shifts, triple
    upsets, unmapped decodes); in unprotected runs every error is OTHER.
    """

    NONE = "none"
    TYPE_I = "type_i"
    TYPE_II = "type_ii"
    TYPE_III = "type_iii"
    OTHER = "other"


_CLASS_ORDER = (
    ErrorClass.NONE,
    ErrorClass.TYPE_I,
    ErrorClass.TYPE_II,
    ErrorClass.TYPE_III,
    ErrorClass.OTHER,
)


@dataclass(frozen=True)
class SimConfig:
    """Channel, code, and harness parameters for one simulation run.

    delta0 is the margin of the 4-level reference grid; the protected
    grid derives its margin from the equal-window condition.  data_mode
    "interior" draws only words whose symbols avoid the outer levels,
    which removes edge-clamping effects and matches the two-sided
    exposure the closed forms assume.
    """

    a: float
    tail: float
    width: float
    delta0: float
    l0: float = 0.0
    protected: bool = True
    trials: int = 1_000_000
    seed: int = 0
    shards: int = 1
    stratified: bool = False
    data_mode: str = "uniform"
    subtrials_per_stratum: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.data_mode not in ("uniform", "interior"):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.subtrials_per_stratum is not None and self.subtrials_per_stratum < 1:
            raise ValueError("subtrials_per_stratum must be >= 1")
        self.noise()
        self.grid()

    def noise(self) -> NoiseModel:
        return NoiseModel(a=self.a, tail=self.tail, width=self.width)

    def grid(self) -> LevelGrid:
        if self.protected:
            return five_level_grid(self.delta0, self.width, self.l0)
        return four_level_grid(self.delta0, self.width, self.l0)

    def point(self) -> ChannelPoint:
        return ChannelPoint(
            a_delta0=self.a * self.delta0, a_w=self.a * self.width, tail=self.tail
        )


@dataclass(frozen=True)
class StratumResult:
    """Per-stratum bookkeeping of a stratified run."""

    n_tail_cells: int
    weight: float
    trials: int
    events: int
    mean: float
    simulated: bool


@dataclass(frozen=True)
class BerEstimate:
    """Aggregate result of a simulation run.

    event_rate_per_bit counts one event per wrong decoded word, divided
    by trials * 8 stored bits; hamming_rate counts actual payload bit
    flips (an unmapped decode counts as a full byte).  In stratified runs
    counts are real-valued binomial-weighted expectations and ``weighted``
    is set.
    """

    trials: int
    word_error_events: float
    bit_errors_hamming: float
    event_rate_per_bit: float
    hamming_rate: float
    ci95: tuple[float, float]
    per_class: dict[str, float]
    weighted: bool = False
    strata: tuple[StratumResult, ...] | None = None


def confidence_interval(events: float, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval on the word-event probability."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= events <= trials:
        raise ValueError(f"events {events} outside [0, {trials}]")
    p = events / trials
    z2n = z * z / trials
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    lo = 0.0 if events == 0 else max(center - half, 0.0)
    hi = 1.0 if events == trials else min(center + half, 1.0)
    return (lo, hi)


def _classify(written, decoded, parity_passed, protected: bool = True) -> np.ndarray:
    """Class codes 0..4 per row of (m, 4) words, indexing _CLASS_ORDER.

    Unprotected decodes have no parity check, so every error is OTHER.
    """
    diff = decoded - written
    err = (diff != 0).any(axis=1)
    cls = np.zeros(len(written), dtype=np.int8)
    if not protected:
        cls[err] = 4
        return cls
    cls[err & parity_passed] = 1
    corrected = err & ~parity_passed
    nz = (diff != 0).sum(axis=1)
    dmax = diff.max(axis=1)
    dmin = diff.min(axis=1)
    absmax = np.maximum(dmax, -dmin)
    is_ii = corrected & (nz == 1) & (absmax == 2)
    is_iii = corrected & (nz == 2) & (dmax == 1) & (dmin == -1)
    cls[is_ii] = 2
    cls[is_iii] = 3
    cls[corrected & ~is_ii & ~is_iii] = 4
    return cls


class _Engine:
    """Vectorized write/read/decode pipeline bound to one configuration."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.noise = config.noise()
        self.grid = config.grid()
        n = self.grid.n_levels
        if config.protected:
            self.book = CodeBook.build(n)
            words = self.book.words
            radix = self._radix(words)
            self.byte_lut = np.full(n**N_CELLS, -1, dtype=np.int64)
            self.byte_lut[radix[:256]] = np.arange(256)
            if config.data_mode == "interior":
                inner = (words >= 1).all(axis=1) & (words <= n - 2).all(axis=1)
                self.data_pool = words[inner]
            else:
                self.data_pool = words[:256]
        else:
            self.symbol_low, self.symbol_high = (
                (1, n - 1) if config.data_mode == "interior" else (0, n)
            )

    def _radix(self, words: np.ndarray) -> np.ndarray:
        n = self.grid.n_levels
        return ((words[:, 0] * n + words[:, 1]) * n + words[:, 2]) * n + words[:, 3]

    def draw_words(self, m: int, gen: np.random.Generator) -> np.ndarray:
        if self.config.protected:
            idx = gen.integers(0, len(self.data_pool), m)
            return self.data_pool[idx]
        return gen.integers(self.symbol_low, self.symbol_high, (m, N_CELLS))

    def sample_reads(self, written: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        centers = self.grid.l0 + self.grid.pitch * written
        return _sample_mixture(centers, self.noise, gen)

    def decode(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode read voltages (m, 4) -> (decoded words, parity_passed)."""
        if not self.config.protected:
            return margin_sense(v, self.grid), np.ones(len(v), dtype=bool)
        _, decoded, passed = decode(v, self.grid)
        return decoded, passed

    def classify(
        self, written: np.ndarray, decoded: np.ndarray, parity_passed: np.ndarray
    ) -> np.ndarray:
        """Class codes 0..4 per trial, indexing _CLASS_ORDER."""
        return _classify(written, decoded, parity_passed, self.config.protected)

    def hamming_bits(self, written: np.ndarray, decoded: np.ndarray) -> np.ndarray:
        """Payload bit flips per trial."""
        if not self.config.protected:
            return _POPCOUNT2[np.bitwise_xor(written, decoded)].sum(axis=1)
        wb = self.byte_lut[self._radix(written)]
        db = self.byte_lut[self._radix(decoded)]
        flips = _POPCOUNT8[np.bitwise_xor(wb, db) & 0xFF]
        return np.where(db < 0, 8, flips)


def classify_error(written, outcome: DecodeOutcome) -> ErrorClass:
    """Classify one decode of ``written`` into the error taxonomy."""
    code = _classify(
        np.asarray(written, dtype=np.int64)[None],
        np.asarray(outcome.word, dtype=np.int64)[None],
        np.array([outcome.parity_passed]),
    )
    return _CLASS_ORDER[code[0]]


def _shard_sizes(trials: int, shards: int) -> list[int]:
    return [len(range(i, trials, shards)) for i in range(shards)]


def run_trials(config: SimConfig) -> BerEstimate:
    """Plain Monte Carlo: write random data, read, decode, classify."""
    if config.stratified:
        raise ValueError("config.stratified is set; use run_stratified")
    engine = _Engine(config)
    events = 0
    hamming = 0
    class_counts = np.zeros(5, dtype=np.int64)
    for shard, n_shard in enumerate(_shard_sizes(config.trials, config.shards)):
        if n_shard == 0:
            continue
        rng = RngStream(config.seed, shard)
        for lo in range(0, n_shard, _BATCH):
            m = min(_BATCH, n_shard - lo)
            written = engine.draw_words(m, rng.gen)
            v = engine.sample_reads(written, rng.gen)
            decoded, passed = engine.decode(v)
            cls = engine.classify(written, decoded, passed)
            class_counts += np.bincount(cls, minlength=5)
            events += int((cls != 0).sum())
            hamming += int(engine.hamming_bits(written, decoded).sum())
    rate = events / (config.trials * BITS_PER_WORD)
    ci = confidence_interval(events, config.trials)
    return BerEstimate(
        trials=config.trials,
        word_error_events=events,
        bit_errors_hamming=hamming,
        event_rate_per_bit=rate,
        hamming_rate=hamming / (config.trials * BITS_PER_WORD),
        ci95=(ci[0] / BITS_PER_WORD, ci[1] / BITS_PER_WORD),
        per_class={c.value: int(class_counts[i]) for i, c in enumerate(_CLASS_ORDER)},
        weighted=False,
    )


def _stratum_weights(tail: float) -> np.ndarray:
    k = np.arange(N_CELLS + 1)
    return np.array(
        [math.comb(N_CELLS, int(i)) * tail**i * (1.0 - tail) ** (N_CELLS - i) for i in k]
    )


def run_stratified(config: SimConfig) -> BerEstimate:
    """Stratified Monte Carlo over the number of tail cells per word.

    Stratum k draws words with exactly k cells forced into the tail law
    and weights results by the binomial mass of k tail cells, which keeps
    the estimator unbiased for the plain-Monte-Carlo mean.  The k = 0
    stratum is error-free by construction (interior deviations are below
    half the program width, hence below every decision boundary) and is
    folded in analytically.
    """
    if not config.stratified:
        raise ValueError("config.stratified is not set; use run_trials")
    if not config.protected:
        raise ValueError("stratified runs support the protected mode only")
    engine = _Engine(config)
    # interior deviations stay below width/2 < width/2 + margin/2, so the
    # all-interior stratum can never cross a decision boundary
    assert engine.grid.margin > 0.0
    weights = _stratum_weights(config.tail)
    n_per = config.subtrials_per_stratum or max(config.trials // N_CELLS, 1)

    p_hat = 0.0
    var = 0.0
    ham_rate = 0.0
    class_rates = np.zeros(5)
    work = 0
    strata: list[StratumResult] = []
    for k in range(N_CELLS + 1):
        w = float(weights[k])
        if k == 0 or w == 0.0:
            strata.append(
                StratumResult(
                    n_tail_cells=k, weight=w, trials=0, events=0, mean=0.0,
                    simulated=False,
                )
            )
            continue
        rng = RngStream(config.seed, 10_000 + k)
        events_k = 0
        ham_k = 0
        class_k = np.zeros(5, dtype=np.int64)
        for lo in range(0, n_per, _BATCH):
            m = min(_BATCH, n_per - lo)
            written = engine.draw_words(m, rng.gen)
            ranks = rng.gen.random((m, N_CELLS)).argsort(axis=1)
            tail_mask = ranks < k
            centers = engine.grid.l0 + engine.grid.pitch * written
            v, _ = _sample_conditioned(centers, tail_mask, engine.noise, rng.gen)
            decoded, passed = engine.decode(v)
            cls = engine.classify(written, decoded, passed)
            class_k += np.bincount(cls, minlength=5)
            events_k += int((cls != 0).sum())
            ham_k += int(engine.hamming_bits(written, decoded).sum())
        mean_k = events_k / n_per
        p_hat += w * mean_k
        var += w * w * mean_k * (1.0 - mean_k) / n_per
        ham_rate += w * ham_k / (n_per * BITS_PER_WORD)
        class_rates += w * class_k / n_per
        work += n_per
        strata.append(
            StratumResult(
                n_tail_cells=k, weight=w, trials=n_per, events=events_k,
                mean=mean_k, simulated=True,
            )
        )

    sd = math.sqrt(var)
    ci_word = (max(p_hat - _Z95 * sd, 0.0), min(p_hat + _Z95 * sd, 1.0))
    # NONE absorbs whatever rate the error classes do not account for
    class_rates[0] = max(1.0 - class_rates[1:].sum(), 0.0)
    return BerEstimate(
        trials=work,
        word_error_events=p_hat * work,
        bit_errors_hamming=ham_rate * work * BITS_PER_WORD,
        event_rate_per_bit=p_hat / BITS_PER_WORD,
        hamming_rate=ham_rate,
        ci95=(ci_word[0] / BITS_PER_WORD, ci_word[1] / BITS_PER_WORD),
        per_class={
            c.value: float(class_rates[i] * work) for i, c in enumerate(_CLASS_ORDER)
        },
        weighted=True,
        strata=tuple(strata),
    )


def variance_reduction_factor(est: BerEstimate) -> float:
    """Variance advantage of a stratified run over plain Monte Carlo at
    equal decode work, inferred from the run's own per-stratum statistics."""
    if not est.weighted or est.strata is None:
        raise ValueError("variance_reduction_factor needs a stratified estimate")
    p = est.event_rate_per_bit * BITS_PER_WORD
    var_strat = sum(
        s.weight**2 * s.mean * (1.0 - s.mean) / s.trials
        for s in est.strata
        if s.simulated and s.trials > 0
    )
    work = sum(s.trials for s in est.strata if s.simulated)
    if p <= 0.0:
        return math.nan
    if var_strat == 0.0:
        return math.inf
    return (p * (1.0 - p) / work) / var_strat


def estimate_to_dict(est: BerEstimate, config: SimConfig) -> dict:
    """JSON-ready document: the estimate plus the full configuration echo."""
    estimate = asdict(est)
    estimate["ci95"] = list(est.ci95)
    if est.strata is None:
        del estimate["strata"]
    else:
        estimate["strata"] = list(estimate["strata"])
    return {"config": asdict(config), "estimate": estimate}
