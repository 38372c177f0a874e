"""Monte Carlo estimation of word and bit error rates.

Writes place each cell exactly at its target level voltage (the read law
already describes the full spread of the read-back voltage), reads are
sampled per cell, and words are decoded either by margin sensing alone
(4-level, unprotected) or by the parity codec (5-level, protected).

Both estimators run one unit of work, ``_tally(config, rng, n, k)``:
it draws n words from one random stream in batches of 2^14 words and
returns their class counts and payload bit flips.  Per batch the stream
is consumed in a fixed order, which is the stream contract: the written
words (one pool index per word, or one symbol per cell when
unprotected), then one mask uniform per cell that picks the tail cells,
then one value uniform per cell for the conditioned read sampler
(``channel._read_offsets``).  A plain run marks a cell as tail when
its mask uniform is below the tail fraction; stratum k of a stratified
run marks cell j when entry j of the argsort of the word's mask uniforms
is below k, a uniformly random k-subset.

Every variate is drawn, but only the rows that can be wrong are sampled,
decoded and classified.  A tail cell reads at the excess -log1p(-r)/(2a)
past its window edge, r = 2u - floor(2u) from its value uniform u, and
an interior cell stays inside its window.  A row is sampled when one of
its tail cells has r above -expm1(-2a (margin/2 - slack)), that is, when
its read could come within ``slack`` of a decision boundary.  Every
other row counts as NONE with no bit flips, which is exact: each of its
cells senses its written level, and a written codeword passes parity.
``slack`` bounds the rounding of a read voltage and of its sensed level,
2^-49 (|l0| + n_levels * pitch), and the threshold is rounded down onto
r's grid of multiples of 2^-52, so the test is conservative.  Every row
is sampled in three cases: margin/2 <= slack; a threshold within 8 * 2^-52
of r's largest value 1 - 2^-52; and a run whose expected share of
sampled words, 1 - (1 - p exp(-a (margin - 2 slack)))^4, is above 1/2,
p being the tail fraction of a plain run and k/4 in stratum k, where
picking the rows would cost more than it saves.

Plain trials are sharded deterministically: trial t belongs to shard
t mod shards, and shard i consumes the random stream (seed, i).  Shards,
and the strata of a stratified run, are tasks on a thread pool of at most
``os.cpu_count()`` workers, merged in task order, so a given (seed,
shards) pair is bit-reproducible for any worker count and scheduling.
The tail-stratified estimator conditions on the number k of tail cells
per word, the rare-event driver at small tail fractions, and runs
stratum k on stream (seed, 10000 + k); cells inside the program window
can never cross a decision boundary, so the all-interior stratum is
accounted analytically as error-free.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .analytic import ChannelPoint
from .channel import (
    LevelGrid,
    NoiseModel,
    RngStream,
    _read_offsets,
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

_BATCH = 1 << 14

_Z95 = 1.959963984540054

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.data_mode not in ("uniform", "interior"):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.subtrials_per_stratum is not None and self.subtrials_per_stratum < 1:
            raise ValueError("subtrials_per_stratum must be >= 1")
        if self.stratified and self.tail == 0.0:
            raise ValueError("tail must be > 0 in a stratified run, which simulates tail cells")
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


def _data_pool(config: SimConfig) -> tuple[int, int, np.ndarray | None]:
    """What a run writes, as ``(low, high, words)``: unprotected runs draw
    each cell's symbol from low..high - 1, protected runs draw whole words
    from ``words``.  Interior data keeps to the symbols 1..n-2; protected
    uniform data is the 256 byte-mapped codewords."""
    n = config.grid().n_levels
    low, high = (1, n - 1) if config.data_mode == "interior" else (0, n)
    if not config.protected:
        return low, high, None
    words = CodeBook.build(n).words
    if config.data_mode == "interior":
        return low, high, words[((words >= low) & (words < high)).all(axis=1)]
    return low, high, words[:256]


# Stratum k marks cell j when entry j of the word's stable argsort is below
# k.  The 6 comparisons u_i <= u_j, i < j, fix a row's stable order, ties
# included, so the mask is a lookup at the 6-bit code of those comparisons
# in a table built from the argsort of the 24 orderings; the other 40
# codes cannot occur.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pair_code(u: np.ndarray) -> np.ndarray:
    """Bit b of row i is ``u[i, p] <= u[i, q]`` for (p, q) = _PAIRS[b]."""
    cols = u.T.copy()  # contiguous columns compare faster than strided ones
    code = np.zeros(len(u), dtype=np.uint8)
    for bit, (p, q) in enumerate(_PAIRS):
        code |= (cols[p] <= cols[q]).view(np.uint8) << bit
    return code


_ORDERINGS = np.array(list(itertools.permutations(range(N_CELLS))), dtype=float)
_SUBSET_MASK = np.zeros((N_CELLS + 1, 64, N_CELLS), dtype=bool)
_SUBSET_MASK[:, _pair_code(_ORDERINGS)] = (
    _ORDERINGS.argsort(axis=1, kind="stable") < np.arange(N_CELLS + 1)[:, None, None]
)


def _reach_threshold(config: SimConfig, k: int | None) -> float | None:
    """The largest r of a tail cell whose read cannot come within slack of
    a decision boundary, as in the module docstring, or None when every
    row is to be sampled."""
    noise, grid = config.noise(), config.grid()
    slack = 2.0**-49 * (abs(grid.l0) + grid.n_levels * grid.pitch)
    if grid.margin / 2.0 <= slack:
        return None
    x = 2.0 * noise.a * (grid.margin / 2.0 - slack)
    # two steps of 2^-52 below expm1's rounding, which is within one ulp
    thr = (math.floor(-math.expm1(-x) * 2.0**52) - 2) * 2.0**-52
    p = noise.tail if k is None else k / N_CELLS
    if thr >= 1.0 - 2.0**-49 or 1.0 - (1.0 - p * math.exp(-x)) ** N_CELLS > 0.5:
        return None
    return thr


def _any_rows(mask: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (m, 4) boolean array with a cell set; a
    row's 4 flags read as one uint32 are nonzero iff any is set."""
    return np.flatnonzero(mask.view(np.uint32).ravel() != 0)


def _tally(config: SimConfig, rng: RngStream, n: int, k: int | None = None) -> np.ndarray:
    """Counts over ``n`` words drawn from ``rng``: the 5 class counts in
    _CLASS_ORDER, then the total of payload bit flips.

    k None samples every cell from the read law; otherwise exactly k
    cells of each word, chosen uniformly, are forced into the tail law
    and the rest into the interior law.  Rows that cannot be wrong count
    as NONE unsampled (see the module docstring).
    """
    noise, grid = config.noise(), config.grid()
    low, high, pool = _data_pool(config)
    radix = grid.n_levels ** np.arange(N_CELLS - 1, -1, -1)
    # with 4 levels a word's radix-4 value is its byte (2 payload bits per cell)
    byte_of = CodeBook.build(grid.n_levels).byte_of if config.protected else np.arange(256)
    thr = _reach_threshold(config, k)
    gen = rng.gen
    counts = np.zeros(6, dtype=np.int64)
    for lo in range(0, n, _BATCH):
        m = min(_BATCH, n - lo)
        if pool is None:
            symbols = gen.integers(low, high, (m, N_CELLS))
        else:
            picks = gen.integers(0, len(pool), m)
        u = gen.random((m, N_CELLS))
        value_u = gen.random((m, N_CELLS))
        rows = slice(None)
        if thr is not None:
            # r > thr, thr a multiple of 2^-52, holds exactly when u lies in
            # (thr/2, 1/2) or ((1 + thr)/2, 1); both bounds are exact
            reach = (value_u > thr / 2.0) & ((value_u < 0.5) | (value_u > (1.0 + thr) / 2.0))
            rows = _any_rows(reach)
            u, value_u, reach = u[rows], value_u[rows], reach[rows]
        tail_mask = u < noise.tail if k is None else _SUBSET_MASK[k].take(_pair_code(u), axis=0)
        if thr is not None:
            keep = _any_rows(tail_mask & reach)
            rows, tail_mask, value_u = rows[keep], tail_mask[keep], value_u[keep]
        written = symbols[rows] if pool is None else pool.take(picks[rows], axis=0)
        v = _read_offsets(tail_mask, value_u, noise)
        v += grid.l0 + grid.pitch * written
        if config.protected:
            _, decoded, passed = decode(v, grid)
        else:
            decoded, passed = margin_sense(v, grid), None
        # only the few wrong rows are classified and counted in bits
        bad = _any_rows(decoded != written)
        written, decoded = written[bad], decoded[bad]
        passed = None if passed is None else passed[bad]
        cls = _classify(written, decoded, passed, config.protected)
        counts[:5] += np.bincount(cls, minlength=5)
        counts[0] += m - len(bad)
        wb = byte_of[written @ radix]
        db = byte_of[decoded @ radix]
        # an unmapped decode counts as a full byte
        counts[5] += np.where(db < 0, 8, _POPCOUNT8[(wb ^ db) & 0xFF]).sum()
    return counts


def classify_error(written, outcome: DecodeOutcome) -> ErrorClass:
    """Classify one decode of ``written`` into the error taxonomy."""
    code = _classify(
        np.asarray(written, dtype=np.int64)[None],
        np.asarray(outcome.word, dtype=np.int64)[None],
        np.array([outcome.parity_passed]),
    )
    return _CLASS_ORDER[code[0]]


def _pool_map(fn, tasks) -> list:
    """``fn`` over the sequence ``tasks`` on a thread pool, results in task order.

    numpy releases the interpreter lock in the engine's kernels, and every
    task owns its random stream, so results equal a serial run's for any
    number of workers."""
    with ThreadPoolExecutor(min(len(tasks), os.cpu_count() or 1) or 1) as pool:
        return list(pool.map(fn, tasks))


def run_trials(config: SimConfig) -> BerEstimate:
    """Plain Monte Carlo: write random data, read, decode, classify."""
    if config.stratified:
        raise ValueError("config.stratified is set; use run_stratified")
    # shard i holds trials i, i + shards, i + 2 * shards, ...; shards past
    # the last trial are empty and draw nothing
    n, shards = config.trials, config.shards
    counts = sum(
        _pool_map(
            lambda i: _tally(config, RngStream(config.seed, i), len(range(i, n, shards))),
            range(min(shards, n)),
        )
    )
    events = int(counts[1:5].sum())
    hamming = int(counts[5])
    ci = confidence_interval(events, config.trials)
    return BerEstimate(
        trials=config.trials,
        word_error_events=events,
        bit_errors_hamming=hamming,
        event_rate_per_bit=events / (config.trials * BITS_PER_WORD),
        hamming_rate=hamming / (config.trials * BITS_PER_WORD),
        ci95=(ci[0] / BITS_PER_WORD, ci[1] / BITS_PER_WORD),
        per_class={c.value: int(counts[i]) for i, c in enumerate(_CLASS_ORDER)},
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
    folded in analytically.  The 95% interval weights the per-stratum
    Wilson bounds like the means, so a run that sees no events still
    reports a positive upper bound.
    """
    if not config.stratified:
        raise ValueError("config.stratified is not set; use run_trials")
    if not config.protected:
        raise ValueError("stratified runs support the protected mode only")
    # interior deviations stay below width/2 < width/2 + margin/2, so the
    # all-interior stratum can never cross a decision boundary
    assert config.grid().margin > 0.0
    weights = _stratum_weights(config.tail)
    n_per = config.subtrials_per_stratum or max(config.trials // N_CELLS, 1)

    simulated = [k for k in range(1, N_CELLS + 1) if weights[k] > 0.0]
    tallies = _pool_map(
        lambda k: _tally(config, RngStream(config.seed, 10_000 + k), n_per, k), simulated
    )
    counts_of = dict(zip(simulated, tallies))
    p_hat = 0.0
    ci_lo = ci_hi = 0.0
    ham_rate = 0.0
    class_rates = np.zeros(5)
    work = 0
    strata: list[StratumResult] = []
    for k in range(N_CELLS + 1):
        w = float(weights[k])
        if k not in counts_of:
            strata.append(StratumResult(k, w, 0, 0, 0.0, simulated=False))
            continue
        counts = counts_of[k]
        events_k = int(counts[1:5].sum())
        mean_k = events_k / n_per
        p_hat += w * mean_k
        lo_k, hi_k = confidence_interval(events_k, n_per)
        ci_lo += w * lo_k
        ci_hi += w * hi_k
        ham_rate += w * int(counts[5]) / (n_per * BITS_PER_WORD)
        class_rates += w * counts[:5] / n_per
        work += n_per
        strata.append(StratumResult(k, w, n_per, events_k, mean_k, simulated=True))

    # NONE absorbs whatever rate the error classes do not account for
    class_rates[0] = max(1.0 - class_rates[1:].sum(), 0.0)
    return BerEstimate(
        trials=work,
        word_error_events=p_hat * work,
        bit_errors_hamming=ham_rate * work * BITS_PER_WORD,
        event_rate_per_bit=p_hat / BITS_PER_WORD,
        hamming_rate=ham_rate,
        ci95=(ci_lo / BITS_PER_WORD, ci_hi / BITS_PER_WORD),
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
