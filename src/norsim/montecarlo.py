"""Monte Carlo estimation of word and bit error rates.

Writes place each cell exactly at its target level voltage (the read law
already describes the full spread of the read-back voltage), reads are
sampled per cell, and words are decoded either by margin sensing alone
(4-level, unprotected) or by the parity codec (5-level, protected).

A run is one call of ``_tally(config, tasks)``: it derives the set-up
once, so a shard or stratum costs its stream and its words, and yields
per task (rng, n, weights) the class counts and payload bit flips of n
words drawn from rng.  ``weights[j]`` is the chance that a word has j
tail cells, placed on a uniformly random j-subset of its cells.  A plain
run makes each cell a tail cell with chance p, the tail fraction, so its
shards pass the binomial law of j; stratum k of a stratified run passes
the unit vector e_k.  A cell reads from its value uniform u = K 2^-53,
K < 2^53 (``channel._read_offsets``): a tail cell reads above its window
when K >= 2^52, below it otherwise, at the excess
-log1p(-r)/(2a) past the window edge, r = i 2^-52 with lattice index
i = K mod 2^52; an interior cell stays inside its window.

A tail cell *reaches* when i > T, the index ``_reach_threshold`` gives
for -expm1(-2a (margin/2 - slack)) rounded down with two steps to spare.
A cell that does not reach reads at least ``slack`` = 2^-49 (|l0| +
n_levels * pitch) inside its decision boundary, which bounds the rounding
of a read voltage and of its sensed level.  So a word with no reaching
cell reads back exactly: each cell senses its written level, and a
written codeword passes parity.  A tail cell reaches with chance c =
(2^52 - 1 - T) 2^-52, and a word has a reaching cell with chance pi, the
summed mass of the rows with a reaching cell under the caller's
tail-count law: 1 - (1 - p c)^4 in a plain run, 1 - (1 - c)^k in
stratum k.

One draw from Binomial(n, pi) gives the number of words with a
reaching cell, every other word counts as NONE, and only those words are
drawn, in chunks of 2^11.  Each chunk draws one uniform per word, which
picks its row of cell states (interior, quiet tail, reaching tail) from
``_row_law``, the 81-row law given a reaching cell; then the written
words (one pool index per word, or one symbol per cell when
unprotected); then one value uniform per interior cell; then one integer
per quiet tail cell and one per reaching tail cell, which picks its K
uniformly among its state's lattice points on either side
(``_lattice_u``).  That is the law of the words with a reaching cell
among words drawn whole: their cells are independent given the tail
mask, a tail cell's K is uniform on the lattice, and the written word is
independent of both.  So the counts equal those of decoding every word
in law, up to the float rounding of the row probabilities, and the work
scales with n pi.

When margin/2 <= slack, even interior reads can be sensed wrong.  Then
T = -1: every tail cell reaches, its K spans the whole lattice, and all n
words are drawn (pi = 1) from the unconditioned 81-row law, the
all-interior row included.

Plain trials are sharded deterministically: trial t belongs to shard
t mod shards, and shard i is the task on stream (seed, i).  The
tail-stratified estimator conditions on the number k of tail cells per
word, the rare-event driver at small tail fractions; stratum k is the
task on stream (seed, 10000 + k).  Cells inside the program window can
never cross a decision boundary, so the all-interior stratum is
accounted analytically as error-free.  Tasks run one after another and
merge in task order, so a given (seed, shards) pair is bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .channel import (
    LevelGrid,
    NoiseModel,
    RngStream,
    _read_offsets,
    _whole_number,
    five_level_grid,
    four_level_grid,
)
from .codec import BITS_PER_WORD, N_CELLS, CodeBook, DecodeOutcome, decode, margin_sense

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

# Words drawn and decoded per chunk.  A chunk's temporaries peak at
# 550-600 B per word (tracemalloc); in a process running 30 simulate calls
# of a bench workload, peak RSS measured 38.2-39.0 MB at 2^11, 39.5-41.1 MB
# at 2^12 and 43.1-43.7 MB at 2^13.
_CHUNK = 1 << 11

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


_CLASS_ORDER = tuple(ErrorClass)


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
        # counts and the seed are whole numbers; a count must fit numpy's
        # int64, as Generator.binomial's n does
        for name, low, high in (("trials", 1, 2**63 - 1), ("subtrials_per_stratum", 1, 2**63 - 1),
                                ("seed", 0, math.inf), ("shards", 1, math.inf)):
            n = getattr(self, name)
            if n is None:  # no subtrials_per_stratum
                continue
            if not low <= n <= high:
                bounds = f">= {low}" if high == math.inf else f"in [{low}, 2**63 - 1]"
                raise ValueError(f"{name} must be {bounds}, got {n}")
            object.__setattr__(self, name, _whole_number(name, n))
        if self.data_mode not in ("uniform", "interior"):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.stratified and self.tail == 0.0:
            raise ValueError("tail must be > 0 in a stratified run, which simulates tail cells")
        if self.stratified and not self.protected:
            raise ValueError("stratified runs support the protected mode only")
        self.noise()
        self.grid()

    def noise(self) -> NoiseModel:
        return NoiseModel(a=self.a, tail=self.tail, width=self.width)

    def grid(self) -> LevelGrid:
        if self.protected:
            return five_level_grid(self.delta0, self.width, self.l0)
        return four_level_grid(self.delta0, self.width, self.l0)


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
    # cells along axis 0, so each reduction runs over whole rows of words
    diff = (decoded - written).T.copy()
    nz = (diff != 0).sum(axis=0)
    err = nz > 0
    if not protected:
        return err * 4
    dmax, dmin = diff.max(axis=0), diff.min(axis=0)
    is_ii = (nz == 1) & (np.maximum(dmax, -dmin) == 2)
    is_iii = (nz == 2) & (dmax == 1) & (dmin == -1)
    return err * np.where(parity_passed, 1, 4 - 2 * is_ii - is_iii)


def _data_pool(config: SimConfig) -> tuple[int, int, np.ndarray | None, np.ndarray | None]:
    """What a run writes, as ``(low, high, words, byte_of)``: unprotected
    runs draw each cell's symbol from low..high - 1; protected runs draw
    whole words from ``words``, the byte-mapped codewords with symbols in
    low..high - 1, whose bytes are ``byte_of``.  Interior data keeps to 1..n-2."""
    n = config.grid().n_levels
    low, high = (1, n - 1) if config.data_mode == "interior" else (0, n)
    if not config.protected:
        return low, high, None, None
    book = CodeBook.build(n)
    words = book.words[:256]  # the byte-mapped codewords
    return low, high, words[((words >= low) & (words < high)).all(axis=1)], book.byte_of


# A value uniform is u = K 2^-53, K < 2^53; a tail cell reads on side
# K >= 2^52 at lattice index i = K mod 2^52, its r = i 2^-52.
_LATTICE = 1 << 52


def _reach_threshold(config: SimConfig) -> int | None:
    """T: a tail cell at lattice index i <= T reads at least ``slack``
    inside its decision boundary, as in the module docstring; None when
    margin/2 <= slack, where interior reads too can be sensed wrong and
    every word is drawn."""
    noise, grid = config.noise(), config.grid()
    slack = 2.0**-49 * (abs(grid.l0) + grid.n_levels * grid.pitch)
    if grid.margin / 2.0 <= slack:
        return None
    x = 2.0 * noise.a * (grid.margin / 2.0 - slack)
    if x > -math.log1p(2.0**-52 - 1.0):  # 2a times the excess at i = 2^52 - 1
        return _LATTICE - 1
    # two steps of 2^-52 below expm1's rounding, which is within one ulp
    return max(math.floor(-math.expm1(-x) * 2.0**52) - 2, -1)


# The 3^4 cell-state patterns of a word: 0 interior, 1 quiet tail cell
# (i <= T), 2 reaching tail cell (i > T).
_STATES = np.array(list(itertools.product(range(3), repeat=N_CELLS)), dtype=np.int8)
# per row: its j tail cells, its quiet and reaching ones, and the C(4, j)
# subsets its tail cells can sit on
_N_TAIL = (_STATES > 0).sum(axis=1)
_N_REACH = (_STATES == 2).sum(axis=1)
_N_QUIET = _N_TAIL - _N_REACH
_SUBSETS = np.array([float(math.comb(N_CELLS, j)) for j in _N_TAIL])


def _row_law(weights: np.ndarray, c: float, every_word: bool = False) -> tuple[float, np.ndarray]:
    """(pi, probs): the chance pi that a word is drawn, and the law of its
    _STATES row given that it is.  ``weights[j]`` is the chance that a
    word has j tail cells, placed on a uniform j-subset of its cells; a
    tail cell reaches with chance c.  A word is drawn when it has a
    reaching cell, pi being the summed mass of those rows, or always when
    ``every_word`` is set: then pi = 1 and probs is the unconditioned law.
    Every term is positive, so nothing cancels even at c = 2^-52."""
    probs = weights[_N_TAIL] / _SUBSETS * (1.0 - c) ** _N_QUIET * c**_N_REACH
    if every_word:
        return 1.0, probs
    probs[_N_REACH == 0] = 0.0
    pi = probs.sum()
    return pi, probs / pi if pi > 0.0 else probs


def _lattice_u(gen, n: int, t: int, reaching: bool) -> np.ndarray:
    """n value uniforms of tail cells, each a uniform pick among the
    lattice points with index i > t (reaching) or i <= t (quiet) on
    either side: one integer j per cell, mapped in increasing order."""
    start, size = (t + 1, _LATTICE - 1 - t) if reaching else (0, t + 1)
    j = gen.integers(0, 2 * size, n)
    return (start + j + (j >= size) * (_LATTICE - size)) * 2.0**-53


def _any_rows(mask: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (m, 4) boolean array with a cell set; a
    row's 4 flags read as one uint32 are nonzero iff any is set."""
    return np.flatnonzero(mask.view(np.uint32).ravel() != 0)


def _count(written, reads, grid: LevelGrid, byte_of: np.ndarray | None) -> np.ndarray:
    """The 5 class counts in _CLASS_ORDER, then the payload bit flips, of
    the words ``written`` read back as ``reads``.  ``byte_of`` is the
    codebook's byte table of a protected run, which decodes by parity;
    None marks an unprotected run, which margin-senses, and whose words
    are their bytes in radix 4."""
    if byte_of is None:
        decoded, passed = margin_sense(reads, grid), None
        byte_of = np.arange(256)
    else:
        _, decoded, passed = decode(reads, grid)
    # only the few wrong rows are classified and counted in bits
    bad = _any_rows(decoded != written)
    written, decoded = written.take(bad, axis=0), decoded.take(bad, axis=0)
    passed = None if passed is None else passed.take(bad)
    counts = np.zeros(6, dtype=np.int64)
    counts[:5] = np.bincount(_classify(written, decoded, passed, passed is not None), minlength=5)
    counts[0] += len(reads) - len(bad)
    radix = grid.n_levels ** np.arange(N_CELLS - 1, -1, -1)
    wb = byte_of[written @ radix]
    db = byte_of[decoded @ radix]
    # an unmapped decode counts as a full byte
    counts[5] = np.where(db < 0, BITS_PER_WORD, _POPCOUNT8[(wb ^ db) & 0xFF]).sum()
    return counts


def _tally(config: SimConfig, tasks):
    """Yield per task ``(rng, n, weights)`` the counts over n words drawn
    from rng: the 5 class counts in _CLASS_ORDER, then the payload bit flips.

    A word has j tail cells with chance ``weights[j]`` (see ``_row_law``).
    Only the words that can be wrong are drawn, as in the module
    docstring: a share pi, the summed mass of the rows with a reaching
    cell under this law.  The set-up is derived once per call, so a task
    costs its stream and its words.
    """
    noise, grid = config.noise(), config.grid()
    low, high, pool, byte_of = _data_pool(config)

    t = _reach_threshold(config)
    every_word = t is None
    if every_word:
        t = -1  # every tail cell reaches, anywhere on the lattice
    for rng, n, weights in tasks:
        gen = rng.gen
        # a tail cell reaches with chance (2^52 - 1 - T) 2^-52
        pi, probs = _row_law(weights, (_LATTICE - 1 - t) * 2.0**-52, every_word)
        cdf = np.cumsum(probs)
        if pi > 0.0:
            cdf /= cdf[-1]  # ends at exactly 1, above every uniform
        n_hit = int(gen.binomial(n, pi))
        counts = np.zeros(6, dtype=np.int64)
        counts[0] = n - n_hit
        for lo in range(0, n_hit, _CHUNK):
            m = min(_CHUNK, n_hit - lo)
            rows = np.searchsorted(cdf, gen.random(m), side="right")
            states = _STATES.take(rows, axis=0).ravel()  # cell states in C order
            if pool is None:
                written = gen.integers(low, high, (m, N_CELLS))
            else:
                written = pool.take(gen.integers(0, len(pool), m), axis=0)
            # one value uniform per cell: the interior cells' draws, then the
            # quiet and the reaching tail cells', each in C order
            n_state = np.bincount(states, minlength=3)
            u = np.empty(m * N_CELLS)
            u[states.argsort(kind="stable")] = np.concatenate((
                gen.random(n_state[0]),
                _lattice_u(gen, n_state[1], t, reaching=False),
                _lattice_u(gen, n_state[2], t, reaching=True),
            ))
            v = _read_offsets(states != 0, u, noise).reshape(m, N_CELLS)
            v += grid.l0 + grid.pitch * written
            counts += _count(written, v, grid, byte_of)
        yield counts


def classify_error(written, outcome: DecodeOutcome) -> ErrorClass:
    """Classify one decode of ``written`` into the error taxonomy."""
    code = _classify(
        np.asarray(written, dtype=np.int64)[None],
        np.asarray(outcome.word, dtype=np.int64)[None],
        np.array([outcome.parity_passed]),
    )
    return _CLASS_ORDER[code[0]]


def run_trials(config: SimConfig) -> BerEstimate:
    """Plain Monte Carlo: write random data, read, decode, classify."""
    if config.stratified:
        raise ValueError("config.stratified is set; use run_stratified")
    # shard i holds trials i, i + shards, i + 2 * shards, ...; shards past
    # the last trial are empty and draw nothing
    n, shards = config.trials, config.shards
    weights = _stratum_weights(config.tail)
    counts = sum(_tally(config, (
        (RngStream(config.seed, i), len(range(i, n, shards)), weights)
        for i in range(min(shards, n))
    )))
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
    """The binomial law of the number of tail cells of a word."""
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
    # k = 0 is never simulated: LevelGrid keeps margin > 0, so interior
    # reads (within width/2) can never cross a decision boundary
    weights = _stratum_weights(config.tail)
    n_per = config.subtrials_per_stratum or max(config.trials // N_CELLS, 1)
    ks = [k for k in range(1, N_CELLS + 1) if weights[k] > 0.0]
    exactly = np.eye(N_CELLS + 1)  # row k: every word has exactly k tail cells
    rows = _tally(config, [(RngStream(config.seed, 10_000 + k), n_per, exactly[k]) for k in ks])

    p_hat = ci_lo = ci_hi = ham_rate = 0.0
    class_rates = np.zeros(5)
    work = n_per * len(ks)
    strata: list[StratumResult] = []
    for k, w in enumerate(weights.tolist()):
        if k not in ks:
            strata.append(StratumResult(k, w, 0, 0, 0.0, simulated=False))
            continue
        counts = next(rows)
        events_k = int(counts[1:5].sum())
        mean_k = events_k / n_per
        p_hat += w * mean_k
        lo_k, hi_k = confidence_interval(events_k, n_per)
        ci_lo += w * lo_k
        ci_hi += w * hi_k
        ham_rate += w * int(counts[5]) / (n_per * BITS_PER_WORD)
        class_rates += w * counts[:5] / n_per
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
    equal words drawn, inferred from the run's own per-stratum statistics.
    Not a speed-up, since a plain run decodes only its ~n pi words with a
    reaching cell: at a*delta0/a*w/tail = 6.9/6.9/1e-3, interior data,
    2^18 words per stratum, this reads ~65, yet plain runs reach a 10%
    relative standard error ~10x sooner (timings in README)."""
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
