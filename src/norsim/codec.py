"""Even-parity codec over four multi-level cells.

Codewords are the length-4 words over {0..n_levels-1} whose symbol sum is
even; adjacent codewords then differ by Manhattan distance >= 2.  For 5
levels there are (5**4 + 1) / 2 = 313 codewords, enough to map all 256
byte values while keeping 2 bits/cell of payload.

Decoding: margin-sense each cell to the nearest level and check parity.
On failure, move to the L1-nearest codeword whose symbol sum is one off
the sensed sum.  That codeword is always the sensed word with one cell
moved one level.  The L1 distance is a sum of per-cell costs, each convex
in the cell's level and smallest at its sensed level, which is the
nearest level of the grid.  A codeword with sum s +/- 1 moves some cell
at least one level in that direction, and that one-level move alone
costs no more than the whole word.  So the decoder takes the single move
with the smallest flip cost ``|t - (x +/- 1)| - |t - x|`` in pitch units,
``t`` being the cell's read and ``x`` its sensed level; inside the grid
this is ``1 - 2 * |t - x|`` toward the nearer boundary and 1 away from it.

``decode`` is the one decoder, batched over words; ``read_byte`` and
``soft_correct`` run it on a single word.  It lays the moves of its k
parity-failing rows out as (8, k) arrays, one row per move, because numpy
gathers whole rows of a 2048-word chunk several times faster than it
gathers or reduces within rows 4 or 8 wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LevelGrid, _whole_number

__all__ = [
    "CodeBook",
    "DecodeOutcome",
    "decode",
    "enumerate_codewords",
    "encode",
    "margin_sense",
    "parity_ok",
    "soft_correct",
    "read_byte",
]

N_CELLS = 4
BITS_PER_WORD = 8  # N_CELLS cells * 2 payload bits per cell


def enumerate_codewords(n_levels: int) -> np.ndarray:
    """All length-4 even-sum words over {0..n_levels-1}, lexicographic.

    Count is (n**4 + 1) // 2 for odd n and n**4 // 2 for even n.
    """
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    words = np.indices((n_levels,) * N_CELLS, dtype=np.int64).reshape(N_CELLS, -1).T
    return words[words.sum(axis=1) % 2 == 0]


def parity_ok(symbols) -> bool:
    """True iff the symbol sum is even; the symbols must be integers."""
    s = np.asarray(symbols)
    if s.shape != (N_CELLS,):
        raise ValueError(f"expected {N_CELLS} symbols, got shape {s.shape}")
    if not all(float(x).is_integer() for x in s.tolist()):  # False for NaN and +-inf
        raise ValueError(f"symbols must be finite integers, got {s.tolist()}")
    return int(s.sum()) % 2 == 0


@dataclass(frozen=True)
class CodeBook:
    """Enumerated codewords plus the byte mapping: byte b is ``words[b]``.

    ``byte_of[r]`` is the byte of the word whose radix-n value is r, and
    -1 for the codewords past the first 256 and for odd-parity words.
    """

    n_levels: int
    words: np.ndarray = field(repr=False)
    byte_of: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, n_levels: int = 5) -> "CodeBook":
        words = enumerate_codewords(n_levels)
        mapped = words[:256]
        byte_of = np.full(n_levels**N_CELLS, -1, dtype=np.int64)
        byte_of[mapped @ n_levels ** np.arange(N_CELLS - 1, -1, -1)] = np.arange(len(mapped))
        return cls(n_levels=n_levels, words=words, byte_of=byte_of)

    def byte_for_word(self, word) -> int | None:
        """Byte value of a codeword, or None for codewords beyond the 256
        byte-mapped ones (and for non-codewords, non-integral symbols
        included)."""
        if len(word) != N_CELLS:
            return None
        r = 0
        for x in word:
            if not 0 <= x < self.n_levels or int(x) != x:
                return None
            r = r * self.n_levels + int(x)
        byte = int(self.byte_of[r])
        return byte if byte >= 0 else None


def encode(byte: int, book: CodeBook) -> tuple:
    """Map a byte to its codeword (lexicographic rank = byte value)."""
    if not 0 <= byte <= 255:
        raise ValueError(f"byte out of range: {byte}")
    byte = _whole_number("byte", byte)
    if len(book.words) < 256:
        raise ValueError(f"codebook has only {len(book.words)} words; cannot map all bytes")
    return tuple(book.words[byte].tolist())


def _sense(v: np.ndarray, grid: LevelGrid) -> tuple[np.ndarray, np.ndarray]:
    """(t, levels) of float reads ``v``: the reads in pitch units above
    l0, and ``margin_sense``'s levels as floats."""
    if not np.isfinite(v).all():
        raise ValueError("reads must be finite voltages")
    t = (v - grid.l0) / grid.pitch
    # clamp before the cast, which would overflow far outside the grid;
    # np.clip costs several times more than this on one 4-cell word
    return t, np.minimum(np.maximum(np.ceil(t - 0.5), 0), grid.n_levels - 1)


def margin_sense(read, grid: LevelGrid):
    """Hard-read each cell: round (V - l0) / pitch to the nearest level.

    Exact half-pitch ties round toward the lower level; results are clamped
    into the valid level range, as a physical sense amp cannot report a
    nonexistent level.  NaN and infinite reads are rejected.
    """
    return _sense(np.asarray(read, dtype=float), grid)[1].astype(np.int64)


# The 8 one-level moves: down on cells 0..3, then up on cells 3..0.  Applied
# to one word they give its neighbours in lexicographic order, so the first
# minimum-cost move is the lexicographically lowest nearest codeword.
_MOVE_CELL = np.array([0, 1, 2, 3, 3, 2, 1, 0])
_MOVE_STEP = np.array([-1, -1, -1, -1, 1, 1, 1, 1])
_STEP_COLUMN = _MOVE_STEP[:, None].astype(float)  # keeps the move costs all-float
_ONES = np.ones(N_CELLS, dtype=np.int64)


def decode(reads, grid: LevelGrid):
    """Decode read voltages of shape (m, 4) -> (sensed, decoded, parity_passed).

    Parity-passing rows decode to their sensed word.  Each parity-failing
    row decodes to the L1-nearest codeword with symbol sum one off the
    sensed sum, reached by the cheapest one-cell, one-level move; distance
    ties (measure zero under continuous noise) break to the
    lexicographically lowest word.
    """
    v = np.asarray(reads, dtype=float)
    if v.ndim != 2 or v.shape[1] != N_CELLS:
        raise ValueError(f"reads must have shape (m, {N_CELLS}), got {v.shape}")
    t, levels = _sense(v, grid)
    sensed = levels.astype(np.int64)
    passed = (sensed @ _ONES & 1) == 0
    decoded = sensed.copy()
    if not passed.all():  # spares read_byte's common parity-pass case
        fail = np.flatnonzero(~passed)
        tf = t.take(fail, axis=0).T.take(_MOVE_CELL, axis=0)
        sf = levels.take(fail, axis=0).T.take(_MOVE_CELL, axis=0)
        moved = sf + _STEP_COLUMN
        cost = np.abs(tf - moved) - np.abs(tf - sf)
        cost = np.where((moved < 0) | (moved >= grid.n_levels), np.inf, cost)
        best = cost.argmin(axis=0)  # the first cheapest move
        decoded.ravel()[fail * N_CELLS + _MOVE_CELL[best]] += _MOVE_STEP[best]
    return sensed, decoded, passed


def _one_read(read) -> np.ndarray:
    v = np.asarray(read, dtype=float)
    if v.shape != (N_CELLS,):
        raise ValueError(f"read vector must be {N_CELLS} voltages, got shape {v.shape}")
    return v


def soft_correct(read, sensed, grid: LevelGrid, book: CodeBook) -> tuple:
    """L1-nearest codeword among those with symbol sum = sensed sum +/- 1.

    ``sensed`` must be ``margin_sense(read, grid)`` and fail parity.
    Distance ties (measure zero under continuous noise) break to the
    lexicographically lowest word.  ``book`` is unused and kept for
    signature compatibility.
    """
    v = _one_read(read)
    s, decoded, passed = decode(v[None], grid)
    if not np.array_equal(s[0], sensed):
        raise ValueError("sensed word is not the margin-sensed read")
    if passed[0]:
        raise ValueError("soft correction requires a parity-failing sensed word")
    return tuple(decoded[0].tolist())


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one word read: the sensed word, its parity check, the
    decoded word (the sensed word when parity passed), and the decoded
    word's byte, absent when the word is outside the byte mapping."""

    sensed: tuple
    parity_passed: bool
    word: tuple
    byte: int | None


def read_byte(read, grid: LevelGrid, book: CodeBook) -> DecodeOutcome:
    """Full read path of one word: ``decode`` plus the byte mapping."""
    sensed, decoded, passed = decode(_one_read(read)[None], grid)
    ok = bool(passed[0])
    sensed_word = tuple(sensed[0].tolist())
    word = sensed_word if ok else tuple(decoded[0].tolist())
    return DecodeOutcome(sensed_word, ok, word, book.byte_for_word(word))
