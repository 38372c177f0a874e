"""Voltage geometry of multi-level cells and the stochastic read model.

A cell programmed to level ``x`` targets the voltage ``L_x = l0 + x * pitch``
where ``pitch = margin + width``.  Programming lands the cell uniformly
within ``width / 2`` of the target.  A read additionally suffers two-sided
exponential tails: a fraction ``tail`` of all reads falls outside the
program window, half per side, with density decaying as ``exp(-2 a x)``
(mean excess ``1 / (2 a)``).

Voltage units are arbitrary throughout; results depend only on the
dimensionless products ``a * margin`` and ``a * width``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "LevelGrid",
    "RngStream",
    "derive_5level_margin",
    "four_level_grid",
    "five_level_grid",
    "read_density",
    "sample_read",
    "sample_read_conditioned",
]


def _require_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _whole_number(name: str, value) -> int:
    """``value`` as an int; a bool, a fraction, NaN or ±inf (x % 1 is NaN) is refused."""
    if isinstance(value, (bool, np.bool_)) or value % 1 != 0:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class NoiseModel:
    """Read-voltage law around each program level.

    a: tail slope parameter, 1/volt; tail density decays as exp(-2*a*x).
    tail: fraction of reads in the exponential tails, in [0, 1].
    width: program distribution width, volts, >= 0.  width == 0 collapses
        the interior to a point mass at the level voltage.
    """

    a: float
    tail: float
    width: float = 0.0

    def __post_init__(self):
        _require_finite(a=self.a, width=self.width)
        if not self.a > 0.0:
            raise ValueError(f"tail slope a must be > 0, got {self.a}")
        if not 0.0 <= self.tail <= 1.0:
            raise ValueError(f"tail fraction must be in [0, 1], got {self.tail}")
        if self.width < 0.0:
            raise ValueError(f"program width must be >= 0, got {self.width}")


@dataclass(frozen=True)
class LevelGrid:
    """Equally spaced program levels ``L_x = l0 + x * (margin + width)``.

    The margin is the gap between adjacent program windows; read decision
    boundaries sit mid-gap at ``L_x + width/2 + margin/2``.
    """

    n_levels: int
    margin: float
    width: float = 0.0
    l0: float = 0.0

    def __post_init__(self):
        _require_finite(margin=self.margin, width=self.width, l0=self.l0)
        object.__setattr__(self, "n_levels", _whole_number("n_levels", self.n_levels))
        if self.n_levels < 2:
            raise ValueError(f"need at least 2 levels, got {self.n_levels}")
        if not self.margin > 0.0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.width < 0.0:
            raise ValueError(f"width must be >= 0, got {self.width}")

    @property
    def pitch(self) -> float:
        return self.margin + self.width

    @property
    def levels(self) -> np.ndarray:
        return self.l0 + self.pitch * np.arange(self.n_levels)

    def boundaries(self) -> np.ndarray:
        """Midpoints between adjacent levels (the margin-sense references)."""
        return self.levels[:-1] + 0.5 * self.pitch

    def level_voltage(self, level_index):
        idx = np.asarray(level_index)
        # NaN fails every comparison, so it is rejected with the fractions
        if not ((idx >= 0) & (idx < self.n_levels) & (np.floor(idx) == idx)).all():
            raise ValueError(f"level index must be a whole number in 0..{self.n_levels - 1}")
        out = self.l0 + self.pitch * idx
        return float(out) if np.ndim(level_index) == 0 else out


def derive_5level_margin(delta0: float, width: float) -> float:
    """Margin of the 5-level grid that spans the same window as a 4-level
    grid with margin ``delta0``: 4*(margin + width) = 3*(delta0 + width)."""
    _require_finite(delta0=delta0, width=width)
    if not delta0 > 0.0:
        raise ValueError(f"delta0 must be > 0, got {delta0}")
    if width < 0.0:
        raise ValueError(f"width must be >= 0, got {width}")
    if 3.0 * delta0 <= width:
        raise ValueError(
            f"5-level margin would be <= 0 (3*delta0={3 * delta0} <= width={width})"
        )
    return (3.0 * delta0 - width) / 4.0


def four_level_grid(delta0: float, width: float = 0.0, l0: float = 0.0) -> LevelGrid:
    return LevelGrid(4, delta0, width, l0)


def five_level_grid(delta0: float, width: float = 0.0, l0: float = 0.0) -> LevelGrid:
    """5-level grid occupying the same voltage window as ``four_level_grid``."""
    return LevelGrid(5, derive_5level_margin(delta0, width), width, l0)


class RngStream:
    """Counter-based random stream keyed by ``(seed, stream)``.

    Distinct (seed, stream) pairs give statistically independent sequences,
    and a given pair reproduces the identical sequence on every platform.
    A single stream must not be shared across concurrent callers.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.Philox(ss))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _check_pair(grid: LevelGrid, noise: NoiseModel) -> None:
    if abs(grid.width - noise.width) > 1e-12 * max(1.0, abs(noise.width)):
        raise ValueError(
            f"grid width {grid.width} does not match noise width {noise.width}"
        )


def read_density(v, level_index, grid: LevelGrid, noise: NoiseModel):
    """Density of the read voltage for a cell programmed to ``level_index``.

    Inside the program window the density is (1-tail)/width; outside it is
    a*tail*exp(-2*a*excess) with excess measured from the window edge.  For
    width == 0 the interior is a point mass of weight (1-tail) at the level
    voltage and the returned function covers only the tail part.
    """
    _check_pair(grid, noise)
    center = grid.level_voltage(level_index)
    d = np.abs(np.asarray(v, dtype=float) - center)
    a, t, w = noise.a, noise.tail, noise.width
    if w == 0.0:
        out = a * t * np.exp(-2.0 * a * d)
    else:
        out = np.where(
            d <= w / 2.0,
            (1.0 - t) / w,
            a * t * np.exp(-2.0 * a * np.maximum(d - w / 2.0, 0.0)),
        )
    return float(out) if np.ndim(v) == 0 and np.ndim(level_index) == 0 else out


def _read_offsets(tail_mask, u, noise: NoiseModel):
    """Read voltages minus level voltages, with the tail/interior split
    forced by ``tail_mask`` and one uniform ``u`` per cell.

    A tail cell reads below its window for u < 1/2 and above it
    otherwise, at the excess -log1p(-r) / (2a) past the window edge,
    where r = 2u - [u >= 1/2] is uniform on [0, 1) on either side.  r is a
    multiple of 2^-52 below 1, so the excess is at most 52 ln 2 / (2a),
    which cuts off a tail mass of 2^-52 = 2.2e-16.  An interior cell reads
    width * (u - 1/2) from its level, the level itself at width 0.  The
    sign bit of a tail cell's offset is its side, also at offset zero.
    """
    two_u = 2.0 * u
    minus_r = np.floor(two_u) - two_u
    edge_offset = noise.width / 2.0 - np.log1p(minus_r) / (2.0 * noise.a)
    half = u - 0.5
    return np.where(tail_mask, np.copysign(edge_offset, half), noise.width * half)


# Reads per chunk of a sampling call: 2^14 four-cell words, a block whose
# temporaries stay cache-sized.
_CHUNK = 1 << 16


def _sample(level_index, grid: LevelGrid, noise: NoiseModel, rng: RngStream, size, force_tail):
    """(voltage, side) draws shared by the two samplers, in chunks of
    ``_CHUNK`` reads in C order.  Each chunk draws its uniforms that pick
    tail or interior (one per read, only when force_tail is None), then
    its uniforms for the conditioned read.  side is None when force_tail
    is None."""
    _check_pair(grid, noise)
    centers = grid.level_voltage(level_index)
    if size is not None:
        if np.ndim(level_index) != 0:
            raise ValueError("size is only valid with a scalar level_index")
        centers = np.full(size, centers)
    flat = np.ravel(centers)
    v = np.empty(flat.shape)
    side = None if force_tail is None else np.zeros(flat.shape, dtype=np.int64)
    for lo in range(0, len(flat), _CHUNK):
        hi = min(lo + _CHUNK, len(flat))
        mask = rng.gen.random(hi - lo) < noise.tail if force_tail is None else bool(force_tail)
        offset = _read_offsets(mask, rng.gen.random(hi - lo), noise)
        v[lo:hi] = flat[lo:hi] + offset
        if force_tail:
            side[lo:hi] = np.where(np.signbit(offset), -1, 1)
    if np.ndim(centers) == 0:
        return float(v[0]), None if side is None else int(side[0])
    shape = np.shape(centers)
    return v.reshape(shape), None if side is None else side.reshape(shape)


def sample_read(level_index, grid: LevelGrid, noise: NoiseModel, rng: RngStream, size=None):
    """Sample read voltages from the read law.

    With probability 1-tail the read is uniform on the program window; with
    probability tail/2 per side it is the window edge plus an exponential
    excess of rate 2*a.  ``level_index`` may be a scalar or an array;
    ``size`` draws that many reads of a single scalar level.  Reads are
    drawn in chunks of 2^16 in C order; per chunk one uniform per read
    picks tail or interior, then one more per read gives the conditioned
    read, so the number of variates consumed does not depend on the
    sampled values: two uniforms per read.
    """
    return _sample(level_index, grid, noise, rng, size, None)[0]


def sample_read_conditioned(
    level_index,
    grid: LevelGrid,
    noise: NoiseModel,
    force_tail: bool,
    rng: RngStream,
    size=None,
):
    """Sample from the tail-conditional (or interior-conditional) read law.

    Mixing these conditionals with weights tail/(1-tail) reproduces the
    unconditioned read law exactly.  Returns (voltage, side) where side is
    -1/+1 for tail draws and 0 for interior draws.  With width == 0 the
    interior is a point mass, so force_tail=False returns the level voltage.
    """
    return _sample(level_index, grid, noise, rng, size, force_tail)
