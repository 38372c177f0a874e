"""Closed-form error-rate estimates for the 4-level and 5-level systems.

All rates are per stored bit: a word-error event over N cells holding
N*B0 bits counts once and is normalized by N*B0.  Inputs are the
dimensionless products a*delta0 and a*width plus the tail fraction.

The protected-system estimate splits into three leading components:
  e2_i    two cells past the margin boundary, parity silently passes;
  e2_ii   one cell past a full level pitch, corrected to the +/-2 level;
  e2_iii  opposite-direction pair with combined excess above the margin,
          corrected by swapping the pair one level each.
These are leading-order tail expressions; the Monte Carlo engine measures
additional decoder failure modes they omit (see montecarlo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _require_finite, derive_5level_margin
from .codec import BITS_PER_WORD, N_CELLS

__all__ = [
    "ChannelPoint",
    "ErrorBudget",
    "Table1Row",
    "baseline_rates",
    "baseline_approximation",
    "protected_rates",
    "ratio_approximation",
    "regime_approximations",
    "capacity",
    "crosspolytope_word_bound",
    "table1",
    "scaling_sweep",
    "fit_loglog_slope",
    "TABLE1_EXP_MARGINS",
    "TABLE1_TAILS",
]

TABLE1_EXP_MARGINS = (1e-2, 1e-3, 1e-4)
TABLE1_TAILS = (1e-3, 1e-5, 1e-7, 1e-9)


@dataclass(frozen=True)
class ChannelPoint:
    """Dimensionless operating point of the storage channel."""

    a_delta0: float
    a_w: float = 0.0
    tail: float = 1.0

    def __post_init__(self):
        _require_finite(a_delta0=self.a_delta0, a_w=self.a_w)
        if not 0.0 <= self.tail <= 1.0:
            raise ValueError(f"tail must be in [0, 1], got {self.tail}")
        # rejects a_delta0 <= 0, a_w < 0 and a 5-level margin <= 0
        derive_5level_margin(self.a_delta0, self.a_w)

    @property
    def a_delta(self) -> float:
        """Dimensionless margin of the 5-level grid in the same window."""
        return derive_5level_margin(self.a_delta0, self.a_w)


@dataclass(frozen=True)
class ErrorBudget:
    """Per-bit error rates of the protected system, with the baseline."""

    p0: float
    e0: float
    e2_i: float
    e2_ii: float
    e2_iii: float
    e2_total: float
    ratio: float


def baseline_rates(point: ChannelPoint) -> tuple[float, float]:
    """(per-cell error probability, per-bit error rate) without coding.

    p0 = tail * exp(-a*delta0); e0 = (1 - (1-p0)**N) / (N*B0).
    """
    p0 = point.tail * math.exp(-point.a_delta0)
    # expm1/log1p keep 1 - (1-p0)**N accurate down to tiny p0
    e0 = -math.expm1(N_CELLS * math.log1p(-p0)) / BITS_PER_WORD
    return p0, e0


def baseline_approximation(point: ChannelPoint) -> float:
    """Small-p0 form of the baseline rate, tail * exp(-a*delta0) / 2."""
    return 0.5 * point.tail * math.exp(-point.a_delta0)


def protected_rates(point: ChannelPoint) -> ErrorBudget:
    """Leading-order per-bit error budget of the 5-level coded system."""
    ad = point.a_delta
    t = point.tail
    e_2ad = math.exp(-2.0 * ad)
    e2_i = 0.375 * t * t * e_2ad
    e2_ii = 0.5 * t * math.exp(-2.0 * ad - point.a_w)
    e2_iii = 0.75 * ad * t * t * e_2ad
    total = e2_i + e2_ii + e2_iii
    p0, e0 = baseline_rates(point)
    ratio = total / e0 if e0 > 0.0 else 0.0
    return ErrorBudget(
        p0=p0, e0=e0, e2_i=e2_i, e2_ii=e2_ii, e2_iii=e2_iii,
        e2_total=total, ratio=ratio,
    )


def ratio_approximation(point: ChannelPoint) -> float:
    """Protected/baseline rate ratio in the width ~ margin regime:
    exp(-a*delta0) + (3/4) * a*delta0 * tail."""
    return math.exp(-point.a_delta0) + 0.75 * point.a_delta0 * point.tail


def regime_approximations(point: ChannelPoint) -> tuple[float, float]:
    """(tail-dominated, swap-dominated) closed forms of the protected rate.

    The tail-dominated form applies when tail << exp(-a_w); the
    swap-dominated form when exp(-a_w) << tail.  Both are expressed through
    the baseline geometry so regime crossovers are easy to scan.
    """
    t = point.tail
    ad0, aw = point.a_delta0, point.a_w
    e2_tail = 0.5 * t * math.exp(-1.5 * ad0 - 0.5 * aw)
    _, e0 = baseline_rates(point)
    e2_swap = 1.5 * point.a_delta * t * math.exp(-0.5 * (ad0 - aw)) * e0
    return e2_tail, e2_swap


def capacity(n_cells: int, codeword_count: float) -> float:
    """Information capacity in bits per cell of a codebook of the given size."""
    if codeword_count < 1:
        raise ValueError(f"codeword count must be >= 1, got {codeword_count}")
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    return math.log2(codeword_count) / n_cells


def crosspolytope_word_bound(n_levels: int) -> float:
    """Word-count bound for minimum Manhattan distance 3 over 4 cells.

    Packing radius-1 cross-polytopes (volume 2*4 + 1 = 9 in four
    dimensions) bounds the codebook size by n_levels**4 / 9.
    """
    return n_levels**N_CELLS / 9.0


@dataclass(frozen=True)
class Table1Row:
    exp_margin: float
    tail: float
    e0: float
    e2: float
    ratio: float


def table1() -> list[Table1Row]:
    """Reference operating table over the standard (exp(-a*delta0), tail) grid.

    Uses the width ~ margin operating convention.  The ratio column carries
    the pair-census correction term (a*delta0 + 1/2); the protected rate
    is ratio * e0 with the exact baseline.  Full precision is retained;
    rendering to one significant figure is the CLI's job.
    """
    rows = []
    for em in TABLE1_EXP_MARGINS:
        for t in TABLE1_TAILS:
            ad0 = -math.log(em)
            point = ChannelPoint(a_delta0=ad0, a_w=ad0, tail=t)
            _, e0 = baseline_rates(point)
            ratio = em + 0.75 * (ad0 + 0.5) * t
            rows.append(
                Table1Row(exp_margin=em, tail=t, e0=e0, e2=ratio * e0, ratio=ratio)
            )
    return rows


def scaling_sweep(
    a_delta0_values, tail: float = ChannelPoint.tail, a_w: float = ChannelPoint.a_w
) -> tuple[np.ndarray, np.ndarray]:
    """(e0, e2) pairs along a grid of a*delta0 values."""
    e0s, e2s = [], []
    for ad0 in a_delta0_values:
        point = ChannelPoint(a_delta0=float(ad0), a_w=a_w, tail=tail)
        budget = protected_rates(point)
        e0s.append(budget.e0)
        e2s.append(budget.e2_total)
    return np.array(e0s), np.array(e2s)


def fit_loglog_slope(e0s, e2s) -> float | None:
    """Least-squares slope of log(e2) vs log(e0), or None where no line is
    determined: a rate that is not positive (an underflowing closed form, a
    simulated point with no event, NaN) or fewer than 2 distinct e0 values."""
    e0s = np.asarray(e0s, dtype=float)
    e2s = np.asarray(e2s, dtype=float)
    if not ((e0s > 0.0).all() and (e2s > 0.0).all()) or np.unique(e0s).size < 2:
        return None
    slope = np.polyfit(np.log(e0s), np.log(e2s), 1)[0]
    return float(slope)
