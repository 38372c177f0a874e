"""Timing at a reference clock, for a host whose speed swings.

The shared host's clock drops with its load, slowing this process by up
to 1.7x for 0.1 s to tens of seconds, and whole-array numpy work by up
to 3x.  Two probes of fixed numpy work that import nothing from norsim
slow down with the work timed right next to them, so a duration d is
reported at the reference clock as d * (reference time) / (probe time):

- ``clock_probe``, small-array work of ``read_byte``'s kind, for
  single-word decodes.  For read_byte latencies it cut the 5-95% range
  of chunk medians from 0.90-1.87x to 0.99-1.04x of their median.
- ``batch_probe_ms``, whole-array work on 2^20 floats, for simulate
  calls and set-up processes, which follow it more closely than they
  follow ``clock_probe``.

Callers report the unscaled figures alongside.
"""

import time

import numpy as np

CLOCK_REF_US = 11.5  # clock_probe's median on the reference host, unslowed
BATCH_REF_MS = 30.0  # batch_probe_ms on the reference host, unslowed


def clock_probe(read) -> int:
    v = np.asarray(read, dtype=float)
    sensed = np.clip(np.ceil(v * 0.37 - 0.5).astype(np.int64), 0, 4)
    return int(sensed.sum()) + bool(np.isfinite(v).all())


def batch_probe_ms() -> float:
    """Time of one pass of fixed whole-array numpy work, in ms: the
    elementwise, reduction and sorting kinds a simulate call is made of."""
    t0 = time.perf_counter()
    cells = np.arange(1 << 20) * 0.37
    (np.floor(cells * 1.3) % 5).reshape(-1, 4).sum(axis=1)
    keys = (np.arange(1 << 16) * 7919 % 65521).astype(float)
    np.sort(keys)
    np.argsort(keys)
    return (time.perf_counter() - t0) * 1e3
