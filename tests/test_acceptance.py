"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (sub-checks listed individually where a criterion has
several).  Statistical criteria use fixed seeds and are fully
reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from norsim.analytic import (
    ChannelPoint,
    baseline_rates,
    fit_loglog_slope,
    protected_rates,
    scaling_sweep,
    table1,
)
from norsim.channel import (
    LevelGrid,
    NoiseModel,
    RngStream,
    five_level_grid,
    read_density,
    sample_read,
)
from norsim.cli import format_sig1
from norsim.codec import (
    CodeBook,
    decode,
    encode,
    enumerate_codewords,
    parity_ok,
    read_byte,
)
from norsim.montecarlo import (
    SimConfig,
    run_stratified,
    run_trials,
    variance_reduction_factor,
)

Z95 = 1.959963984540054

# published reference cells: (exp_margin, tail) -> (e0, e2, e2/e0)
TABLE1_EXPECTED = [
    ("1.E-02", "1.E-03", "5.E-06", "7.E-08", "1.E-02"),
    ("1.E-02", "1.E-05", "5.E-08", "5.E-10", "1.E-02"),
    ("1.E-02", "1.E-07", "5.E-10", "5.E-12", "1.E-02"),
    ("1.E-02", "1.E-09", "5.E-12", "5.E-14", "1.E-02"),
    ("1.E-03", "1.E-03", "5.E-07", "3.E-09", "7.E-03"),
    ("1.E-03", "1.E-05", "5.E-09", "5.E-12", "1.E-03"),
    ("1.E-03", "1.E-07", "5.E-11", "5.E-14", "1.E-03"),
    ("1.E-03", "1.E-09", "5.E-13", "5.E-16", "1.E-03"),
    ("1.E-04", "1.E-03", "5.E-08", "4.E-10", "7.E-03"),
    ("1.E-04", "1.E-05", "5.E-10", "9.E-14", "2.E-04"),
    ("1.E-04", "1.E-07", "5.E-12", "5.E-16", "1.E-04"),
    ("1.E-04", "1.E-09", "5.E-14", "5.E-18", "1.E-04"),
]

# shared operating point for criteria 3, 4, 7: pure exponential noise
CH = dict(a=1.0, tail=1.0, width=0.0, delta0=6.0)
POINT = ChannelPoint(a_delta0=6.0, a_w=0.0, tail=1.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def wilson_sigma(est):
    return (est.ci95[1] - est.ci95[0]) / (2.0 * Z95)


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    rows = table1()
    rendered = [
        (
            format_sig1(r.exp_margin),
            format_sig1(r.tail),
            format_sig1(r.e0),
            format_sig1(r.e2),
            format_sig1(r.ratio),
        )
        for r in rows
    ]
    elapsed = time.perf_counter() - start
    mismatches = [
        (got, want) for got, want in zip(rendered, TABLE1_EXPECTED) if got != want
    ]
    ok = not mismatches and elapsed < 1.0
    assert report(
        1, ok, f"36/36 cells at printed precision, {elapsed * 1e3:.0f} ms"
    ), mismatches
    assert elapsed < 1.0


def test_criterion_2_codec_correctness():
    start = time.perf_counter()
    book = CodeBook.build(5)
    grid = LevelGrid(n_levels=5, margin=0.75, width=0.25)
    count_ok = len(enumerate_codewords(5)) == 313
    roundtrip_ok = True
    for byte in range(256):
        word = np.array(encode(byte, book), dtype=float)
        out = read_byte(grid.l0 + grid.pitch * word, grid, book)
        roundtrip_ok &= out.parity_passed and out.byte == byte
    rng = RngStream(2024)
    validity_ok = True
    for _ in range(400):
        volts = rng.gen.uniform(-1.0, grid.levels[-1] + 1.0, 4)
        validity_ok &= parity_ok(read_byte(volts, grid, book).word)
    elapsed = time.perf_counter() - start
    ok = count_ok and roundtrip_ok and validity_ok and elapsed < 1.0
    assert report(
        2,
        ok,
        f"roundtrip 256/256, outputs parity-valid, 313 codewords, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_unprotected_oracle():
    _, e0 = baseline_rates(POINT)
    start = time.perf_counter()
    est = run_trials(
        SimConfig(protected=False, trials=10_000_000, seed=31,
                  data_mode="interior", **CH)
    )
    elapsed = time.perf_counter() - start
    sigma = wilson_sigma(est)
    dev = abs(est.event_rate_per_bit - e0) / sigma
    ok = dev <= 3.0
    assert report(
        3,
        ok,
        f"rate {est.event_rate_per_bit:.4e} vs e0 {e0:.4e} "
        f"({dev:.2f} Wilson-sigma, {elapsed:.0f} s)",
    )


def test_criterion_4_protected_oracle():
    budget = protected_rates(POINT)
    start = time.perf_counter()
    est = run_trials(
        SimConfig(protected=True, trials=10_000_000, seed=41,
                  data_mode="interior", **CH)
    )
    elapsed = time.perf_counter() - start
    nbits = est.trials * 8
    rates = {k: est.per_class[k] / nbits for k in ("type_i", "type_ii", "type_iii")}
    checks = {
        "total within 15%": (
            abs(est.event_rate_per_bit / budget.e2_total - 1.0) <= 0.15,
            f"{est.event_rate_per_bit:.4e} vs {budget.e2_total:.4e} "
            f"(x{est.event_rate_per_bit / budget.e2_total:.3f})",
        ),
        "type_ii within 20%": (
            abs(rates["type_ii"] / budget.e2_ii - 1.0) <= 0.20,
            f"{rates['type_ii']:.3e} vs {budget.e2_ii:.3e} "
            f"(x{rates['type_ii'] / budget.e2_ii:.3f})",
        ),
        "type_iii within 20%": (
            abs(rates["type_iii"] / budget.e2_iii - 1.0) <= 0.20,
            f"{rates['type_iii']:.3e} vs {budget.e2_iii:.3e} "
            f"(x{rates['type_iii'] / budget.e2_iii:.3f})",
        ),
        "type_i within factor 2": (
            0.5 <= rates["type_i"] / budget.e2_i <= 2.0,
            f"{rates['type_i']:.3e} vs {budget.e2_i:.3e} "
            f"(x{rates['type_i'] / budget.e2_i:.3f})",
        ),
    }
    failed = []
    for name, (ok, detail) in checks.items():
        report("4", ok, f"{name}: {detail}")
        if not ok:
            failed.append(f"{name}: {detail}")
    report(4, not failed, f"protected oracle, {elapsed:.0f} s")
    assert not failed, "; ".join(failed)


def test_criterion_5_scaling_law():
    grid_points = [5.0, 6.0, 7.0, 8.0]
    e0s, e2s = scaling_sweep(grid_points)
    slope_analytic = fit_loglog_slope(e0s, e2s)
    sim = []
    start = time.perf_counter()
    for ad0 in grid_points:
        est = run_trials(
            SimConfig(a=1.0, tail=1.0, width=0.0, delta0=ad0, protected=True,
                      trials=10_000_000, seed=51, data_mode="interior")
        )
        sim.append(est.event_rate_per_bit)
    elapsed = time.perf_counter() - start
    slope_sim = fit_loglog_slope(e0s, sim)

    ok_analytic = 1.40 <= slope_analytic <= 1.60
    ok_sim = abs(slope_sim - slope_analytic) <= 0.15
    report("5", ok_analytic, f"analytic slope {slope_analytic:.4f} in [1.40, 1.60]")
    report(
        "5",
        ok_sim,
        f"simulated slope {slope_sim:.4f} within 0.15 of analytic "
        f"({abs(slope_sim - slope_analytic):.3f}, {elapsed:.0f} s)",
    )
    report(5, ok_analytic and ok_sim, "scaling law")
    failed = []
    if not ok_analytic:
        failed.append(f"analytic slope {slope_analytic:.4f} outside [1.40, 1.60]")
    if not ok_sim:
        failed.append(f"simulated slope {slope_sim:.4f} off by more than 0.15")
    assert not failed, "; ".join(failed)


def test_criterion_6_stratified_estimator():
    base = dict(a=1.0, tail=1e-2, width=6.9, delta0=6.9, protected=True,
                data_mode="interior")
    plain = run_trials(SimConfig(trials=20_000_000, seed=61, **base))
    strat = run_stratified(
        SimConfig(trials=1, seed=61, stratified=True,
                  subtrials_per_stratum=400_000, **base)
    )
    lo = max(plain.ci95[0], strat.ci95[0])
    hi = min(plain.ci95[1], strat.ci95[1])
    overlap = lo <= hi

    small_tail = run_stratified(
        SimConfig(a=1.0, tail=1e-3, width=6.9, delta0=6.9, protected=True,
                  data_mode="interior", trials=1, seed=62, stratified=True,
                  subtrials_per_stratum=400_000)
    )
    gain = variance_reduction_factor(small_tail)
    ok = overlap and gain >= 10.0
    assert report(
        6,
        ok,
        f"CIs overlap={overlap} (plain {plain.ci95[0]:.2e}..{plain.ci95[1]:.2e}, "
        f"stratified {strat.ci95[0]:.2e}..{strat.ci95[1]:.2e}); "
        f"variance reduction at tail 1e-3: {gain:.0f}x (need >= 10)",
    )


def test_criterion_7_oracle_decoder_dominance():
    grid = five_level_grid(CH["delta0"], CH["width"])
    noise = NoiseModel(CH["a"], CH["tail"], CH["width"])
    book = CodeBook.build(5)
    rng = RngStream(71)
    n = 100_000
    written = book.words[:256][rng.gen.integers(0, 256, n)]
    v = sample_read(written, grid, noise, rng)
    _, decoded, passed = decode(v, grid)
    fail = np.nonzero(~passed)[0]
    vi = v[fail]
    book_levels = grid.l0 + grid.pitch * book.words
    dist = np.zeros((len(fail), len(book_levels)))
    for j in range(4):
        dist += np.abs(vi[:, j, None] - book_levels[None, :, j])
    d_oracle = dist.min(axis=1)
    d_soft = np.abs(vi - (grid.l0 + grid.pitch * decoded[fail])).sum(axis=1)

    dominance = np.all(d_oracle <= d_soft + 1e-12)
    equal_frac = np.mean(d_oracle > d_soft - 1e-12)
    ok = dominance and equal_frac >= 0.999
    assert report(
        7,
        ok,
        f"{len(fail)} parity-failing reads: dominance {100 * dominance:.0f}%, "
        f"equality {100 * equal_frac:.3f}% (need >= 99.9%)",
    )


def test_criterion_8_channel_sanity():
    grid = LevelGrid(n_levels=5, margin=1.3, width=0.6)
    noise = NoiseModel(a=2.0, tail=0.08, width=0.6)
    center = grid.level_voltage(2)
    w2 = noise.width / 2.0
    span = 40.0 / noise.a

    total = 0.0
    for a, b in [(center - w2 - span, center - w2), (center - w2, center + w2),
                 (center + w2, center + w2 + span)]:
        val, _ = quad(lambda x: read_density(x, 2, grid, noise), a, b, limit=200)
        total += val
    norm_ok = abs(total - 1.0) <= 1e-9

    n = 1_000_000
    v = sample_read(2, grid, noise, RngStream(81), size=n)
    frac = np.mean(np.abs(v - center) > w2)
    frac_ok = abs(frac - noise.tail) <= 3.0 * math.sqrt(noise.tail / n)

    thresh = center + w2 + 0.2
    excess = v[v > thresh] - thresh
    target = 1.0 / (2.0 * noise.a)
    sigma = target / math.sqrt(len(excess))
    excess_ok = abs(np.mean(excess) - target) <= 3.0 * sigma

    ok = norm_ok and frac_ok and excess_ok
    assert report(
        8,
        ok,
        f"quadrature 1{total - 1.0:+.1e}; tail fraction {frac:.4f} vs {noise.tail}; "
        f"mean excess {np.mean(excess):.4f} vs {target:.4f}",
    )
