"""Per-layer probes of the traced run, one span per call into a module.

Every probe calls a public function of ``norsim.channel``, ``norsim.codec``,
``norsim.montecarlo`` or ``norsim.cli`` on the workload's own channel
point and data.  Batch timings are normalised to seconds per 2^20 words
(``s_per_Mi``).  ``montecarlo.self`` is the ``run_trials`` span minus its
child spans, which replay the channel sampling and margin sensing of that
very call on identical inputs (the same seeds, shards and draw order).
"""

from __future__ import annotations

import statistics
from dataclasses import replace

import numpy as np

import checks
from norsim.channel import RngStream, sample_read, sample_read_conditioned
from norsim.codec import CodeBook, margin_sense, read_byte, soft_correct
from norsim.montecarlo import run_stratified, run_trials
from spans import Tracer
from workloads import STRATA, call_seed, draw_reads, draw_written, run_cli

MI = 1 << 20
REPS = 2  # timed repetitions of each second-long probe
BUILD_REPS = 7
CALL_SAMPLE = 2000  # read_byte / soft_correct calls per kind of read
CLI_REPS = 15
PROBE_CALL = 1 << 31  # call index of the probes' seeds, apart from the timed calls'


def _median_seconds(tracer: Tracer, name: str, fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        with tracer.span(name) as s:
            fn()
        times.append(s.seconds)
    return statistics.median(times)


def stratum_metrics(strata, tail: float) -> dict:
    """Trials, events and share of the estimator variance per stratum k=1..4.

    ``strata`` holds (k, trials, events) tuples, pooled per k; strata that
    do not appear count as empty."""
    weights = checks.stratum_weights(tail)
    counts = {}
    for k, n, e in strata:
        n0, e0 = counts.get(k, (0, 0))
        counts[k] = (n0 + n, e0 + e)
    var = {k: (weights[k] ** 2 * (e / n) * (1 - e / n) / n if n else 0.0)
           for k, (n, e) in counts.items()}
    total = sum(var.values())
    out = {}
    for k in STRATA:
        n, e = counts.get(k, (0, 0))
        out[f"montecarlo.stratum{k}.trials"] = n
        out[f"montecarlo.stratum{k}.events"] = e
        out[f"montecarlo.stratum{k}.var_share"] = var.get(k, 0.0) / total if total else 0.0
    return out


def _run_trials_layers(w, seed: int, tracer: Tracer) -> dict:
    """run_trials per 2^20 words, its self time, and the shard speed-up."""
    plain = replace(w, kind="plain")
    grid, noise = w.channel()
    config = plain.config(seed, MI)
    run_trials(config)  # warm the allocator before timing
    by_shards = {1: [], 2: []}
    samples, senses, selfs = [], [], []
    for _ in range(REPS):
        for shards in by_shards:
            with tracer.span("montecarlo.run_trials") as span:
                run_trials(replace(config, shards=shards))
            by_shards[shards].append(span.seconds)
            if shards != config.shards:
                continue
            for shard in range(shards):  # replay this call's sampling and sensing
                rng = RngStream(seed, shard)
                written = draw_written(plain, rng, len(range(shard, MI, shards)))
                with tracer.span("channel.sample_read", span):
                    v = sample_read(written, grid, noise, rng)
                with tracer.span("codec.margin_sense", span):
                    margin_sense(v, grid)
            kids = [s for s in tracer.spans if s.parent == span.id]
            samples.append(sum(s.seconds for s in kids if s.name == "channel.sample_read"))
            senses.append(sum(s.seconds for s in kids if s.name == "codec.margin_sense"))
            selfs.append(tracer.self_seconds(span))
    median = statistics.median
    return {
        "montecarlo.run_trials.s_per_Mi": median(by_shards[config.shards]),
        "montecarlo.self.s_per_Mi": median(selfs),
        "channel.sample_read.s_per_Mi": median(samples),
        "codec.margin_sense.s_per_Mi": median(senses),
        "montecarlo.shard_speedup": median(by_shards[1]) / median(by_shards[2]),
    }


def _codec_layers(w, seed: int, tracer: Tracer) -> dict:
    """Conditioned sampling, parity failures and per-call decode costs on
    the workload's own read distribution."""
    grid, noise = w.channel()
    book = CodeBook.build(grid.n_levels)
    written, v = draw_reads(w, seed, 0, MI)
    rng = RngStream(seed, 1)
    conditioned = _median_seconds(
        tracer, "channel.sample_read_conditioned",
        lambda: sample_read_conditioned(written, grid, noise, True, rng), REPS + 1,
    )
    sensed = margin_sense(v, grid)
    fail = sensed.sum(axis=1) % 2 == 1
    out = {
        "channel.sample_read_conditioned.s_per_Mi": conditioned,
        "codec.parity_fail_frac": float(fail.mean()),
        "codec.CodeBook.build_s": _median_seconds(
            tracer, "codec.CodeBook.build", lambda: CodeBook.build(grid.n_levels), BUILD_REPS
        ),
    }
    passing, failing = np.nonzero(~fail)[0][:CALL_SAMPLE], np.nonzero(fail)[0][:CALL_SAMPLE]
    for i in passing[:200]:  # warm-up
        read_byte(v[i], grid, book)
    for name, rows, call in (
        ("codec.read_byte.us.pass", passing, lambda i: read_byte(v[i], grid, book)),
        ("codec.read_byte.us.fail", failing, lambda i: read_byte(v[i], grid, book)),
        ("codec.soft_correct.us", failing, lambda i: soft_correct(v[i], sensed[i], grid, book)),
    ):
        times = []
        for i in rows:
            with tracer.span(name) as s:
                call(i)
            times.append(s.seconds)
        out[name] = statistics.median(times) * 1e6
    return out


def _stratified_layers(w, seed: int, tracer: Tracer, with_strata: bool) -> dict:
    """run_stratified per 2^20 sub-trials at the workload's point."""
    config = replace(w, kind="stratified").config(seed, MI)
    with tracer.span("montecarlo.run_stratified") as span:
        est = run_stratified(config)
    out = {"montecarlo.run_stratified.s_per_Mi": span.seconds * MI / est.trials}
    if with_strata:
        out.update(stratum_metrics(
            [(s.n_tail_cells, s.trials, s.events) for s in est.strata if s.simulated], w.tail
        ))
    return out


def _cli_overhead(w, seed: int, tracer: Tracer) -> float:
    """cli.main minus the montecarlo call it makes, on a one-word config:
    argument resolution, the analytic block and JSON emission."""
    args = w.simulate_args(seed, words=1)
    config = w.config(seed, words=1)
    run = run_stratified if config.stratified else run_trials
    diffs = []
    for _ in range(CLI_REPS):
        with tracer.span("cli.main") as c:
            run_cli(args)
        with tracer.span("montecarlo.run") as m:
            run(config)
        diffs.append(c.seconds - m.seconds)
    return statistics.median(diffs)


def measure(w, seed: int, tracer: Tracer, have: dict) -> dict:
    """Every per-layer metric not already in ``have`` from the timed calls."""
    seed = call_seed(seed, PROBE_CALL)
    out = _run_trials_layers(w, seed, tracer)
    out.update(_codec_layers(w, seed, tracer))
    out.update(_stratified_layers(w, seed, tracer, "montecarlo.stratum1.trials" not in have))
    out["cli.overhead_s"] = _cli_overhead(w, seed, tracer)
    return out
