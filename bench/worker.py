"""One workload in a process of its own, so that its peak memory is its own.

Runs the workload's timed calls for ``--seconds``, checks every result,
and prints one JSON object: attempted/failed counts, the first problems
found, sample counts and the metrics this process can measure (peak
memory is measured by ``run.py`` from outside).
With ``--trace 1`` the timed calls run inside spans, and the per-layer
probes of ``layers.py`` follow them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from checkout import OUT, require_src
from clock import BATCH_REF_MS, CLOCK_REF_US, batch_probe_ms, clock_probe

require_src()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from norsim.codec import CodeBook, read_byte  # noqa: E402
from spans import Tracer, span_cost_seconds  # noqa: E402
from workloads import (  # noqa: E402
    CALL_WORDS,
    WORKLOADS,
    call_seed,
    draw_reads,
    run_cli,
)

MIN_CALLS = 4  # timed simulate calls per run, however short --seconds is
DECODE_CHUNK = 2048  # read_byte calls per chunk of fresh reads
DECODE_CHUNKS_PER_CALL = 2  # chunks timed after each simulate call
DECODE_STREAM = 999  # RngStream id of decode inputs, apart from engine streams
WARMUP_CALL = 1 << 30  # call index whose seed the untimed warm-up uses
SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


CLOCK_WINDOW = 33  # read_byte calls whose probe times set one call's clock


def time_read_byte(reads, grid, book):
    """(read_byte latencies, clock_probe latencies, outcomes), one of each
    per read; latencies in us."""
    lat, probe, outs = [], [], []
    clock = time.perf_counter_ns
    for r in reads:
        t0 = clock()
        out = read_byte(r, grid, book)
        t1 = clock()
        clock_probe(r)
        probe.append(clock() - t1)
        lat.append(t1 - t0)
        outs.append(out)
    return np.array(lat) / 1e3, np.array(probe) / 1e3, outs


class DecodeChunks:
    """read_byte timed in chunks of fresh reads at the workload's point.

    Each chunk is checked against the brute-force decoder; only the
    latencies, scaled to the reference clock, are kept."""

    def __init__(self, w, seed: int):
        self.w, self.seed = w, seed
        self.grid, _ = w.channel()
        self.book = CodeBook.build(self.grid.n_levels)
        self.decoder = checks.BruteForceDecoder(self.grid.n_levels, self.grid.l0, self.grid.pitch)
        self.scaled, self.unscaled, self.probe = [], [], []
        self.chunks = self.failed = 0

    def run(self, i: int) -> None:
        _, reads = draw_reads(self.w, call_seed(self.seed, i), DECODE_STREAM, DECODE_CHUNK)
        lat, probe, outs = time_read_byte(reads, self.grid, self.book)
        words = np.array([o.word for o in outs], dtype=np.int64)
        passed = np.array([o.parity_passed for o in outs])
        byte = np.array([-1 if o.byte is None else o.byte for o in outs])
        self.failed += checks.decode_mismatches(self.decoder, reads, words, passed, byte)
        half = CLOCK_WINDOW // 2
        padded = np.pad(probe, half, mode="edge")
        clock = np.median(np.lib.stride_tricks.sliding_window_view(padded, CLOCK_WINDOW), axis=1)
        self.scaled.append(lat * CLOCK_REF_US / clock)
        self.unscaled.append(lat)
        self.probe.append(probe)
        self.chunks += 1

    @property
    def calls(self) -> int:
        return sum(len(x) for x in self.unscaled)

    def warm_up(self) -> None:
        _, reads = draw_reads(self.w, call_seed(self.seed, WARMUP_CALL), DECODE_STREAM, 2000)
        time_read_byte(reads, self.grid, self.book)

    def problems(self) -> list[str]:
        return [f"{self.failed} read_byte results differ from brute force"] if self.failed else []

    def metrics(self) -> dict:
        """p50 and p99 over every call of the run, at the reference clock."""
        scaled = np.concatenate(self.scaled)
        return {
            "decode_call_us_p50": checks.percentile(scaled, 0.50),
            "decode_call_us_p99": checks.percentile(scaled, 0.99),
        }

    def raw(self) -> dict:
        """The unscaled p50 and p99, and the median probe time."""
        unscaled = np.concatenate(self.unscaled)
        return {
            "read_byte_us_p50_unscaled": checks.percentile(unscaled, 0.50),
            "read_byte_us_p99_unscaled": checks.percentile(unscaled, 0.99),
            "clock_probe_us": float(np.median(np.concatenate(self.probe))),
        }


class SetupProbes:
    """Fresh set-up processes (setup_probe.py), one after each untraced
    simulate call, so that they sample the whole run.

    Each wall time is scaled to the reference clock by batch probes taken
    just before and after it; setup_s is the median of the scaled times."""

    def __init__(self, w):
        self.w = w
        self.walls, self.scaled = [], []
        self.failed = 0

    def run(self) -> None:
        """Time one set-up process."""
        before = batch_probe_ms()
        t0 = time.perf_counter()
        rc = subprocess.run([sys.executable, SETUP_PROBE, self.w.name],
                            stdout=subprocess.DEVNULL, timeout=60).returncode
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.scaled.append(wall * BATCH_REF_MS / (before * batch_probe_ms()) ** 0.5)
        self.failed += rc != 0

    def problems(self) -> list[str]:
        return [f"{self.failed} set-up processes exited nonzero"] if self.failed else []


def run_simulate(w, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """Timed ``norsim simulate`` calls, each checked against the reference,
    each bracketed by batch probes of the host's speed, and each followed
    (untraced runs) by chunks of single-word decodes and a fresh set-up
    process."""
    ref = checks.load_reference(w.name)
    decodes = DecodeChunks(w, seed)
    setups = SetupProbes(w)
    run_cli(w.simulate_args(call_seed(seed, WARMUP_CALL)))  # the first call pays lazy set-up
    decodes.warm_up()
    calls = []
    cpu0, t_start = os.times(), time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - t_start < seconds:
        before = batch_probe_ms()
        with tracer.span("cli.main") if tracer else nullcontext():
            wall, rc, text = run_cli(w.simulate_args(call_seed(seed, i)))
        calls.append((wall, rc, text, (before * batch_probe_ms()) ** 0.5))
        if tracer is None:
            for j in range(DECODE_CHUNKS_PER_CALL):
                decodes.run(i * DECODE_CHUNKS_PER_CALL + j)
            setups.run()
        i += 1
    cpu1, wall_total = os.times(), time.perf_counter() - t_start

    problems, failed, rates, scaled, strata, checked = [], 0, [], [], [], []
    for wall, rc, text, probe_ms in calls:
        if rc != 0:
            failed += 1
            problems.append(f"simulate exited {rc}: {text.strip()[-200:]}")
            continue
        doc = json.loads(text)
        est = doc["results"]["estimate"]
        if w.kind == "stratified":
            found = checks.check_stratified(doc, w.tail, ref)
            strata.append([(s["n_tail_cells"], s["trials"], s["events"])
                           for s in est["strata"] if s["simulated"]])
        else:
            found = checks.check_plain(doc, CALL_WORDS, ref)
        failed += bool(found)
        problems += found
        if not found:
            checked.append(doc)
        rates.append(est["trials"] / wall)
        scaled.append(rates[-1] * probe_ms / BATCH_REF_MS)
    pooled = checks.check_pooled(checked, ref)  # one more check: the run's summed counts
    failed += bool(pooled)

    result = {
        "attempted": len(calls) + 1 + decodes.calls + len(setups.walls),
        "failed": failed + decodes.failed + setups.failed,
        "problems": (problems + pooled + decodes.problems() + setups.problems())[:5],
        "samples": {"simulate_calls": len(calls), "words_per_call": CALL_WORDS,
                    "read_byte_calls": decodes.calls,
                    "read_byte_chunks": decodes.chunks},
    }
    if tracer is None:
        # the median call's rate at the reference clock (clock.py)
        words_per_s = statistics.median(scaled)
        if w.kind == "stratified":
            # pool the run's calls into one estimate, its work timed at words_per_s
            moments = [checks.stratified_moments(s, w.tail) for s in strata]
            p = statistics.fmean(m[0] for m in moments)
            var = sum(m[1] for m in moments) / len(moments) ** 2
            work = sum(n for s in strata for _, n, _ in s)
            to_rse = checks.time_to_rse(work / words_per_s, p, var)
        else:
            to_rse = checks.plain_time_to_rse(words_per_s, checks.reference_rate(ref))
        result["metrics"] = {"words_per_s": words_per_s, "time_to_rse10_s": to_rse,
                             "setup_s": statistics.median(setups.scaled),
                             **decodes.metrics()}
        result["samples"].update(decodes.raw(), setup_processes=len(setups.walls),
                                 setup_s_unscaled=statistics.median(setups.walls),
                                 words_per_s_unscaled=statistics.median(rates),
                                 batch_probe_ms=statistics.median(c[3] for c in calls))
        return result

    # Tracing adds the same work to every span, so its share of the wall is
    # computed from the span count and the measured cost of one span; a
    # traced-versus-untraced comparison would drown in the host's noise.
    result["metrics"] = {
        "montecarlo.cpu_per_wall": (sum(cpu1[:4]) - sum(cpu0[:4])) / wall_total,
        "trace.overhead_frac": len(tracer.spans) * span_cost_seconds() / wall_total,
    }
    if w.kind == "stratified":
        result["metrics"].update(layers.stratum_metrics(sum(strata, []), w.tail))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    result = run_simulate(w, args.seed, args.seconds, tracer)
    if tracer is not None:
        result["metrics"].update(layers.measure(w, args.seed, tracer, result["metrics"]))
        tracer.write(OUT / f"spans-{w.name}-{args.seed}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
