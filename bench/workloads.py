"""The benchmark's workloads and the seeded inputs they feed to norsim.

Every workload sits at one channel point (a*delta0, a*w, tail) with one
kind of written data.  It calls ``norsim.cli.main(["simulate", ...])``
in-process, the way a user runs the tool, and ``norsim.codec.read_byte``
one word at a time on reads at the same point, the way a library caller
decodes.  Import this module only after ``checkout.require_src()``.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from norsim import cli
from norsim.channel import (
    NoiseModel,
    RngStream,
    five_level_grid,
    sample_read,
    sample_read_conditioned,
)
from norsim.codec import CodeBook
from norsim.montecarlo import SimConfig

N_CELLS = 4
STRATA = (1, 2, 3, 4)  # tail-cell counts the stratified estimator simulates

# Words per timed call: one 2^20-word engine batch.  Stratified calls split
# it evenly over the four simulated strata.
CALL_WORDS = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "plain" or "stratified"
    a_delta0: float
    aw: float
    tail: float
    shards: int
    data_mode: str

    def simulate_args(self, seed: int, words: int = CALL_WORDS) -> list[str]:
        """``norsim simulate`` arguments for one call of ``words`` decoded words."""
        args = [
            "simulate",
            "--a-delta0", repr(self.a_delta0),
            "--aw", repr(self.aw),
            "--tail", repr(self.tail),
            "--data-mode", self.data_mode,
            "--seed", str(seed),
            "--format", "json",
        ]
        if self.kind == "stratified":
            return args + ["--stratified", "--subtrials", str(max(words // len(STRATA), 1))]
        return args + ["--shards", str(self.shards), "--trials", str(words)]

    def config(self, seed: int, words: int = CALL_WORDS) -> SimConfig:
        """The SimConfig ``simulate_args`` resolves to (a = 1, as in the CLI)."""
        stratified = self.kind == "stratified"
        return SimConfig(
            a=1.0,
            tail=self.tail,
            width=self.aw,
            delta0=self.a_delta0,
            trials=words,
            seed=seed,
            shards=self.shards,
            stratified=stratified,
            data_mode=self.data_mode,
            subtrials_per_stratum=max(words // len(STRATA), 1) if stratified else None,
        )

    def channel(self):
        """(grid, noise) of the workload's point with a = 1."""
        return five_level_grid(self.a_delta0, self.aw), NoiseModel(1.0, self.tail, self.aw)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # name, kind, a*delta0, a*w, tail, shards, written data
        Workload("plain_dense", "plain", 6.0, 0.0, 1.0, 2, "uniform"),
        Workload("stratified_rare", "stratified", 6.9, 6.9, 1e-3, 1, "interior"),
    )
}


def call_seed(seed: int, i: int) -> int:
    """Seed of the i-th call of a run, derived from the run seed.

    Kept below 2**52 so the CLI's float-parsed --seed carries it exactly."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0] >> 12)


def run_cli(args: list[str]) -> tuple[float, int, str]:
    """(wall seconds, exit code, output) of one in-process ``norsim`` call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(args)
    return time.perf_counter() - t0, rc, out.getvalue() + err.getvalue()


def data_pool(book: CodeBook, data_mode: str) -> np.ndarray:
    """Words the workload writes: the 256 byte-mapped words, or interior ones."""
    if data_mode == "interior":
        inner = ((book.words >= 1) & (book.words <= book.n_levels - 2)).all(axis=1)
        return book.words[inner]
    return book.words[:256]


def draw_written(workload: Workload, rng: RngStream, words: int) -> np.ndarray:
    """Written words, drawn as the engine draws them: pool indices first."""
    pool = data_pool(CodeBook.build(5), workload.data_mode)
    return pool[rng.gen.integers(0, len(pool), words)]


def draw_reads(workload: Workload, seed: int, stream: int, words: int):
    """(written, reads) drawn through norsim's public channel API.

    Plain reads follow the engine's draw order (word indices, then
    ``sample_read`` on the same stream), so for a given (seed, shard) they
    are identical to what ``run_trials`` decodes.  Stratified reads give
    the four simulated strata equal shares, as ``run_stratified`` does, with
    k random cells of each stratum-k word forced into the tail law.
    """
    grid, noise = workload.channel()
    rng = RngStream(seed, stream)
    written = draw_written(workload, rng, words)
    if workload.kind != "stratified":
        return written, sample_read(written, grid, noise, rng)
    k = np.resize(np.array(STRATA), words)
    tail_mask = rng.gen.random((words, N_CELLS)).argsort(axis=1) < k[:, None]
    tails, _ = sample_read_conditioned(written, grid, noise, True, rng)
    inner, _ = sample_read_conditioned(written, grid, noise, False, rng)
    return written, np.where(tail_mask, tails, inner)
