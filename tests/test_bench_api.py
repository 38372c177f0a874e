"""The benchmark's use of the package API.

The benchmark under ``bench/`` imports norsim's public and internal names
and builds ``SimConfig`` itself.  Importing its worker and per-layer
probes, and running each workload's configuration on a few words, fails
here when a change removes or renames something the benchmark uses.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import worker  # noqa: E402
from norsim.montecarlo import run_stratified, run_trials  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_worker_and_layers_import():
    assert callable(worker.run_simulate) and callable(layers.measure)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_runs(name):
    config = WORKLOADS[name].config(seed=1, words=64)
    est = (run_stratified if config.stratified else run_trials)(config)
    assert est.trials == 64
