"""Set-up cost of one workload, run as a fresh process by run.py.

Imports norsim and makes a one-word run of the workload's configuration;
run.py times the whole process, interpreter start-up included, because a
user who runs ``norsim simulate`` pays all of it.
Usage: python3 bench/setup_probe.py <workload>
"""

import sys

from checkout import require_src

require_src()

from workloads import WORKLOADS, run_cli  # noqa: E402

_, rc, _ = run_cli(WORKLOADS[sys.argv[1]].simulate_args(seed=0, words=1))
sys.exit(rc)
