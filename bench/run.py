"""norsim benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload plain_dense --seed 1 --seconds 10 --trace 0

Prints the run's environment, each metric with its unit, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones.  The workload runs in a worker process
(worker.py) whose peak memory is sampled from here; set-up time is the
median wall time, at the reference clock of clock.py, of the fresh set-up
processes (setup_probe.py) the worker starts between its timed calls.
Exits nonzero, printing no result, when the run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from checkout import OUT, ROOT, git_commit, require_src

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within 180 s
POLL_S = 0.02


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and its live descendants, in KiB."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            status = Path(f"/proc/{p}/status").read_text()
            total += next(int(line.split()[1]) for line in status.splitlines()
                          if line.startswith("VmRSS:"))
            for task in Path(f"/proc/{p}/task").iterdir():
                stack += [int(c) for c in (task / "children").read_text().split()]
        except (OSError, StopIteration):
            continue  # exited between listing and reading
    return total


def run_worker(args, deadline: float) -> tuple[dict, float]:
    """The worker's result and the peak memory of it and its children, MB."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"worker-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with out_path.open("w") as out:
        proc = subprocess.Popen(cmd, stdout=out)
    peak_kb = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise SystemExit(f"bench: {args.workload} did not finish in time")
            peak_kb = max(peak_kb, tree_rss_kb(proc.pid))
            time.sleep(POLL_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    text = out_path.read_text()
    out_path.unlink()
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker exited {proc.returncode}")
    # ru_maxrss (KiB) covers the worker and the largest child it reaped
    return json.loads(text.splitlines()[-1]), max(peak_kb, usage.ru_maxrss) / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    require_src()
    import numpy
    import norsim
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")

    result, peak_mb = run_worker(args, deadline)
    metrics = result["metrics"]
    units = metric_units(args.trace)
    if not args.trace:
        metrics["peak_rss_mb"] = peak_mb
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"bench: no value for {missing}")

    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "norsim": norsim.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": result["samples"],
        "failed_frac": failed / attempted,
        "problems": result["problems"],
    }
    print("info " + json.dumps(info))
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
