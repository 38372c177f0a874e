"""Run every workload on several seeds and summarise each end-to-end metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--write]

For each workload and metric: median, quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  --write stores the summary, with each run's sample
counts and unscaled timings from its info line, in bench/baseline.json.
Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {"seeds": seed_list(args.seeds),
               "run_seconds": args.seconds, "trace": args.trace, "workloads": {}, "samples": {}}
    for name in args.workloads.split(","):
        runs, samples = [], []
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            info = next(json.loads(line[5:]) for line in out if line.startswith("info "))
            result = json.loads(out[-1])
            runs.append({m: v["value"] for m, v in result["metrics"].items()})
            samples.append(info["samples"])
            print(name, seed, result["correct"], result["attempted"], result["failed"],
                  info["problems"], flush=True)
        rows = {}
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m.get("bound"), "values": values}
            print(f"  {m['name']:42s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.3f} bound {m.get('bound')}", flush=True)
        summary["workloads"][name] = rows
        summary["samples"][name] = samples
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
