"""Pin the reference error rates the correctness checks compare against.

    python3 bench/make_reference.py          # about four minutes on 2 cores

One long run per workload through ``norsim simulate``, recorded with its
command and raw counts in reference.json.  Rerun only when the
meaning of a workload changes, never to make a check pass.
"""

import json

from checkout import require_src

require_src()

import checks  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402

SEED = 13065350  # apart from every benchmark run's call seeds
PLAIN_WORDS = 1 << 26
STRATIFIED_WORDS = 1 << 26  # 2^24 sub-trials per stratum


def pin(workload: str) -> dict:
    w = WORKLOADS[workload]
    stratified = w.kind == "stratified"
    args = w.simulate_args(SEED, STRATIFIED_WORDS if stratified else PLAIN_WORDS)
    wall, rc, text = run_cli(args)
    if rc != 0:
        raise SystemExit(f"reference run failed: {text}")
    est = json.loads(text)["results"]["estimate"]
    ref = {"command": ["norsim", *args], "wall_s": round(wall, 1), "tail": w.tail}
    if stratified:
        ref["estimator"] = "stratified"
        ref["strata"] = [
            {"k": s["n_tail_cells"], "trials": s["trials"], "events": s["events"]}
            for s in est["strata"] if s["simulated"]
        ]
    else:
        ref.update(estimator="plain", trials=est["trials"], events=est["word_error_events"])
    ref["word_rate"] = checks.reference_rate(ref)
    ref["word_rate_interval_5sigma"] = list(checks.reference_interval(ref))
    print(workload, ref, flush=True)
    return ref


refs = {name: pin(name) for name in WORKLOADS}
checks.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
