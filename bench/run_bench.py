"""listfold benchmark: run each workload in its own fresh child process.

    python3 bench/run_bench.py                       # every workload, untraced
    python3 bench/run_bench.py --workload tables-book --seed 3 --seconds 32 --trace 1

Workloads run one at a time, each as a single closed-loop client: one
process runs a pass to completion before starting the next, with no
request rate and no queue. The child's numpy/OpenBLAS threads are capped at
the number of usable cores through its environment.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is non-zero when a pass
fails, an output check fails, or the child gives no result. Full records
(provenance, checks, every pass time) go to bench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; a child that overruns is killed.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, args, env) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2, None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        print(f"{workload}: child exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 2, None
    print("\n".join(lines[:-1]), flush=True)
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    cap = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap,
               MKL_NUM_THREADS=cap)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    worst = 0
    for name in names:
        code, result = run_child(name, args, env)
        if result is None:
            return code
        results[name] = result
        worst = max(worst, code)
    if len(results) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
