"""Run one workload in this process: set up, time passes, check, report.

run_bench.py starts this script in a fresh process per workload, with the
BLAS thread cap already in the environment. It prints a metric table and,
as its last line, the result JSON that run_bench.py relays.

Untraced (--trace 0): set up SETUP_REPS times, then run passes back to back
until --seconds have gone by (at least MIN_PASSES), and report the
end-to-end metrics. A fixed piece of reference work is timed just before
and just after every pass and set-up, and a fixed set of imports before
every import; wall_ref, the gated pass time, is the median of pass time
over reference time, and setup_s turns the set-up and import ratios back
into seconds at the references' usual times. That cancels most of the
host's speed drift. Traced (--trace 1): set-ups are traced, then untraced
and traced passes alternate, and the per-layer metrics come from the
traced ones; every pass must yield the same result digest.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import Tracer, step_model

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3
# Imports take 0.1-0.3 s and vary by 15% between fresh interpreters.
IMPORT_REPS = 8
MIN_PASSES = 3
# Seed kept out of tuning, for re-checking a perf claim on unseen inputs.
HELD_OUT_SEED = 7919


# Sizes of the reference work: about 25 ms of loop and 15 ms of numpy calls
# on a 2-vCPU KVM guest.
REF_LOOPS = 200_000
REF_CALLS = 2_000
# Set-up work is given in seconds on a host where the reference work takes
# this long, about its median on that guest (runs saw 25 ms to 50 ms).
REF_NOMINAL_S = 0.040


def make_reference(np):
    """A function that times a fixed piece of work calling no listfold code.

    The host's CPU speed drifts by up to 1.5x for seconds to minutes, and
    pure-Python work drifts most. The reference is the kind of work
    listfold's per-call paths do: a pure-Python loop, then numpy calls on
    an 8-element array. Timed just before and just after a pass, in the
    same process, it slows with the pass, so pass time over reference time
    stays put while both seconds figures move.
    """
    x = np.linspace(0.0, 1.0, 8)

    def reference_s() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        for _ in range(REF_CALLS):
            y = np.exp(x - x.max())
            acc += float(y.sum() / (1.0 + y[0]))
        return time.perf_counter() - t0

    return reference_s


class StepMonitor:
    """Counts the batches train() skips because their loss was not finite,
    and times every train_step call by model, traced pass or not.

    train() swallows NonFiniteLossError, so the count is taken by wrapping
    neural.train_step. A package without that function leaves the count
    None and the times empty.
    """

    def __init__(self, neural):
        self.count = None
        self.step_ms: dict[str, list[float]] = defaultdict(list)
        original = getattr(neural, "train_step", None)
        error = getattr(neural, "NonFiniteLossError", None)
        if original is None or error is None:
            return
        self.count = 0
        clock = time.perf_counter

        def monitored(*args, **kwargs):
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except error:
                self.count += 1
                raise
            ms = 1e3 * (clock() - t0)
            try:
                self.step_ms[step_model(args, kwargs)].append(ms)
            except (KeyError, TypeError, AttributeError):
                pass  # a model MODEL_SPECS does not name is not timed
            return result

        neural.train_step = monitored


# Imports are timed against importing a fixed set of standard-library
# modules first, in the same fresh interpreter: the same kind of work
# (finding, reading and running modules, loading C extensions), which drifts
# with file and memory speed more than with CPU speed, so the reference loop
# does not track it. IMPORT_NOMINAL_S is about that import's median time on
# the 2-vCPU guest.
IMPORT_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import decimal, email.mime.multipart, http.server, sqlite3, tarfile, unittest, xml.dom.minidom
t1 = time.perf_counter()
import numpy, listfold
print(time.perf_counter() - t1, t1 - t0)
"""
IMPORT_NOMINAL_S = 0.080


def time_imports() -> list[tuple[float, float]]:
    """(numpy and listfold import time, reference import time), IMPORT_REPS
    times, each in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        took, ref = proc.stdout.split()
        samples.append((float(took), float(ref)))
    return samples


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside a git tree."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown", None
        sha = git("rev-parse", "HEAD").stdout.strip() or "unknown"
        return sha, bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None


def provenance(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha, dirty = git_state()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def measure(args, tracer, wl, monitor, reference_s):
    """Set up, time the passes, check the outputs. Returns a record dict."""
    def recording(run_id, root):
        return tracer.recording(run_id, root) if tracer else contextlib.nullcontext()

    setups = []  # (set-up time, reference time)
    for rep in range(SETUP_REPS):
        ref_before = reference_s()
        with recording(f"setup-{rep}", "setup"):
            t0 = time.perf_counter()
            wl.setup()
            wall = time.perf_counter() - t0
        setups.append((wall, (ref_before + reference_s()) / 2))

    walls, traced_walls, refs, digests, errors = [], [], [], [], []
    out = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        ref_before = None if traced else reference_s()
        try:
            with recording(f"pass-{i}", "pass") if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = wl.run()
                wall = time.perf_counter() - t0
        except Exception:  # a failed pass is reported, not raised
            errors.append(traceback.format_exc())
            break
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            refs.append((ref_before + reference_s()) / 2)
        digests.append(wl.digest(out))
        i += 1
        enough = len(walls) >= MIN_PASSES and (tracer is None or len(traced_walls) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    checks = []
    if not errors:
        checks = [(name, bool(ok), detail) for name, ok, detail in wl.checks(out)]
        checks.append(("traced_digest_equals_untraced" if tracer else "rerun_digest_equal",
                       len(set(digests)) == 1, f"{len(set(digests))} distinct of {len(digests)}"))
    passes = len(walls) + len(traced_walls)
    nonfinite = monitor.count or 0
    attempted = passes + len(errors) + passes * wl.steps + len(checks)
    failed = len(errors) + nonfinite + sum(1 for _, ok, _ in checks if not ok)
    return {
        "setups": setups, "walls": walls, "refs": refs,
        "traced_walls": traced_walls,
        "digest": digests[0] if digests else None, "errors": errors, "checks": checks,
        "out": out, "attempted": attempted, "failed": failed,
        "nonfinite_batches": monitor.count,
    }


def end_to_end(rec, wl, imports):
    walls, refs = rec["walls"], rec["refs"]
    wall = statistics.median(walls)
    q1, q3 = quartiles(walls)
    ratios = [w / r for w, r in zip(walls, refs)]
    r1, r3 = quartiles(ratios)
    def in_refs(samples):
        return statistics.median(t / r for t, r in samples)

    def in_s(samples):
        return statistics.median(t for t, _ in samples)

    setups = rec["setups"]
    metrics = [
        ("setup_s", IMPORT_NOMINAL_S * in_refs(imports) + REF_NOMINAL_S * in_refs(setups), "s",
         f"imports {in_refs(imports):.3f} x {IMPORT_NOMINAL_S} s + set-up "
         f"{in_refs(setups):.3f} x {REF_NOMINAL_S} s; medians of {len(imports)} and "
         f"{len(setups)}"),
        ("wall_ref", statistics.median(ratios), "ref",
         f"pass time / reference time, median of {len(ratios)} passes, "
         f"q1 {r1:.4f}, q3 {r3:.4f}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "peak resident memory of this process"),
    ]
    reported = [
        ("setup_wall_s", in_s(imports) + in_s(setups), "s",
         f"imports {in_s(imports):.4f} s + set-up {in_s(setups):.4f} s, as measured"),
        ("wall_s", wall, "s", f"median of {len(walls)} passes, q1 {q1:.4f}, q3 {q3:.4f}"),
        ("ref_s", statistics.median(refs), "s",
         f"reference work, median beside {len(refs)} passes"),
        (wl.work_name, wl.work / wall, "1/s", f"{wl.work} {wl.work_unit} per pass"),
        ("ops_failed_frac", rec["failed"] / rec["attempted"], "frac",
         f"{rec['failed']} of {rec['attempted']} operations failed"),
    ]
    reported += wl.reported(rec["out"])
    return metrics, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import listfold
    except ImportError as exc:
        print(f"cannot import listfold from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(listfold.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"listfold came from {listfold.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from layers import per_layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")

    tracer = Tracer(listfold) if args.trace else None  # before anything patches
    monitor = StepMonitor(listfold.neural)
    OUT.mkdir(exist_ok=True)
    reference_s = make_reference(np)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](listfold, args.seed, args.toy, workdir)
        rec = measure(args, tracer, wl, monitor, reference_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance(np, args.seed)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  toy' if args.toy else ''}")
    print("# provenance " + json.dumps(prov))
    for err in rec["errors"]:
        print("# pass failed:\n" + err, file=sys.stderr)
    for name, ok, detail in rec["checks"]:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")

    table, extra, details = [], [], {}
    if rec["walls"]:
        if tracer is None:
            table, extra = end_to_end(rec, wl, time_imports())
        else:
            rows, details = per_layer_metrics(
                tracer.names, tracer.annotated, tracer.runs("pass-"), tracer.runs("setup-"),
                monitor.step_ms, statistics.median(rec["walls"]), wl.perm_evals)
            table = [(name, value, unit, "unmeasured" if value is None else "")
                     for name, unit, value in rows]
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")
    for name, value, unit, note in table + extra:
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:<44} {shown:>14} {unit:<8} {note}")
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")

    correct = not rec["errors"] and all(ok for _, ok, _ in rec["checks"])
    metrics = {}
    for name, value, unit, _ in table:
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["status"] = "unmeasured"
    result = {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
              "metrics": metrics}
    record = dict(result, workload=args.workload, toy=args.toy, seconds=args.seconds,
                  provenance=prov, checks=rec["checks"], digest=rec["digest"],
                  setups_s=rec["setups"], untraced_walls_s=rec["walls"],
                  reference_s=rec["refs"],
                  traced_walls_s=rec["traced_walls"], details=details,
                  reported={n: {"value": v, "unit": u, "note": note}
                            for n, v, u, note in extra},
                  nonfinite_batches=rec["nonfinite_batches"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
