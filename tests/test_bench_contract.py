"""The benchmark's tracer reads the package from outside: it wraps every
public function and its annotators read the calls' arguments (a
``train_step`` batch's list length, a loss family, a writer's bytes). A
change to those arguments can leave a traced run that exits 0 with
unmeasured per-layer metrics. This runs each workload of BENCHMARK.json
traced on toy inputs, from a copy of ``src/`` and ``bench/`` so the
checkout's ``bench/out/`` is not written, and requires a correct run with
a finite value for every metric.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_copy")
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_run_measures_every_metric(bench_copy, workload):
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--toy", "--trace", "1", "--seconds", "1",
         "--workload", workload],
        cwd=bench_copy, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]
    unmeasured = {name: m["value"] for name, m in result["metrics"].items()
                  if not isinstance(m["value"], float) or not math.isfinite(m["value"])}
    assert not unmeasured
