"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest -q bench/test_smoke.py

Each workload must print every metric BENCHMARK.json names, with its unit,
both as a table line and in the result JSON on the last line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run_bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if not line.startswith("#")}
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], float), name
        assert table.get(name) == unit, name
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = [n for n in values if n.endswith(".self_s") and n.count(".") == 1]
        assert sum(values[n] for n in layers) == pytest.approx(values["trace.wall_s"])
    if trace and workload == "tables-book":
        from workloads import TablesBook

        z = TablesBook.TOY
        weeks = (z["weeks"] - z["train_len"]) // z["test_len"] * z["test_len"]
        # the heatmap's own portfolios are heatmap work, not strategy books
        assert values["backtest.book.portfolios"] == TablesBook.STRATEGIES * weeks


def test_heatmap_keeps_its_portfolios():
    from layers import BOOK_BUILDERS, PassView

    def span(sid, parent, name, start, end):
        return (sid, parent, name, "", 0, start, end, "pass-1", "")

    view = PassView([
        span(3, 2, "backtest.build_long_short", 0.1, 0.2),
        span(4, 2, "backtest.week_pnl", 0.2, 0.4),
        span(2, 1, "backtest.cutoff_heatmap", 0.0, 0.5),
        span(6, 5, "backtest.build_long_short", 0.6, 0.7),
        span(5, 1, "backtest.run_backtest", 0.5, 1.0),
        span(1, 0, "bench.pass", 0.0, 1.0),
    ])
    assert view.stage_self["backtest.heatmap"] == pytest.approx(0.5)
    assert view.stage_self["backtest.book"] == pytest.approx(0.1)
    assert view.stage_self["backtest.run_backtest"] == pytest.approx(0.4)
    assert [s[0] for s in view.named(BOOK_BUILDERS, stage="backtest.book")] == [6]


def test_removed_name_is_unmeasured():
    import listfold
    from layers import per_layer_metrics
    from spans import Tracer

    known = Tracer(listfold).names - {"neural.AdamState.update", "neural.SgdState.update"}
    annotated = known - {"neural.train_step"}
    root = (1, 0, "bench.pass", "", 0, 0.0, 1.0, "pass-1", "")
    rows, _ = per_layer_metrics(known, annotated, {"pass-1": [root]}, {}, {}, 1.0, 0)
    values = {name: value for name, _, value in rows}
    assert values["neural.optimizer.self_s"] is None
    assert values["neural.train_step.ms_p50.mlp"] is None
    assert values["neural.train_step.self_s"] == 0.0
    assert values["neural.backward.self_s"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "lab-enumerate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
