"""Per-layer metrics from the spans of a traced run.

Every metric is computed from the traced pass whose wall time is the
median, so the layer self times and the unattributed time add up to that
pass's wall time exactly. Per-step latency percentiles use the train_step
times of every pass of the run, traced or not, because one pass holds few
of them.

A *stage* is a named group of spans plus the same-layer spans below them:
``decile_labels`` called by ``build_ranked_batch`` counts toward the
``data.build_ranked_batch`` stage, while the loss calls below a theorem
check leave the consistency layer and so leave its stage. A span whose own
name belongs to a stage is in that stage wherever it is called from, except
inside an enclosing stage, which keeps all of its same-layer work: the
portfolios that ``cutoff_heatmap`` builds and prices are heatmap work, not
book work.

A metric whose span names the package no longer defines is reported as
unmeasured, never as 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import (COUNT, END, ERROR, LAYERS, NAME, PARENT, SID, START, TAG,
                   layer_of, self_times)

MODELS = ("listfold-exp", "listfold-sgm", "listmle", "listmle-rvs", "mlp")
LOSS_FAMILIES = ("listfold-exp", "listfold-sgm", "listmle", "mse")

# stage -> span names, optionally "name:tag"
STAGES = {
    "neural.forward": ("neural.forward", "neural.forward_cached"),
    "neural.backward": ("neural.backward",),
    "neural.optimizer": ("neural.AdamState.update", "neural.SgdState.update"),
    "neural.train_step": ("neural.train_step", "neural.list_loss_and_grad"),
    "neural.train": ("neural.train",),
    "data.load_panel": ("data.load_panel",),
    "data.save_panel": ("data.save_panel",),
    "data.minmax_normalize": ("data.minmax_normalize",),
    "data.build_ranked_batch": ("data.build_ranked_batch",),
    "backtest.score": ("neural.score_week",),
    "backtest.book": ("backtest.build_long_short", "backtest.build_short_average",
                      "backtest.build_list2mle", "backtest.week_pnl"),
    "backtest.heatmap": ("backtest.cutoff_heatmap",),
    "backtest.stats": ("backtest.compute_stats",),
    "backtest.write": tuple(f"backtest.write_{w}_csv" for w in
                            ("stats", "rankmetrics", "pnl", "heatmap", "batchgrid")),
    "backtest.run_backtest": ("backtest.run_backtest",),
    "consistency.theorem1": ("consistency.verify_theorem1",),
    "consistency.theorem2_restricted": ("consistency.verify_theorem2:restricted",),
    "consistency.theorem2_unrestricted": ("consistency.verify_theorem2:unrestricted",),
    "consistency.search": ("consistency.counterexample_search",),
    "consistency.probe": ("consistency.order_sensitivity_probe",),
    "consistency.sampler": ("consistency.sample_vase", "consistency.sample_plank_dart",
                            "consistency.frequency_zscores"),
}
# Stages that keep every same-layer span below them, whatever its name.
ENCLOSING = ("backtest.heatmap",)
_MEMBER = {member: stage for stage, members in STAGES.items() for member in members}
BOOK_BUILDERS = STAGES["backtest.book"][:3]
SAMPLERS = STAGES["consistency.sampler"][:2]
# the losses entry points whose calls carry a loss-family tag
LOSS_ENTRIES = ("losses.evaluate_loss", "losses.listfold_loss", "losses.listmle_loss",
                "losses.naive_pt_loss", "losses.mse_loss")


class PassView:
    """Self times, stages and layer boundaries of one pass's spans."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.own = self_times(spans)
        by_id = {s[SID]: s for s in spans}
        self.parent_layer = {
            s[SID]: layer_of(by_id[s[PARENT]][NAME]) if s[PARENT] in by_id else None
            for s in spans
        }
        stage: dict[int, str | None] = {}

        def stage_of(s) -> str | None:
            if s[SID] in stage:
                return stage[s[SID]]
            parent = by_id.get(s[PARENT])
            inherited = None
            if parent is not None and layer_of(parent[NAME]) == layer_of(s[NAME]):
                inherited = stage_of(parent)
            found = inherited
            if inherited not in ENCLOSING:
                found = (_MEMBER.get(f"{s[NAME]}:{s[TAG]}") or _MEMBER.get(s[NAME])
                         or inherited)
            stage[s[SID]] = found
            return found

        self.stage = stage
        self.stage_self: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        for s in spans:
            st = stage_of(s)
            if st is not None:
                self.stage_self[st] += self.own[s[SID]]
            self.layer_self[layer_of(s[NAME])] += self.own[s[SID]]
        roots = [s for s in spans if s[NAME].startswith("bench.")]
        self.wall = sum(s[END] - s[START] for s in roots)

    def named(self, names, stage=None):
        """Spans with one of the names, only those in ``stage`` if given."""
        names = set(names)
        return [s for s in self.spans
                if s[NAME] in names and (stage is None or self.stage[s[SID]] == stage)]

    def boundary(self, layer: str):
        """Spans that enter the layer from another layer."""
        return [s for s in self.spans
                if layer_of(s[NAME]) == layer and self.parent_layer[s[SID]] != layer]


def _dur(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    samples beyond it. Below 21 samples no percentile above the median has
    that support, so the median is returned and labelled as such."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 50.0
    if len(xs) < 21:
        return statistics.median(xs), 50.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def median_pass(passes: dict[str, list[tuple]]) -> PassView:
    views = sorted((PassView(spans) for spans in passes.values()), key=lambda v: v.wall)
    return views[(len(views) - 1) // 2]


def per_layer_metrics(known: frozenset, annotated: frozenset,
                      passes: dict[str, list[tuple]], setups: dict[str, list[tuple]],
                      step_ms: dict[str, list[float]], untraced_wall: float,
                      perm_evals: int):
    """Ordered list of (name, unit, value) with value None when unmeasured,
    plus a dict of details (sample counts).

    step_ms holds every train_step time of the run in ms, by model.

    known holds the traced names; annotated the subset whose tag and count
    could be read. Metrics built on tags or counts need the latter."""
    view = median_pass(passes)
    wall = view.wall
    rows: list[tuple[str, str, float | None]] = []
    details: dict[str, object] = {"traced_passes": len(passes)}

    def put(name, unit, value, sources=None, tagged=False):
        if sources is not None:
            bare = {src.split(":", 1)[0] for src in sources}
            if not bare & (annotated if tagged else known):
                value = None
        rows.append((name, unit, value))

    def layer_names(layer):
        return {n for n in known if layer_of(n) == layer}

    put("trace.wall_s", "s", wall)
    put("trace.untraced_wall_s", "s", untraced_wall)
    put("trace_overhead_frac", "frac", _ratio(wall, untraced_wall) - 1.0)
    put("trace.spans", "count", float(len(view.spans)))
    unattributed = view.layer_self.get("unattributed", 0.0)
    put("unattributed.self_s", "s", unattributed)
    put("unattributed.share", "frac", _ratio(unattributed, wall))
    for layer in LAYERS:
        put(f"{layer}.self_s", "s", view.layer_self.get(layer, 0.0), layer_names(layer))
        put(f"{layer}.share", "frac", _ratio(view.layer_self.get(layer, 0.0), wall),
            layer_names(layer))

    def stage(name):
        put(f"{name}.self_s", "s", view.stage_self.get(name, 0.0), STAGES[name])

    # losses
    entries = view.boundary("losses")
    put("losses.calls", "count", float(len(entries)), layer_names("losses"))
    for fam in LOSS_FAMILIES:
        calls = [s for s in entries if s[TAG] == fam]
        put(f"losses.us_per_call.{fam}", "us", 1e6 * _ratio(_dur(calls), len(calls)),
            LOSS_ENTRIES, tagged=True)

    # neural
    for name in ("neural.forward", "neural.backward", "neural.optimizer",
                 "neural.train_step", "neural.train"):
        stage(name)
    for model in MODELS:
        samples = step_ms.get(model)
        put(f"neural.train_step.ms_p50.{model}", "ms",
            statistics.median(samples) if samples else 0.0, ("neural.train_step",),
            tagged=True)
    tails = {}
    for model in MODELS:
        value, pct = tail_percentile(step_ms.get(model, []))
        tails[model] = {"percentile": pct, "samples": len(step_ms.get(model, []))}
        put(f"neural.train_step.ms_tail.{model}", "ms", value, ("neural.train_step",),
            tagged=True)
    details["train_step_tail"] = tails
    steps = view.named(["neural.train_step"])
    step_ids = {s[SID] for s in steps}
    math_spans = view.named(["neural.forward_cached", "neural.backward"])
    step_flops = sum(s[COUNT] for s in math_spans if s[PARENT] in step_ids)
    put("neural.flops_per_step", "flop", _ratio(step_flops, len(steps)),
        ("neural.forward_cached", "neural.backward"), tagged=True)
    details["neural.flops_per_step"] = "computed from layer_dims x rows, not counted"
    put("neural.gflops", "GFLOP/s",
        1e-9 * _ratio(sum(s[COUNT] for s in math_spans), _dur(math_spans)),
        ("neural.forward_cached", "neural.backward"), tagged=True)
    put("neural.nonfinite_batches", "count",
        float(sum(1 for s in steps if s[ERROR] == "NonFiniteLossError")),
        ("neural.train_step",))

    # data
    stage("data.load_panel")
    loads = view.named(["data.load_panel"])
    put("data.load_panel.rows_per_s", "1/s",
        _ratio(sum(s[COUNT] for s in loads), _dur(loads)), ("data.load_panel",),
        tagged=True)
    saves = [PassView(spans).stage_self.get("data.save_panel", 0.0)
             for spans in setups.values()]
    put("data.save_panel.self_s", "s", statistics.median(saves) if saves else 0.0,
        STAGES["data.save_panel"])
    stage("data.minmax_normalize")
    put("data.build_ranked_batch.calls", "count",
        float(len(view.named(["data.build_ranked_batch"]))), ("data.build_ranked_batch",))
    stage("data.build_ranked_batch")

    # backtest
    stage("backtest.score")
    stage("backtest.book")
    put("backtest.book.portfolios", "count",
        float(len(view.named(BOOK_BUILDERS, stage="backtest.book"))), BOOK_BUILDERS)
    stage("backtest.heatmap")
    put("backtest.heatmap.cells", "count",
        float(sum(s[COUNT] for s in view.named(["backtest.cutoff_heatmap"]))),
        ("backtest.cutoff_heatmap",), tagged=True)
    stage("backtest.stats")
    stage("backtest.write")
    put("backtest.write.bytes", "bytes",
        float(sum(s[COUNT] for s in view.named(STAGES["backtest.write"]))),
        STAGES["backtest.write"], tagged=True)
    stage("backtest.run_backtest")

    # metrics
    put("metrics.calls", "count", float(len(view.boundary("metrics"))), layer_names("metrics"))

    # consistency
    for name in ("theorem1", "theorem2_restricted", "theorem2_unrestricted", "search",
                 "probe", "sampler"):
        stage(f"consistency.{name}")
    put("consistency.perm_evals", "count", float(perm_evals), layer_names("consistency"))
    draws = view.named(SAMPLERS)
    put("consistency.sampler.draws_per_s", "1/s",
        _ratio(sum(s[COUNT] for s in draws), _dur(draws)), SAMPLERS, tagged=True)

    accounted = unattributed + sum(view.layer_self.get(layer, 0.0) for layer in LAYERS)
    details["accounted_frac"] = _ratio(accounted, wall)
    return rows, details
