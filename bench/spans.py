"""In-memory span tracer that wraps the listfold layers from outside.

The benchmark must not edit the package, so tracing works by replacing, at
run time, every public function of each listfold module with a wrapper that
records one span per call: (span id, parent span id, name, tag, count,
start, end, run id, error). A name is ``<module>.<function>``; the module is
the layer. The same wrapper is installed at every place the function is
bound: its defining module, every sibling module that imported it by name,
and the package namespace, so intra-module calls (``train`` calling
``train_step``) and cross-module calls (``neural`` calling
``evaluate_loss``) both produce spans.

``tag`` and ``count`` come from small per-name annotators that read the
call's arguments and result, such as the loss family of an ``evaluate_loss``
call or the bytes a CSV writer produced. They run after the end time is
taken, so their cost lands in the caller's self time, not the span's.

Self time is a span's duration minus the durations of its direct children.
Calls are sequential in one thread, so children never overlap and that sum
is the covered part of the interval.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("losses", "neural", "data", "backtest", "metrics", "consistency", "cli")
# score_week is defined in neural but is the scoring stage of the backtest;
# the forward pass inside it still counts as neural.
LAYER_OVERRIDES = {"neural.score_week": "backtest"}
# Methods traced in addition to the module-level functions in __all__.
METHODS = {"neural": ("AdamState.update", "SgdState.update")}
# Spans the benchmark opens itself; their self time is unattributed.
BENCH_LAYER = "unattributed"

# Field positions in a span tuple.
SID, PARENT, NAME, TAG, COUNT, START, END, RUN, ERROR = range(9)


def layer_of(name: str) -> str:
    if name.startswith("bench."):
        return BENCH_LAYER
    return LAYER_OVERRIDES.get(name, name.split(".", 1)[0])


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


_SHORT = {"exponential": "exp", "sigmoid": "sgm", "linear": "lin"}


def loss_label(family: str, kind: str | None) -> str:
    """Loss label as the benchmark reports it: listfold-exp, listmle, mse, ..."""
    if family == "mse":
        return "mse"
    if family == "listmle" and kind == "exponential":
        return "listmle"
    return f"{family.replace('_', '-')}-{_SHORT.get(kind, kind)}"


def step_model(args, kwargs) -> str:
    """The backtest's model name for a train_step call, looked up in
    backtest.MODEL_SPECS by (loss spec, reverse_labels). Raises KeyError
    for a pair no model uses, or when MODEL_SPECS is gone."""
    from listfold import backtest

    spec = _arg(args, kwargs, 2, "spec")
    reverse = bool(_arg(args, kwargs, 4, "reverse_labels", False))
    specs = getattr(backtest, "MODEL_SPECS", {})
    return {(s, rev): name for name, (s, rev, _) in specs.items()}[(spec, reverse)]


def _layer_flops(net, rows: int, skip_first: bool = False) -> int:
    dims = net.layer_dims
    pairs = list(zip(dims[:-1], dims[1:]))[1 if skip_first else 0:]
    return 2 * rows * sum(a * b for a, b in pairs)


def _spec_tag(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return loss_label(spec.family, None if spec.transform is None else spec.transform.kind), 0


def _transform_tag(family):
    def tag(args, kwargs, result):
        return loss_label(family, _arg(args, kwargs, 1, "transform").kind), 0
    return tag


def _train_step_tag(args, kwargs, result):
    rows = sum(b.list_length for b in _arg(args, kwargs, 1, "batch"))
    return step_model(args, kwargs), rows


def _forward_flops(args, kwargs, result):
    return "", _layer_flops(_arg(args, kwargs, 0, "net"), len(result[0]))


def _backward_flops(args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    rows = len(_arg(args, kwargs, 2, "dscores"))
    # parameter gradients at every layer, input deltas below the top one
    return "", _layer_flops(net, rows) + _layer_flops(net, rows, skip_first=True)


def _panel_rows(args, kwargs, result):
    return "", result.n_weeks * result.n_stocks


def _file_bytes(args, kwargs, result):
    return "", os.path.getsize(_arg(args, kwargs, 0, "path"))


def _heatmap_cells(args, kwargs, result):
    models, ks, _ = result
    dates = _arg(args, kwargs, 3, "test_dates")
    if dates is None:
        dates = next(iter(_arg(args, kwargs, 0, "scores_by_model").values()))
    return "", len(models) * len(ks) * len(dates)


def _restricted_tag(args, kwargs, result):
    return ("restricted" if _arg(args, kwargs, 3, "restricted", True) else "unrestricted"), 0


def _draws(args, kwargs, result):
    return "", _arg(args, kwargs, 0, "spec").draws


ANNOTATORS = {
    "losses.evaluate_loss": _spec_tag,
    "losses.listfold_loss": _transform_tag("listfold"),
    "losses.listmle_loss": _transform_tag("listmle"),
    "losses.naive_pt_loss": _transform_tag("naive_pt"),
    "losses.mse_loss": lambda a, k, r: ("mse", 0),
    "neural.train_step": _train_step_tag,
    "neural.forward_cached": _forward_flops,
    "neural.backward": _backward_flops,
    "data.load_panel": _panel_rows,
    "backtest.cutoff_heatmap": _heatmap_cells,
    "consistency.verify_theorem2": _restricted_tag,
    "consistency.sample_vase": _draws,
    "consistency.sample_plank_dart": _draws,
}
for _writer in ("stats", "rankmetrics", "pnl", "heatmap", "batchgrid"):
    ANNOTATORS[f"backtest.write_{_writer}_csv"] = _file_bytes


def discover(package):
    """Map each traceable span name to every (namespace, attribute) that
    binds it. Must run before anything else patches the package."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
        except ImportError:
            continue
    names = {}  # original function -> span name
    sites = defaultdict(list)
    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                names[obj] = f"{layer}.{attr}"
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and inspect.isfunction(vars(cls).get(meth)):
                sites[f"{layer}.{path}"].append((cls, meth))
    for ns in (package, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in names:
                sites[names[obj]].append((ns, attr))
    return dict(sites)


class Tracer:
    """Discovers the traceable functions once; wraps them only inside
    ``recording`` and restores the originals when it ends."""

    def __init__(self, package):
        self.sites = discover(package)
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []
        self.unannotated: set[str] = set()

    @property
    def names(self) -> frozenset:
        return frozenset(self.sites)

    @property
    def annotated(self) -> frozenset:
        """Names whose tag and count were read on every call."""
        return self.names - self.unannotated

    def _wrap(self, fn, name):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        annotate = ANNOTATORS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, "", 0, t0, t1, tracer.run_id,
                              type(exc).__name__))
                raise
            t1 = clock()
            stack.pop()
            tag, count = "", 0
            if annotate:
                try:
                    tag, count = annotate(args, kwargs, result)
                except (TypeError, AttributeError, IndexError, KeyError, OSError):
                    # a refactored signature: the span stays, its tag and count do not
                    tracer.unannotated.add(name)
            spans.append((sid, parent, name, tag, count, t0, t1, tracer.run_id, ""))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def recording(self, run_id: str, root: str):
        """Install the wrappers and hold one root span ``bench.<root>``
        around the block; everything is restored on exit."""
        self.run_id = run_id
        for name, places in self.sites.items():
            for ns, attr in places:
                current = getattr(ns, attr)
                self._saved.append((ns, attr, current))
                setattr(ns, attr, self._wrap(current, name))
        try:
            sid = next(self._ids)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                yield
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, 0, f"bench.{root}", "", 0, t0, t1, run_id, ""))
        finally:
            while self._saved:
                ns, attr, original = self._saved.pop()
                setattr(ns, attr, original)

    def runs(self, prefix: str) -> dict[str, list[tuple]]:
        out: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[RUN].startswith(prefix):
                out[span[RUN]].append(span)
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzip CSV, times in seconds from the first span."""
        origin = min((s[START] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["run", "span", "parent", "name", "tag", "count", "start_s",
                          "end_s", "error"])
            for s in self.spans:
                out.writerow([s[RUN], s[SID], s[PARENT], s[NAME], s[TAG], s[COUNT],
                              f"{s[START] - origin:.9f}", f"{s[END] - origin:.9f}", s[ERROR]])


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own
