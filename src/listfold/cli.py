"""Command-line entry point: data prep, training, backtesting, theorem
verification, and model simulation.

Subcommands: backtest, verify, simulate, synth, train, score. Options can
come from ``--config path`` (a flat ``key = value`` file with ``#``
comments) with individual flags overriding. The keys are the run keys of
``RunConfig`` plus every ``BacktestConfig`` field; each key ``a_b`` has the
flag ``--a-b``, and its value type is the type of the field's default.
Exit codes are fixed so CI can assert failure modes: 0 success,
1 configuration error (a bad flag or key, or a value out of range, such as
``learning_rate`` 0), 2 data error, 3 training divergence, 4 a failed
``verify`` check (golden value or theorem).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import consistency
from .backtest import (
    BacktestConfig,
    MODEL_SPECS,
    STANDARD_MODELS,
    STRATEGY_NAMES,
    StrategySpec,
    _write_table,
    cutoff_heatmap,
    run_backtest,
    strategy_lineup,
    train_window,
    write_batchgrid_csv,
    write_heatmap_csv,
    write_pnl_csv,
    write_rankmetrics_csv,
    write_stats_csv,
    batch_size_grid,
)
from .data import (
    DataError,
    _write_whole,
    generate_synthetic_panel,
    load_panel,
    rolling_windows,
    save_panel,
)
from .losses import LossSpec, Transform, listfold_loss
from .neural import (
    TrainingDivergenceError,
    forward,
    load_checkpoint,
    save_checkpoint,
)

__all__ = ["main", "RunConfig", "ConfigError", "parse_config_file"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4

# simulate's max |z| skips orderings expected fewer times; their z means nothing
MIN_EXPECTED_COUNT = 5


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a bad flag; here 2 means a data error, so a bad
    flag exits EXIT_CONFIG like a bad config-file value. Subparsers inherit
    this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_KNOWN_MODELS = tuple(STRATEGY_NAMES)


@dataclass
class RunConfig:
    """The run-level keys; every backtest setting lives in `backtest`."""

    panel: str = ""
    out: str = "out"
    strategies: str = ",".join(STANDARD_MODELS)
    k: int = 8
    batch_sizes: str = ""  # e.g. "8,16,32,64,128": also emit batchgrid.csv
    backtest: BacktestConfig = field(default_factory=BacktestConfig)

    def __post_init__(self):
        for name in _split(self.strategies):
            if name not in _KNOWN_MODELS:
                raise ConfigError(f"field strategies: unknown model {name!r} "
                                  f"(known: {', '.join(_KNOWN_MODELS)})")
        if self.k < 1:
            raise ConfigError("field k: must be >= 1")
        for tok in _split(self.batch_sizes):
            # isdigit also holds for digits int refuses, such as '²'
            if not tok.isdecimal() or int(tok) < 1:
                raise ConfigError(f"field batch_sizes: bad entry {tok!r}")


_HELP = {
    "panel": "panel CSV path",
    "out": "output directory",
    "strategies": "comma list of models",
    "batch_sizes": "comma list; also emit batchgrid.csv (retrains per size)",
}


def _keys() -> dict:
    """Config key -> its dataclass field: the run keys, then every
    BacktestConfig field."""
    return {f.name: f for f in fields(RunConfig) + fields(BacktestConfig)
            if f.name != "backtest"}


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines of UTF-8 text, after an optional byte
    order mark; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def build_run_config(file_values: dict[str, str], overrides: dict) -> RunConfig:
    """Config-file strings, parsed to each field's type, then the non-None
    overrides on top. Unknown keys and bad values raise ConfigError naming
    the field."""
    keys = _keys()
    values = {}
    for key, raw in file_values.items():
        if key not in keys:
            raise ConfigError(f"unknown config field: {key}")
        try:
            values[key] = type(keys[key].default)(raw)
        except ValueError:
            raise ConfigError(f"field {key}: cannot parse {raw!r}") from None
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in keys:
            raise ConfigError(f"unknown config field: {key}")
        values[key] = value
    run = {f.name for f in fields(RunConfig)}
    try:
        backtest = BacktestConfig(**{k: v for k, v in values.items() if k not in run})
    except ValueError as exc:
        raise ConfigError(f"field {exc}") from None
    return RunConfig(**{k: v for k, v in values.items() if k in run}, backtest=backtest)


def _split(csv_text: str) -> list[str]:
    return [tok.strip() for tok in csv_text.split(",") if tok.strip()]


def _strategy_list(cfg: RunConfig) -> list[StrategySpec]:
    out = strategy_lineup(_split(cfg.strategies), cfg.k)
    if not out:
        raise ConfigError("field strategies: empty strategy list")
    return out


def _run_config(args) -> RunConfig:
    """The config file, if any, with the command's flags on top."""
    cfg = build_run_config(
        parse_config_file(args.config) if args.config else {},
        {name: getattr(args, name) for name in _keys()},
    )
    if not cfg.panel:
        raise ConfigError("field panel: a panel CSV path is required")
    return cfg


def _make_dir(path: Path) -> Path:
    """path, created as a directory with its parents if missing."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None
    return path


def _output_file(path) -> Path:
    """path as a file to write: not an existing directory, and its parent
    directory created if missing. Commands call this on every file they
    will write before any work."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    _make_dir(out.parent)
    return out


def cmd_backtest(args) -> int:
    cfg = _run_config(args)
    strategies = _strategy_list(cfg)
    table_names = ["stats.csv", "rankmetrics.csv", "heatmap.csv",
                   *(f"pnl_{strat.name}.csv" for strat in strategies)]
    if cfg.batch_sizes:
        table_names.append("batchgrid.csv")
    tables = {name: _output_file(Path(cfg.out) / name) for name in table_names}
    panel = load_panel(cfg.panel)
    for strat in strategies:
        try:
            strat.check_universe(panel.n_stocks)
        except ValueError as exc:
            raise ConfigError(f"field k: {exc}") from None
    result = run_backtest(panel, strategies, cfg.backtest)

    write_stats_csv(tables["stats.csv"], result.stats)
    write_rankmetrics_csv(tables["rankmetrics.csv"], result.rank_metrics)
    for name, series in result.pnl.items():
        write_pnl_csv(tables[f"pnl_{name}.csv"], series)
    ks = list(range(1, panel.n_stocks // 2 + 1))
    models, kvals, grid = cutoff_heatmap(result.scores, panel, ks, result.test_dates)
    write_heatmap_csv(tables["heatmap.csv"], models, kvals, grid)
    if cfg.batch_sizes:
        sizes = [int(tok) for tok in _split(cfg.batch_sizes)]
        names, sz, bgrid = batch_size_grid(panel, sizes, strategies, cfg.backtest)
        write_batchgrid_csv(tables["batchgrid.csv"], names, sz, bgrid)

    print(f"{'strategy':<16} {'mu_excess':>10} {'sigma':>8} {'sharpe':>8} "
          f"{'mdd':>8} {'trv':>6}")
    for name, s in result.stats.items():
        sharpe = f"{s.sharpe:8.2f}" if s.sharpe_defined else "     n/a"
        print(f"{name:<16} {s.mu_excess:>10.4f} {s.sigma:>8.4f} {sharpe} "
              f"{s.mdd:>8.4f} {s.trv:>6.3f}")
    for name, ov in result.overlap_per_week.items():
        print(f"{name}: mean long/short overlap {ov:.3f} stocks/week")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        # a repeated size is searched once
        sizes = list(dict.fromkeys(int(tok) for tok in _split(args.sizes)))
    except ValueError:
        raise ConfigError(
            f"sizes must be a comma list of integers, got {args.sizes!r}") from None
    if not sizes or any(s > consistency.SEARCH_CAP or s < 2 or s % 2 for s in sizes):
        raise ConfigError(f"sizes must be one or more even sizes <= {consistency.SEARCH_CAP}")
    if args.trials < 1 or args.budget < 0:
        raise ConfigError("trials must be >= 1 and budget >= 0")
    report = _output_file(Path(args.out) / "enumeration_5410.csv")
    summary_path = _output_file(Path(args.out) / "verify_report.txt")
    lines: list[str] = []

    expo = Transform("exponential")
    golden = [
        ((5.0, 4.0, 1.0, 0.0), 0.65),
        ((1.0, 5.0, 4.0, 0.0), 4.78),
        ((5.0, 1.0, 4.0, 0.0), 6.65),
    ]
    lines.append("golden listfold-exp checks (target within 0.01):")
    golden_ok = True
    for seq, target in golden:
        value = listfold_loss(np.asarray(seq), expo).value
        ok = abs(value - target) < 0.01
        golden_ok &= ok
        lines.append(f"  L{seq} = {value:.6f} target {target} -> {'ok' if ok else 'MISMATCH'}")

    n_values = sorted({s // 2 for s in sizes})
    t1 = consistency.verify_theorem1(args.trials, n_values, args.seed)
    t2r = consistency.verify_theorem2(args.trials, n_values, args.seed, restricted=True)
    t2u = consistency.verify_theorem2(args.trials, n_values, args.seed, restricted=False)
    lines += ["", t1.summary(), "", t2r.summary(), "", t2u.summary()]

    probe = consistency.order_sensitivity_probe(
        np.asarray([5.0, 4.0, 1.0, 0.0]), LossSpec("listfold", expo)
    )
    lines.append("")
    lines.append(f"order-sensitivity violations on (5,4,1,0) listfold-exp: {len(probe)}")
    for rec in probe[:10]:
        lines.append(f"  perm {rec.permutation} swap {rec.swap} delta +{rec.delta:.4f}")

    witnesses = []
    for size in sizes:
        for i, dist in enumerate(("uniform", "normal", "clustered", "near-ties")):
            # the budget's remainder goes one draw each to the first distributions
            draws = args.budget // 4 + (i < args.budget % 4)
            witnesses += consistency.counterexample_search(draws, size, dist, seed=args.seed)
    lines.append("")
    lines.append(f"counterexample search witnesses: {len(witnesses)}")
    for w in witnesses[:10]:
        lines.append(f"  scores {w.scores}: {w.permutation} beats descending by {w.gap:.3e}")

    enumerate_report_csv(report)
    lines.append("")
    # keep the report byte-reproducible across output directories
    lines.append(f"enumeration table written to {report.name}")
    summary = "\n".join(lines) + "\n"
    with _write_whole(summary_path, "w", encoding="utf-8") as fh:
        fh.write(summary)
    print(summary, end="")
    # counterexample discoveries would be a research finding, not a failure
    ok = golden_ok and t1.passed and t2r.passed and t2u.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def enumerate_report_csv(path: Path) -> None:
    """Per-permutation loss table for the worked four-score example."""
    spec = LossSpec("listfold", Transform("exponential"))
    report = consistency.enumerate_losses(np.asarray([5.0, 4.0, 1.0, 0.0]), spec)
    _write_table(path, ["permutation", "loss", "is_minimizer"],
                 ((perm, loss, int(perm in report.minimizers))
                  for perm, loss in zip(report.permutations, report.losses)))


def cmd_simulate(args) -> int:
    try:
        weights = np.asarray([float(tok) for tok in _split(args.weights)])
    except ValueError:
        raise ConfigError(f"bad weights {args.weights!r}") from None
    if weights.size > consistency.ENUMERATION_CAP:
        # the z table lists all m! orderings: 9 weights take seconds, 12 hours
        raise ConfigError(f"at most {consistency.ENUMERATION_CAP} weights, "
                          f"got {weights.size}")
    try:
        spec = consistency.SamplerSpec(args.model, weights, args.draws, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = _output_file(Path(args.out) / f"simulate_{args.model}.csv")
    if args.model == "vase":
        sample, probability = consistency.sample_vase, consistency.vase_probability
    else:
        sample, probability = consistency.sample_plank_dart, consistency.plank_probability
    table = consistency.frequency_zscores(sample(spec), args.draws,
                                          lambda perms: probability(weights, perms))
    _write_table(path, ["permutation", "empirical", "analytic", "z"],
                 ((perm, *row) for perm, row in table.items()))
    zs = [abs(z) for _, p, z in table.values() if args.draws * p >= MIN_EXPECTED_COUNT]
    worst = f"{max(zs):.2f}" if zs else "n/a"
    print(f"{args.model}: {len(table)} sequences, max |z| = {worst} over {len(zs)} expected "
          f">= {MIN_EXPECTED_COUNT} times ({len(table) - len(zs)} left out), table at {path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.weeks < 1 or args.stocks < 1 or args.factors < 1:
        raise ConfigError("weeks, stocks, factors must be >= 1")
    for name in ("signal_strength", "noise_scale"):
        if not np.isfinite(value := getattr(args, name)):
            raise ConfigError(f"--{name.replace('_', '-')}: must be finite, got {value}")
    out = _output_file(args.out)
    panel = generate_synthetic_panel(
        args.seed, args.weeks, args.stocks, args.factors,
        args.signal_strength, args.noise_scale,
    )
    save_panel(panel, out)
    print(f"wrote {panel.n_weeks} weeks x {panel.n_stocks} stocks x "
          f"{panel.n_factors} factors to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config(args)
    model = args.model
    if model not in MODEL_SPECS:
        raise ConfigError(f"unknown model {model!r} (known: {', '.join(MODEL_SPECS)})")
    out = _output_file(args.checkpoint)
    panel = load_panel(cfg.panel)
    config = cfg.backtest
    plans = rolling_windows(panel.n_weeks, config.train_len, config.test_len)
    if not 0 <= args.window < len(plans):
        raise DataError(f"window {args.window} out of range (0..{len(plans) - 1})")
    # the same per-window training, seed, data and input map the backtest uses
    net = train_window(panel, plans[args.window], [model], config, args.window)[model]
    save_checkpoint(net, out)
    print(f"checkpoint written to {out}")
    return EXIT_OK


def cmd_score(args) -> int:
    out = _output_file(args.out)
    try:
        net = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from exc
    try:
        panel = load_panel(args.panel)
        week = panel.week_index(args.week)
        panel.check_factor_cells(week, week + 1)
        # the checkpoint's input map scales the raw week
        scores = forward(net, panel.factors[week])
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write_table(out, ["stock", "score"], zip(panel.stocks, scores))
    print(f"scores for {args.week} written to {out}")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, and one flag per config key: `a_b` is `--a-b`, plus `-a`
    for a one-letter key."""
    p.add_argument("--config", help="flat key = value config file")
    for name, f in _keys().items():
        flags = ["-" + name] if len(name) == 1 else []
        p.add_argument(*flags, "--" + name.replace("_", "-"), dest=name,
                       type=type(f.default), help=_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="listfold",
                     description="listwise rank losses and long-short backtests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backtest", help="train, score, build portfolios, account pnl")
    _add_config_flags(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("verify", help="enumeration and subset-DP checks of the consistency claims")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sizes", default="2,4,6",
                   help="even list lengths, max 14, for the theorem checks and the search")
    p.add_argument("--budget", type=int, default=2000,
                   help="counterexample samples per size, split over four distributions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo the vase or plank-dart model")
    p.add_argument("--model", choices=("vase", "plank"), required=True)
    p.add_argument("--weights", required=True,
                   help=f"comma list of at most {consistency.ENUMERATION_CAP} positive weights")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="write a synthetic factor panel CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weeks", type=int, default=631)
    p.add_argument("--stocks", type=int, default=80)
    p.add_argument("--factors", type=int, default=68)
    p.add_argument("--signal-strength", dest="signal_strength", type=float, default=0.5)
    p.add_argument("--noise-scale", dest="noise_scale", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on one window, emit a checkpoint")
    _add_config_flags(p)
    p.add_argument("--model", required=True, help=f"one of {', '.join(MODEL_SPECS)}")
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score one week with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--week", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a config file's seed is checked by BacktestConfig
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError("field seed: must be >= 0")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
