"""Rolling-window strategy evaluation: portfolio construction from predicted
ranks, pnl accounting with transaction costs, summary statistics, and the
cutoff / batch-size robustness grids.

A book is a pair of non-negative (weeks, N) long and short weight arrays
whose columns follow ``panel.stocks``; its signed weights are long - short.

Sizing convention: a fixed nominal of $1 per week, split $0.50 long and
$0.50 short with equal weights inside each leg (dollar neutral, non
compounding). Transaction cost is charged on traded notional, the L1
distance between consecutive signed weight vectors, so the configured bps
figure is the all-in round-trip cost per unit traded.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .data import (
    DataError,
    FactorPanel,
    WindowPlan,
    _csv_fields,
    _write_whole,
    decile_labels,
    fit_norm_params,
    ranked_train_weeks,
    rolling_windows,
)
from .losses import LossSpec, exponential, sigmoid
from .neural import ScoringNet, TrainConfig, TrainingDivergenceError, score_week, train

__all__ = [
    "PnlSeries",
    "StrategyStats",
    "StrategySpec",
    "BacktestConfig",
    "BacktestResult",
    "MODEL_SPECS",
    "STRATEGY_NAMES",
    "STANDARD_MODELS",
    "strategy_lineup",
    "standard_strategies",
    "build_long_short",
    "build_short_average",
    "book_pnl",
    "compute_stats",
    "run_backtest",
    "model_train_config",
    "train_window",
    "cutoff_heatmap",
    "batch_size_grid",
    "write_stats_csv",
    "write_rankmetrics_csv",
    "write_pnl_csv",
    "write_heatmap_csv",
    "write_batchgrid_csv",
]

# weekly returns are annualized arithmetically over this many periods
PERIODS_PER_YEAR = 52


@dataclass
class PnlSeries:
    """Weekly accounting at fixed nominal: cumulative is the running sum of
    net returns, never compounded."""

    dates: list[str]
    gross: list[float]
    cost_paid: list[float]
    weekly_returns: list[float]
    turnover: list[float]

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.weekly_returns)


@dataclass(frozen=True)
class StrategyStats:
    mu_excess: float
    sigma: float
    sharpe: float
    mdd: float
    trv: float
    sharpe_defined: bool = True


def _rank(scores: np.ndarray, stocks) -> np.ndarray:
    """Column indices of each row of a (weeks, N) score array, highest score
    first. Ties go to the lexically smaller stock id, whatever the column
    order of `stocks`."""
    by_id = np.argsort(np.asarray(stocks), kind="stable")
    return by_id[np.argsort(-scores[:, by_id], axis=1, kind="stable")]


def _held(order: np.ndarray, k: int) -> np.ndarray:
    """Mask of the first k columns of each row's order."""
    mask = np.zeros(order.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def _check_k(k: int, n: int, sides: int = 2) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if sides * k > n:
        raise ValueError(f"universe of {n} too small for {sides} x k = {sides * k}")


def build_long_short(long_scores: np.ndarray, short_scores: np.ndarray, stocks,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top k of long_scores long, bottom k of short_scores short, 0.5/k
    weight per name, in every row (week) of two (weeks, N) score arrays
    whose columns follow `stocks`. A one-model book passes its scores
    twice. Returns the non-negative (long, short) weight arrays; a name
    picked by both legs stays in both, its signed exposure netting to
    zero."""
    if long_scores.shape != short_scores.shape:
        raise ValueError("long and short score arrays differ in shape")
    _check_k(k, long_scores.shape[1])
    w = 0.5 / k
    return (w * _held(_rank(long_scores, stocks), k),
            w * _held(_rank(-short_scores, stocks), k))


def build_short_average(scores: np.ndarray, stocks, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top k long at 0.5/k; short every stock at 0.5/N (an index-future
    style approximation of the short leg)."""
    _check_k(k, scores.shape[1], sides=1)
    return (0.5 / k * _held(_rank(scores, stocks), k),
            np.full(scores.shape, 0.5 / scores.shape[1]))


def _check_held(held: np.ndarray, returns: np.ndarray, dates, stocks) -> None:
    bad = np.argwhere(held & ~np.isfinite(returns))
    if bad.size:
        week, col = bad[0]
        kind = "missing" if np.isnan(returns[week, col]) else "infinite"
        raise DataError(f"{kind} realized return for held stock {stocks[col]} "
                        f"on {dates[week]}")


def book_pnl(long: np.ndarray, short: np.ndarray, returns: np.ndarray, cost_bps: float,
             dates, stocks) -> PnlSeries:
    """Weekly pnl of a (weeks, N) book at fixed nominal.

    gross is (long - short) . returns over the held stocks; cost is
    cost_bps * 1e-4 times the L1 change of the signed weights, from a flat
    start; turnover is the per-leg fraction of names not carried over from
    the previous week (all of them on the first week), averaged over the
    two legs. A held stock without a finite return raises DataError; ValueError
    names weights, returns and dates that do not match.
    """
    if not long.shape == short.shape == returns.shape or len(dates) != len(returns):
        raise ValueError(f"long {long.shape}, short {short.shape}, returns {returns.shape} "
                         f"and {len(dates)} dates do not match")
    legs = np.stack([long > 0, short > 0])
    held = legs[0] | legs[1]
    _check_held(held, returns, dates, stocks)
    signed = long - short
    gross = (signed * np.where(held, returns, 0.0)).sum(axis=1)
    cost = cost_bps * 1e-4 * np.abs(np.diff(signed, axis=0, prepend=0.0)).sum(axis=1)
    count = legs.sum(axis=2)
    carried = np.zeros_like(count)
    carried[:, 1:] = (legs[:, 1:] & legs[:, :-1]).sum(axis=2)
    leg_trv = np.where(count > 0, 1.0 - carried / np.maximum(count, 1), 0.0)
    trv = 0.5 * (leg_trv[0] + leg_trv[1])
    return PnlSeries(list(dates), gross.tolist(), cost.tolist(), (gross - cost).tolist(),
                     trv.tolist())


def compute_stats(pnl: PnlSeries, rf_annual: float) -> StrategyStats:
    """Arithmetic annualization over PERIODS_PER_YEAR weeks: mu = mean *
    periods - rf, sigma = sample std (ddof 1) * sqrt(periods). Max drawdown
    is measured on the running sum with an implicit 0 start."""
    r = np.asarray(pnl.weekly_returns, dtype=float)
    if r.size < 2:
        raise ValueError("need at least two weekly returns")
    mu_excess = float(r.mean() * PERIODS_PER_YEAR - rf_annual)
    sigma = float(r.std(ddof=1) * np.sqrt(PERIODS_PER_YEAR))
    cum = np.concatenate([[0.0], np.cumsum(r)])
    peaks = np.maximum.accumulate(cum)
    mdd = float(np.max(peaks - cum))
    trv = float(np.mean(pnl.turnover)) if pnl.turnover else 0.0
    if sigma == 0.0:
        return StrategyStats(mu_excess, sigma, float("nan"), mdd, trv, sharpe_defined=False)
    return StrategyStats(mu_excess, sigma, mu_excess / sigma, mdd, trv)


# model key -> (loss spec builder, reverse_labels, final_relu)
MODEL_SPECS: dict[str, tuple[LossSpec, bool, bool]] = {
    "listfold-exp": (LossSpec("listfold", exponential()), False, True),
    "listfold-sgm": (LossSpec("listfold", sigmoid()), False, True),
    "listmle": (LossSpec("listmle", exponential()), False, True),
    "listmle-rvs": (LossSpec("listmle", exponential()), True, True),
    "naive-pt": (LossSpec("naive_pt", exponential()), False, True),
    "mlp": (LossSpec("mse"), False, False),
}


def _model_spec(model: str) -> tuple[LossSpec, bool, bool]:
    if model not in MODEL_SPECS:
        raise ValueError(f"unknown model {model!r} (known: {', '.join(MODEL_SPECS)})")
    return MODEL_SPECS[model]


@dataclass(frozen=True)
class StrategySpec:
    """One row of the stats table: the model whose top k the book holds
    long, the model whose bottom k it holds short (None for the
    short-average book, which shorts every stock equally) and the cutoff
    k. A leg that is not a MODEL_SPECS key raises ValueError naming it."""

    name: str
    long: str
    short: str | None
    k: int

    def __post_init__(self):
        for model in (self.long, self.short):
            if model is not None:
                _model_spec(model)

    def required_models(self) -> tuple[str, ...]:
        """The distinct models behind the legs, long first."""
        return tuple(dict.fromkeys(m for m in (self.long, self.short) if m is not None))

    def check_universe(self, n_stocks: int) -> None:
        """ValueError unless n_stocks can hold this strategy's k-stock legs
        (a short-average book has one; a two-leg book has two)."""
        _check_k(self.k, n_stocks, sides=1 if self.short is None else 2)


# strategy model key -> its name in the stats table; a short-average book
# adds "-sa". list2mle pairs the listmle and listmle-rvs models.
STRATEGY_NAMES = {
    "listfold-exp": "ListFold-exp",
    "listfold-sgm": "ListFold-sgm",
    "listmle": "ListMLE",
    "listmle-rvs": "ListMLE-rvs",
    "naive-pt": "NaivePt",
    "mlp": "MLP",
    "list2mle": "List2MLE",
}
STANDARD_MODELS = ("listfold-exp", "listfold-sgm", "listmle", "list2mle", "mlp")


def strategy_lineup(models, k: int) -> list[StrategySpec]:
    """Model by model, its long-short strategy, then its short-average one;
    list2mle is one book, long listmle's top k and short listmle-rvs's bottom
    k. ValueError names the field: strategies (unknown or none) or k (< 1)."""
    out = []
    for model in models:
        if (name := STRATEGY_NAMES.get(model)) is None:
            raise ValueError(f"strategies: unknown model {model!r} "
                             f"(known: {', '.join(STRATEGY_NAMES)})")
        if model == "list2mle":
            out.append(StrategySpec(name, "listmle", "listmle-rvs", k))
        else:
            out += [StrategySpec(name, model, model, k),
                    StrategySpec(name + "-sa", model, None, k)]
    if k < 1:
        raise ValueError("k: must be >= 1")
    _common_k(out)  # refuses an empty lineup
    return out


def standard_strategies(k: int = 8) -> list[StrategySpec]:
    """The standard lineup, the CLI's default: the STANDARD_MODELS' books,
    nine strategies."""
    return strategy_lineup(STANDARD_MODELS, k)


@dataclass(frozen=True)
class BacktestConfig:
    """Every setting of a backtest run. The CLI takes its config-file keys,
    value types and flags from these fields, so a field added here is a key
    and a flag with no other edit. Out-of-range values raise ValueError
    naming the field."""

    train_len: int = 300
    test_len: int = 16
    batch_size: int = 32
    total_batches: int = 1000
    learning_rate: float = 1e-3
    seed: int = 0
    cost_bps: float = 30.0
    rf_annual: float = 0.03

    def __post_init__(self):
        for name in ("train_len", "test_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        # numpy seeds take no negative integer
        for name in ("total_batches", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate: must be finite and > 0")
        if not (math.isfinite(self.cost_bps) and self.cost_bps >= 0):
            raise ValueError("cost_bps: must be finite and >= 0")
        if not math.isfinite(self.rf_annual):
            raise ValueError("rf_annual: must be finite")


@dataclass
class BacktestResult:
    """scores are return oriented for every model: a reverse-labeled model's
    raw output ranks worst first, so it is stored negated and every consumer
    (metrics, heatmaps, portfolio builders) reads one orientation."""

    strategies: list[StrategySpec]
    pnl: dict[str, PnlSeries]
    stats: dict[str, StrategyStats]
    rank_metrics: dict[str, dict[str, float]]  # model -> metric -> value
    scores: dict[str, dict[str, np.ndarray]]  # model -> test date -> scores
    test_dates: list[str]
    # strategies whose legs come from two models: mean names held in both legs
    overlap_per_week: dict[str, float]


def _model_seed(base_seed: int, model: str, window_index: int) -> int:
    # independent of strategy-list composition and execution order
    h = zlib.crc32(model.encode())
    return int(np.random.SeedSequence((base_seed, h, window_index)).generate_state(1)[0])


def model_train_config(config: BacktestConfig, model: str, window_index: int) -> TrainConfig:
    """The TrainConfig of one (model, window): MODEL_SPECS' loss, label
    direction and final ReLU, seeded per (config.seed, model, window); an
    unknown model raises ValueError."""
    spec, reverse, final_relu = _model_spec(model)
    return TrainConfig(
        loss=spec,
        batch_size=config.batch_size,
        total_batches=config.total_batches,
        learning_rate=config.learning_rate,
        final_relu=final_relu,
        seed=_model_seed(config.seed, model, window_index),
        reverse_labels=reverse,
    )


def train_window(panel: FactorPanel, plan: WindowPlan, models, config: BacktestConfig,
                 window_index: int) -> dict[str, ScoringNet]:
    """Train every model of one rolling window; returns the networks by
    model.

    The window's training lists are built once per median-drop setting from
    raw views of the panel's train weeks, then shared by all models. Each
    network carries the map fit_norm_params fits on the train weeks as its
    input map, so no normalized copy of the window is made. A model's
    network does not depend on which other models train beside it, so
    `listfold train` and `run_backtest` produce the same network. A
    TrainingDivergenceError names the model and the window.
    """
    norm_params = fit_norm_params(panel, plan)
    configs = {m: model_train_config(config, m, window_index) for m in models}
    # dropping the median stock changes nothing on an even universe
    odd = panel.n_stocks % 2 == 1
    drop = {m: odd and tc.loss.even_length for m, tc in configs.items()}
    lists = {d: ranked_train_weeks(panel, plan, require_even=d)
             for d in sorted(set(drop.values()))}

    nets = {}
    for model in models:
        try:
            nets[model] = train(lists[drop[model]], norm_params, configs[model])
        except TrainingDivergenceError as exc:
            raise TrainingDivergenceError(f"{model}, window {window_index}: {exc}") from None
    return nets


def _score_window(panel: FactorPanel, plan: WindowPlan, models, config: BacktestConfig,
                  window_index: int) -> tuple[list[str], dict[str, np.ndarray]]:
    """Test dates and (weeks, N) return-oriented scores of one window; the
    window's training lists are freed on return."""
    nets = train_window(panel, plan, models, config, window_index)
    dates = list(panel.dates[plan.test_range[0]:plan.test_range[1]])
    scores = {}
    for model in models:
        raw = np.stack([score_week(nets[model], panel, date) for date in dates])
        scores[model] = -raw if MODEL_SPECS[model][1] else raw
    return dates, scores


def run_backtest(panel: FactorPanel, strategies: list[StrategySpec],
                 config: BacktestConfig) -> BacktestResult:
    """Walk the rolling windows: train each required model per window once,
    score every test week, then build each strategy's (weeks, N) book and
    account its pnl.

    Scoring models are deduplicated across strategies and seeded per
    (model, window), so results do not depend on the strategy list's
    composition. Windows are trained and scored one at a time, so only one
    window's training lists are held in memory. An empty lineup and one
    whose strategies carry more than one k raise ValueError, because the
    rank metrics are reported at a single k, and so does a k the panel's
    universe cannot hold. Before any training, DataError names a run whose
    windows test fewer than two weeks (the stats need two returns), and
    the week, stock and kind of the first missing or infinite forward
    return or factor cell in any week that is trained on or tested.
    """
    k = _common_k(strategies)
    for strat in strategies:
        strat.check_universe(panel.n_stocks)
    plans = rolling_windows(panel.n_weeks, config.train_len, config.test_len)
    test_weeks = len(plans) * config.test_len
    if test_weeks < 2:
        raise DataError(f"insufficient data: {test_weeks} test week, the stats need at least 2")
    # the windows train and test every week from 0 to the last test week
    stop = plans[-1].test_range[1]
    panel.check_returns(0, stop)
    panel.check_factor_cells(0, stop)
    models = sorted({m for s in strategies for m in s.required_models()})
    parts = [_score_window(panel, plan, models, config, wi) for wi, plan in enumerate(plans)]
    test_dates = [d for dates, _ in parts for d in dates]
    stacked = {m: np.concatenate([window[m] for _, window in parts]) for m in models}
    returns = np.stack([panel.week_returns(d) for d in test_dates])

    pnl: dict[str, PnlSeries] = {}
    stats: dict[str, StrategyStats] = {}
    overlap: dict[str, float] = {}
    for strat in strategies:
        if strat.short is None:
            long, short = build_short_average(stacked[strat.long], panel.stocks, strat.k)
        else:
            long, short = build_long_short(stacked[strat.long], stacked[strat.short],
                                           panel.stocks, strat.k)
            if strat.short != strat.long:
                overlap[strat.name] = float(np.mean(np.sum((long > 0) & (short > 0), axis=1)))
        pnl[strat.name] = book_pnl(long, short, returns, config.cost_bps, test_dates,
                                   panel.stocks)
        stats[strat.name] = compute_stats(pnl[strat.name], config.rf_annual)

    scores = {m: dict(zip(test_dates, stacked[m])) for m in models}
    rank_metrics = {m: _model_rank_metrics(stacked[m], returns, panel.stocks, k=k)
                    for m in models}
    return BacktestResult(strategies, pnl, stats, rank_metrics, scores, test_dates, overlap)


def _common_k(strategies: list[StrategySpec]) -> int:
    """The one cutoff of the lineup, which the NDCG@k family uses."""
    ks = sorted({s.k for s in strategies})
    if not ks:
        raise ValueError("strategies: empty strategy list")
    if len(ks) > 1:
        raise ValueError(f"strategies carry more than one k {ks}; the rank metrics need one")
    return ks[0]


def _model_rank_metrics(scores: np.ndarray, returns: np.ndarray, stocks, k: int,
                        levels: int = 10) -> dict[str, float]:
    """Weekly IC and NDCG family of one model's (weeks, N) scores against the
    realized (weeks, N) returns, averaged over the weeks. Scores are
    expected return oriented (higher = better); labels are deciles, or
    `levels` relevance levels, clamped to the universe.

    Both ends rank as the books do: NDCG@k reads the long leg's order
    _rank(scores) and NDCG@-k the short leg's _rank(-scores), so on tied
    scores each end scores the names its leg holds."""
    n = returns.shape[1]
    k, levels = min(k, n), min(levels, n)
    top = _rank(scores, stocks)
    # ndcg_at_minus_k reverses the order it is given
    bottom_last = _rank(-scores, stocks)[:, ::-1]
    labels = decile_labels(returns, levels=levels)
    at_k = metrics.ndcg_at_k(metrics.RankEval(top, labels, k))
    at_minus_k = metrics.ndcg_at_minus_k(metrics.RankEval(bottom_last, labels, k), levels)
    weekly = {
        "ic": metrics.spearman_ic(scores, returns),
        "ndcg": metrics.ndcg_at_k(metrics.RankEval(top, labels, n)),
        "ndcg_at_k": at_k,
        "ndcg_at_minus_k": at_minus_k,
        "ndcg_pm_k": 0.5 * (at_k + at_minus_k),
    }
    return {name: float(np.mean(values)) for name, values in weekly.items()}


def cutoff_heatmap(scores_by_model: dict[str, dict[str, np.ndarray]], panel: FactorPanel,
                   k_range, test_dates: list[str]):
    """Mean weekly gross long-short return in bps per (model, k) cell, over
    the test_dates.

    Scores may come from a backtest result or be synthesized (feeding the
    realized returns as scores gives the perfect-foresight ceiling, which
    is non-increasing in k).
    """
    models = sorted(scores_by_model)
    ks = list(k_range)
    for k in ks:
        _check_k(k, panel.n_stocks)
    k_max = max(ks, default=0)
    rows = np.asarray(ks, dtype=int) - 1
    returns = np.stack([panel.week_returns(d) for d in test_dates])
    grid = np.zeros((len(ks), len(models)))
    for col, model in enumerate(models):
        scores = np.stack([scores_by_model[model][d] for d in test_dates])
        top, bottom = _rank(scores, panel.stocks), _rank(-scores, panel.stocks)
        _check_held(_held(top, k_max) | _held(bottom, k_max), returns, test_dates,
                    panel.stocks)
        spread = (np.take_along_axis(returns, top[:, :k_max], axis=1).cumsum(axis=1)
                  - np.take_along_axis(returns, bottom[:, :k_max], axis=1).cumsum(axis=1))
        grid[:, col] = 1e4 * np.mean(0.5 * spread[:, rows] / (rows + 1), axis=0)
    return models, ks, grid


def batch_size_grid(panel: FactorPanel, batch_sizes, strategies: list[StrategySpec],
                    config: BacktestConfig):
    """Re-run the backtest at each mini-batch size with total_batches held
    fixed; cells are mean weekly gross long-short returns in bps."""
    sizes = [int(b) for b in batch_sizes]
    names = [s.name for s in strategies]
    grid = np.zeros((len(sizes), len(strategies)))
    for row, bs in enumerate(sizes):
        result = run_backtest(panel, strategies, replace(config, batch_size=bs))
        for col, strat in enumerate(strategies):
            grid[row, col] = 1e4 * float(np.mean(result.pnl[strat.name].gross))
    return names, sizes, grid


def _cell(value) -> str:
    """A table cell that is not text: a float as its repr, so it reads back
    bit for bit; an int as its digits; None (an undefined value) as empty;
    a tuple (a permutation) as its entries' reprs, space separated and
    always quoted."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return '"' + " ".join(map(repr, value)) + '"'
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def _write_table(path, header, rows) -> None:
    """Write a CSV table, its header row and then its rows, one line each
    ended by a newline. A str cell is text, quoted where the csv module's
    minimal rule needs it (as save_panel quotes ids and dates); every other
    cell is written by _cell. Every results table listfold writes goes
    through here; the panel CSV has its own writer, save_panel."""
    table = [header, *rows]
    quoted = iter(_csv_fields([v for row in table for v in row if isinstance(v, str)]))
    with _write_whole(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(next(quoted) if isinstance(v, str) else _cell(v)
                               for v in row) + "\n"
                      for row in table)


def write_stats_csv(path, stats: dict[str, StrategyStats]) -> None:
    _write_table(path, ["strategy", "mu_excess", "sigma", "sharpe", "mdd", "trv"],
                 ([name, s.mu_excess, s.sigma, s.sharpe if s.sharpe_defined else None,
                   s.mdd, s.trv] for name, s in stats.items()))


def write_rankmetrics_csv(path, rank_metrics: dict[str, dict[str, float]]) -> None:
    cols = ["ic", "ndcg", "ndcg_at_k", "ndcg_at_minus_k", "ndcg_pm_k"]
    _write_table(path, ["model", *cols],
                 ([model, *(row[c] for c in cols)] for model, row in rank_metrics.items()))


def write_pnl_csv(path, series: PnlSeries) -> None:
    _write_table(path, ["date", "gross", "cost", "net", "cumulative"],
                 zip(series.dates, series.gross, series.cost_paid, series.weekly_returns,
                     series.cumulative))


def write_heatmap_csv(path, models: list[str], ks: list[int], grid: np.ndarray) -> None:
    _write_table(path, ["k", *models], ([k, *cells] for k, cells in zip(ks, grid)))


def write_batchgrid_csv(path, names: list[str], sizes: list[int], grid: np.ndarray) -> None:
    _write_table(path, ["batch_size", *names],
                 ([bs, *cells] for bs, cells in zip(sizes, grid)))
