"""Rolling-window strategy evaluation: portfolio construction from predicted
ranks, pnl accounting with transaction costs, summary statistics, and the
cutoff / batch-size robustness grids.

Sizing convention: a fixed nominal of $1 per week, split $0.50 long and
$0.50 short with equal weights inside each leg (dollar neutral, non
compounding). Transaction cost is charged on traded notional, the L1
distance between consecutive signed weight vectors, so the configured bps
figure is the all-in round-trip cost per unit traded.
"""

from __future__ import annotations

import concurrent.futures
import zlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import metrics
from .data import (
    DataError,
    FactorPanel,
    WindowPlan,
    decile_labels,
    fit_norm_params,
    minmax_normalize,
    ranked_train_weeks,
    rolling_windows,
)
from .losses import LossSpec, make_transform
from .neural import ScoringNet, TrainConfig, score_week, train

__all__ = [
    "Portfolio",
    "PnlSeries",
    "StrategyStats",
    "StrategySpec",
    "BacktestConfig",
    "BacktestResult",
    "MODEL_SPECS",
    "standard_strategies",
    "build_long_short",
    "build_short_average",
    "build_list2mle",
    "WeekPnl",
    "week_pnl",
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

GROSS_TOL = 1e-12


@dataclass(frozen=True)
class Portfolio:
    """Dated long and short holdings. Weights are positive and each leg sums
    to half the gross nominal; a stock held in both legs (list2mle overlap)
    nets to zero signed exposure."""

    date: str
    longs: dict[str, float]
    shorts: dict[str, float]
    mode: str

    def __post_init__(self):
        gross = sum(self.longs.values()) + sum(self.shorts.values())
        if abs(gross - 1.0) > GROSS_TOL:
            raise ValueError(f"gross nominal must be 1.0, got {gross}")

    def signed_weights(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, w in self.longs.items():
            out[s] = out.get(s, 0.0) + w
        for s, w in self.shorts.items():
            out[s] = out.get(s, 0.0) - w
        return out

    @property
    def overlap(self) -> int:
        return len(set(self.longs) & set(self.shorts))


@dataclass
class PnlSeries:
    """Weekly accounting at fixed nominal: cumulative is the running sum of
    net returns, never compounded."""

    dates: list[str] = field(default_factory=list)
    gross: list[float] = field(default_factory=list)
    cost_paid: list[float] = field(default_factory=list)
    weekly_returns: list[float] = field(default_factory=list)
    turnover: list[float] = field(default_factory=list)

    def append(self, date: str, gross: float, cost: float, net: float, trv: float) -> None:
        self.dates.append(date)
        self.gross.append(gross)
        self.cost_paid.append(cost)
        self.weekly_returns.append(net)
        self.turnover.append(trv)

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


def _ordered_stocks(scores: dict[str, float], reverse: bool) -> list[str]:
    # ties resolve to the lexically smaller stock id, deterministically
    if reverse:
        return sorted(scores, key=lambda s: (-scores[s], s))
    return sorted(scores, key=lambda s: (scores[s], s))


def build_long_short(date: str, scores: dict[str, float], k: int) -> Portfolio:
    """Top k long, bottom k short, 0.5/k weight per name."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if 2 * k > len(scores):
        raise ValueError(f"universe of {len(scores)} too small for 2k = {2 * k}")
    best = _ordered_stocks(scores, reverse=True)[:k]
    worst = _ordered_stocks(scores, reverse=False)[:k]
    w = 0.5 / k
    return Portfolio(date, {s: w for s in sorted(best)}, {s: w for s in sorted(worst)},
                     "long-short-k")


def build_short_average(date: str, scores: dict[str, float], k: int) -> Portfolio:
    """Top k long at 0.5/k; short every stock at 0.5/N (an index-future
    style approximation of the short leg)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(scores):
        raise ValueError(f"universe of {len(scores)} too small for k = {k}")
    best = _ordered_stocks(scores, reverse=True)[:k]
    n = len(scores)
    return Portfolio(
        date,
        {s: 0.5 / k for s in sorted(best)},
        {s: 0.5 / n for s in sorted(scores)},
        "short-average",
    )


def build_list2mle(date: str, scores_fwd: dict[str, float], scores_rev: dict[str, float],
                   k: int) -> Portfolio:
    """Long the forward model's top k, short the reverse-labeled model's
    top k. Overlapping picks stay in both legs so the overlap diagnostic
    is visible; their signed exposure nets to zero."""
    if set(scores_fwd) != set(scores_rev):
        raise ValueError("forward and reverse score universes differ")
    if k < 1:
        raise ValueError("k must be >= 1")
    if 2 * k > len(scores_fwd):
        raise ValueError(f"universe of {len(scores_fwd)} too small for 2k = {2 * k}")
    best = _ordered_stocks(scores_fwd, reverse=True)[:k]
    to_short = _ordered_stocks(scores_rev, reverse=True)[:k]
    w = 0.5 / k
    return Portfolio(date, {s: w for s in sorted(best)}, {s: w for s in sorted(to_short)},
                     "list2mle")


def _leg_turnover(current: dict[str, float], previous: dict[str, float] | None) -> float:
    if not current:
        return 0.0
    if previous is None:
        return 1.0
    carried = len(set(current) & set(previous))
    return 1.0 - carried / len(current)


class WeekPnl(NamedTuple):
    net: float
    turnover: float
    gross: float
    cost: float


def week_pnl(current: Portfolio, previous: Portfolio | None,
             realized_returns: dict[str, float], cost_bps: float) -> WeekPnl:
    """Net return and turnover for one week at fixed nominal (gross and cost
    ride along as extra named fields).

    gross is long exposure times returns minus short exposure times returns;
    cost is cost_bps * 1e-4 times the L1 change of the signed weight vector
    (previous taken as flat on the first week); turnover is the per-leg
    non-carried fraction averaged over the two legs.
    """
    for s in list(current.longs) + list(current.shorts):
        if s not in realized_returns or not np.isfinite(realized_returns[s]):
            raise DataError(f"missing realized return for held stock {s}")
    gross = sum(w * realized_returns[s] for s, w in current.longs.items())
    gross -= sum(w * realized_returns[s] for s, w in current.shorts.items())
    now = current.signed_weights()
    before = previous.signed_weights() if previous is not None else {}
    traded = 0.0
    for s in set(now) | set(before):
        traded += abs(now.get(s, 0.0) - before.get(s, 0.0))
    cost = cost_bps * 1e-4 * traded
    trv = 0.5 * (
        _leg_turnover(current.longs, previous.longs if previous else None)
        + _leg_turnover(current.shorts, previous.shorts if previous else None)
    )
    return WeekPnl(gross - cost, trv, gross, cost)


def compute_stats(pnl: PnlSeries, rf_annual: float, periods_per_year: int = 52) -> StrategyStats:
    """Arithmetic annualization: mu = mean * periods - rf, sigma = sample
    std (ddof 1) * sqrt(periods). Max drawdown is measured on the running
    sum with an implicit 0 start."""
    r = np.asarray(pnl.weekly_returns, dtype=float)
    if r.size < 2:
        raise ValueError("need at least two weekly returns")
    mu_excess = float(r.mean() * periods_per_year - rf_annual)
    sigma = float(r.std(ddof=1) * np.sqrt(periods_per_year))
    cum = np.concatenate([[0.0], np.cumsum(r)])
    peaks = np.maximum.accumulate(cum)
    mdd = float(np.max(peaks - cum))
    trv = float(np.mean(pnl.turnover)) if pnl.turnover else 0.0
    if sigma == 0.0:
        return StrategyStats(mu_excess, sigma, float("nan"), mdd, trv, sharpe_defined=False)
    return StrategyStats(mu_excess, sigma, mu_excess / sigma, mdd, trv)


# model key -> (loss spec builder, reverse_labels, final_relu)
MODEL_SPECS: dict[str, tuple[LossSpec, bool, bool]] = {
    "listfold-exp": (LossSpec("listfold", make_transform("exp")), False, True),
    "listfold-sgm": (LossSpec("listfold", make_transform("sgm")), False, True),
    "listmle": (LossSpec("listmle", make_transform("exp")), False, True),
    "listmle-rvs": (LossSpec("listmle", make_transform("exp")), True, True),
    "naive-pt": (LossSpec("naive_pt", make_transform("exp")), False, True),
    "mlp": (LossSpec("mse"), False, False),
}


@dataclass(frozen=True)
class StrategySpec:
    """One row of the stats table: a scoring model, a portfolio mode and a
    cutoff. mode 'list2mle' ignores `model` and always pairs the listmle
    and listmle-rvs models."""

    name: str
    model: str
    mode: str  # "ls" | "sa" | "list2mle"
    k: int

    def required_models(self) -> tuple[str, ...]:
        if self.mode == "list2mle":
            return ("listmle", "listmle-rvs")
        return (self.model,)


def standard_strategies(k: int = 8, short_average: bool = True) -> list[StrategySpec]:
    """The standard lineup: five models long-short, plus the short-average
    variants for all but list2mle (which dictates its own short leg)."""
    out = [
        StrategySpec("ListFold-exp", "listfold-exp", "ls", k),
        StrategySpec("ListFold-sgm", "listfold-sgm", "ls", k),
        StrategySpec("ListMLE", "listmle", "ls", k),
        StrategySpec("List2MLE", "listmle", "list2mle", k),
        StrategySpec("MLP", "mlp", "ls", k),
    ]
    if short_average:
        out += [
            StrategySpec("ListFold-exp-sa", "listfold-exp", "sa", k),
            StrategySpec("ListFold-sgm-sa", "listfold-sgm", "sa", k),
            StrategySpec("ListMLE-sa", "listmle", "sa", k),
            StrategySpec("MLP-sa", "mlp", "sa", k),
        ]
    return out


@dataclass(frozen=True)
class BacktestConfig:
    train_len: int = 300
    test_len: int = 16
    batch_size: int = 32
    total_batches: int = 1000
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    cost_bps: float = 30.0
    rf_annual: float = 0.03
    levels: int = 10
    threads: int = 1
    patience: int | None = None


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
    overlap_per_week: dict[str, float]  # list2mle strategies: mean overlap count


def _model_seed(base_seed: int, model: str, window_index: int) -> int:
    # independent of strategy-list composition and execution order
    h = zlib.crc32(model.encode())
    return int(np.random.SeedSequence((base_seed, h, window_index)).generate_state(1)[0])


def model_train_config(config: BacktestConfig, model: str, window_index: int) -> TrainConfig:
    """The TrainConfig of one (model, window): MODEL_SPECS' loss, label
    direction and final ReLU, seeded per (config.seed, model, window)."""
    spec, reverse, final_relu = MODEL_SPECS[model]
    return TrainConfig(
        loss=spec,
        batch_size=config.batch_size,
        total_batches=config.total_batches,
        learning_rate=config.learning_rate,
        optimizer=config.optimizer,
        final_relu=final_relu,
        seed=_model_seed(config.seed, model, window_index),
        reverse_labels=reverse,
        levels=config.levels,
        patience=config.patience,
    )


def train_window(panel: FactorPanel, plan: WindowPlan, models, config: BacktestConfig,
                 window_index: int) -> tuple[FactorPanel, dict[str, ScoringNet]]:
    """Train every model of one rolling window.

    The window is normalized once and its training lists are built once per
    median-drop setting, then shared by all models. Returns the normalized
    window panel (train and test weeks) and the networks by model. A
    model's network does not depend on which other models train beside it,
    so `listfold train` and `run_backtest` produce the same network.
    """
    wpanel = minmax_normalize(panel, plan)
    local = plan.localized()
    configs = {m: model_train_config(config, m, window_index) for m in models}
    # dropping the median stock changes nothing on an even universe
    odd = wpanel.n_stocks % 2 == 1
    drop = {m: odd and tc.loss.even_length for m, tc in configs.items()}
    lists = {d: ranked_train_weeks(wpanel, local, config.levels, require_even=d)
             for d in sorted(set(drop.values()))}

    def fit(model: str) -> ScoringNet:
        return train(wpanel, local, configs[model], lists=lists[drop[model]])

    if config.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
            nets = list(pool.map(fit, models))
    else:
        nets = [fit(m) for m in models]
    return wpanel, dict(zip(models, nets))


def _score_window(panel: FactorPanel, plan: WindowPlan, models, config: BacktestConfig,
                  window_index: int) -> tuple[list[str], dict[str, dict[str, np.ndarray]]]:
    """Test dates and return-oriented scores of one window; the window's
    normalized panel and training lists are freed on return."""
    wpanel, nets = train_window(panel, plan, models, config, window_index)
    local = plan.localized()
    dates = list(wpanel.dates[local.test_range[0]:local.test_range[1]])
    scores: dict[str, dict[str, np.ndarray]] = {}
    for model in models:
        reverse = MODEL_SPECS[model][1]
        scores[model] = {}
        for date in dates:
            raw = score_week(nets[model], wpanel, date)
            scores[model][date] = -raw if reverse else raw
    return dates, scores


def run_backtest(panel: FactorPanel, strategies: list[StrategySpec],
                 config: BacktestConfig) -> BacktestResult:
    """Walk the rolling windows: train each required model per window once,
    score every test week, build portfolios and account pnl sequentially.

    Scoring models are deduplicated across strategies and seeded per
    (model, window), so results do not depend on the strategy list's
    composition or on the thread count. Windows are trained and scored one
    at a time, so only one normalized window is held in memory.
    """
    plans = [fit_norm_params(panel, p)
             for p in rolling_windows(panel.n_weeks, config.train_len, config.test_len)]
    models = sorted({m for s in strategies for m in s.required_models()})
    scores: dict[str, dict[str, np.ndarray]] = {m: {} for m in models}
    test_dates: list[str] = []
    for wi, plan in enumerate(plans):
        dates, window_scores = _score_window(panel, plan, models, config, wi)
        test_dates += dates
        for model in models:
            scores[model].update(window_scores[model])

    pnl: dict[str, PnlSeries] = {}
    stats: dict[str, StrategyStats] = {}
    overlap: dict[str, float] = {}
    for strat in strategies:
        series = PnlSeries()
        previous: Portfolio | None = None
        overlaps: list[int] = []
        for date in test_dates:
            idx = panel.week_index(date)
            rets = panel.fwd_return[idx]
            realized = {s: float(r) for s, r in zip(panel.stocks, rets)}
            if strat.mode == "list2mle":
                fwd = dict(zip(panel.stocks, scores["listmle"][date]))
                # the short picker wants the reverse model's own (worst
                # first) orientation back
                rev = dict(zip(panel.stocks, -scores["listmle-rvs"][date]))
                port = build_list2mle(date, fwd, rev, strat.k)
                overlaps.append(port.overlap)
            else:
                sc = dict(zip(panel.stocks, scores[strat.model][date]))
                if strat.mode == "ls":
                    port = build_long_short(date, sc, strat.k)
                elif strat.mode == "sa":
                    port = build_short_average(date, sc, strat.k)
                else:
                    raise ValueError(f"unknown portfolio mode {strat.mode!r}")
            wk = week_pnl(port, previous, realized, config.cost_bps)
            series.append(date, wk.gross, wk.cost, wk.net, wk.turnover)
            previous = port
        pnl[strat.name] = series
        stats[strat.name] = compute_stats(series, config.rf_annual)
        if strat.mode == "list2mle":
            overlap[strat.name] = float(np.mean(overlaps)) if overlaps else 0.0

    rank_metrics = {
        m: _model_rank_metrics(panel, scores[m], test_dates,
                               k=_common_k(strategies), levels=config.levels)
        for m in models
    }
    return BacktestResult(strategies, pnl, stats, rank_metrics, scores, test_dates, overlap)


def _common_k(strategies: list[StrategySpec]) -> int:
    return strategies[0].k if strategies else 8


def _model_rank_metrics(panel: FactorPanel, model_scores: dict[str, np.ndarray],
                        test_dates: list[str], k: int,
                        levels: int) -> dict[str, float]:
    """Weekly IC and NDCG family, averaged over the test weeks. Scores are
    expected return oriented (higher = better)."""
    ics, ndcg_full, ndcg_k, ndcg_mk, ndcg_pm = [], [], [], [], []
    for date in test_dates:
        rets = panel.week_returns(date)
        implied = model_scores[date]
        ics.append(metrics.spearman_ic(implied, rets))
        order = np.argsort(-implied, kind="stable")
        labels = decile_labels(rets, levels=min(levels, rets.size))
        n = rets.size
        ev_full = metrics.RankEval(order, labels, n)
        ev_k = metrics.RankEval(order, labels, min(k, n))
        ndcg_full.append(metrics.ndcg_at_k(ev_full))
        ndcg_k.append(metrics.ndcg_at_k(ev_k))
        ndcg_mk.append(metrics.ndcg_at_minus_k(ev_k, levels=min(levels, n)))
        ndcg_pm.append(metrics.ndcg_pm_k(ev_k, levels=min(levels, n)))
    return {
        "ic": float(np.mean(ics)),
        "ndcg": float(np.mean(ndcg_full)),
        "ndcg_at_k": float(np.mean(ndcg_k)),
        "ndcg_at_minus_k": float(np.mean(ndcg_mk)),
        "ndcg_pm_k": float(np.mean(ndcg_pm)),
    }


def cutoff_heatmap(scores_by_model: dict[str, dict[str, np.ndarray]], panel: FactorPanel,
                   k_range, test_dates: list[str] | None = None):
    """Mean weekly gross long-short return in bps per (model, k) cell.

    Scores may come from a backtest result or be synthesized (feeding the
    realized returns as scores gives the perfect-foresight ceiling, which
    is non-increasing in k).
    """
    models = sorted(scores_by_model)
    ks = list(k_range)
    if test_dates is None:
        test_dates = sorted(next(iter(scores_by_model.values())))
    grid = np.zeros((len(ks), len(models)))
    for col, model in enumerate(models):
        per_week = scores_by_model[model]
        for row, k in enumerate(ks):
            vals = []
            for date in test_dates:
                sc = dict(zip(panel.stocks, per_week[date]))
                realized = dict(zip(panel.stocks, panel.week_returns(date)))
                port = build_long_short(date, sc, k)
                vals.append(week_pnl(port, None, realized, 0.0).gross)
            grid[row, col] = 1e4 * float(np.mean(vals))
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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_stats_csv(path, stats: dict[str, StrategyStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("strategy,mu_excess,sigma,sharpe,mdd,trv\n")
        for name in stats:
            s = stats[name]
            sharpe = _fmt(s.sharpe) if s.sharpe_defined else ""
            fh.write(f"{name},{_fmt(s.mu_excess)},{_fmt(s.sigma)},{sharpe},"
                     f"{_fmt(s.mdd)},{_fmt(s.trv)}\n")


def write_rankmetrics_csv(path, rank_metrics: dict[str, dict[str, float]]) -> None:
    cols = ["ic", "ndcg", "ndcg_at_k", "ndcg_at_minus_k", "ndcg_pm_k"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model," + ",".join(cols) + "\n")
        for model in rank_metrics:
            row = rank_metrics[model]
            fh.write(model + "," + ",".join(_fmt(row[c]) for c in cols) + "\n")


def write_pnl_csv(path, series: PnlSeries) -> None:
    cum = series.cumulative
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,gross,cost,net,cumulative\n")
        for i, date in enumerate(series.dates):
            fh.write(f"{date},{_fmt(series.gross[i])},{_fmt(series.cost_paid[i])},"
                     f"{_fmt(series.weekly_returns[i])},{_fmt(cum[i])}\n")


def write_heatmap_csv(path, models: list[str], ks: list[int], grid: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k," + ",".join(models) + "\n")
        for row, k in enumerate(ks):
            fh.write(str(k) + "," + ",".join(_fmt(v) for v in grid[row]) + "\n")


def write_batchgrid_csv(path, names: list[str], sizes: list[int], grid: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("batch_size," + ",".join(names) + "\n")
        for row, bs in enumerate(sizes):
            fh.write(str(bs) + "," + ",".join(_fmt(v) for v in grid[row]) + "\n")
