"""Portfolios, pnl accounting, stats fixtures, and the full rolling harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfold import backtest
from listfold.backtest import (
    BacktestConfig,
    PnlSeries,
    StrategySpec,
    batch_size_grid,
    book_pnl,
    build_list2mle,
    build_long_short,
    build_short_average,
    compute_stats,
    cutoff_heatmap,
    model_train_config,
    standard_strategies,
    run_backtest,
    train_window,
)
from listfold.data import (DataError, FactorPanel, fit_norm_params, generate_synthetic_panel,
                           minmax_normalize, rolling_windows)
from listfold.neural import forward, train


def series_from(returns, turnover=None):
    n = len(returns)
    return PnlSeries([f"W{i:03d}" for i in range(n)], list(returns), [0.0] * n,
                     list(returns), list(turnover) if turnover is not None else [0.0] * n)


def week(scores: dict):
    """One week's {stock: score} as a (1, N) score array and its stock ids."""
    return np.array([list(scores.values())], dtype=float), tuple(scores)


def held(weights, stocks, row=0):
    """{stock: weight} of one row of a leg's weight array."""
    return {s: w for s, w in zip(stocks, weights[row]) if w > 0}


def book(builder, scores: dict, k: int):
    """The (long, short) {stock: weight} dicts of a one-week book."""
    sc, stocks = week(scores)
    long, short = builder(sc, stocks, k)
    return held(long, stocks), held(short, stocks)


def price_week(long, short, returns: dict, cost_bps: float, row=0):
    """(gross, cost, net, turnover) of one row of a book priced by book_pnl."""
    stocks = tuple(returns)
    rets = np.tile([returns[s] for s in stocks], (long.shape[0], 1))
    series = book_pnl(long, short, rets, cost_bps, [f"w{i}" for i in range(len(rets))],
                      stocks)
    return (series.gross[row], series.cost_paid[row], series.weekly_returns[row],
            series.turnover[row])


class TestBuildLongShort:
    def test_eighty_stocks_k8(self):
        longs, shorts = book(build_long_short, {f"S{i:02d}": float(i) for i in range(80)}, 8)
        assert len(longs) == 8 and len(shorts) == 8
        assert all(w == pytest.approx(1 / 16) for w in longs.values())
        assert set(longs) == {f"S{i}" for i in range(72, 80)}
        assert set(shorts) == {f"S{i:02d}" for i in range(8)}

    def test_two_stocks(self):
        longs, shorts = book(build_long_short, {"A": 0.5, "B": -0.5}, 1)
        assert longs == {"A": 0.5} and shorts == {"B": 0.5}

    def test_tie_at_boundary_prefers_lower_stock_id(self):
        scores = {"A": 1.0, "B": 1.0, "C": 0.0, "D": -1.0}
        for _ in range(3):
            longs, shorts = book(build_long_short, scores, 1)
            assert longs == {"A": 0.5}
            assert shorts == {"D": 0.5}
        _, tied_low = book(build_long_short, {"A": 0.0, "B": -1.0, "C": -1.0, "D": 1.0}, 1)
        assert tied_low == {"B": 0.5}

    def test_tie_rule_holds_when_ids_are_not_in_lexical_order(self):
        # lexically "S1" < "S10" < "S2", whatever the column order
        longs, shorts = book(build_long_short, {"S2": 1.0, "S10": 1.0, "S1": 0.0, "S3": 0.0}, 1)
        assert longs == {"S10": 0.5} and shorts == {"S1": 0.5}
        longs, shorts = book(build_long_short, {"S2": 1.0, "S10": 1.0, "S1": 1.0}, 1)
        assert longs == {"S1": 0.5} and shorts == {"S1": 0.5}

    def test_universe_too_small(self):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        with pytest.raises(ValueError):
            build_long_short(sc, stocks, 2)
        with pytest.raises(ValueError):
            build_long_short(sc, stocks, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 100))
    def test_dollar_neutral(self, k, seed):
        rng = np.random.default_rng(seed)
        sc, stocks = week({f"S{i}": float(v) for i, v in enumerate(rng.normal(size=16))})
        long, short = build_long_short(sc, stocks, k)
        assert abs(np.sum(long - short)) < 1e-12

    def test_every_week_is_built_alone(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 4, size=(6, 10)).astype(float)
        stocks = tuple(f"S{j}" for j in rng.permutation(10))
        long, short = build_long_short(scores, stocks, 3)
        for w in range(6):
            one_long, one_short = build_long_short(scores[w:w + 1], stocks, 3)
            np.testing.assert_array_equal(long[w], one_long[0])
            np.testing.assert_array_equal(short[w], one_short[0])


class TestBuildShortAverage:
    def test_four_stocks_k1(self):
        sc, stocks = week({"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0})
        long, short = build_short_average(sc, stocks, 1)
        assert held(long, stocks) == {"A": 0.5}
        assert held(short, stocks) == {s: 0.125 for s in "ABCD"}
        assert abs(np.sum(long - short)) < 1e-12

    def test_all_equal_scores_tie_rule(self):
        longs, _ = book(build_short_average, {"C": 1.0, "A": 1.0, "B": 1.0}, 2)
        assert set(longs) == {"A", "B"}

    def test_universe_too_small(self):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        build_short_average(sc, stocks, 2)
        with pytest.raises(ValueError):
            build_short_average(sc, stocks, 3)
        with pytest.raises(ValueError):
            build_short_average(sc, stocks, 0)

    def test_return_identity(self):
        # portfolio return = 0.5 * (mean of top-k returns - mean of all)
        rng = np.random.default_rng(1)
        rets = {f"S{i}": float(r) for i, r in enumerate(rng.uniform(-0.05, 0.05, 10))}
        sc, stocks = week(rets)
        long, short = build_short_average(sc, stocks, 3)
        got = price_week(long, short, rets, 0.0)[0]
        top = sorted(rets.values(), reverse=True)[:3]
        want = 0.5 * (np.mean(top) - np.mean(list(rets.values())))
        assert got == pytest.approx(want, abs=1e-15)


def overlap(long, short):
    return int(np.sum((long > 0) & (short > 0)))


class TestBuildList2mle:
    # the reverse-labeled model's scores are stored return oriented, so the
    # stocks it ranks first (to short) are its lowest stored scores
    def test_disjoint_tops_look_like_long_short(self):
        fwd, stocks = week({"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0})
        rvs, _ = week({"A": -0.0, "B": -1.0, "C": -2.0, "D": -3.0})
        long, short = build_list2mle(fwd, rvs, stocks, 1)
        assert held(long, stocks) == {"A": 0.5} and held(short, stocks) == {"D": 0.5}
        assert overlap(long, short) == 0

    def test_identical_scores_report_overlap(self):
        sc, stocks = week({"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0})
        long, short = build_list2mle(sc, -sc, stocks, 1)
        assert overlap(long, short) == 1
        assert abs(np.sum(long - short)) < 1e-12

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            build_list2mle(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 2.0]]), ("A", "B"), 1)


class TestWeekPnl:
    def test_identical_portfolios_no_turnover_no_cost(self):
        sc, stocks = week({"A": 2.0, "B": 1.0, "C": 0.0, "D": -1.0})
        long, short = build_long_short(np.vstack([sc, sc]), stocks, 1)
        _, cost, _, trv = price_week(long, short, {s: 0.01 for s in "ABCD"}, 30.0, row=1)
        assert trv == 0.0 and cost == 0.0

    def test_disjoint_portfolios_full_turnover(self):
        a, stocks = week({"A": 2.0, "B": 1.0, "C": 0.5, "D": 0.0})
        b, _ = week({"A": 0.0, "B": 2.0, "C": 1.0, "D": 3.0})
        long, short = build_long_short(np.vstack([a, b]), stocks, 1)
        _, cost, _, trv = price_week(long, short, {s: 0.0 for s in "ABCD"}, 30.0, row=1)
        assert trv == 1.0
        # full rebuild trades 4 half-units: 2 bps at 30 bps/unit -> 0.5*4*30e-4
        assert cost == pytest.approx(30e-4 * 2.0)

    def test_first_week_trades_from_flat(self):
        sc, stocks = week({"A": 2.0, "B": 1.0, "C": 0.0, "D": -1.0})
        long, short = build_long_short(sc, stocks, 1)
        _, cost, _, trv = price_week(long, short, {s: 0.0 for s in "ABCD"}, 30.0)
        assert trv == 1.0 and cost == pytest.approx(30e-4 * 1.0)

    def test_hand_arithmetic(self):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        long, short = build_long_short(sc, stocks, 1)
        net = price_week(long, short, {"A": 0.02, "B": -0.01}, 0.0)[2]
        assert net == pytest.approx(0.5 * 0.02 - 0.5 * (-0.01), abs=1e-15)

    def test_missing_return_rejected(self):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        long, short = build_long_short(sc, stocks, 1)
        with pytest.raises(DataError, match="held stock B on w0"):
            price_week(long, short, {"A": 0.01, "B": np.nan}, 0.0)

    def test_unheld_missing_return_is_ignored(self):
        sc, stocks = week({"A": 2.0, "B": 1.0, "C": 0.0})
        long, short = build_long_short(sc, stocks, 1)
        gross = price_week(long, short, {"A": 0.02, "B": np.nan, "C": -0.01}, 0.0)[0]
        assert gross == pytest.approx(0.5 * 0.02 - 0.5 * (-0.01), abs=1e-15)

    def test_cost_never_helps(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(5, 8))
        rets = rng.uniform(-0.05, 0.05, size=(5, 8))
        stocks = tuple(f"S{j}" for j in range(8))
        long, short = build_long_short(scores, stocks, 2)
        series = book_pnl(long, short, rets, 30.0, [f"w{i}" for i in range(5)], stocks)
        for gross, cost, net, trv in zip(series.gross, series.cost_paid,
                                         series.weekly_returns, series.turnover):
            assert net <= gross + 1e-15
            if trv == 0:
                assert cost == 0.0


def reference_legs(mode, fwd, rvs, ids, k):
    """Leg index sets of one week, by sorting (score, id) keys in Python."""
    n = len(ids)
    top = sorted(range(n), key=lambda j: (-fwd[j], ids[j]))[:k]
    if mode == "sa":
        return set(top), set(range(n))
    return set(top), set(sorted(range(n), key=lambda j: (rvs[j], ids[j]))[:k])


def reference_pnl(long, short, returns, cost_bps):
    """(gross, cost, turnover) per week by a loop over the held stocks."""
    out, before, legs_before = [], np.zeros(long.shape[1]), None
    for w in range(long.shape[0]):
        legs = [set(np.flatnonzero(long[w])), set(np.flatnonzero(short[w]))]
        gross = sum(long[w, j] * returns[w, j] for j in sorted(legs[0]))
        gross -= sum(short[w, j] * returns[w, j] for j in sorted(legs[1]))
        now = long[w] - short[w]
        cost = cost_bps * 1e-4 * sum(abs(now[j] - before[j]) for j in range(len(now)))
        trv = [1.0 if legs_before is None else 1.0 - len(leg & old) / len(leg)
               for leg, old in zip(legs, legs_before or [None, None])]
        out.append((gross, cost, 0.5 * (trv[0] + trv[1])))
        before, legs_before = now, legs
    return out


class TestBooksAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 5), st.sampled_from(["ls", "sa", "list2mle"]),
           st.integers(0, 10**6), st.data())
    def test_legs_and_pnl_match_a_per_week_loop(self, n, weeks, mode, seed, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n if mode == "sa" else n // 2))
        # ids out of lexical order ("S10" < "S2") and integer scores with many ties
        ids = tuple(f"S{j}" for j in rng.permutation(n) * 3)
        fwd = rng.integers(0, 3, size=(weeks, n))
        rvs = rng.integers(0, 3, size=(weeks, n)) if mode == "list2mle" else fwd
        returns = rng.normal(0.0, 0.03, size=(weeks, n))
        if mode == "ls":
            long, short = build_long_short(fwd, ids, k)
        elif mode == "sa":
            long, short = build_short_average(fwd, ids, k)
        else:
            long, short = build_list2mle(fwd, rvs, ids, k)
        for w in range(weeks):
            want_long, want_short = reference_legs(mode, fwd[w], rvs[w], ids, k)
            assert set(np.flatnonzero(long[w])) == want_long
            assert set(np.flatnonzero(short[w])) == want_short
        series = book_pnl(long, short, returns, 30.0, [f"w{i}" for i in range(weeks)], ids)
        want = reference_pnl(long, short, returns, 30.0)
        np.testing.assert_allclose(series.gross, [g for g, _, _ in want], rtol=0, atol=1e-15)
        np.testing.assert_allclose(series.cost_paid, [c for _, c, _ in want], rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(series.weekly_returns, [g - c for g, c, _ in want],
                                   rtol=0, atol=1e-15)
        assert series.turnover == [t for _, _, t in want]


class TestComputeStats:
    def test_mdd_peak_to_trough(self):
        # cumulative path (0, 1.0, 0.5, 0.8) via weekly returns
        stats = compute_stats(series_from([1.0, -0.5, 0.3]), rf_annual=0.0)
        assert stats.mdd == pytest.approx(0.5, abs=1e-15)

    def test_hand_fixture(self):
        stats = compute_stats(series_from([0.02, 0.00]), rf_annual=0.03)
        assert stats.mu_excess == pytest.approx(0.49, abs=1e-12)
        sigma = np.std([0.02, 0.0], ddof=1) * np.sqrt(52)
        assert stats.sigma == pytest.approx(sigma, abs=1e-15)
        assert stats.sharpe == pytest.approx(0.49 / sigma, abs=1e-12)

    def test_monotone_cumulative_no_drawdown(self):
        stats = compute_stats(series_from([0.01, 0.02, 0.005, 0.03]), rf_annual=0.0)
        assert stats.mdd == 0.0

    def test_turnover_mean(self):
        stats = compute_stats(series_from([0.0, 0.0], turnover=[1.0, 0.5]), rf_annual=0.0)
        assert stats.trv == pytest.approx(0.75)

    def test_constant_series_sharpe_flagged(self):
        stats = compute_stats(series_from([0.01, 0.01, 0.01]), rf_annual=0.0)
        assert not stats.sharpe_defined

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            compute_stats(series_from([0.01]), rf_annual=0.0)


@pytest.fixture(scope="module")
def small_backtest():
    panel = generate_synthetic_panel(31, weeks=100, stocks=16, factors=8,
                                     signal_strength=1.0, noise_scale=0.3)
    cfg = BacktestConfig(train_len=60, test_len=20, batch_size=8, total_batches=30,
                         seed=2, cost_bps=30.0, levels=8)
    strategies = standard_strategies(k=2)
    return panel, cfg, strategies, run_backtest(panel, strategies, cfg)


class TestBacktestConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("train_len", 0, "train_len: must be >= 1"),
        ("test_len", 0, "test_len: must be >= 1"),
        ("batch_size", 0, "batch_size: must be >= 1"),
        ("threads", 0, "threads: must be >= 1"),
        ("total_batches", -1, "total_batches: must be >= 0"),
        ("optimizer", "newton", "optimizer: unknown optimizer 'newton'"),
        ("levels", 1, "levels: must be >= 2"),
    ])
    def test_out_of_range_value_names_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BacktestConfig(**{field: value})

    def test_edge_values_accepted(self):
        BacktestConfig(train_len=1, test_len=1, batch_size=1, threads=1, total_batches=0,
                       optimizer="sgd", levels=2)


class TestRunBacktest:
    def test_full_table_shape(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        assert len(result.test_dates) == 40
        assert set(result.stats) == {s.name for s in strategies}
        assert set(result.rank_metrics) == {"listfold-exp", "listfold-sgm", "listmle",
                                            "listmle-rvs", "mlp"}
        for series in result.pnl.values():
            assert len(series.weekly_returns) == 40
            np.testing.assert_allclose(series.cumulative,
                                       np.cumsum(series.weekly_returns), atol=1e-15)
        # the two-sided book reports its long/short overlap diagnostic
        assert "List2MLE" in result.overlap_per_week
        assert result.overlap_per_week["List2MLE"] >= 0.0

    def test_planted_signal_found(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        from listfold.metrics import spearman_ic

        ics = [
            spearman_ic(result.scores["listfold-exp"][d], panel.week_returns(d))
            for d in result.test_dates
        ]
        mean, se = np.mean(ics), np.std(ics, ddof=1) / np.sqrt(len(ics))
        assert mean > 3 * se

    def test_rebuild_determinism(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        again = run_backtest(panel, strategies, cfg)
        for name in result.stats:
            assert result.stats[name] == again.stats[name]

    def test_gross_decomposes_into_legs(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        name = "ListFold-exp"
        series = result.pnl[name]
        # recompute the first week by legs
        date = result.test_dates[0]
        long, short = build_long_short(result.scores["listfold-exp"][date][None, :],
                                       panel.stocks, 2)
        rets = dict(zip(panel.stocks, panel.week_returns(date)))
        long_leg = sum(w * rets[s] for s, w in held(long, panel.stocks).items())
        short_leg = -sum(w * rets[s] for s, w in held(short, panel.stocks).items())
        assert series.gross[0] == pytest.approx(long_leg + short_leg, abs=1e-15)

    def test_mixed_k_lineup_rejected(self):
        panel = generate_synthetic_panel(32, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=1)
        strategies = [StrategySpec("ListMLE", "listmle", "ls", 2),
                      StrategySpec("ListMLE-sa", "listmle", "sa", 3)]
        with pytest.raises(ValueError, match=r"\[2, 3\]"):
            run_backtest(panel, strategies, cfg)

    def test_k_too_large_for_universe_rejected_before_training(self, monkeypatch):
        panel = generate_synthetic_panel(32, weeks=80, stocks=6, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=1)

        def no_training(*args, **kwargs):
            raise AssertionError("a window was scored")

        monkeypatch.setattr(backtest, "_score_window", no_training)
        with pytest.raises(ValueError, match="universe"):
            run_backtest(panel, standard_strategies(k=4), cfg)

    def test_zero_signal_panel_runs_clean(self):
        panel = generate_synthetic_panel(32, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=10,
                             seed=5, cost_bps=30.0, levels=6)
        result = run_backtest(panel, standard_strategies(k=2), cfg)
        assert len(result.test_dates) == 30
        for stats in result.stats.values():
            assert np.isfinite(stats.mu_excess)


class TestCutoffHeatmap:
    def test_perfect_foresight_non_increasing(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        oracle = {"oracle": {d: panel.week_returns(d) for d in result.test_dates}}
        models, ks, grid = cutoff_heatmap(oracle, panel, range(1, 9), result.test_dates)
        col = grid[:, 0]
        assert np.all(np.diff(col) <= 1e-9)

    def test_random_scores_near_zero(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        rng = np.random.default_rng(0)
        noise = {"noise": {d: rng.normal(size=panel.n_stocks) for d in result.test_dates}}
        _, _, grid = cutoff_heatmap(noise, panel, [2, 4], result.test_dates)
        assert np.all(np.abs(grid) < 50)  # bps

    def test_half_split_identity(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        d = result.test_dates[0]
        scores = {"m": {d: panel.week_returns(d)}}
        _, _, grid = cutoff_heatmap(scores, panel, [panel.n_stocks // 2], [d])
        rets = np.sort(panel.week_returns(d))
        half = panel.n_stocks // 2
        want = 1e4 * 0.5 * (rets[half:].mean() - rets[:half].mean())
        assert grid[0, 0] == pytest.approx(want, abs=1e-9)


    def test_every_k_is_the_book_at_that_k_without_cost(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        ks = range(1, panel.n_stocks // 2 + 1)
        models, _, grid = cutoff_heatmap(result.scores, panel, ks, result.test_dates)
        returns = np.stack([panel.week_returns(d) for d in result.test_dates])
        for col, model in enumerate(models):
            scores = np.stack([result.scores[model][d] for d in result.test_dates])
            for row, k in enumerate(ks):
                long, short = build_long_short(scores, panel.stocks, k)
                series = book_pnl(long, short, returns, 0.0, result.test_dates, panel.stocks)
                assert grid[row, col] == pytest.approx(1e4 * np.mean(series.gross), abs=1e-9)

    def test_cutoff_checks(self, small_backtest):
        panel, cfg, strategies, result = small_backtest
        for ks in ([0], [panel.n_stocks // 2 + 1]):
            with pytest.raises(ValueError):
                cutoff_heatmap(result.scores, panel, ks, result.test_dates)

    def test_held_missing_return_names_stock_and_date(self):
        stocks = ("S2", "S10", "S1", "S3")
        fwd = np.array([[0.03, 0.01, np.nan, -0.02]])
        panel = FactorPanel(("2020-01-03",), stocks, ("f",), np.zeros((1, 4, 1)), fwd)
        scores = {"m": {"2020-01-03": np.array([3.0, 2.0, 1.0, 0.0])}}
        # k = 1 holds S2 and S3 only; k = 2 also holds S1, whose return is missing
        _, _, grid = cutoff_heatmap(scores, panel, [1])
        assert grid[0, 0] == pytest.approx(1e4 * 0.5 * (0.03 + 0.02), abs=1e-9)
        with pytest.raises(DataError, match="S1 on 2020-01-03"):
            cutoff_heatmap(scores, panel, [1, 2])


class TestTrainWindow:
    MODELS = ["listfold-exp", "listfold-sgm", "listmle", "listmle-rvs", "mlp"]

    def _setup(self, stocks):
        panel = generate_synthetic_panel(36, weeks=70, stocks=stocks, factors=5,
                                         signal_strength=0.9, noise_scale=0.4)
        cfg = BacktestConfig(train_len=50, test_len=10, batch_size=4, total_batches=6,
                             seed=2, levels=5)
        plan = fit_norm_params(panel, rolling_windows(panel.n_weeks, 50, 10)[1])
        return panel, cfg, plan

    @pytest.mark.parametrize("stocks", [10, 11])
    def test_shared_lists_train_the_same_nets_as_standalone_training(self, stocks):
        # on the odd universe the listfold models drop the median, the others do not
        panel, cfg, plan = self._setup(stocks)
        wpanel, nets = train_window(panel, plan, self.MODELS, cfg, 1)
        alone = minmax_normalize(panel, plan)
        for model in self.MODELS:
            want = train(alone, plan.localized(), model_train_config(cfg, model, 1))
            for p, q in zip(nets[model].parameters(), want.parameters()):
                assert p.tobytes() == q.tobytes()

    def test_model_does_not_depend_on_its_companions(self):
        panel, cfg, plan = self._setup(11)
        _, together = train_window(panel, plan, self.MODELS, cfg, 1)
        _, alone = train_window(panel, plan, ["listmle"], cfg, 1)
        for p, q in zip(together["listmle"].parameters(), alone["listmle"].parameters()):
            assert p.tobytes() == q.tobytes()


class TestThreads:
    def test_thread_count_does_not_change_results(self):
        panel = generate_synthetic_panel(35, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.9, noise_scale=0.4)
        strategies = standard_strategies(k=2, short_average=False)
        base = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=12,
                              seed=4, cost_bps=30.0, levels=6)
        serial = run_backtest(panel, strategies, base)
        from dataclasses import replace

        threaded = run_backtest(panel, strategies, replace(base, threads=4))
        for name in serial.stats:
            assert serial.stats[name] == threaded.stats[name]
        for name, series in serial.pnl.items():
            assert series.weekly_returns == threaded.pnl[name].weekly_returns
        for model, by_date in serial.scores.items():
            for date, row in by_date.items():
                assert row.tobytes() == threaded.scores[model][date].tobytes()
        assert serial.rank_metrics == threaded.rank_metrics


class TestScoreWindow:
    def test_rows_are_each_weeks_own_scores(self):
        # every row of the stacked (weeks, N) block is its week's forward
        # pass, not a buffer a later week's call overwrote
        panel = generate_synthetic_panel(35, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.9, noise_scale=0.4)
        config = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=5,
                                seed=4, levels=6)
        plan = fit_norm_params(panel, rolling_windows(80, 50, 15)[0])
        models = sorted(backtest.MODEL_SPECS)
        dates, scores = backtest._score_window(panel, plan, models, config, 0)
        wpanel, nets = train_window(panel, plan, models, config, 0)
        for model in models:
            for t, date in enumerate(dates):
                want = forward(nets[model], wpanel.week_features(date))
                if backtest.MODEL_SPECS[model][1]:
                    want = -want
                assert scores[model][t].tobytes() == want.tobytes()
        # the weeks do differ (mlp has no final ReLU, so it cannot clip flat)
        assert len({row.tobytes() for row in scores["mlp"]}) == len(dates)


class TestBatchSizeGrid:
    def test_larger_batches_reduce_seed_dispersion(self):
        # run-to-run variance of the reported bps shrinks when the gradient
        # is averaged over more lists per step (same planted panel, 5 seeds)
        panel = generate_synthetic_panel(44, weeks=80, stocks=12, factors=6,
                                         signal_strength=1.0, noise_scale=0.3)
        strategies = [StrategySpec("ListFold-exp", "listfold-exp", "ls", 2)]
        dispersion = {}
        for bs in (1, 25):
            vals = []
            for seed in range(5):
                cfg = BacktestConfig(train_len=50, test_len=15, batch_size=bs,
                                     total_batches=150, seed=seed, cost_bps=0.0, levels=6)
                res = run_backtest(panel, strategies, cfg)
                vals.append(1e4 * float(np.mean(res.pnl["ListFold-exp"].gross)))
            dispersion[bs] = float(np.std(vals, ddof=1))
        assert dispersion[25] < dispersion[1]

    def test_grid_shape_and_boundary(self):
        panel = generate_synthetic_panel(33, weeks=70, stocks=10, factors=5,
                                         signal_strength=0.8, noise_scale=0.4)
        cfg = BacktestConfig(train_len=50, test_len=10, batch_size=8, total_batches=6,
                             seed=1, cost_bps=0.0, levels=5)
        strategies = [
            StrategySpec("ListFold-exp", "listfold-exp", "ls", 2),
            StrategySpec("ListMLE", "listmle", "ls", 2),
        ]
        # batch size equal to the number of training weeks is the boundary case
        names, sizes, grid = batch_size_grid(panel, [4, 50], strategies, cfg)
        assert names == ["ListFold-exp", "ListMLE"]
        assert sizes == [4, 50]
        assert grid.shape == (2, 2)
        assert np.all(np.isfinite(grid))
