"""Portfolios, pnl accounting, stats fixtures, and the full rolling harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfold.backtest import (
    BacktestConfig,
    PnlSeries,
    StrategySpec,
    batch_size_grid,
    build_list2mle,
    build_long_short,
    build_short_average,
    compute_stats,
    cutoff_heatmap,
    model_train_config,
    standard_strategies,
    run_backtest,
    train_window,
    week_pnl,
)
from listfold.data import (DataError, fit_norm_params, generate_synthetic_panel,
                           minmax_normalize, rolling_windows)
from listfold.neural import train


def series_from(returns, turnover=None):
    s = PnlSeries()
    for i, r in enumerate(returns):
        t = turnover[i] if turnover is not None else 0.0
        s.append(f"W{i:03d}", r, 0.0, r, t)
    return s


class TestBuildLongShort:
    def test_eighty_stocks_k8(self):
        scores = {f"S{i:02d}": float(i) for i in range(80)}
        port = build_long_short("w", scores, 8)
        assert len(port.longs) == 8 and len(port.shorts) == 8
        assert all(w == pytest.approx(1 / 16) for w in port.longs.values())
        assert set(port.longs) == {f"S{i}" for i in range(72, 80)}
        assert set(port.shorts) == {f"S{i:02d}" for i in range(8)}

    def test_two_stocks(self):
        port = build_long_short("w", {"A": 0.5, "B": -0.5}, 1)
        assert port.longs == {"A": 0.5} and port.shorts == {"B": 0.5}

    def test_tie_at_boundary_prefers_lower_stock_id(self):
        scores = {"A": 1.0, "B": 1.0, "C": 0.0, "D": -1.0}
        for _ in range(3):
            port = build_long_short("w", scores, 1)
            assert port.longs == {"A": 0.5}
            assert port.shorts == {"D": 0.5}
        tied_low = build_long_short("w", {"A": 0.0, "B": -1.0, "C": -1.0, "D": 1.0}, 1)
        assert tied_low.shorts == {"B": 0.5}

    def test_universe_too_small(self):
        with pytest.raises(ValueError):
            build_long_short("w", {"A": 1.0, "B": 0.0}, 2)
        with pytest.raises(ValueError):
            build_long_short("w", {"A": 1.0, "B": 0.0}, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 100))
    def test_dollar_neutral(self, k, seed):
        rng = np.random.default_rng(seed)
        scores = {f"S{i}": float(v) for i, v in enumerate(rng.normal(size=16))}
        port = build_long_short("w", scores, k)
        assert abs(sum(port.signed_weights().values())) < 1e-12


class TestBuildShortAverage:
    def test_four_stocks_k1(self):
        port = build_short_average("w", {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0}, 1)
        assert port.longs == {"A": 0.5}
        assert port.shorts == {s: 0.125 for s in "ABCD"}
        assert abs(sum(port.signed_weights().values())) < 1e-12

    def test_all_equal_scores_tie_rule(self):
        port = build_short_average("w", {"C": 1.0, "A": 1.0, "B": 1.0}, 2)
        assert set(port.longs) == {"A", "B"}

    def test_return_identity(self):
        # portfolio return = 0.5 * (mean of top-k returns - mean of all)
        rng = np.random.default_rng(1)
        rets = {f"S{i}": float(r) for i, r in enumerate(rng.uniform(-0.05, 0.05, 10))}
        scores = {s: rets[s] for s in rets}
        port = build_short_average("w", scores, 3)
        got = week_pnl(port, None, rets, 0.0).gross
        top = sorted(rets.values(), reverse=True)[:3]
        want = 0.5 * (np.mean(top) - np.mean(list(rets.values())))
        assert got == pytest.approx(want, abs=1e-15)


class TestBuildList2mle:
    def test_disjoint_tops_look_like_long_short(self):
        fwd = {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0}
        rev = {"A": 0.0, "B": 1.0, "C": 2.0, "D": 3.0}
        port = build_list2mle("w", fwd, rev, 1)
        assert port.longs == {"A": 0.5} and port.shorts == {"D": 0.5}
        assert port.overlap == 0

    def test_identical_scores_report_overlap(self):
        sc = {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0}
        port = build_list2mle("w", sc, sc, 1)
        assert port.overlap == 1
        assert abs(sum(port.signed_weights().values())) < 1e-12

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            build_list2mle("w", {"A": 1.0, "B": 0.0}, {"A": 1.0, "C": 0.0}, 1)


class TestWeekPnl:
    def test_identical_portfolios_no_turnover_no_cost(self):
        port = build_long_short("w", {"A": 2.0, "B": 1.0, "C": 0.0, "D": -1.0}, 1)
        rets = {s: 0.01 for s in "ABCD"}
        wk = week_pnl(port, port, rets, 30.0)
        assert wk.turnover == 0.0 and wk.cost == 0.0

    def test_disjoint_portfolios_full_turnover(self):
        a = build_long_short("w1", {"A": 2.0, "B": 1.0, "C": 0.5, "D": 0.0}, 1)
        b = build_long_short("w2", {"A": 0.0, "B": 2.0, "C": 1.0, "D": 3.0}, 1)
        wk = week_pnl(b, a, {s: 0.0 for s in "ABCD"}, 30.0)
        assert wk.turnover == 1.0
        # full rebuild trades 4 half-units: 2 bps at 30 bps/unit -> 0.5*4*30e-4
        assert wk.cost == pytest.approx(30e-4 * 2.0)

    def test_hand_arithmetic(self):
        port = build_long_short("w", {"A": 1.0, "B": 0.0}, 1)
        wk = week_pnl(port, None, {"A": 0.02, "B": -0.01}, 0.0)
        assert wk.net == pytest.approx(0.5 * 0.02 - 0.5 * (-0.01), abs=1e-15)

    def test_missing_return_rejected(self):
        port = build_long_short("w", {"A": 1.0, "B": 0.0}, 1)
        with pytest.raises(DataError):
            week_pnl(port, None, {"A": 0.01}, 0.0)

    def test_cost_never_helps(self):
        rng = np.random.default_rng(2)
        prev = None
        for i in range(5):
            scores = {f"S{j}": float(v) for j, v in enumerate(rng.normal(size=8))}
            rets = {s: float(r) for s, r in zip(scores, rng.uniform(-0.05, 0.05, 8))}
            port = build_long_short(f"w{i}", scores, 2)
            wk = week_pnl(port, prev, rets, 30.0)
            assert wk.net <= wk.gross + 1e-15
            if wk.turnover == 0:
                assert wk.cost == 0.0
            prev = port


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
        sc = dict(zip(panel.stocks, result.scores["listfold-exp"][date]))
        port = build_long_short(date, sc, 2)
        rets = dict(zip(panel.stocks, panel.week_returns(date)))
        long_leg = sum(w * rets[s] for s, w in port.longs.items())
        short_leg = -sum(w * rets[s] for s, w in port.shorts.items())
        assert series.gross[0] == pytest.approx(long_leg + short_leg, abs=1e-15)

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
