"""Portfolios, pnl accounting, stats fixtures, and the full rolling harness."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle
from listfold import backtest, metrics
from listfold.backtest import (
    MODEL_SPECS,
    BacktestConfig,
    PnlSeries,
    StrategySpec,
    batch_size_grid,
    book_pnl,
    build_long_short,
    build_short_average,
    compute_stats,
    cutoff_heatmap,
    model_train_config,
    standard_strategies,
    run_backtest,
    strategy_lineup,
    train_window,
)
from listfold.data import (DataError, FactorPanel, WindowPlan, decile_labels,
                           fit_norm_params, generate_synthetic_panel, minmax_normalize,
                           ranked_train_weeks, rolling_windows)
from listfold.neural import forward, train
from test_metrics import blocks


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
    """The (long, short) {stock: weight} dicts of a one-week book; a
    build_long_short book takes both legs from the one model's scores."""
    sc, stocks = week(scores)
    legs = (sc, sc) if builder is build_long_short else (sc,)
    long, short = builder(*legs, stocks, k)
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
            build_long_short(sc, sc, stocks, 2)
        with pytest.raises(ValueError):
            build_long_short(sc, sc, stocks, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 100))
    def test_dollar_neutral(self, k, seed):
        rng = np.random.default_rng(seed)
        sc, stocks = week({f"S{i}": float(v) for i, v in enumerate(rng.normal(size=16))})
        long, short = build_long_short(sc, sc, stocks, k)
        assert abs(np.sum(long - short)) < 1e-12

    def test_every_week_is_built_alone(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 4, size=(6, 10)).astype(float)
        stocks = tuple(f"S{j}" for j in rng.permutation(10))
        long, short = build_long_short(scores, scores, stocks, 3)
        for w in range(6):
            one_week = scores[w:w + 1]
            one_long, one_short = build_long_short(one_week, one_week, stocks, 3)
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
        long, short = build_long_short(fwd, rvs, stocks, 1)
        assert held(long, stocks) == {"A": 0.5} and held(short, stocks) == {"D": 0.5}
        assert overlap(long, short) == 0

    def test_identical_scores_report_overlap(self):
        sc, stocks = week({"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0})
        long, short = build_long_short(sc, -sc, stocks, 1)
        assert overlap(long, short) == 1
        assert abs(np.sum(long - short)) < 1e-12

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            build_long_short(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 2.0]]), ("A", "B"),
                             1)


class TestWeekPnl:
    def test_identical_portfolios_no_turnover_no_cost(self):
        sc, stocks = week({"A": 2.0, "B": 1.0, "C": 0.0, "D": -1.0})
        both = np.vstack([sc, sc])
        long, short = build_long_short(both, both, stocks, 1)
        _, cost, _, trv = price_week(long, short, {s: 0.01 for s in "ABCD"}, 30.0, row=1)
        assert trv == 0.0 and cost == 0.0

    def test_disjoint_portfolios_full_turnover(self):
        a, stocks = week({"A": 2.0, "B": 1.0, "C": 0.5, "D": 0.0})
        b, _ = week({"A": 0.0, "B": 2.0, "C": 1.0, "D": 3.0})
        both = np.vstack([a, b])
        long, short = build_long_short(both, both, stocks, 1)
        _, cost, _, trv = price_week(long, short, {s: 0.0 for s in "ABCD"}, 30.0, row=1)
        assert trv == 1.0
        # full rebuild trades 4 half-units: 2 bps at 30 bps/unit -> 0.5*4*30e-4
        assert cost == pytest.approx(30e-4 * 2.0)

    def test_first_week_trades_from_flat(self):
        sc, stocks = week({"A": 2.0, "B": 1.0, "C": 0.0, "D": -1.0})
        long, short = build_long_short(sc, sc, stocks, 1)
        _, cost, _, trv = price_week(long, short, {s: 0.0 for s in "ABCD"}, 30.0)
        assert trv == 1.0 and cost == pytest.approx(30e-4 * 1.0)

    def test_hand_arithmetic(self):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        long, short = build_long_short(sc, sc, stocks, 1)
        net = price_week(long, short, {"A": 0.02, "B": -0.01}, 0.0)[2]
        assert net == pytest.approx(0.5 * 0.02 - 0.5 * (-0.01), abs=1e-15)

    def test_missing_return_rejected(self):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        long, short = build_long_short(sc, sc, stocks, 1)
        with pytest.raises(DataError, match="held stock B on w0"):
            price_week(long, short, {"A": 0.01, "B": np.nan}, 0.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_return_is_not_called_missing(self, value):
        sc, stocks = week({"A": 1.0, "B": 0.0})
        long, short = build_long_short(sc, sc, stocks, 1)
        with pytest.raises(DataError, match="^infinite realized return for held stock B on w0$"):
            price_week(long, short, {"A": 0.01, "B": value}, 0.0)

    def test_unheld_missing_return_is_ignored(self):
        sc, stocks = week({"A": 2.0, "B": 1.0, "C": 0.0})
        long, short = build_long_short(sc, sc, stocks, 1)
        gross = price_week(long, short, {"A": 0.02, "B": np.nan, "C": -0.01}, 0.0)[0]
        assert gross == pytest.approx(0.5 * 0.02 - 0.5 * (-0.01), abs=1e-15)

    @pytest.mark.parametrize("shapes, n_dates", [
        (((3, 8), (3, 8), (3, 8)), 2),  # once priced 3 weeks under 2 dates
        (((3, 8), (3, 8), (3, 8)), 4),
        (((3, 8), (2, 8), (3, 8)), 3),
        (((3, 8), (3, 8), (3, 7)), 3),
    ])
    def test_weights_returns_and_dates_that_do_not_match(self, shapes, n_dates):
        long, short, rets = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="do not match"):
            book_pnl(long, short, rets, 30.0, [f"w{i}" for i in range(n_dates)],
                     tuple(f"S{j}" for j in range(8)))

    def test_cost_never_helps(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(5, 8))
        rets = rng.uniform(-0.05, 0.05, size=(5, 8))
        stocks = tuple(f"S{j}" for j in range(8))
        long, short = build_long_short(scores, scores, stocks, 2)
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
        if mode == "sa":
            long, short = build_short_average(fwd, ids, k)
        else:
            long, short = build_long_short(fwd, rvs, ids, k)
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
                         seed=2, cost_bps=30.0)
    strategies = standard_strategies(k=2)
    return panel, cfg, strategies, run_backtest(panel, strategies, cfg)


# 90 weeks in 5 rolling windows of 40 training and 10 test weeks
LOOKAHEAD_CONFIG = BacktestConfig(train_len=40, test_len=10, batch_size=4, total_batches=6,
                                  seed=3)


def run_with_books(panel, monkeypatch):
    """run_backtest on the standard lineup at k = 2, and every (long, short)
    book it built, in build order."""
    books = []
    for name in ("build_long_short", "build_short_average"):
        def spy(*args, _build=getattr(backtest, name), **kwargs):
            books.append(_build(*args, **kwargs))
            return books[-1]
        monkeypatch.setattr(backtest, name, spy)
    return run_backtest(panel, standard_strategies(k=2), LOOKAHEAD_CONFIG), books


@pytest.fixture(scope="module")
def lookahead_base():
    panel = generate_synthetic_panel(41, weeks=90, stocks=12, factors=5,
                                     signal_strength=1.0, noise_scale=0.5)
    with pytest.MonkeyPatch.context() as mp:
        return (panel, *run_with_books(panel, mp))


class TestNoLookahead:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(40, 89), st.integers(0, 2**32 - 1))
    def test_a_test_week_reads_nothing_after_it(self, lookahead_base, t, seed):
        # noise in every factor after week t and in every return from the
        # first test week of t's window on leaves t's scores and books as
        # they were: normalization, training, scoring and the books all
        # stop short of it
        panel, base, base_books = lookahead_base
        cfg = LOOKAHEAD_CONFIG
        test_start = t - (t - cfg.train_len) % cfg.test_len
        rng = np.random.default_rng(seed)
        factors = panel.factors.copy()
        factors[t + 1:] = rng.standard_normal(factors[t + 1:].shape)
        returns = panel.fwd_return.copy()
        returns[test_start:] = 0.02 * rng.standard_normal(returns[test_start:].shape)
        with pytest.MonkeyPatch.context() as mp:
            result, books = run_with_books(replace(panel, factors=factors, fwd_return=returns),
                                           mp)
        date = panel.dates[t]
        row = base.test_dates.index(date)
        for model, by_date in base.scores.items():
            assert result.scores[model][date].tobytes() == by_date[date].tobytes(), model
        assert len(books) == len(base_books) == 9
        for (long, short), (base_long, base_short) in zip(books, base_books):
            assert long[row].tobytes() == base_long[row].tobytes()
            assert short[row].tobytes() == base_short[row].tobytes()


class TestBacktestConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("train_len", 0, "train_len: must be >= 1"),
        ("test_len", 0, "test_len: must be >= 1"),
        ("batch_size", 0, "batch_size: must be >= 1"),
        ("total_batches", -1, "total_batches: must be >= 0"),
        ("learning_rate", float("nan"), "learning_rate: must be finite and > 0"),
        ("learning_rate", float("inf"), "learning_rate: must be finite and > 0"),
        ("learning_rate", 0.0, "learning_rate: must be finite and > 0"),
        ("learning_rate", -1e-3, "learning_rate: must be finite and > 0"),
        ("cost_bps", float("nan"), "cost_bps: must be finite and >= 0"),
        ("cost_bps", float("inf"), "cost_bps: must be finite and >= 0"),
        ("cost_bps", -50.0, "cost_bps: must be finite and >= 0"),
        ("rf_annual", float("nan"), "rf_annual: must be finite"),
        ("rf_annual", float("-inf"), "rf_annual: must be finite"),
    ])
    def test_out_of_range_value_names_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BacktestConfig(**{field: value})

    def test_edge_values_accepted(self):
        BacktestConfig(train_len=1, test_len=1, batch_size=1, total_batches=0,
                       learning_rate=1e-12, cost_bps=0.0, rf_annual=-0.01)


class TestStrategySpec:
    def test_unknown_short_model_named_when_built(self):
        with pytest.raises(ValueError, match="unknown model 'listmle-fwd'"):
            StrategySpec("ListMLE", "listmle", "listmle-fwd", 2)

    def test_unknown_model_named_when_built(self):
        with pytest.raises(ValueError, match="unknown model 'listfool'"):
            StrategySpec("ListFool", "listfool", None, 2)

    def test_model_train_config_names_an_unknown_model_as_the_spec_does(self):
        with pytest.raises(ValueError) as from_spec:
            StrategySpec("ListFool", "listfool", None, 2)
        with pytest.raises(ValueError) as from_config:
            model_train_config(BacktestConfig(), "listfool", 0)
        assert str(from_config.value) == str(from_spec.value)

    def test_required_models_of_each_lineup_shape(self):
        ls, sa, pair = strategy_lineup(["listmle", "list2mle"], 2)
        assert (ls.name, ls.long, ls.short) == ("ListMLE", "listmle", "listmle")
        assert (sa.name, sa.long, sa.short) == ("ListMLE-sa", "listmle", None)
        assert (pair.name, pair.long, pair.short) == ("List2MLE", "listmle", "listmle-rvs")
        assert ls.required_models() == sa.required_models() == ("listmle",)
        assert pair.required_models() == ("listmle", "listmle-rvs")

    def test_check_universe_takes_one_side_only_without_a_short_model(self):
        for spec, fits in [(StrategySpec("A", "mlp", None, 3), (3, 4, 5)),
                           (StrategySpec("B", "mlp", "mlp", 3), (6, 7)),
                           (StrategySpec("C", "listmle", "listmle-rvs", 3), (6, 7))]:
            for n in fits:
                spec.check_universe(n)
            with pytest.raises(ValueError, match="too small"):
                spec.check_universe(fits[0] - 1)


class TestStrategyLineup:
    def test_unknown_key_names_the_field_and_the_key(self):
        # a bare KeyError 'listfool' once
        with pytest.raises(ValueError, match=r"^strategies: unknown model 'listfool' "
                                             r"\(known: listfold-exp, .*list2mle\)$"):
            strategy_lineup(["listfool"], 8)

    def test_unknown_key_after_known_ones(self):
        with pytest.raises(ValueError, match="unknown model 'listmle-fwd'"):
            strategy_lineup(["mlp", "listmle-fwd"], 2)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_names_k(self, k):
        with pytest.raises(ValueError, match="^k: must be >= 1$"):
            strategy_lineup(["mlp"], k)

    def test_empty_lineup_names_strategies(self):
        with pytest.raises(ValueError, match="^strategies: empty strategy list$"):
            strategy_lineup([], 8)


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
        # the book whose legs come from two models reports its long/short
        # overlap diagnostic, and no one-model book does
        assert list(result.overlap_per_week) == ["List2MLE"]
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
        scores = result.scores["listfold-exp"][date][None, :]
        long, short = build_long_short(scores, scores, panel.stocks, 2)
        rets = dict(zip(panel.stocks, panel.week_returns(date)))
        long_leg = sum(w * rets[s] for s, w in held(long, panel.stocks).items())
        short_leg = -sum(w * rets[s] for s, w in held(short, panel.stocks).items())
        assert series.gross[0] == pytest.approx(long_leg + short_leg, abs=1e-15)

    def test_mixed_k_lineup_rejected(self):
        panel = generate_synthetic_panel(32, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=1)
        strategies = [StrategySpec("ListMLE", "listmle", "listmle", 2),
                      StrategySpec("ListMLE-sa", "listmle", None, 3)]
        with pytest.raises(ValueError, match=r"\[2, 3\]"):
            run_backtest(panel, strategies, cfg)

    def test_empty_lineup_rejected_before_any_week_is_checked(self, monkeypatch):
        # it checked every week, then returned a result of no strategies
        panel = generate_synthetic_panel(32, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=1)
        for name in ("check_returns", "check_factor_cells"):
            monkeypatch.setattr(FactorPanel, name, lambda *a: pytest.fail("a week was checked"))
        monkeypatch.setattr(backtest, "_score_window",
                            lambda *a: pytest.fail("a window was scored"))
        with pytest.raises(ValueError, match="^strategies: empty strategy list$"):
            run_backtest(panel, [], cfg)

    def test_k_too_large_for_universe_rejected_before_training(self, monkeypatch):
        panel = generate_synthetic_panel(32, weeks=80, stocks=6, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=1)

        def no_training(*args, **kwargs):
            raise AssertionError("a window was scored")

        monkeypatch.setattr(backtest, "_score_window", no_training)
        with pytest.raises(ValueError, match="universe"):
            run_backtest(panel, standard_strategies(k=4), cfg)

    def test_missing_return_of_an_unheld_stock_names_week_and_stock(self):
        # a book ignores it, but IC and NDCG rank every stock; week 70 is
        # tested, never trained on, so the scores do not move
        panel = generate_synthetic_panel(32, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.5, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=2,
                             seed=5)
        strategies = [StrategySpec("ListFold-exp", "listfold-exp", "listfold-exp", 2)]
        date = panel.dates[70]
        order = np.argsort(run_backtest(panel, strategies, cfg).scores["listfold-exp"][date])
        unheld = order[6]  # a middle rank: no top 2 or bottom 2 book holds it
        returns = panel.fwd_return.copy()
        returns[70, unheld] = np.nan
        with pytest.raises(DataError, match=f"^week {date}: missing forward return for "
                                            f"stock {panel.stocks[unheld]}$"):
            run_backtest(replace(panel, fwd_return=returns), strategies, cfg)

    @pytest.mark.parametrize("week,value,kind", [
        (35, np.inf, "infinite"),  # a test week, on a stock no book holds
        (35, -np.inf, "infinite"),
        (39, np.nan, "missing"),  # the last test week
        (3, np.inf, "infinite"),  # a training week
    ])
    def test_non_finite_return_named_before_training(self, week, value, kind, monkeypatch):
        # an infinite unheld return once passed and moved ndcg; a held one
        # was called missing, after all the training
        panel = generate_synthetic_panel(0, weeks=40, stocks=12, factors=4,
                                         signal_strength=0.5, noise_scale=1.0)
        returns = panel.fwd_return.copy()
        returns[week, 2] = value
        monkeypatch.setattr(backtest, "_score_window",
                            lambda *args: pytest.fail("a window was scored"))
        cfg = BacktestConfig(train_len=24, test_len=8, batch_size=4, total_batches=2)
        strategies = [StrategySpec("ListFold-exp", "listfold-exp", "listfold-exp", 2)]
        with pytest.raises(DataError, match=f"^week {panel.dates[week]}: {kind} forward "
                                            f"return for stock S0002$"):
            run_backtest(replace(panel, fwd_return=returns), strategies, cfg)

    def test_one_test_week_is_a_data_error_before_training(self, monkeypatch):
        # compute_stats needs two returns; its ValueError came after training
        panel = generate_synthetic_panel(1, weeks=21, stocks=6, factors=3,
                                         signal_strength=0.5, noise_scale=1.0)
        monkeypatch.setattr(backtest, "_score_window",
                            lambda *args: pytest.fail("a window was scored"))
        cfg = BacktestConfig(train_len=20, test_len=1, batch_size=2, total_batches=1)
        with pytest.raises(DataError, match="^insufficient data: 1 test week"):
            run_backtest(panel, standard_strategies(k=1), cfg)

    def test_missing_factor_in_a_training_week_names_factor_and_stock(self):
        panel = generate_synthetic_panel(32, weeks=60, stocks=20, factors=4,
                                         signal_strength=0.5, noise_scale=1.0)
        factors = panel.factors.copy()
        factors[3, 7, 2] = np.nan  # week 3 is trained on, never tested
        cfg = BacktestConfig(train_len=30, test_len=10, batch_size=2, total_batches=2)
        with pytest.raises(DataError, match=f"^week {panel.dates[3]}: missing factor "
                                            f"{panel.factor_names[2]} for stock "
                                            f"{panel.stocks[7]}$"):
            run_backtest(replace(panel, factors=factors), standard_strategies(k=2), cfg)

    def test_zero_signal_panel_runs_clean(self):
        panel = generate_synthetic_panel(32, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.0, noise_scale=1.0)
        cfg = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=10,
                             seed=5, cost_bps=30.0)
        result = run_backtest(panel, standard_strategies(k=2), cfg)
        assert len(result.test_dates) == 30
        for stats in result.stats.values():
            assert np.isfinite(stats.mu_excess)


class TestModelRankMetrics:
    @settings(max_examples=80, deadline=None)
    @given(blocks())
    def test_matches_per_week_loop(self, case):
        # the five weekly averages of the (weeks, N) block equal the former
        # per-week loop's bit for bit: ties, zero bottoms, constant rows
        scores, returns, k, levels = case
        # stock ids out of column order, so the tie rule is not column order
        stocks = [f"S{j:03d}" for j in np.random.default_rng(k).permutation(scores.shape[1])]
        got = backtest._model_rank_metrics(scores, returns, stocks, k=k, levels=levels)
        want = metrics_oracle.model_rank_metrics(scores, returns, stocks, k=k, levels=levels)
        assert list(got) == list(want)
        for name in want:
            assert np.float64(got[name]).tobytes() == np.float64(want[name]).tobytes(), name

    def test_missing_return_raises(self):
        returns = np.arange(12.0).reshape(2, 6)
        returns[1, 3] = np.nan
        with pytest.raises(DataError, match="missing"):
            backtest._model_rank_metrics(np.ones((2, 6)), returns, list("abcdef"), k=2,
                                         levels=3)


class TestRankMetricsTieRule:
    def test_each_end_scores_the_names_its_leg_holds(self, monkeypatch):
        # the tables-book benchmark shape at seed 7919, where the token
        # training leaves tied scores across the k cut in many test weeks
        k = 8
        panel = generate_synthetic_panel(7919, weeks=104, stocks=80, factors=68,
                                         signal_strength=0.8, noise_scale=0.5)
        cfg = BacktestConfig(train_len=40, test_len=32, batch_size=1, total_batches=4,
                             seed=7919)
        seen = []  # per model: its scores, the NDCG@k top-k and NDCG@-k bottom-k sets
        depth = [0]  # ndcg_pm_k and ndcg_at_minus_k call ndcg_at_k themselves
        real_model = backtest._model_rank_metrics

        def model_spy(scores, *args, **kwargs):
            seen.append((scores, [], []))
            return real_model(scores, *args, **kwargs)

        def end_spy(real, end, first_at_that_end):
            def spy(rank_eval, *args, **kwargs):
                if depth[0] == 0 and rank_eval.k == k:
                    seen[-1][end].append(first_at_that_end(rank_eval.predicted_order)[:, :k])
                depth[0] += 1
                try:
                    return real(rank_eval, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return spy

        monkeypatch.setattr(backtest, "_model_rank_metrics", model_spy)
        monkeypatch.setattr(metrics, "ndcg_at_k", end_spy(metrics.ndcg_at_k, 1, lambda o: o))
        monkeypatch.setattr(metrics, "ndcg_at_minus_k",
                            end_spy(metrics.ndcg_at_minus_k, 2, lambda o: o[:, ::-1]))
        run_backtest(panel, standard_strategies(k=k), cfg)
        assert len(seen) == 5
        tied_weeks = 0
        for scores, tops, bottoms in seen:
            long, short = build_long_short(scores, scores, panel.stocks, k)
            assert tops and bottoms
            for cut, leg in [(top, long) for top in tops] + [(bot, short) for bot in bottoms]:
                for week, names in enumerate(cut):
                    assert set(names.tolist()) == set(np.flatnonzero(leg[week]).tolist())
            ordered = np.sort(scores, axis=1)
            tied_weeks += int(np.sum(ordered[:, k - 1] == ordered[:, k]))
        assert tied_weeks > 0

    def test_pm_k_is_not_ndcg_pm_k_of_the_top_order_on_ties(self):
        # four equal scores: the long leg holds stock a, the short leg a
        # too, so the bottom end scores a's top label in the short leg's
        # order, where ndcg_pm_k of the one top order would score d
        scores, returns = np.zeros((1, 4)), np.array([[4.0, 3.0, 2.0, 1.0]])
        got = backtest._model_rank_metrics(scores, returns, list("abcd"), k=1, levels=4)
        assert got["ndcg_pm_k"] == pytest.approx(8 / 15)  # 0.5333
        top = backtest._rank(scores, list("abcd"))
        labels = decile_labels(returns, levels=4)
        assert metrics.ndcg_pm_k(metrics.RankEval(top, labels, 1), 4) == pytest.approx(1.0)


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
                long, short = build_long_short(scores, scores, panel.stocks, k)
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
        _, _, grid = cutoff_heatmap(scores, panel, [1], panel.dates)
        assert grid[0, 0] == pytest.approx(1e4 * 0.5 * (0.03 + 0.02), abs=1e-9)
        with pytest.raises(DataError, match="S1 on 2020-01-03"):
            cutoff_heatmap(scores, panel, [1, 2], panel.dates)

    def test_held_infinite_return_is_not_called_missing(self):
        fwd = np.array([[0.03, 0.01, np.inf, -0.02]])
        panel = FactorPanel(("2020-01-03",), ("S2", "S10", "S1", "S3"), ("f",),
                            np.zeros((1, 4, 1)), fwd)
        scores = {"m": {"2020-01-03": np.array([3.0, 2.0, 1.0, 0.0])}}
        with pytest.raises(DataError, match="^infinite realized return for held stock S1 on "
                                            "2020-01-03$"):
            cutoff_heatmap(scores, panel, [2], panel.dates)


class TestTrainWindow:
    MODELS = sorted(MODEL_SPECS)

    def _setup(self, stocks):
        """Window 1 (train weeks 10-59, test weeks 60-69) of a panel with a
        factor constant over the training weeks, which maps to 0.5, and a
        factor whose test weeks leave the fitted range."""
        panel = generate_synthetic_panel(36, weeks=70, stocks=stocks, factors=5,
                                         signal_strength=0.9, noise_scale=0.4)
        factors = panel.factors.copy()
        factors[10:60, :, 0] = 0.25
        factors[60:, :, 1] *= 4.0
        panel = replace(panel, factors=factors)
        cfg = BacktestConfig(train_len=50, test_len=10, batch_size=4, total_batches=6,
                             seed=2)
        return panel, cfg, rolling_windows(panel.n_weeks, 50, 10)[1]

    @pytest.mark.parametrize("stocks", [10, 11])
    def test_shared_lists_train_the_same_nets_as_standalone_training(self, stocks):
        # the reference normalizes the window once and trains and scores
        # networks without an input map on it; on the odd universe the
        # listfold and naive-pt models drop the median, the others do not
        panel, cfg, plan = self._setup(stocks)
        nets = train_window(panel, plan, self.MODELS, cfg, 1)
        dates, scores = backtest._score_window(panel, plan, self.MODELS, cfg, 1)
        alone = minmax_normalize(panel, plan)
        test_block = alone.factors[plan.train_len:]
        assert np.all(alone.factors[:, :, 0] == 0.5)
        assert test_block.min() < 0.0 and test_block.max() > 1.0
        # the plan re-indexed for the window copy, trained with no input map
        tl = plan.train_len
        plain = WindowPlan((0, tl), (tl, tl + plan.test_len))
        norm = fit_norm_params(panel, plan)
        for model in self.MODELS:
            config = model_train_config(cfg, model, 1)
            lists = ranked_train_weeks(alone, plain, require_even=config.loss.even_length)
            want = train(lists, None, config)
            assert want.norm_params is None
            # one map, fitted once, carried by every model of the window
            assert nets[model].norm_params is nets[self.MODELS[0]].norm_params
            for got, fitted in zip(nets[model].norm_params, norm):
                assert got.tobytes() == fitted.tobytes()
            for p, q in zip(nets[model].parameters(), want.parameters()):
                assert p.tobytes() == q.tobytes()
            for t, date in enumerate(dates):
                expected = forward(want, alone.week_features(date))
                if MODEL_SPECS[model][1]:
                    expected = -expected
                assert scores[model][t].tobytes() == expected.tobytes()

    def test_model_does_not_depend_on_its_companions(self):
        panel, cfg, plan = self._setup(11)
        together = train_window(panel, plan, self.MODELS, cfg, 1)
        alone = train_window(panel, plan, ["listmle"], cfg, 1)
        for p, q in zip(together["listmle"].parameters(), alone["listmle"].parameters()):
            assert p.tobytes() == q.tobytes()

    def test_unknown_model_is_a_value_error_naming_it(self):
        # a bare KeyError 'listfool' once
        panel, cfg, plan = self._setup(10)
        with pytest.raises(ValueError, match="^unknown model 'listfool' \\(known: "):
            train_window(panel, plan, ["mlp", "listfool"], cfg, 1)

    def test_training_and_scoring_hold_no_copy_of_the_window(self):
        # 400 training weeks of 40 stocks x 32 factors: the window's factors
        # take 4.2 MB, a step's workspace on 2 lists of 40 rows under 0.1 MB.
        # A normalized copy of the window peaked at 5.5 MB, 1.3x the window
        panel = generate_synthetic_panel(3, weeks=410, stocks=40, factors=32,
                                         signal_strength=0.9, noise_scale=0.4)
        cfg = BacktestConfig(train_len=400, test_len=10, batch_size=2, total_batches=3,
                             seed=1)
        plan = rolling_windows(panel.n_weeks, 400, 10)[0]
        window = panel.factors[plan.train_range[0]:plan.test_range[1]]
        tracemalloc.start()
        try:
            backtest._score_window(panel, plan, ["listfold-exp", "mlp"], cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window.nbytes


class TestScoreWindow:
    def test_rows_are_each_weeks_own_scores(self):
        # every row of the stacked (weeks, N) block is its week's forward
        # pass, not a buffer a later week's call overwrote
        panel = generate_synthetic_panel(35, weeks=80, stocks=12, factors=6,
                                         signal_strength=0.9, noise_scale=0.4)
        config = BacktestConfig(train_len=50, test_len=15, batch_size=4, total_batches=5,
                                seed=4)
        plan = rolling_windows(80, 50, 15)[0]
        models = sorted(backtest.MODEL_SPECS)
        dates, scores = backtest._score_window(panel, plan, models, config, 0)
        nets = train_window(panel, plan, models, config, 0)
        for model in models:
            for t, date in enumerate(dates):
                want = forward(nets[model], panel.week_features(date))
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
        strategies = [StrategySpec("ListFold-exp", "listfold-exp", "listfold-exp", 2)]
        dispersion = {}
        for bs in (1, 25):
            vals = []
            for seed in range(5):
                cfg = BacktestConfig(train_len=50, test_len=15, batch_size=bs,
                                     total_batches=150, seed=seed, cost_bps=0.0)
                res = run_backtest(panel, strategies, cfg)
                vals.append(1e4 * float(np.mean(res.pnl["ListFold-exp"].gross)))
            dispersion[bs] = float(np.std(vals, ddof=1))
        assert dispersion[25] < dispersion[1]

    def test_grid_shape_and_boundary(self):
        panel = generate_synthetic_panel(33, weeks=70, stocks=10, factors=5,
                                         signal_strength=0.8, noise_scale=0.4)
        cfg = BacktestConfig(train_len=50, test_len=10, batch_size=8, total_batches=6,
                             seed=1, cost_bps=0.0)
        strategies = [
            StrategySpec("ListFold-exp", "listfold-exp", "listfold-exp", 2),
            StrategySpec("ListMLE", "listmle", "listmle", 2),
        ]
        # batch size equal to the number of training weeks is the boundary case
        names, sizes, grid = batch_size_grid(panel, [4, 50], strategies, cfg)
        assert names == ["ListFold-exp", "ListMLE"]
        assert sizes == [4, 50]
        assert grid.shape == (2, 2)
        assert np.all(np.isfinite(grid))
