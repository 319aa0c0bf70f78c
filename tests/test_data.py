"""Panel ingestion, normalization, labels, windows, synthetic data."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listfold.data import (
    DataError,
    FactorPanel,
    ParseError,
    RankedBatch,
    build_ranked_batch,
    decile_labels,
    fit_norm_params,
    generate_synthetic_panel,
    load_panel,
    minmax_normalize,
    planted_coefficients,
    rolling_windows,
    save_panel,
    WindowPlan,
    _write_whole,
    apply_norm_params,
)
from listfold.backtest import _write_table
from listfold.metrics import spearman_ic


def tiny_panel(factors, fwd, dates=None, stocks=None, names=None):
    factors = np.asarray(factors, dtype=float)
    fwd = np.asarray(fwd, dtype=float)
    d, s, f = factors.shape
    return FactorPanel(
        dates=tuple(dates or (f"W{i:05d}" for i in range(d))),
        stocks=tuple(stocks or (f"S{j}" for j in range(s))),
        factor_names=tuple(names or (f"f{k}" for k in range(f))),
        factors=factors,
        fwd_return=fwd,
    )


class TestLoadSave:
    def test_three_row_csv(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "date,stock,fwd_ret,alpha\n"
            "2020-01-03,A,0.01,1.5\n"
            "2020-01-03,B,-0.02,0.5\n"
            "2020-01-03,C,0.0,2.5\n"
        )
        panel = load_panel(p)
        assert panel.n_weeks == 1
        assert panel.stocks == ("A", "B", "C")
        assert panel.factor_names == ("alpha",)
        np.testing.assert_allclose(panel.week_returns("2020-01-03"), [0.01, -0.02, 0.0])

    def test_duplicate_row_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text(
            "date,stock,fwd_ret,alpha\n"
            "2020-01-03,A,0.01,1.5\n"
            "2020-01-03,A,0.02,1.6\n"
        )
        with pytest.raises(ParseError, match=r"2020-01-03.*A"):
            load_panel(p)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,stock,fwd_ret,alpha\n2020-01-03,A,0.01,oops\n")
        with pytest.raises(ParseError, match="row 2"):
            load_panel(p)

    def test_short_row_names_row_and_field_counts(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("date,stock,fwd_ret,alpha\n"
                     "2020-01-03,A,0.01,1.5\n"
                     "2020-01-03,B,0.02\n")
        with pytest.raises(ParseError, match="row 3: 3 fields, the header has 4"):
            load_panel(p)

    @pytest.mark.parametrize("header, dup", [("date,stock,fwd_ret,f1,f1", "f1"),
                                             ("date,stock,fwd_ret,f1,stock", "stock")])
    def test_duplicate_header_name_rejected(self, tmp_path, header, dup):
        # a repeated name used to map both factors to the second column, or
        # make a second stock column the stock id
        p = tmp_path / "duphead.csv"
        p.write_text(f"{header}\n2020-01-03,A,0.01,1.5,B\n")
        with pytest.raises(ParseError, match=f"duplicate column '{dup}'"):
            load_panel(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_panel(tmp_path / "nope.csv")

    def test_missing_cells_become_nan(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text(
            "date,stock,fwd_ret,alpha\n"
            "2020-01-03,A,0.01,\n"
            "2020-01-03,B,,0.5\n"
        )
        panel = load_panel(p)
        assert np.isnan(panel.factors[0, 0, 0])
        assert np.isnan(panel.fwd_return[0, 1])

    def test_small_roundtrip_bit_identical(self, tmp_path):
        panel = generate_synthetic_panel(3, weeks=12, stocks=5, factors=4,
                                         signal_strength=0.5)
        path = tmp_path / "rt.csv"
        save_panel(panel, path)
        back = load_panel(path)
        assert back.dates == panel.dates
        assert back.stocks == panel.stocks
        assert back.factor_names == panel.factor_names
        np.testing.assert_array_equal(back.factors, panel.factors)
        np.testing.assert_array_equal(back.fwd_return, panel.fwd_return)

    def test_full_scale_roundtrip_bit_identical(self, tmp_path):
        # the headline panel shape: every float must survive the CSV exactly
        panel = generate_synthetic_panel(1, weeks=631, stocks=80, factors=68,
                                         signal_strength=0.7)
        path = tmp_path / "big.csv"
        save_panel(panel, path)
        back = load_panel(path)
        np.testing.assert_array_equal(back.factors, panel.factors)
        np.testing.assert_array_equal(back.fwd_return, panel.fwd_return)
        assert back.dates == panel.dates and back.stocks == panel.stocks


class TestWindowPlan:
    @pytest.mark.parametrize("train, test, message", [
        ((5, 5), (5, 8), "empty train range"),
        ((6, 5), (5, 8), "empty train range"),
        ((0, 5), (6, 8), "test range must immediately follow train range"),
        ((0, 5), (4, 8), "test range must immediately follow train range"),
    ], ids=["empty", "reversed", "gap", "overlap"])
    def test_bad_ranges_rejected(self, train, test, message):
        # a bad plan is refused where it is built, before any fit or training
        with pytest.raises(DataError, match=message):
            WindowPlan(train, test)


class TestMinMaxNormalize:
    def test_train_window_maps_to_unit_interval(self):
        factors = np.array([[[0.0]], [[5.0]], [[10.0]], [[7.5]]])
        panel = tiny_panel(factors, np.zeros((4, 1)))
        plan = WindowPlan((0, 3), (3, 4))
        out = minmax_normalize(panel, plan)
        np.testing.assert_allclose(out.factors[:3, 0, 0], [0.0, 0.5, 1.0])

    def test_constant_factor_maps_to_midpoint(self):
        factors = np.full((3, 2, 1), 3.0)
        panel = tiny_panel(factors, np.zeros((3, 2)))
        out = minmax_normalize(panel, WindowPlan((0, 2), (2, 3)))
        np.testing.assert_array_equal(out.factors, np.full((3, 2, 1), 0.5))

    def test_test_window_may_leave_unit_interval(self):
        factors = np.array([[[0.0]], [[10.0]], [[12.0]]])
        panel = tiny_panel(factors, np.zeros((3, 1)))
        out = minmax_normalize(panel, WindowPlan((0, 2), (2, 3)))
        assert out.factors[2, 0, 0] == pytest.approx(1.2)

    def test_no_leakage_refit_reproduces_params(self):
        panel = generate_synthetic_panel(5, weeks=30, stocks=6, factors=4,
                                         signal_strength=0.3)
        mins, maxs = fit_norm_params(panel, WindowPlan((0, 20), (20, 30)))
        refit_mins, refit_maxs = fit_norm_params(panel.slice_weeks(0, 20),
                                                 WindowPlan((0, 20), (20, 20)))
        np.testing.assert_array_equal(mins, refit_mins)
        np.testing.assert_array_equal(maxs, refit_maxs)

    def test_apply_matches_expression_and_keeps_input(self):
        rng = np.random.default_rng(3)
        factors = rng.normal(size=(5, 4, 3))
        factors[1, 2, 0] = np.nan
        before = factors.copy()
        mins, maxs = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.5, 3.0])
        out = apply_norm_params(factors, mins, maxs)
        want = (factors - mins) / np.array([2.0, 1.0, 1.0])
        want[..., 1] = 0.5
        assert out.tobytes() == want.tobytes()
        assert factors.tobytes() == before.tobytes()
        # the networks map their feature buffer in place
        assert apply_norm_params(before, mins, maxs, out=before) is before
        assert before.tobytes() == want.tobytes()

    def test_apply_peak_is_its_output(self):
        # a 316-week window of the headline shape: the two-temporary
        # expression peaked at 2.0x the output's bytes
        factors = generate_synthetic_panel(1, weeks=316, stocks=80, factors=68,
                                           signal_strength=0.5).factors
        mins, maxs = np.nanmin(factors, axis=(0, 1)), np.nanmax(factors, axis=(0, 1))
        tracemalloc.start()
        try:
            out = apply_norm_params(factors, mins, maxs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


class TestDecileLabels:
    def test_ten_distinct_returns(self):
        r = np.arange(10, 0, -1, dtype=float)
        np.testing.assert_array_equal(decile_labels(r), np.arange(10, 0, -1))

    def test_twenty_returns_two_per_label(self):
        r = np.arange(20, 0, -1, dtype=float)
        labels = decile_labels(r)
        counts = np.bincount(labels)[1:]
        np.testing.assert_array_equal(counts, np.full(10, 2))

    def test_remainder_goes_to_top_buckets(self):
        r = np.arange(23, 0, -1, dtype=float)
        labels = decile_labels(r)
        sizes = [int(np.sum(labels == lab)) for lab in range(10, 0, -1)]
        assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_ties_stable_in_input_order(self):
        labels = decile_labels(np.array([1.0, 1.0, 0.0, 2.0]), levels=2)
        # 2.0 then the first 1.0 are the top half
        np.testing.assert_array_equal(labels, [2, 1, 1, 2])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=10, max_size=40))
    def test_non_increasing_in_truth_order(self, values):
        r = np.asarray(values)
        labels = decile_labels(r)
        order = np.argsort(-r, kind="stable")
        assert np.all(np.diff(labels[order]) <= 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=40), st.data())
    def test_matches_bucket_loop(self, values, data):
        # the former per-bucket loop: bucket b of the stable descending order
        # gets label levels - b, the first size % levels buckets one extra item
        r = np.asarray(values, dtype=float)
        levels = data.draw(st.integers(2, r.size))
        order = np.argsort(-r, kind="stable")
        base, rem = divmod(r.size, levels)
        want = np.empty(r.size, dtype=int)
        pos = 0
        for b in range(levels):
            size = base + (b < rem)
            want[order[pos : pos + size]] = levels - b
            pos += size
        np.testing.assert_array_equal(decile_labels(r, levels), want)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            decile_labels(np.array([]))


class TestRollingWindows:
    def test_headline_layout(self):
        plans = rolling_windows(631, 300, 16)
        assert len(plans) == 20
        assert sum(p.test_len for p in plans) == 320
        assert plans[0].train_range == (0, 300)
        assert plans[0].test_range == (300, 316)

    def test_single_window(self):
        assert len(rolling_windows(316, 300, 16)) == 1

    def test_leftover_weeks_unused(self):
        plans = rolling_windows(632, 300, 16)
        assert len(plans) == 20
        assert plans[-1].test_range[1] == 620  # final 12 weeks unused

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            rolling_windows(100, 90, 20)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(30, 400), st.integers(5, 200), st.integers(1, 50))
    def test_test_ranges_disjoint_and_contiguous(self, total, train, test):
        if total < train + test:
            return
        plans = rolling_windows(total, train, test)
        for a, b in zip(plans, plans[1:]):
            assert a.test_range[1] == b.test_range[0]
            assert b.train_range == (a.train_range[0] + test, a.train_range[1] + test)
        for p in plans:
            assert p.train_range[1] == p.test_range[0]


class TestSyntheticPanel:
    def test_deterministic(self):
        a = generate_synthetic_panel(9, 20, 6, 4, 0.5)
        b = generate_synthetic_panel(9, 20, 6, 4, 0.5)
        np.testing.assert_array_equal(a.factors, b.factors)
        np.testing.assert_array_equal(a.fwd_return, b.fwd_return)

    def test_zero_signal_uncorrelated(self):
        panel = generate_synthetic_panel(10, 300, 80, 5, signal_strength=0.0)
        rets = panel.fwd_return.ravel()
        for k in range(panel.n_factors):
            rho = spearman_ic(panel.factors[:, :, k].ravel(), rets)
            assert abs(rho) < 0.1

    def test_pure_signal_perfect_weekly_rank(self):
        panel = generate_synthetic_panel(11, 25, 15, 6, signal_strength=1.0,
                                         noise_scale=0.0)
        subset, beta, _ = planted_coefficients(11, 6)
        for i, date in enumerate(panel.dates):
            planted = panel.factors[i][:, subset] @ beta
            assert spearman_ic(planted, panel.week_returns(date)) == pytest.approx(1.0)


class TestRankedBatch:
    def test_truth_order_sorts_returns(self):
        panel = generate_synthetic_panel(12, 5, 9, 3, 0.5)
        batch = build_ranked_batch(panel, panel.dates[0])
        ranked = batch.returns[batch.truth_order]
        assert np.all(np.diff(ranked) <= 0)

    def test_odd_universe_drops_median_rank(self):
        panel = generate_synthetic_panel(13, 3, 9, 3, 0.5)
        batch = build_ranked_batch(panel, panel.dates[0], require_even=True)
        assert batch.list_length == 8
        full = np.sort(panel.week_returns(panel.dates[0]))[::-1]
        kept = np.sort(batch.returns)[::-1]
        np.testing.assert_array_equal(kept, np.delete(full, 4))

    @pytest.mark.parametrize("order", [[0, 0], [0, 2], [-1, 0], [1, 0, 2]])
    def test_truth_order_must_be_bijection(self, order):
        with pytest.raises(DataError, match="bijection"):
            RankedBatch(np.zeros((2, 3)), np.array(order), np.array([0.2, 0.1]))

    def test_missing_returns_rejected(self):
        factors = np.zeros((1, 4, 2))
        fwd = np.array([[0.1, np.nan, 0.0, 0.2]])
        panel = tiny_panel(factors, fwd)
        with pytest.raises(DataError, match="^week W00000: missing forward return for stock S1$"):
            build_ranked_batch(panel, panel.dates[0])

    @pytest.mark.parametrize("ret", [np.inf, -np.inf])
    def test_infinite_returns_rejected(self, ret):
        panel = tiny_panel(np.zeros((1, 4, 2)), np.array([[0.1, ret, 0.0, 0.2]]))
        with pytest.raises(DataError,
                           match=f"^week {panel.dates[0]}: infinite forward return for stock S1$"):
            build_ranked_batch(panel, panel.dates[0])

    @pytest.mark.parametrize("cell, kind", [(np.nan, "missing"), (np.inf, "infinite"),
                                            (-np.inf, "infinite")])
    def test_non_finite_factor_cell_rejected(self, cell, kind):
        # the lists hold raw rows, so an infinite cell, which min-max
        # scaling turns into NaN, is refused here as a missing one is
        factors = np.zeros((1, 4, 2))
        factors[0, 2, 1] = cell
        panel = tiny_panel(factors, np.array([[0.1, 0.3, 0.0, 0.2]]))
        with pytest.raises(DataError,
                           match=f"^week {panel.dates[0]}: {kind} factor f1 for stock S2$"):
            build_ranked_batch(panel, panel.dates[0])

    @pytest.mark.parametrize("stocks, require_even", [(1, False), (1, True), (0, False)])
    def test_fewer_than_two_stocks_rejected(self, stocks, require_even):
        panel = tiny_panel(np.zeros((1, stocks, 2)), np.full((1, stocks), 0.01))
        with pytest.raises(DataError, match="at least 2 stocks"):
            build_ranked_batch(panel, panel.dates[0], require_even=require_even)


class TestFactorPanel:
    def test_duplicate_stock_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate stock ids"):
            tiny_panel(np.zeros((2, 3, 1)), np.zeros((2, 3)), stocks=("A", "B", "A"))

    def test_duplicate_dates_rejected(self):
        with pytest.raises(DataError, match="duplicate dates"):
            tiny_panel(np.zeros((2, 3, 1)), np.zeros((2, 3)), dates=("W1", "W1"))


class TestWholeWrites:
    """A file is replaced whole or not at all."""

    def test_raising_table_writer_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old\n")
        # enough rows that the buffer reaches the disk before the bad cell
        rows = [[float(i)] for i in range(20_000)] + [[object()]]
        with pytest.raises(TypeError):
            _write_table(path, ["x"], rows)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_raising_block_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with _write_whole(path, "wb") as fh:
                fh.write(b"new" * 100_000)
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_whole_file_replaces_with_the_mode_open_gives(self, tmp_path):
        path, plain = tmp_path / "t.csv", tmp_path / "plain.csv"
        path.write_text("old\n")
        with _write_whole(path, "w", encoding="utf-8") as fh:
            fh.write("a,b\n1,2\n")
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write("a,b\n1,2\n")
        assert path.read_bytes() == plain.read_bytes()
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv", "t.csv"]
