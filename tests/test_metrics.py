"""Rank metrics: worked values, degenerate lists, symmetry properties, and the
(weeks, N) block forms against the per-list oracle in metrics_oracle.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle as oracle
from listfold.consistency import _classify
from listfold.data import decile_labels
from listfold.metrics import (
    RankEval,
    average_ranks,
    ndcg_at_k,
    ndcg_at_minus_k,
    ndcg_pm_k,
    spearman_ic,
)


def dcg_reference(labels_in_order, k, base=2.0):
    return sum(
        (2.0 ** l - 1.0) / (math.log(1 + j) / math.log(base))
        for j, l in enumerate(labels_in_order[:k], start=1)
    )


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def draw_rows(rng, weeks, n):
    """A (weeks, N) block whose rows mix the score shapes a backtest meets:
    distinct floats, rounded values with ties, ReLU-style zero bottoms and
    constant rows."""
    rows = []
    for kind in rng.integers(0, 4, size=weeks):
        row = rng.standard_normal(n)
        if kind == 1:
            row = np.round(row, 1)
        elif kind == 2:
            row = np.maximum(row, 0.0)
        elif kind == 3:
            row = np.full(n, row[0])
        rows.append(row)
    return np.array(rows)


@st.composite
def blocks(draw):
    """(scores, returns, k, levels) on a (weeks, N) block: odd and even N,
    k from 1 to N, levels from 2 to 10. N of 129 and 301 pass the 128
    values numpy adds in one unrolled run before it sums pairwise."""
    weeks = draw(st.integers(1, 5))
    n = draw(st.one_of(st.integers(2, 41), st.sampled_from([80, 129, 301])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = draw_rows(rng, weeks, n)
    returns = draw_rows(rng, weeks, n)
    k = draw(st.integers(1, n))
    levels = draw(st.integers(2, 10))
    return scores, returns, k, levels


# the worked four-item configuration: items a,b,c,d with grades 3,2,4,1,
# predicted order [a,b,c,d], so the true order is [c,a,b,d]
WORKED_LABELS = np.array([3, 2, 4, 1])
WORKED_ORDER = np.array([0, 1, 2, 3])


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman_ic([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        assert spearman_ic([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_closed_form_case(self):
        # 1 - 6 * sum d^2 / (n(n^2-1)) with d = (0,0,1,1)
        assert spearman_ic([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)

    def test_constant_input_flagged(self):
        assert spearman_ic([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_nan_is_not_ranked(self):
        # argsort put the NaN last, so it took the top rank and this IC was 1.0
        with pytest.raises(ValueError, match="NaN"):
            spearman_ic([np.nan, 1.0, 2.0], [3.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            average_ranks([[1.0, 2.0], [np.nan, 0.0]])

    def test_tied_ranks_averaged(self):
        np.testing.assert_allclose(average_ranks([5.0, 1.0, 5.0]), [2.5, 1.0, 2.5])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4, 4), max_size=30))
    def test_average_ranks_definition(self, values):
        # rank_i = #{x_j < x_i} + (#{x_j == x_i} + 1) / 2
        x = np.asarray(values, dtype=float)
        want = [np.sum(x < v) + (np.sum(x == v) + 1) / 2 for v in x]
        np.testing.assert_array_equal(average_ranks(x), want)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-500, 500), min_size=3, max_size=20, unique=True))
    def test_invariant_under_monotone_transform(self, values):
        rng = np.random.default_rng(0)
        other = rng.uniform(-1, 1, len(values))
        x = np.asarray(values, dtype=float) / 100.0
        base = spearman_ic(x, other)
        assert spearman_ic(np.exp(x), other) == pytest.approx(base, abs=1e-12)
        assert spearman_ic(x, 3.0 * other + 1.0) == pytest.approx(base, abs=1e-12)


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        ev = RankEval(np.array([2, 0, 1, 3]), WORKED_LABELS, 4)
        assert ndcg_at_k(ev) == pytest.approx(1.0)

    def test_worked_configuration_top(self):
        got = ndcg_at_k(RankEval(WORKED_ORDER, WORKED_LABELS, 2))
        want = dcg_reference([3, 2], 2) / dcg_reference([4, 3], 2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.458, abs=1e-3)

    def test_worked_configuration_bottom(self):
        got = ndcg_at_minus_k(RankEval(WORKED_ORDER, WORKED_LABELS, 2), levels=4)
        # reversed order [d,c,b,a] with complemented grades 4,1,3,2
        want = dcg_reference([4, 1], 2) / dcg_reference([4, 3], 2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.805, abs=1e-3)

    def test_worked_configuration_both_ends(self):
        got = ndcg_pm_k(RankEval(WORKED_ORDER, WORKED_LABELS, 2), levels=4)
        assert got == pytest.approx(0.631, abs=1e-3)

    def test_all_equal_labels_any_order_ideal(self):
        ev = RankEval(np.array([3, 1, 0, 2]), np.array([2, 2, 2, 2]), 4)
        assert ndcg_at_k(ev) == pytest.approx(1.0)
        assert ndcg_at_minus_k(ev, levels=2) == pytest.approx(1.0)

    def test_perfect_prediction_nails_the_bottom_too(self):
        # the best-first prediction, read from its tail, ranks the bottom
        # perfectly; an anti-prediction is wrong at both ends
        labels = np.array([4, 3, 2, 1])
        perfect = RankEval(np.array([0, 1, 2, 3]), labels, 2)
        assert ndcg_at_minus_k(perfect, levels=4) == pytest.approx(1.0)
        reversed_pred = RankEval(np.array([3, 2, 1, 0]), labels, 2)
        want = dcg_reference([1, 2], 2) / dcg_reference([4, 3], 2)
        assert ndcg_at_minus_k(reversed_pred, levels=4) == pytest.approx(want, abs=1e-12)

    def test_pm_symmetric_under_joint_reversal(self):
        rng = np.random.default_rng(2)
        levels = 5
        order = rng.permutation(8)
        labels = rng.integers(1, levels + 1, size=8)
        forward = ndcg_pm_k(RankEval(order, labels, 3), levels=levels)
        flipped = ndcg_pm_k(RankEval(order[::-1], (levels + 1) - labels, 3), levels=levels)
        assert forward == pytest.approx(flipped, abs=1e-12)

    def test_all_zero_gains_flagged(self):
        assert ndcg_at_k(RankEval(np.array([0, 1]), np.array([0, 0]), 2)) == 1.0

    def test_cutoff_validated(self):
        with pytest.raises(ValueError):
            RankEval(np.array([0, 1]), np.array([1, 2]), 3)

    @pytest.mark.parametrize("order", [[0, 0], [0, 2], [-1, 0]])
    def test_order_must_be_bijection(self, order):
        with pytest.raises(ValueError, match="bijection"):
            RankEval(np.array(order), np.array([1, 2]), 1)


class TestBlocksAgainstOracle:
    """Every block metric equals the former per-list function row by row, bit
    for bit, and a 1-D list gives what it gave before."""

    @settings(max_examples=60, deadline=None)
    @given(blocks())
    def test_average_ranks_and_ic(self, case):
        scores, returns, _, _ = case
        ranks, ic = average_ranks(scores), spearman_ic(scores, returns)
        assert ic.shape == (scores.shape[0],)
        assert isinstance(spearman_ic(scores[0], returns[0]), float)
        for w in range(scores.shape[0]):
            assert bits(ranks[w]) == bits(oracle.average_ranks(scores[w]))
            assert bits(ic[w]) == bits(oracle.spearman_ic(scores[w], returns[w]))
            assert bits(average_ranks(scores[w])) == bits(ranks[w])
            assert bits(spearman_ic(scores[w], returns[w])) == bits(ic[w])

    @settings(max_examples=60, deadline=None)
    @given(blocks())
    def test_decile_labels(self, case):
        _, returns, _, levels = case
        levels = min(levels, returns.shape[1])
        labels = decile_labels(returns, levels)
        for w in range(returns.shape[0]):
            want = oracle.decile_labels(returns[w], levels)
            np.testing.assert_array_equal(labels[w], want)
            np.testing.assert_array_equal(decile_labels(returns[w], levels), want)

    @settings(max_examples=60, deadline=None)
    @given(blocks(), st.booleans())
    def test_ndcg_family(self, case, zero_labels):
        scores, returns, k, levels = case
        levels = min(levels, scores.shape[1])
        order = np.argsort(-scores, axis=1, kind="stable")
        labels = decile_labels(returns, levels)
        if zero_labels:
            # rows of all-zero gains, where the ideal DCG is 0
            labels[::2] = 0
        ev = RankEval(order, labels, k)
        got = {"top": ndcg_at_k(ev), "bottom": ndcg_at_minus_k(ev, levels),
               "pm": ndcg_pm_k(ev, levels)}
        for w in range(scores.shape[0]):
            one = oracle.RankEval(order[w], labels[w], k)
            want = {"top": oracle.ndcg_at_k(one), "bottom": oracle.ndcg_at_minus_k(one, levels),
                    "pm": oracle.ndcg_pm_k(one, levels)}
            row = RankEval(order[w], labels[w], k)
            single = {"top": ndcg_at_k(row), "bottom": ndcg_at_minus_k(row, levels),
                      "pm": ndcg_pm_k(row, levels)}
            for name in want:
                assert bits(got[name][w]) == bits(want[name]), name
                assert bits(single[name]) == bits(want[name]), name

    def test_block_shape_checks(self):
        with pytest.raises(ValueError, match="bijection"):
            RankEval(np.array([[0, 1], [1, 1]]), np.ones((2, 2)), 1)
        with pytest.raises(ValueError, match="length mismatch"):
            RankEval(np.array([[0, 1], [1, 0]]), np.ones(2), 1)
        with pytest.raises(ValueError, match="length mismatch"):
            spearman_ic(np.zeros((2, 3)), np.zeros(3))


class TestTrueLosses:
    """The permutation 0-1 and half-split binary classification losses,
    which the consistency lab applies to a loss's minimizer set through
    consistency._classify."""

    TRUTH = np.array([3.0, 2.0, 1.0, 0.0])

    def test_perm_zero_one(self):
        assert _classify(self.TRUTH, frozenset({(3.0, 2.0, 1.0, 0.0)})) == "descending-unique"
        for other in [(2.0, 3.0, 1.0, 0.0), (0.0, 1.0, 2.0, 3.0)]:
            assert _classify(self.TRUTH, frozenset({other})) != "descending-unique"

    def test_binary_identical(self):
        # the descending order is a zero of the binary loss too: beside the
        # within-half shuffles it leaves the set a binary class set
        family = frozenset({(3.0, 2.0, 1.0, 0.0), (2.0, 3.0, 1.0, 0.0),
                            (3.0, 2.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)})
        assert _classify(self.TRUTH, family) == "binary-class-set"

    def test_binary_within_half_shuffle_is_free(self):
        shuffles = frozenset({(2.0, 3.0, 1.0, 0.0), (3.0, 2.0, 0.0, 1.0),
                              (2.0, 3.0, 0.0, 1.0)})
        assert _classify(self.TRUTH, shuffles) == "binary-class-set"

    def test_binary_cross_half_swap_mislabels_two(self):
        assert _classify(self.TRUTH, frozenset({(3.0, 0.0, 1.0, 2.0)})) == "other"
        # one cross-half member spoils the whole set
        assert _classify(self.TRUTH, frozenset({(2.0, 3.0, 1.0, 0.0),
                                                (3.0, 1.0, 2.0, 0.0)})) == "other"

    def test_binary_odd_rejected(self):
        f = np.array([2.0, 1.0, 0.0])
        assert _classify(f, frozenset({(1.0, 2.0, 0.0)})) == "other"

    def test_binary_zero_implies_perfect_two_level_pm(self):
        rng = np.random.default_rng(3)
        truth = rng.permutation(8)
        # shuffle within halves only
        predicted = np.concatenate([rng.permutation(truth[:4]), rng.permutation(truth[4:])])
        labels = np.empty(8, dtype=int)
        labels[truth[:4]] = 2
        labels[truth[4:]] = 1
        assert ndcg_pm_k(RankEval(predicted, labels, 4), levels=2) == pytest.approx(1.0)
