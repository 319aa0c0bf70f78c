"""Rank-quality metrics of the backtest: Spearman IC and NDCG at both ends
of the list. The paper's true losses, the permutation 0-1 loss and the
half-split binary classification loss, are judged on minimizer sets by
``listfold.consistency._classify``.

NDCG@-k scores the bottom of a list by reversing the predicted order and
complementing the labels as (L+1) - l, so the scheme works for any number
of relevance levels. NDCG@+-k is the arithmetic mean of the two ends.
Worked configurations elsewhere in the literature occasionally disagree
with this reading of the reversal; the formula here follows the definition
(reverse the list, complement the labels) rather than any single worked
example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankEval",
    "spearman_ic",
    "ndcg_at_k",
    "ndcg_at_minus_k",
    "ndcg_pm_k",
    "average_ranks",
]


@dataclass(frozen=True)
class RankEval:
    """Predicted orderings against integer relevance labels, one list per
    row of the last axis: a 1-D list, or a (weeks, N) block of them.

    predicted_order maps position -> item index (position 0 first). labels
    give the relevance grade of each item (indexed by item, not position).
    """

    predicted_order: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        order = np.asarray(self.predicted_order, dtype=int)
        labels = np.asarray(self.labels)
        n = order.shape[-1]
        if not np.array_equal(np.sort(order, axis=-1),
                              np.broadcast_to(np.arange(n), order.shape)):
            raise ValueError("predicted_order must be a bijection on 0..n-1")
        if labels.shape != order.shape:
            raise ValueError("labels and predicted_order length mismatch")
        if not 1 <= self.k <= n:
            raise ValueError(f"cutoff k={self.k} out of range for n={n}")
        object.__setattr__(self, "predicted_order", order)
        object.__setattr__(self, "labels", labels)


def average_ranks(x) -> np.ndarray:
    """Ranks starting at 1 along the last axis, ties replaced by the mean
    rank of the tied run. A NaN has no rank (argsort would put it on top),
    so NaN input raises ValueError."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cannot rank NaN values")
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    # tie runs [start, end] of the sorted values. tied[i]: xs[i] continues
    # the run of xs[i - 1]
    tied = np.zeros(xs.shape, dtype=bool)
    tied[..., 1:] = xs[..., 1:] == xs[..., :-1]
    pos = np.arange(x.shape[-1])
    start = np.maximum.accumulate(np.where(tied, 0, pos), axis=-1)
    end = np.where(np.roll(tied, -1, axis=-1), x.shape[-1], pos)
    end = np.minimum.accumulate(end[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(x.shape, dtype=float)
    np.put_along_axis(ranks, order, 0.5 * (start + end) + 1.0, axis=-1)
    return ranks


def spearman_ic(scores, returns):
    """Rank information coefficient along the last axis: the Pearson
    correlation of average ranks, a float for 1-D lists and one value per
    row of a (weeks, N) block. A constant list makes the correlation
    undefined; it gives 0."""
    s = np.asarray(scores, dtype=float)
    r = np.asarray(returns, dtype=float)
    if s.shape != r.shape:
        raise ValueError("length mismatch")
    if s.shape[-1] < 2:
        raise ValueError("need at least two observations")
    rs, rr = average_ranks(s), average_ranks(r)
    ds = rs - rs.mean(axis=-1, keepdims=True)
    dr = rr - rr.mean(axis=-1, keepdims=True)
    denom = np.sqrt((ds * ds).sum(axis=-1) * (dr * dr).sum(axis=-1))
    rho = (ds * dr).sum(axis=-1) / np.where(denom == 0, 1.0, denom)
    return np.where(denom == 0, 0.0, rho)[()]


def _dcg(labels_in_rank_order: np.ndarray, k: int) -> np.ndarray:
    j = np.arange(1, k + 1, dtype=float)
    gains = np.power(2.0, labels_in_rank_order[..., :k]) - 1.0
    discounts = np.log(1.0 + j) / np.log(2.0)
    return np.sum(gains / discounts, axis=-1)


def ndcg_at_k(rank_eval: RankEval):
    """Discounted cumulative gain at cutoff k over the ideal ordering's, per list.

    Discounts are 1/log2(1 + j); any log base cancels in the ratio.
    An all-zero gain vector (labels all 0) makes the ratio undefined and
    gives 1.
    """
    labels = np.asarray(rank_eval.labels, dtype=float)
    dcg = _dcg(np.take_along_axis(labels, rank_eval.predicted_order, axis=-1), rank_eval.k)
    idcg = _dcg(np.sort(labels, axis=-1)[..., ::-1], rank_eval.k)
    return np.where(idcg == 0, 1.0, dcg / np.where(idcg == 0, 1.0, idcg))[()]


def ndcg_at_minus_k(rank_eval: RankEval, levels: int):
    """NDCG of the reversed predicted order under complemented labels
    (L+1) - l: rewards identifying the bottom of the list."""
    return ndcg_at_k(RankEval(rank_eval.predicted_order[..., ::-1],
                              (levels + 1) - rank_eval.labels, rank_eval.k))


def ndcg_pm_k(rank_eval: RankEval, levels: int):
    """Mean of the top-end and bottom-end NDCG at the same cutoff, both
    read from the one predicted order.

    The backtest's ndcg_pm_k column is not this function of its top order:
    it reads the bottom end in the short leg's own order, which breaks ties
    the other way. On tied scores the two differ: four equal scores with
    returns 4, 3, 2, 1 (k = 1, levels = 4) give 1.0 from this function and
    8/15 = 0.5333 in rankmetrics.csv (backtest._model_rank_metrics)."""
    top = ndcg_at_k(rank_eval)
    bottom = ndcg_at_minus_k(rank_eval, levels)
    return 0.5 * (top + bottom)
