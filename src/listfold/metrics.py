"""Rank-quality metrics: Spearman IC, NDCG at both ends of the list,
permutation 0-1 loss, and the half-split binary classification loss.

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
    "perm_zero_one",
    "binary_classification_loss",
    "average_ranks",
]


@dataclass(frozen=True)
class RankEval:
    """A predicted ordering against integer relevance labels.

    predicted_order maps position -> item index (position 0 first). labels
    give the relevance grade of each item (indexed by item, not position).
    """

    predicted_order: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        order = np.asarray(self.predicted_order, dtype=int)
        labels = np.asarray(self.labels)
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ValueError("predicted_order must be a bijection on 0..n-1")
        if labels.size != order.size:
            raise ValueError("labels and predicted_order length mismatch")
        if not 1 <= self.k <= order.size:
            raise ValueError(f"cutoff k={self.k} out of range for n={order.size}")
        object.__setattr__(self, "predicted_order", order)
        object.__setattr__(self, "labels", labels)


def average_ranks(x) -> np.ndarray:
    """Ranks starting at 1, ties replaced by the mean rank of the tied run."""
    x = np.asarray(x, dtype=float).ravel()
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # tie runs [start, end] of the sorted values; NaN never ties, so each
    # NaN is a run of its own
    start = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    end = np.r_[start[1:], x.size] - 1
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def spearman_ic(scores, returns, return_flag: bool = False):
    """Rank information coefficient: Pearson correlation of average ranks.

    Constant inputs make the correlation undefined; those return 0 and, when
    return_flag is set, a True degeneracy flag alongside.
    """
    s = np.asarray(scores, dtype=float).ravel()
    r = np.asarray(returns, dtype=float).ravel()
    if s.size != r.size:
        raise ValueError("length mismatch")
    if s.size < 2:
        raise ValueError("need at least two observations")
    rs, rr = average_ranks(s), average_ranks(r)
    ds = rs - rs.mean()
    dr = rr - rr.mean()
    denom = np.sqrt((ds * ds).sum() * (dr * dr).sum())
    if denom == 0:
        return (0.0, True) if return_flag else 0.0
    rho = float((ds * dr).sum() / denom)
    return (rho, False) if return_flag else rho


def _dcg(labels_in_rank_order: np.ndarray, k: int) -> float:
    j = np.arange(1, k + 1, dtype=float)
    gains = np.power(2.0, labels_in_rank_order[:k]) - 1.0
    discounts = np.log(1.0 + j) / np.log(2.0)
    return float(np.sum(gains / discounts))


def ndcg_at_k(rank_eval: RankEval, return_flag: bool = False):
    """Discounted cumulative gain at cutoff k over the ideal ordering's.

    Discounts are 1/log2(1 + j); any log base cancels in the ratio.
    An all-zero gain vector (labels all 0) makes the ratio undefined and
    returns 1 with the degeneracy flag.
    """
    labels_at_pos = np.asarray(rank_eval.labels, dtype=float)[rank_eval.predicted_order]
    ideal = np.sort(np.asarray(rank_eval.labels, dtype=float))[::-1]
    idcg = _dcg(ideal, rank_eval.k)
    if idcg == 0:
        return (1.0, True) if return_flag else 1.0
    value = _dcg(labels_at_pos, rank_eval.k) / idcg
    return (value, False) if return_flag else value


def ndcg_at_minus_k(rank_eval: RankEval, levels: int, return_flag: bool = False):
    """NDCG of the reversed predicted order under complemented labels
    (L+1) - l: rewards identifying the bottom of the list."""
    labels = np.asarray(rank_eval.labels)
    complemented = (levels + 1) - labels
    reversed_eval = RankEval(rank_eval.predicted_order[::-1], complemented, rank_eval.k)
    return ndcg_at_k(reversed_eval, return_flag=return_flag)


def ndcg_pm_k(rank_eval: RankEval, levels: int) -> float:
    """Mean of the top-end and bottom-end NDCG at the same cutoff."""
    top = ndcg_at_k(rank_eval)
    bottom = ndcg_at_minus_k(rank_eval, levels)
    return 0.5 * (top + bottom)


def perm_zero_one(predicted, truth) -> int:
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.size != t.size:
        raise ValueError("length mismatch")
    return 0 if np.array_equal(p, t) else 1


def binary_classification_loss(predicted, truth) -> tuple[int, int]:
    """Label the top half +1 and bottom half -1 under each permutation.

    Returns (loss, mismatches): loss is 0 iff every item gets the same label
    under both permutations, mismatches counts the disagreeing items.
    """
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.size != t.size:
        raise ValueError("length mismatch")
    if p.size % 2 != 0:
        raise ValueError("even length required")
    half = p.size // 2
    p_top = set(p[:half].tolist())
    t_top = set(t[:half].tolist())
    mismatches = len(p_top ^ t_top)
    return (0 if mismatches == 0 else 1), mismatches
