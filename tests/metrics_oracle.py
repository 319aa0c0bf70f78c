"""The former per-list rank metrics and the per-week backtest metric loop,
kept only as a test oracle for the block forms in ``listfold.metrics``,
``listfold.data.decile_labels`` and ``listfold.backtest._model_rank_metrics``.

Each function takes one list (one test week); ``model_rank_metrics`` walks
the weeks one at a time, sorting each week's columns by score and stock id
and making four metric calls per week. The block versions must give the same bits row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from listfold.data import DataError


@dataclass(frozen=True)
class RankEval:
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
    x = np.asarray(x, dtype=float).ravel()
    order = np.argsort(x, kind="stable")
    xs = x[order]
    start = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    end = np.r_[start[1:], x.size] - 1
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def spearman_ic(scores, returns) -> float:
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
        return 0.0
    return float((ds * dr).sum() / denom)


def _dcg(labels_in_rank_order: np.ndarray, k: int) -> float:
    j = np.arange(1, k + 1, dtype=float)
    gains = np.power(2.0, labels_in_rank_order[:k]) - 1.0
    discounts = np.log(1.0 + j) / np.log(2.0)
    return float(np.sum(gains / discounts))


def ndcg_at_k(rank_eval: RankEval) -> float:
    labels_at_pos = np.asarray(rank_eval.labels, dtype=float)[rank_eval.predicted_order]
    ideal = np.sort(np.asarray(rank_eval.labels, dtype=float))[::-1]
    idcg = _dcg(ideal, rank_eval.k)
    if idcg == 0:
        return 1.0
    return _dcg(labels_at_pos, rank_eval.k) / idcg


def ndcg_at_minus_k(rank_eval: RankEval, levels: int) -> float:
    labels = np.asarray(rank_eval.labels)
    complemented = (levels + 1) - labels
    reversed_eval = RankEval(rank_eval.predicted_order[::-1], complemented, rank_eval.k)
    return ndcg_at_k(reversed_eval)


def ndcg_pm_k(rank_eval: RankEval, levels: int) -> float:
    top = ndcg_at_k(rank_eval)
    bottom = ndcg_at_minus_k(rank_eval, levels)
    return 0.5 * (top + bottom)


def decile_labels(returns, levels: int = 10) -> np.ndarray:
    r = np.asarray(returns, dtype=float).ravel()
    if r.size == 0:
        raise DataError("empty returns vector")
    if np.any(np.isnan(r)):
        raise DataError("returns contain missing values")
    if levels < 2:
        raise DataError("levels must be >= 2")
    if r.size < levels:
        raise DataError(f"need at least {levels} items for {levels} levels, got {r.size}")
    order = np.argsort(-r, kind="stable")
    base, rem = divmod(r.size, levels)
    sizes = base + (np.arange(levels) < rem)
    labels = np.empty(r.size, dtype=int)
    labels[order] = np.repeat(levels - np.arange(levels), sizes)
    return labels


def model_rank_metrics(scores, returns, stocks, k: int, levels: int) -> dict[str, float]:
    """The weekly IC and NDCG family of (weeks, N) scores against (weeks, N)
    returns, one week at a time, averaged over the weeks. Both ends break
    score ties by the lexically smaller stock id, as the books do: the top
    order sorts by (-score, id), and NDCG@-k reads the reverse of the
    bottom order, which sorts by (score, id)."""
    ics, ndcg_full, ndcg_k, ndcg_mk, ndcg_pm = [], [], [], [], []
    for implied, rets in zip(scores, returns):
        ics.append(spearman_ic(implied, rets))
        cols = range(rets.size)
        top = np.array(sorted(cols, key=lambda j: (-implied[j], stocks[j])))
        bottom = np.array(sorted(cols, key=lambda j: (implied[j], stocks[j])))
        labels = decile_labels(rets, levels=min(levels, rets.size))
        n = rets.size
        ndcg_full.append(ndcg_at_k(RankEval(top, labels, n)))
        ndcg_k.append(ndcg_at_k(RankEval(top, labels, min(k, n))))
        ndcg_mk.append(ndcg_at_minus_k(RankEval(bottom[::-1], labels, min(k, n)),
                                       levels=min(levels, n)))
        ndcg_pm.append(0.5 * (ndcg_k[-1] + ndcg_mk[-1]))
    return {
        "ic": float(np.mean(ics)),
        "ndcg": float(np.mean(ndcg_full)),
        "ndcg_at_k": float(np.mean(ndcg_k)),
        "ndcg_at_minus_k": float(np.mean(ndcg_mk)),
        "ndcg_pm_k": float(np.mean(ndcg_pm)),
    }
