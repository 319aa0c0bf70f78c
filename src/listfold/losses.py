"""Listwise surrogate losses and their analytic score gradients.

Every loss takes the score vector *in truth order*: position 0 holds the
score of the item with the highest realized return, position 1 the next,
and so on. Values and gradients are returned together because training
evaluates both on every mini batch and they share intermediates.

One evaluator, ``evaluate_loss``, serves every family on a single list or
a (lists, length) batch. ListFold and ListMLE run in O(length) per list
through running log-sum-exps, so they stay finite far past where the
linear domain overflows (see ``evaluate_loss`` for the limits); the
single-list functions below are thin wrappers around it.

Families
--------
listfold   stepwise long-short pair selection; even list length required.
listmle    top-down sequential selection (Plackett-Luce likelihood).
naive_pt   two truncated listmle factors, one on the scores and one on the
           negated scores of the reversed list; even length required.
mse        plain mean squared error against realized returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Transform",
    "LossSpec",
    "LossResult",
    "exponential",
    "sigmoid",
    "listmle_loss",
    "listfold_loss",
    "naive_pt_loss",
    "mse_loss",
    "evaluate_loss",
    "loss_gradient_check",
]

_FAMILIES = ("listfold", "listmle", "naive_pt", "mse")
_KINDS = ("exponential", "sigmoid")


@dataclass(frozen=True)
class Transform:
    """Positive-valued map psi applied inside the listwise likelihoods."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind: {self.kind!r}")

    def log_terms(self, x):
        """(log psi(x), log psi'(x)), finite at every finite x.

        Sigmoid uses log sigma(x) = min(x, 0) - log(1 + e^-|x|), which stays
        finite where sigma(x) itself underflows.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            return x, x
        log_psi = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
        # sigma' = sigma(x) sigma(-x) and sigma(-x) = e^-x sigma(x)
        return log_psi, 2.0 * log_psi - x


def exponential() -> Transform:
    return Transform("exponential")


def sigmoid() -> Transform:
    return Transform("sigmoid")


@dataclass(frozen=True)
class LossSpec:
    """Choice of surrogate loss family plus its transformation function.

    The transform is ignored for the mse family. ListFold and naive_pt
    require an even list length at evaluation time; callers that may see
    odd universes are responsible for dropping the median-ranked item.
    """

    family: str
    transform: Transform | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown loss family: {self.family!r}")
        if self.family != "mse" and self.transform is None:
            object.__setattr__(self, "transform", exponential())

    @property
    def even_length(self) -> bool:
        """Whether the family needs an even list length."""
        return self.family in ("listfold", "naive_pt")


@dataclass(frozen=True)
class LossResult:
    """value is a float and gradient an (n,) array for one list; for a batch
    of B lists they are (B,) and (B, n) arrays. gradient is None when it was
    not requested."""

    value: float | np.ndarray
    gradient: np.ndarray | None


def _check_scores(scores, spec: LossSpec) -> np.ndarray:
    """Scores as a C-contiguous (B, n) float array, validated for spec."""
    f = np.ascontiguousarray(scores, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"scores must be one list or a (lists, length) array, got {f.shape}")
    even = spec.even_length
    min_len = 2 if even else 1
    if f.shape[1] < min_len:
        raise ValueError(f"score vector too short: {f.shape[1]} < {min_len}")
    if not np.all(np.isfinite(f)):
        raise ValueError("scores must be finite")
    if even and f.shape[1] % 2 != 0:
        raise ValueError(f"even list length required, got {f.shape[1]}")
    return f


# The rank-loss internals below hold a batch as (positions, lists): every
# running sum then steps down axis 0 across all lists at once, which is
# what makes large batches such as m! permutation tables fast.

# Smallest first running sum of shifted exponentials trusted at full precision.
_TINY = 1e-300


def _sum_down(x):
    """Sum over axis 0, strictly in order, so a list's value does not depend
    on the batch it came in."""
    return np.cumsum(x, axis=0)[-1]


def _cum_logsumexp(x, reverse: bool = False):
    """Running log-sum-exp down axis 0: out[k] = log sum_{t<=k} e^x[t], or
    over t >= k with reverse.

    Exponentials are shifted by each list's maximum and summed. A shifted
    term that underflows is off by at most 5e-324, under 1e-23 of the
    running sum it joins as long as the first running sum is at least
    1e-300. Lists where it is not (a spread above ~690) are redone with
    np.logaddexp.accumulate.
    """
    if reverse:
        return _cum_logsumexp(x[::-1])[::-1]
    top = np.max(x, axis=0)
    out = np.exp(x - top)
    np.cumsum(out, axis=0, out=out)
    low = out[0] < _TINY
    np.log(np.maximum(out, _TINY, out=out), out=out)
    out += top
    if low.any():
        out[:, low] = np.logaddexp.accumulate(x[:, low], axis=0)
    return out


def _plackett_luce(log_psi, log_dpsi, stages: int, with_gradient: bool):
    """The first `stages` top-down selection terms.

    value = sum_{i<stages} log S_i - log psi_i with S_i = sum_{k>=i} psi_k,
    a running log-sum-exp from the tail. Position j sits in the
    denominators of stages 0..min(j, stages-1), so its gradient is
    psi'_j * sum_{i<=min(j, stages-1)} 1/S_i, again a running log-sum-exp.
    """
    log_s = _cum_logsumexp(log_psi, reverse=True)
    value = _sum_down(log_s[:stages] - log_psi[:stages])
    if not with_gradient:
        return value, None
    inv_cum = _cum_logsumexp(-log_s[:stages])
    upto = np.minimum(np.arange(log_psi.shape[0]), stages - 1)
    grad = np.exp(log_dpsi + inv_cum[upto])
    grad[:stages] -= np.exp(log_dpsi[:stages] - log_psi[:stages])
    return value, grad


def _inner_first(size: int):
    """Position order that puts the innermost pair first and the outermost
    last, so window W_s = [s, size-1-s] becomes the leading m_s = size - 2s
    positions; plus the last reordered index inside each W_s."""
    n = size // 2
    order = np.ravel(np.column_stack([np.arange(n - 1, -1, -1), np.arange(n, size)]))
    return order, size - 1 - 2 * np.arange(n)


def _listfold_exp_denominators(f, with_gradient: bool):
    """log D_s for the exponential transform, plus the two gradient sums.

    D_s = sum_{u != v in W_s} e^{f_u - f_v} = A_s B_s - m_s, where A_s and
    B_s are the window sums of e^f and e^-f: running log-sum-exps from the
    innermost pair outwards. A_s B_s >= m_s^2 keeps the log1p argument in
    [-1/2, 0]. Returns (log D, LSE_{s<=k}(log B_s - log D_s),
    LSE_{s<=k}(log A_s - log D_s)).
    """
    order, last = _inner_first(f.shape[0])
    g = f[order]
    log_a = _cum_logsumexp(g)[last]
    log_b = _cum_logsumexp(-g)[last]
    log_ab = log_a + log_b
    log_d = log_ab + np.log1p(-(last + 1.0)[:, None] * np.exp(-log_ab))
    if not with_gradient:
        return log_d, None, None
    return log_d, _cum_logsumexp(log_b - log_d), _cum_logsumexp(log_a - log_d)


def _listfold(f, transform: Transform, with_gradient: bool):
    """Stage s selects the pair (s, 2n-1-s) out of the ordered pairs in the
    window W_s = [s, 2n-1-s]: value = sum_s log D_s - log psi(f_s - f_{2n-1-s})."""
    size = f.shape[0]
    n = size // 2
    log_num, log_dnum = transform.log_terms(f[:n] - f[: n - 1 : -1])
    value = -_sum_down(log_num)
    grad = np.zeros_like(f) if with_gradient else None
    if transform.kind == "exponential":
        log_d, with_b, with_a = _listfold_exp_denominators(f, with_gradient)
        value += _sum_down(log_d)
        if with_gradient:
            stage = np.minimum(np.arange(size), np.arange(size)[::-1])  # innermost stage of j
            grad += np.exp(f + with_b[stage]) - np.exp(-f + with_a[stage])
    else:
        # sigma(x) + sigma(-x) = 1: D_s counts the m_s (m_s - 1) / 2 unordered
        # pairs, and prod_s m_s (m_s - 1) / 2 = (2n)! / 2^n
        value += math.lgamma(size + 1.0) - n * math.log(2.0)
    if with_gradient:
        pull = np.exp(log_dnum - log_num)  # d log psi(d) / dd
        grad[:n] -= pull
        grad[n:] += pull[::-1]
    return value, grad


def _rank_loss(spec: LossSpec, f, with_gradient: bool):
    """Value (lists,) and gradient (positions, lists) of a rank family."""
    if spec.family == "listfold":
        return _listfold(f, spec.transform, with_gradient)
    log_psi, log_dpsi = spec.transform.log_terms(f)
    if spec.family == "listmle":
        return _plackett_luce(log_psi, log_dpsi, f.shape[0], with_gradient)
    # naive_pt: n stages on the scores plus n on the negated reversed scores
    n = f.shape[0] // 2
    v1, g1 = _plackett_luce(log_psi, log_dpsi, n, with_gradient)
    rev_psi, rev_dpsi = spec.transform.log_terms(-f[::-1])
    v2, g2 = _plackett_luce(rev_psi, rev_dpsi, n, with_gradient)
    # d(rev_neg_u)/d(f_j) = -1 at u = 2n-1-j
    return v1 + v2, g1 - g2[::-1] if with_gradient else None


def _evaluate(spec: LossSpec, f, returns, with_gradient: bool):
    """Value (B,) and gradient (B, n) of a validated (B, n) batch."""
    if spec.family != "mse":
        value, grad = _rank_loss(spec, np.ascontiguousarray(f.T), with_gradient)
        return value, None if grad is None else grad.T
    if returns is None:
        raise ValueError("mse loss needs realized returns")
    r = np.asarray(returns, dtype=float)
    if r.shape[-1] != f.shape[1]:
        raise ValueError(f"length mismatch: {f.shape[1]} scores vs {r.shape[-1]} returns")
    diff = f - r
    value = np.mean(diff * diff, axis=1)
    return value, (2.0 / f.shape[1]) * diff if with_gradient else None


def evaluate_loss(spec: LossSpec, scores_in_truth_order, returns_in_truth_order=None,
                  with_gradient: bool = True) -> LossResult:
    """Loss value and score gradient of one list (n,) or a batch (B, n).

    Every family is evaluated for the whole batch at once in O(B n), in
    the log domain, so the rank losses' values and gradients stay finite
    for scores up to about 1e306 in magnitude. The exception is the
    exponential listfold gradient: its exponents are differences of
    log-sums rounded at the scale of the scores, and from magnitudes near
    1e19 they can pass 709 and overflow. The mse value overflows past
    about 1e154. mse needs the aligned returns, (n,) or (B, n).
    with_gradient=False skips the gradient (gradient is None).
    """
    f = np.asarray(scores_in_truth_order, dtype=float)
    single = f.ndim == 1
    f = _check_scores(f[None] if single else f, spec)
    value, grad = _evaluate(spec, f, returns_in_truth_order, with_gradient)
    if single:
        return LossResult(float(value[0]), None if grad is None else grad[0])
    return LossResult(value, grad)


def _single(spec: LossSpec, scores, returns=None) -> LossResult:
    return evaluate_loss(spec, np.ravel(np.asarray(scores, dtype=float)),
                         None if returns is None else np.ravel(np.asarray(returns, dtype=float)))


def listmle_loss(scores_in_truth_order, transform: Transform) -> LossResult:
    """Negative log Plackett-Luce likelihood of the truth ordering:

        value = -sum_i [log psi(f_i) - log sum_{k>=i} psi(f_k)]
    """
    return _single(LossSpec("listmle", transform), scores_in_truth_order)


def listfold_loss(scores_in_truth_order, transform: Transform) -> LossResult:
    """Stepwise pair-selection loss over a list of even length 2n.

    Stage i (1-based) selects the ordered pair (position i, position
    2n+1-i) out of all ordered pairs of positions still in the window
    [i, 2n+1-i]:

        value = -sum_i [log psi(f_i - f_{2n+1-i})
                        - log sum_{i<=u!=v<=2n+1-i} psi(f_u - f_v)]

    Depends on score differences only, hence shift invariant for any
    transform.
    """
    return _single(LossSpec("listfold", transform), scores_in_truth_order)


def naive_pt_loss(scores_in_truth_order, transform: Transform) -> LossResult:
    """Two-sided baseline: truncated listmle on the scores plus truncated
    listmle on the negated scores of the reversed list (n stages each).

    Unlike listfold this product does not define a probability on the
    permutation space; it is kept as the naive point of comparison.
    """
    return _single(LossSpec("naive_pt", transform), scores_in_truth_order)


def mse_loss(scores, returns) -> LossResult:
    """Plain mean squared error against realized returns."""
    return _single(LossSpec("mse"), scores, returns)


def loss_gradient_check(spec: LossSpec, scores, step: float = 1e-5, returns=None) -> float:
    """Max relative error between the analytic gradient and central finite
    differences of the loss value, component by component."""
    if step <= 0:
        raise ValueError("step must be positive")
    f = np.asarray(scores, dtype=float).ravel()
    if spec.family == "mse" and returns is None:
        returns = np.zeros_like(f)
    res = evaluate_loss(spec, f, returns)
    worst = 0.0
    for j in range(f.size):
        up = f.copy()
        dn = f.copy()
        up[j] += step
        dn[j] -= step
        fd = (evaluate_loss(spec, up, returns).value - evaluate_loss(spec, dn, returns).value) / (2 * step)
        ga = res.gradient[j]
        err = abs(ga - fd) / max(1.0, abs(ga), abs(fd))
        worst = max(worst, err)
    return worst
