"""The former per-list ListFold and ListMLE implementations, kept only as a
test oracle for the batched evaluator in ``listfold.losses``.

``listfold_loss`` builds the full m x m pair matrix at every stage (O(m^2)
per stage, O(n^3) per list); ``listmle_prefix`` accumulates the gradient in a
Python loop (exponential) or from linear-domain suffix sums (sigmoid). Both work directly on psi and psi', so the sigmoid paths
overflow to inf where the batched evaluator stays finite: compare them on
moderate score spreads only.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def psi(kind, x):
    x = np.asarray(x, dtype=float)
    if kind == "exponential":
        return np.exp(x)
    return _sigmoid(x)


def dpsi(kind, x):
    x = np.asarray(x, dtype=float)
    if kind == "exponential":
        return np.exp(x)
    s = _sigmoid(x)
    return s * (1.0 - s)


def listmle_prefix(f, kind, stages):
    """Value and gradient of the first `stages` top-down selection terms."""
    f = np.asarray(f, dtype=float)
    n = f.size
    stages = min(stages, n)
    grad = np.zeros(n)
    if kind == "exponential":
        lse = np.logaddexp.accumulate(f[::-1])[::-1]
        value = float(np.sum(lse[:stages] - f[:stages]))
        for i in range(stages):
            grad[i:] += np.exp(f[i:] - lse[i])
        grad[:stages] -= 1.0
        return value, grad
    p = psi(kind, f)
    dp = dpsi(kind, f)
    suffix = np.cumsum(p[::-1])[::-1]
    value = float(np.sum(np.log(suffix[:stages]) - np.log(p[:stages])))
    cum = np.cumsum(1.0 / suffix[:stages])
    upto = np.minimum(np.arange(n), stages - 1)
    grad = dp * cum[upto]
    grad[:stages] -= dp[:stages] / p[:stages]
    return value, grad


def listmle_loss(f, kind):
    return listmle_prefix(f, kind, len(f))


def naive_pt_loss(f, kind):
    f = np.asarray(f, dtype=float)
    n = f.size // 2
    v1, g1 = listmle_prefix(f, kind, n)
    v2, g2 = listmle_prefix(-f[::-1], kind, n)
    return v1 + v2, g1 - g2[::-1]


def listfold_loss(f, kind):
    """Stage-by-stage pair-matrix evaluation of the ListFold loss."""
    f = np.asarray(f, dtype=float)
    n2 = f.size
    value = 0.0
    grad = np.zeros(n2)
    for s in range(n2 // 2):
        lo, hi = s, n2 - 1 - s
        w = f[lo : hi + 1]
        m = w.size
        diffs = w[:, None] - w[None, :]
        diag = np.eye(m, dtype=bool)
        d = w[0] - w[-1]
        if kind == "exponential":
            mx = float(np.abs(diffs).max())
            q = np.exp(diffs - mx)
            q[diag] = 0.0
            denom = q.sum()
            value += mx + np.log(denom) - d
            q /= denom
            gw = q.sum(axis=1) - q.sum(axis=0)
            gw[0] -= 1.0
            gw[-1] += 1.0
        else:
            p = psi(kind, diffs)
            dp = dpsi(kind, diffs)
            p[diag] = 0.0
            dp[diag] = 0.0
            denom = p.sum()
            value += float(np.log(denom) - np.log(psi(kind, d)))
            gw = (dp.sum(axis=1) - dp.sum(axis=0)) / denom
            r = float(dpsi(kind, d) / psi(kind, d))
            gw[0] -= r
            gw[-1] += r
        grad[lo : hi + 1] += gw
    return float(value), grad


ORACLES = {"listfold": listfold_loss, "listmle": listmle_loss, "naive_pt": naive_pt_loss}
