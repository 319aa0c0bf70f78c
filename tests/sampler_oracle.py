"""Test oracles for the vase and plank-dart stories of
``listfold.consistency``: the former row-major samplers, for
``sample_vase`` and ``sample_plank_dart``, and the exact rational
probability of one ordering under each story, for ``vase_probability`` and
``plank_probability``.

The live weights are stored ``(draws, m)``, one row per draw, and each
stage draws through ``_categorical_rows``: a row total from
``weights.sum(axis=1)``, a row-wise ``np.cumsum`` and a count of
``u >= cum`` along each row. The draw-major samplers call the generator with
the same sizes in the same order, and the row of running sums each draw
gathers by its free-set code holds the same cumulative sums, so for fewer
than 8 weights they must return the same counts. From 8 weights on,
numpy's row total is a pairwise sum, which may round differently from the
last cumulative sum (and then ``_categorical_rows`` can return m).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from listfold.consistency import SamplerSpec, _order_counts


def _categorical_rows(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """One index per row, drawn proportionally to that row's weights."""
    totals = weights.sum(axis=1, keepdims=True)
    cum = np.cumsum(weights, axis=1)
    u = rng.random((weights.shape[0], 1)) * totals
    return (u >= cum).sum(axis=1)


def sample_vase(spec: SamplerSpec) -> dict[tuple[int, ...], int]:
    """Empirical counts of full orderings under sequential proportional
    sampling without replacement. Keys are item-index tuples."""
    if spec.model != "vase":
        raise ValueError("spec.model must be 'vase'")
    m = spec.weights.size
    rng = np.random.default_rng(spec.seed)
    live = np.tile(spec.weights, (spec.draws, 1))
    out = np.empty((spec.draws, m), dtype=np.intp)
    rows = np.arange(spec.draws)
    for stage in range(m):
        pick = _categorical_rows(rng, live)
        out[:, stage] = pick
        live[rows, pick] = 0.0
    return _order_counts(out)


def sample_plank_dart(spec: SamplerSpec) -> dict[tuple[int, ...], int]:
    """Empirical counts of marked sequences (A_1..A_n, B_n..B_1) under the
    simultaneous two-dart process with same-plank rejection."""
    if spec.model != "plank":
        raise ValueError("spec.model must be 'plank'")
    m = spec.weights.size
    n = m // 2
    rng = np.random.default_rng(spec.seed)
    live_w = np.tile(spec.weights, (spec.draws, 1))
    live_l = np.tile(1.0 / spec.weights, (spec.draws, 1))
    out = np.empty((spec.draws, m), dtype=np.intp)
    rows = np.arange(spec.draws)
    for stage in range(n):
        a = _categorical_rows(rng, live_w)
        b = _categorical_rows(rng, live_l)
        clash = a == b
        while clash.any():
            idx = np.where(clash)[0]
            a[idx] = _categorical_rows(rng, live_w[idx])
            b[idx] = _categorical_rows(rng, live_l[idx])
            clash = a == b
        out[:, stage] = a
        out[:, m - 1 - stage] = b
        live_w[rows, a] = 0.0
        live_w[rows, b] = 0.0
        live_l[rows, a] = 0.0
        live_l[rows, b] = 0.0
    return _order_counts(out)


def vase_probability_exact(weights, sequence) -> Fraction:
    """Sequential selection proportional to the remaining weights, in exact
    rational arithmetic on the float weights."""
    w = [Fraction(float(x)) for x in weights]
    prob, remaining = Fraction(1), sum(w)
    for item in sequence:
        prob *= w[item] / remaining
        remaining -= w[item]
    return prob


def plank_probability_exact(weights, sequence) -> Fraction:
    """The two-dart story in exact rational arithmetic: stage i marks
    A_i = sequence[i] by width and B_i = sequence[m - 1 - i] by length
    1/w among the k planks still unmarked, with probability
    w_A l_B / (W L - k), where W and L sum the remaining widths and lengths
    and the k same-plank pairs are the rejected throws."""
    w = [Fraction(float(x)) for x in weights]
    seq = list(sequence)
    m = len(seq)
    prob = Fraction(1)
    for stage in range(m // 2):
        window = seq[stage : m - stage]
        width = sum(w[i] for i in window)
        length = sum(1 / w[i] for i in window)
        a, b = seq[stage], seq[m - 1 - stage]
        prob *= w[a] / w[b] / (width * length - len(window))
    return prob
