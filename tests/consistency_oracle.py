"""Test oracles for ``listfold.consistency``: the former order-sensitivity
probe, which recounts the discordant pairs of every swapped order and
evaluates the distinct orders of the multiset itself, and the former
theorem-1 family, built one member at a time in a Python loop.

The live ``order_sensitivity_probe`` reads its orders and losses from
``enumerate_losses`` and tests ``perm[i] < perm[j]`` in place of the
recount, and the live ``theorem1_minimizer_family`` fills its members from
``_perm_table``. Both must return what these do.
"""

from __future__ import annotations

import itertools

import numpy as np

from listfold.consistency import MINIMIZER_TOL, SwapRecord, _as_scores, _table_losses
from listfold.losses import LossSpec


def _discordant_pairs(seq: tuple[float, ...]) -> int:
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] < seq[j]
    )


def order_sensitivity_probe(scores, spec: LossSpec) -> list[SwapRecord]:
    """Every transposition that strictly lowers the discordant-pair count
    yet raises the loss by more than MINIMIZER_TOL."""
    f = _as_scores(scores)
    if spec.even_length and f.size % 2 != 0:
        raise ValueError(f"{spec.family} requires an even list length")
    perms = list(dict.fromkeys(itertools.permutations(f.tolist())))
    losses = _table_losses(spec, np.array(perms), np.sort(f)[::-1])
    loss_of = dict(zip(perms, losses.tolist()))
    records: list[SwapRecord] = []
    for perm in perms:
        base_disc = _discordant_pairs(perm)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                swapped = list(perm)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                swapped = tuple(swapped)
                if _discordant_pairs(swapped) >= base_disc:
                    continue
                delta = loss_of[swapped] - loss_of[perm]
                if delta > MINIMIZER_TOL:
                    records.append(SwapRecord(perm, (i, j), float(delta)))
    return records


def theorem1_minimizer_family(scores) -> frozenset[tuple[float, ...]]:
    """Each pair (s_j, s_{n+j}) of the descending scores, larger first, at
    some mirrored position pair, over every assignment of pairs to slots."""
    s = np.sort(np.asarray(scores, dtype=float))[::-1].tolist()
    n = len(s) // 2
    pairs = [(s[j], s[n + j]) for j in range(n)]
    family = set()
    for sigma in itertools.permutations(range(n)):
        seq = [0.0] * len(s)
        for slot, j in enumerate(sigma):
            seq[slot] = pairs[j][0]
            seq[len(s) - 1 - slot] = pairs[j][1]
        family.add(tuple(seq))
    return frozenset(family)
