"""Executable checks of the loss-consistency claims: brute-force permutation
enumeration, minimizer classification, counterexample search, and Monte
Carlo samplers for the two generative stories behind the losses.

The enumeration cap is list length 8 (8! = 40320 evaluations), which covers
half-lengths n <= 4 while keeping every report under a second. Minimizers
are grouped within an absolute tolerance of 1e-9 so genuinely tied sets
(the sigmoid case produces them) come out as sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, Transform, evaluate_loss

__all__ = [
    "ENUMERATION_CAP",
    "MINIMIZER_TOL",
    "EnumerationReport",
    "SamplerSpec",
    "TheoremReport",
    "Witness",
    "SwapRecord",
    "enumerate_losses",
    "theorem1_minimizer_family",
    "verify_theorem1",
    "verify_theorem2",
    "counterexample_search",
    "order_sensitivity_probe",
    "sample_vase",
    "sample_plank_dart",
    "vase_probability",
    "plank_probability",
    "frequency_zscores",
]

ENUMERATION_CAP = 8
MINIMIZER_TOL = 1e-9


def _as_scores(scores) -> np.ndarray:
    f = np.asarray(scores, dtype=float).ravel()
    if f.size > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP} items, got {f.size}")
    if f.size < 2:
        raise ValueError("need at least two scores")
    if not np.all(np.isfinite(f)):
        raise ValueError("scores must be finite")
    return f


@dataclass(frozen=True)
class EnumerationReport:
    """Losses over every permutation of a score multiset.

    Entries are keyed by the value tuple, each with its loss and the number
    of index permutations producing it (greater than 1 only under ties).
    classification is one of descending-unique, binary-class-set, other.
    """

    scores: tuple[float, ...]
    family: str
    transform: str | None
    permutations: tuple[tuple[float, ...], ...]
    losses: tuple[float, ...]
    multiplicities: tuple[int, ...]
    minimizers: frozenset[tuple[float, ...]]
    min_value: float
    classification: str

    def loss_of(self, perm) -> float:
        return self.losses[self.permutations.index(tuple(perm))]

    def probability_mass(self) -> float:
        """sum of multiplicity * exp(-loss): 1 for the likelihood losses."""
        return float(
            sum(m * math.exp(-v) for m, v in zip(self.multiplicities, self.losses))
        )


# Rows per evaluate_loss call on a permutation table: blocks of 4096 keep the
# evaluator's temporaries small and in cache for the 40320-row tables.
_TABLE_BLOCK = 4096


def _table_losses(spec: LossSpec, table: np.ndarray, targets=None) -> np.ndarray:
    """Loss of every row of a permutation table (value only)."""
    return np.concatenate([
        evaluate_loss(spec, table[i : i + _TABLE_BLOCK], targets, with_gradient=False).value
        for i in range(0, len(table), _TABLE_BLOCK)
    ])


def _classify(scores: np.ndarray, minimizers: frozenset) -> str:
    descending = tuple(np.sort(scores)[::-1])
    if minimizers == frozenset({descending}):
        return "descending-unique"
    if scores.size % 2 == 0:
        top = tuple(sorted(descending[: scores.size // 2]))
        if all(tuple(sorted(p[: scores.size // 2])) == top for p in minimizers):
            return "binary-class-set"
    return "other"


def enumerate_losses(scores, spec: LossSpec) -> EnumerationReport:
    """Evaluate the loss on every permutation of the multiset and group the
    minimizers within MINIMIZER_TOL.

    For the mse family the targets are the multiset sorted descending, so
    every family is minimized by a correct ranking. Ties in the multiset
    collapse to one entry with a multiplicity.
    """
    f = _as_scores(scores)
    if spec.even_length and f.size % 2 != 0:
        raise ValueError(f"{spec.family} requires an even list length")
    targets = np.sort(f)[::-1]
    seen: dict[tuple[float, ...], int] = {}
    for perm in itertools.permutations(f.tolist()):
        seen[perm] = seen.get(perm, 0) + 1
    perms = tuple(sorted(seen))
    losses_arr = _table_losses(spec, np.array(perms), targets)
    min_value = float(losses_arr.min())
    minimizers = frozenset(
        perm for perm, v in zip(perms, losses_arr) if v <= min_value + MINIMIZER_TOL
    )
    return EnumerationReport(
        scores=tuple(f.tolist()),
        family=spec.family,
        transform=None if spec.transform is None else spec.transform.kind,
        permutations=perms,
        losses=tuple(float(v) for v in losses_arr),
        multiplicities=tuple(seen[p] for p in perms),
        minimizers=minimizers,
        min_value=min_value,
        classification=_classify(f, minimizers),
    )


def theorem1_minimizer_family(scores) -> frozenset[tuple[float, ...]]:
    """Predicted sigmoid minimizer set: with the 2n scores sorted descending
    as s_1 >= ... >= s_2n, the pairs (s_j, s_{n+j}) are each placed larger
    first at some mirrored position pair (i, 2n+1-i); the assignment of
    pairs to position pairs is free, giving n! members."""
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


@dataclass
class TheoremReport:
    name: str
    seed: int
    trials_per_n: int
    n_values: tuple[int, ...]
    violations: list = field(default_factory=list)
    degenerate: int = 0
    trials_run: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"{self.name}: seed={self.seed} trials_per_n={self.trials_per_n} "
            f"n_values={list(self.n_values)}",
            f"trials_run={self.trials_run} degenerate={self.degenerate} "
            f"violations={len(self.violations)}",
        ]
        for v in self.violations:
            lines.append(f"  violation: {v}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _distinct_trials(report: TheoremReport, rng: np.random.Generator):
    """Yield (n, scores) for report.trials_per_n uniform(-3, 3) draws of 2n
    scores per n, counting every draw in report.trials_run and a tied draw
    as report.degenerate (a tied draw is not yielded)."""
    for n in report.n_values:
        for _ in range(report.trials_per_n):
            f = rng.uniform(-3.0, 3.0, size=2 * n)
            report.trials_run += 1
            if np.unique(f).size < f.size:
                report.degenerate += 1
                continue
            yield n, f


def verify_theorem1(trials: int, n_range, seed: int) -> TheoremReport:
    """Enumerate sigmoid listfold on random distinct score sets and check
    the minimizer set equals the predicted pairing family exactly.

    Tied inputs enlarge the minimizer set; they are counted as degenerate,
    not as violations.
    """
    n_range = tuple(int(n) for n in n_range)
    if max(n_range) * 2 > ENUMERATION_CAP:
        raise ValueError(f"n values must satisfy 2n <= {ENUMERATION_CAP}")
    spec = LossSpec("listfold", Transform("sigmoid"))
    report = TheoremReport("theorem1-sigmoid", seed, trials, n_range)
    for _, f in _distinct_trials(report, np.random.default_rng(seed)):
        enum = enumerate_losses(f, spec)
        predicted = theorem1_minimizer_family(f)
        if enum.minimizers != predicted:
            report.violations.append(
                {
                    "scores": tuple(f.tolist()),
                    "found": sorted(enum.minimizers),
                    "predicted": sorted(predicted),
                }
            )
    return report


_PERM_CACHE: dict[int, np.ndarray] = {}


def _perm_table(m: int) -> np.ndarray:
    """All permutations of range(m) in lexicographic order, one per row."""
    if m not in _PERM_CACHE:
        _PERM_CACHE[m] = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    return _PERM_CACHE[m]


def _half_respecting_table(n: int) -> np.ndarray:
    """Index rows that permute the top n positions among themselves and the
    bottom n among themselves, top permutation varying slowest. Row 0 is
    the identity."""
    p = _perm_table(n)
    k = p.shape[0]
    return np.hstack([np.repeat(p, k, axis=0), np.tile(p + n, (k, 1))])


def verify_theorem2(trials: int, n_range, seed: int, restricted: bool = True) -> TheoremReport:
    """Check that exponential listfold is minimized by the descending sequence.

    restricted mode enumerates only permutations that keep the top half in
    the top positions (the proven statement) and demands uniqueness;
    unrestricted mode enumerates everything (the conjectured statement).
    All-tied inputs are flagged degenerate.
    """
    n_range = tuple(int(n) for n in n_range)
    if max(n_range) * 2 > ENUMERATION_CAP:
        raise ValueError(f"n values must satisfy 2n <= {ENUMERATION_CAP}")
    spec = LossSpec("listfold", Transform("exponential"))
    mode = "restricted" if restricted else "unrestricted"
    report = TheoremReport(f"theorem2-exponential-{mode}", seed, trials, n_range)
    for n, f in _distinct_trials(report, np.random.default_rng(seed)):
        # row 0 of either table is the descending sequence itself
        index = _half_respecting_table(n) if restricted else _perm_table(2 * n)
        table = np.sort(f)[::-1][index]
        losses = _table_losses(spec, table)
        base = float(losses[0])
        if restricted:
            # uniqueness: no other half-respecting order may tie or beat it
            ties = np.flatnonzero(losses[1:] <= base + MINIMIZER_TOL)
            j = int(ties[0]) + 1 if ties.size else None
        else:
            j = int(np.argmin(losses))
            j = j if losses[j] < base - MINIMIZER_TOL else None
        if j is not None:
            report.violations.append(
                {"scores": tuple(f.tolist()), "permutation": tuple(table[j].tolist()),
                 "loss": float(losses[j]), "descending_loss": base}
            )
    return report


@dataclass(frozen=True)
class Witness:
    scores: tuple[float, ...]
    permutation: tuple[float, ...]
    loss: float
    descending_loss: float

    @property
    def gap(self) -> float:
        return self.descending_loss - self.loss


_DISTRIBUTIONS = ("uniform", "normal", "clustered", "near-ties")


def _sample_scores(rng: np.random.Generator, size: int, distribution: str) -> np.ndarray:
    if distribution == "uniform":
        return rng.uniform(-5.0, 5.0, size=size)
    if distribution == "normal":
        return rng.normal(0.0, 2.0, size=size)
    if distribution == "clustered":
        centers = rng.normal(0.0, 3.0, size=2)
        return rng.choice(centers, size=size) + rng.normal(0.0, 0.05, size=size)
    if distribution == "near-ties":
        # one extreme straggler against a tight cluster, probing the
        # unresolved small-alpha case
        base = rng.normal(0.0, 0.02, size=size)
        base[0] += rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 8.0)
        return base
    raise ValueError(f"unknown distribution {distribution!r}; pick from {_DISTRIBUTIONS}")


def counterexample_search(budget: int, size: int, distribution: str = "uniform",
                          seed: int = 0, loss_fn=None) -> list[Witness]:
    """Hunt for multisets where descending does not globally minimize the
    exponential listfold loss. Returns every witness found (expected none).

    A draw's witness is its least-loss order: the argmin row of the
    lexicographic permutation table of the sorted scores (the first on a tie).
    loss_fn(scores_array) -> float overrides the evaluated loss and is called
    once per order; injecting a broken loss is the harness self-test and
    must produce witnesses.
    """
    if size % 2 != 0 or size > ENUMERATION_CAP:
        raise ValueError(f"size must be even and <= {ENUMERATION_CAP}")
    rng = np.random.default_rng(seed)
    spec = LossSpec("listfold", Transform("exponential"))
    witnesses: list[Witness] = []
    for _ in range(budget):
        f = _sample_scores(rng, size, distribution)
        table = np.sort(f)[::-1][_perm_table(size)]  # row 0 is descending
        if loss_fn is None:
            losses = _table_losses(spec, table)
        else:
            losses = np.array([float(loss_fn(row)) for row in table])
        j = int(np.argmin(losses))
        if losses[j] < losses[0] - MINIMIZER_TOL:
            witnesses.append(Witness(tuple(f.tolist()), tuple(table[j].tolist()),
                                     float(losses[j]), float(losses[0])))
    return witnesses


@dataclass(frozen=True)
class SwapRecord:
    permutation: tuple[float, ...]
    swap: tuple[int, int]
    delta: float


def _discordant_pairs(seq: tuple[float, ...]) -> int:
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] < seq[j]
    )


def order_sensitivity_probe(scores, spec: LossSpec) -> list[SwapRecord]:
    """Find every transposition that moves a permutation toward the truth
    (strictly fewer discordant pairs) yet *increases* the loss.

    An order-sensitive loss yields an empty list; the exponential listfold
    loss deliberately does not.
    """
    f = _as_scores(scores)
    if spec.even_length and f.size % 2 != 0:
        raise ValueError(f"{spec.family} requires an even list length")
    perms = list(dict.fromkeys(itertools.permutations(f.tolist())))
    losses = _table_losses(spec, np.array(perms), np.sort(f)[::-1])
    # every transposition of a permutation is another permutation of the multiset
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


@dataclass(frozen=True)
class SamplerSpec:
    """Monte Carlo configuration for the generative ranking models.

    model 'vase' draws items sequentially with probability proportional to
    the remaining weights. model 'plank' throws two darts per stage, one
    against the widths w and one against the lengths l = 1/w, rejecting
    same-plank hits.
    """

    model: str
    weights: np.ndarray
    draws: int
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("vase", "plank"):
            raise ValueError(f"unknown sampler model {self.model!r}")
        w = np.asarray(self.weights, dtype=float).ravel()
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.model == "plank" and w.size % 2 != 0:
            raise ValueError("plank model needs an even number of planks")


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
    counts: dict[tuple[int, ...], int] = {}
    for row in out:
        key = tuple(row.tolist())
        counts[key] = counts.get(key, 0) + 1
    return counts


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
    counts: dict[tuple[int, ...], int] = {}
    for row in out:
        key = tuple(row.tolist())
        counts[key] = counts.get(key, 0) + 1
    return counts


def vase_probability(weights, sequence) -> float:
    """Closed-form sequential-selection probability of a full ordering."""
    w = np.asarray(weights, dtype=float)
    seq = list(sequence)
    prob = 1.0
    remaining = w.sum()
    for item in seq:
        prob *= w[item] / remaining
        remaining -= w[item]
    return float(prob)


def plank_probability(weights, sequence) -> float:
    """Closed-form probability of a marked plank sequence.

    Stage i keeps planks at positions i..2n-1-i of the sequence; the chance
    of marking (A_i, B_i) is w_A * l_B over the cross product of remaining
    widths and lengths l = 1/w minus the same-plank mass.
    """
    w = np.asarray(weights, dtype=float)
    l = 1.0 / w
    seq = list(sequence)
    m = len(seq)
    n = m // 2
    prob = 1.0
    for stage in range(n):
        window = seq[stage : m - stage]
        sw = sum(w[i] for i in window)
        sl = sum(l[i] for i in window)
        a, b = seq[stage], seq[m - 1 - stage]
        prob *= w[a] * l[b] / (sw * sl - len(window))
    return float(prob)


def frequency_zscores(counts: dict[tuple[int, ...], int], draws: int,
                      prob_fn) -> dict[tuple[int, ...], tuple[float, float, float]]:
    """Per-permutation (empirical, analytic, z) where z uses the binomial
    standard error, so a failure names the offending permutation."""
    out = {}
    keys = set(counts)
    m = len(next(iter(keys))) if keys else 0
    for perm in itertools.permutations(range(m)):
        p = prob_fn(perm)
        emp = counts.get(perm, 0) / draws
        se = math.sqrt(p * (1.0 - p) / draws) if 0 < p < 1 else float("inf")
        z = (emp - p) / se if se > 0 and math.isfinite(se) else 0.0
        out[perm] = (emp, p, z)
    return out
