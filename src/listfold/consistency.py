"""Executable checks of the loss-consistency claims: brute-force permutation
enumeration, minimizer classification, counterexample search, and Monte
Carlo samplers for the two generative stories behind the losses.

Two engines answer the questions. Where only the least exponential listfold
loss over all orders is needed (the counterexample search and the
unrestricted theorem-2 check), an exact dynamic program over subsets finds
it in 2^m states, so the search reaches list length SEARCH_CAP = 14. Where
every order or every near-tied order is needed (minimizer sets, theorem 1,
the restricted uniqueness check, the probe, an injected black-box loss),
the checks enumerate permutations, capped at ENUMERATION_CAP = 8 items
(8! = 40320 rows). Minimizers are grouped within an absolute tolerance of
1e-9 so genuinely tied sets (the sigmoid case produces them) come out as
sets.
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
    "SEARCH_CAP",
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
SEARCH_CAP = 14
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
    index = _perm_table(f.size)
    # One base-m integer per row of value ranks keys the distinct value
    # orders: their sorted keys are the rows in lexicographic value order,
    # and +-0.0 share a rank as they share a tuple key. return_index picks
    # each order's first index permutation, whose zeros keep their signs.
    _, rank = np.unique(f, return_inverse=True)
    place = f.size ** np.arange(f.size - 1, -1, -1)
    _, first, counts = np.unique(rank[index] @ place, return_index=True, return_counts=True)
    losses_arr = _table_losses(spec, f[index[first]], targets)
    # permutations() yields _perm_table's rows as tuples of the m float
    # objects, far faster than tuples made from the float table
    rows = list(itertools.permutations(f.tolist()))
    perms = tuple(rows[i] for i in first.tolist())
    min_value = float(losses_arr.min())
    near = np.flatnonzero(losses_arr <= min_value + MINIMIZER_TOL)
    minimizers = frozenset(perms[i] for i in near.tolist())
    return EnumerationReport(
        scores=tuple(f.tolist()),
        family=spec.family,
        transform=None if spec.transform is None else spec.transform.kind,
        permutations=perms,
        losses=tuple(losses_arr.tolist()),
        multiplicities=tuple(counts.tolist()),
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


# Elements per (draws, states, pairs) temporary of the subset DP: draws go
# through in chunks so the widest level's gathers stay near 8 MB at m = 14.
_DP_ELEMENTS = 1 << 20


def _subset_levels(m: int):
    """Index tables of the subset DP over range(m).

    Returns (pi, pj, rank, levels): the C(m, 2) pairs pi < pj, each
    bitmask's row within its level, and per even level k = 2, 4, ..., m the
    tuple (k, states, pairs, rest): the k-item bitmasks, the ids of the
    C(k, 2) pairs inside each, and each state with that pair removed.
    """
    pi, pj = np.triu_indices(m, 1)
    pair_mask = (1 << pi) | (1 << pj)
    size = np.zeros(1 << m, dtype=np.intp)
    for b in range(m):
        size[1 << b : 2 << b] = size[: 1 << b] + 1
    rank = np.zeros(1 << m, dtype=np.intp)
    levels = []
    for k in range(2, m + 1, 2):
        states = np.flatnonzero(size == k)
        rank[states] = np.arange(states.size)
        inside = (states[:, None] & pair_mask) == pair_mask
        pairs = np.nonzero(inside)[1].reshape(states.size, k * (k - 1) // 2)
        levels.append((k, states, pairs, states[:, None] ^ pair_mask[pairs]))
    return pi, pj, rank, levels


def _least_exp_chunk(f: np.ndarray, tables):
    """_least_listfold_exp on one chunk of draws, given _subset_levels(m)."""
    c, m = f.shape
    pi, pj, rank, levels = tables
    # log A(S), log B(S): log-sums of e^f and e^-f over every subset, one
    # bit at a time (the subsets holding bit b extend those below 2^b)
    log_a = np.full((c, 1 << m), -np.inf)
    log_b = np.full((c, 1 << m), -np.inf)
    for b in range(m):
        log_a[:, 1 << b : 2 << b] = np.logaddexp(log_a[:, : 1 << b], f[:, b : b + 1])
        log_b[:, 1 << b : 2 << b] = np.logaddexp(log_b[:, : 1 << b], -f[:, b : b + 1])
    # the better orientation of pair (i, j) puts the larger score on top
    gain = np.abs(f[:, pi] - f[:, pj])
    least = np.zeros((c, 1 << m))  # V(S); V(empty set) = 0
    choice = []
    for k, states, pairs, rest in levels:
        cand = least[:, rest] - gain[:, pairs]
        arg = cand.argmin(axis=2)
        # log D(S) = log(A B - |S|), as losses._listfold_exp_denominators
        log_ab = log_a[:, states] + log_b[:, states]
        log_d = log_ab + np.log1p(-k * np.exp(-log_ab))
        least[:, states] = log_d + np.take_along_axis(cand, arg[..., None], axis=2)[..., 0]
        choice.append(arg)
    # backtrack the argmin pairs from the full set inwards
    rows = np.arange(c)
    state = np.full(c, (1 << m) - 1)
    order = np.empty((c, m), dtype=np.intp)
    for s, ((_, _, pairs, _), arg) in enumerate(zip(levels[::-1], choice[::-1])):
        at = rank[state]
        p = pairs[at, arg[rows, at]]
        i, j = pi[p], pj[p]
        i_top = f[rows, i] >= f[rows, j]
        order[:, s] = np.where(i_top, i, j)
        order[:, m - 1 - s] = np.where(i_top, j, i)
        state = state ^ (1 << i) ^ (1 << j)
    return least[:, -1], order


def _least_listfold_exp(scores: np.ndarray):
    """Least exponential listfold loss over all orders of each row of a
    (draws, m) block (m even), and one order reaching it, as (draws, m)
    indices into the row.

    Stage s's denominator D depends only on the set S of still unplaced
    items, so the least loss over the orders of S is the Held-Karp subset
    recursion V(S) = log D(S) + min over i != j in S of
    [f_j - f_i + V(S - {i, j})], with i placed on top and j at the bottom:
    2^m states instead of m! orders.
    """
    draws, m = scores.shape
    tables = _subset_levels(m)
    widest = max(pairs.size for _, _, pairs, _ in tables[3])
    step = max(1, _DP_ELEMENTS // widest)
    least = np.empty(draws)
    order = np.empty((draws, m), dtype=np.intp)
    for lo in range(0, draws, step):
        least[lo : lo + step], order[lo : lo + step] = _least_exp_chunk(
            scores[lo : lo + step], tables)
    return least, order


def verify_theorem2(trials: int, n_range, seed: int, restricted: bool = True) -> TheoremReport:
    """Check that exponential listfold is minimized by the descending sequence.

    restricted mode enumerates only permutations that keep the top half in
    the top positions (the proven statement) and demands uniqueness: that
    needs every near-tied order, so it stays on enumeration (576 rows at
    n = 4). unrestricted mode (the conjectured statement) compares the
    descending loss with the exact least loss over all orders from the
    subset DP, but keeps 2n <= ENUMERATION_CAP so both modes report on
    the same draws. All-tied inputs are flagged degenerate.
    """
    n_range = tuple(int(n) for n in n_range)
    if max(n_range) * 2 > ENUMERATION_CAP:
        raise ValueError(f"n values must satisfy 2n <= {ENUMERATION_CAP}")
    spec = LossSpec("listfold", Transform("exponential"))
    mode = "restricted" if restricted else "unrestricted"
    report = TheoremReport(f"theorem2-exponential-{mode}", seed, trials, n_range)
    trials_by_n = itertools.groupby(_distinct_trials(report, np.random.default_rng(seed)),
                                    key=lambda trial: trial[0])
    for n, group in trials_by_n:
        draws = np.array([f for _, f in group])
        descending = np.sort(draws, axis=1)[:, ::-1]
        hits = []  # (draw, order, its loss, descending loss)
        if restricted:
            index = _half_respecting_table(n)  # row 0 is the identity
            for r, row in enumerate(descending):
                losses = _table_losses(spec, row[index])
                # uniqueness: no other half-respecting order may tie or beat it
                ties = np.flatnonzero(losses[1:] <= losses[0] + MINIMIZER_TOL) + 1
                if ties.size:
                    hits.append((r, row[index[ties[0]]], losses[ties[0]], losses[0]))
        else:
            base = _table_losses(spec, descending)
            least, orders = _least_listfold_exp(descending)
            hits = [(r, descending[r, orders[r]], least[r], base[r])
                    for r in np.flatnonzero(least < base - MINIMIZER_TOL)]
        for r, perm, loss, base_loss in hits:
            report.violations.append(
                {"scores": tuple(draws[r].tolist()), "permutation": tuple(perm.tolist()),
                 "loss": float(loss), "descending_loss": float(base_loss)}
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

    A draw's witness is a least-loss order, found by the exact subset DP,
    which lets size reach SEARCH_CAP. loss_fn(scores_array) -> float
    overrides the evaluated loss; it is a black box per order, so it is
    called on every row of the permutation table of the sorted scores
    (size <= ENUMERATION_CAP) and the witness is the argmin row, the first
    on a tie. Injecting a broken loss is the harness self-test and must
    produce witnesses.
    """
    cap = SEARCH_CAP if loss_fn is None else ENUMERATION_CAP
    if size % 2 != 0 or not 2 <= size <= cap:
        raise ValueError(f"size must be even and in [2, {cap}]")
    if budget < 1:
        return []
    rng = np.random.default_rng(seed)
    draws = np.array([_sample_scores(rng, size, distribution) for _ in range(budget)])
    descending = np.sort(draws, axis=1)[:, ::-1]
    if loss_fn is None:
        spec = LossSpec("listfold", Transform("exponential"))
        base = _table_losses(spec, descending)
        least, orders = _least_listfold_exp(descending)
    else:
        index = _perm_table(size)  # row 0 is the identity
        least, base = np.empty(budget), np.empty(budget)
        orders = np.empty((budget, size), dtype=np.intp)
        for r, f in enumerate(descending):
            losses = np.array([float(loss_fn(row)) for row in f[index]])
            j = int(np.argmin(losses))
            least[r], base[r], orders[r] = losses[j], losses[0], index[j]
    return [Witness(tuple(draws[r].tolist()), tuple(descending[r, orders[r]].tolist()),
                    float(least[r]), float(base[r]))
            for r in np.flatnonzero(least < base - MINIMIZER_TOL)]


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


def _order_counts(out: np.ndarray) -> dict[tuple[int, ...], int]:
    """Counts of the distinct rows of a (draws, m) block of orderings of
    range(m), keyed by item-index tuple."""
    m = out.shape[1]
    if m**m <= np.iinfo(np.int64).max:
        # one base-m integer per row: np.unique(axis=0) alone takes 96 ms
        # per 40000 rows of 8 items against 1.3 ms here, and nearly triples
        # the lab-enumerate benchmark's wall time
        place = m ** np.arange(m - 1, -1, -1)
        keys, counts = np.unique(out @ place, return_counts=True)
        rows = keys[:, None] // place % m
    else:
        rows, counts = np.unique(out, axis=0, return_counts=True)
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))


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
