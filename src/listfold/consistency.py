"""Executable checks of the loss-consistency claims: permutation
enumeration, minimizer classification, counterexample search, and Monte
Carlo samplers for the two generative stories behind the losses.

Two engines answer the questions. Where only the least exponential listfold
loss over all orders is needed (the counterexample search and the
unrestricted theorem-2 check), an exact dynamic program over subsets finds
it in 2^m states, so the search reaches list length SEARCH_CAP = 14. Where
every order or every near-tied order is needed (minimizer sets, theorem 1,
the restricted uniqueness check, the probe), the checks enumerate
permutations, capped at ENUMERATION_CAP = 8 items (8! = 40320 rows).
Minimizers are grouped within an absolute tolerance of 1e-9 so genuinely
tied sets (the sigmoid case produces them) come out as sets, and _classify
names a minimizer set by the true loss it is consistent with:
descending-unique for the permutation 0-1 loss, binary-class-set for the
half-split binary classification loss.

The Monte Carlo samplers draw the two generative stories behind the
likelihood losses, whose probabilities are those losses: exp(-ListMLE-exp)
for the vase story and exp(-ListFold-exp) for the plank-dart story, of the
log weights, evaluated over a whole block of orderings in one call.
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

# the theorem-2 loss and the plank story's; ListMLE-exp is the vase story's
_LISTFOLD_EXP = LossSpec("listfold", Transform("exponential"))
_LISTMLE_EXP = LossSpec("listmle", Transform("exponential"))


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
    s = np.sort(np.asarray(scores, dtype=float))[::-1]
    n = s.size // 2
    # row sigma puts s[sigma_i] at slot i and s[n + sigma_i] at its mirror
    sigma = _perm_table(n)
    return frozenset(map(tuple, np.hstack([s[sigma], s[n + sigma[:, ::-1]]]).tolist()))


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


def _dp_witnesses(descending: np.ndarray):
    """(row, order, its loss, descending loss) for each row of a (draws, m)
    block of descending scores whose least exponential listfold loss, by
    the subset DP, beats the descending order's by more than MINIMIZER_TOL."""
    base = _table_losses(_LISTFOLD_EXP, descending)
    least, orders = _least_listfold_exp(descending)
    return [(r, descending[r, orders[r]], least[r], base[r])
            for r in np.flatnonzero(least < base - MINIMIZER_TOL)]


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
                losses = _table_losses(_LISTFOLD_EXP, row[index])
                # uniqueness: no other half-respecting order may tie or beat it
                ties = np.flatnonzero(losses[1:] <= losses[0] + MINIMIZER_TOL) + 1
                if ties.size:
                    hits.append((r, row[index[ties[0]]], losses[ties[0]], losses[0]))
        else:
            hits = _dp_witnesses(descending)
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
                          seed: int = 0) -> list[Witness]:
    """Hunt for multisets where descending does not globally minimize the
    exponential listfold loss. Returns every witness found (expected none).

    A draw's witness is a least-loss order, found by the exact subset DP,
    which lets size reach SEARCH_CAP.
    """
    if size % 2 != 0 or not 2 <= size <= SEARCH_CAP:
        raise ValueError(f"size must be even and in [2, {SEARCH_CAP}]")
    if budget < 1:
        return []
    rng = np.random.default_rng(seed)
    draws = np.array([_sample_scores(rng, size, distribution) for _ in range(budget)])
    return [Witness(tuple(draws[r].tolist()), tuple(perm.tolist()), float(loss), float(base))
            for r, perm, loss, base in _dp_witnesses(np.sort(draws, axis=1)[:, ::-1])]


@dataclass(frozen=True)
class SwapRecord:
    permutation: tuple[float, ...]
    swap: tuple[int, int]
    delta: float


def order_sensitivity_probe(scores, spec: LossSpec) -> list[SwapRecord]:
    """Find every transposition that moves a permutation toward the truth
    (strictly fewer discordant pairs, i < j with perm[i] < perm[j]) yet
    *increases* the loss.

    Such a swap removes the pair's own discordance, and that of each item
    between them valued in [perm[i], perm[j]], and adds none, so no recount
    is needed. An order-sensitive loss yields an empty list; the
    exponential listfold loss deliberately does not.
    """
    enum = enumerate_losses(scores, spec)
    # every transposition of a permutation is another permutation of the multiset
    loss_of = dict(zip(enum.permutations, enum.losses))
    records: list[SwapRecord] = []
    for perm in dict.fromkeys(itertools.permutations(enum.scores)):
        for i, j in itertools.combinations(range(len(perm)), 2):
            if perm[i] < perm[j]:
                swapped = list(perm)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                delta = loss_of[tuple(swapped)] - loss_of[perm]
                if delta > MINIMIZER_TOL:
                    records.append(SwapRecord(perm, (i, j), delta))
    return records


@dataclass(frozen=True)
class SamplerSpec:
    """Monte Carlo configuration for the generative ranking models.

    model 'vase' draws items sequentially with probability proportional to
    the remaining weights. model 'plank' throws two darts per stage, one
    against the widths w and one against the lengths l = 1/w, rejecting
    same-plank hits. The weights (and for plank the lengths) must be
    finite normal floats with a finite sum; ValueError names the problem.
    """

    model: str
    weights: np.ndarray
    draws: int
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("vase", "plank"):
            raise ValueError(f"unknown sampler model {self.model!r}")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("need at least one weight")
        _check_sampling_weights(w, "weights")
        object.__setattr__(self, "weights", w)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.model == "plank":
            if w.size % 2 != 0:
                raise ValueError("plank model needs an even number of planks")
            # w >= the least normal float, so 1/w is finite
            _check_sampling_weights(1.0 / w, "lengths 1/w")


def _check_sampling_weights(w: np.ndarray, name: str) -> None:
    """Reject what would stall or break the categorical draws: a NaN never
    compares true, and an infinite, subnormal or overflowing total lets
    u * total reach the total."""
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    if np.any(w <= 0):
        raise ValueError(f"{name} must be strictly positive")
    tiny = float(np.finfo(float).tiny)
    if np.any(w < tiny):
        raise ValueError(f"{name} must be at least {tiny!r}, the least normal float")
    # the samplers' totals are running sums; every stage's is at most this one
    with np.errstate(over="ignore"):
        total = np.cumsum(w)[-1]
    if not np.isfinite(total):
        raise ValueError(f"the sum of the {name} overflows")


def _categorical_columns(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """One index per column of an (m, draws) block, drawn proportionally to
    that column's weights.

    The cumulative sums are m - 1 vector adds over the draws, and each
    column's total is its last cumulative sum (a pairwise row sum can
    exceed it from 8 items on). A uniform u in [0, 1) times a normal total
    stays below that total, so the pick, the number of cumulative sums at
    or below it, is an item of positive weight and never m.
    """
    cum = weights.copy()
    for i in range(1, cum.shape[0]):
        np.add(cum[i - 1], cum[i], out=cum[i])
    u = rng.random(cum.shape[1]) * cum[-1]
    pick = np.zeros(cum.shape[1], dtype=np.intp)
    for row in cum:
        pick += u >= row
    return pick


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
    # draw-major: one row per item, so each stage is m vector operations
    # over the draws, not numpy calls along draws rows of m weights
    live = np.repeat(spec.weights[:, None], spec.draws, axis=1)
    out = np.empty((spec.draws, m), dtype=np.intp)
    cols = np.arange(spec.draws)
    for stage in range(m):
        pick = _categorical_columns(rng, live)
        out[:, stage] = pick
        live[pick, cols] = 0.0
    return _order_counts(out)


def sample_plank_dart(spec: SamplerSpec) -> dict[tuple[int, ...], int]:
    """Empirical counts of marked sequences (A_1..A_n, B_n..B_1) under the
    simultaneous two-dart process with same-plank rejection."""
    if spec.model != "plank":
        raise ValueError("spec.model must be 'plank'")
    m = spec.weights.size
    n = m // 2
    rng = np.random.default_rng(spec.seed)
    live_w = np.repeat(spec.weights[:, None], spec.draws, axis=1)
    live_l = np.repeat(1.0 / spec.weights[:, None], spec.draws, axis=1)
    out = np.empty((spec.draws, m), dtype=np.intp)
    cols = np.arange(spec.draws)
    for stage in range(n):
        a = _categorical_columns(rng, live_w)
        b = _categorical_columns(rng, live_l)
        idx = np.flatnonzero(a == b)
        while idx.size:
            a[idx] = _categorical_columns(rng, live_w[:, idx])
            b[idx] = _categorical_columns(rng, live_l[:, idx])
            idx = idx[a[idx] == b[idx]]
        out[:, stage] = a
        out[:, m - 1 - stage] = b
        live_w[a, cols] = 0.0
        live_w[b, cols] = 0.0
        live_l[a, cols] = 0.0
        live_l[b, cols] = 0.0
    return _order_counts(out)


def _story_probability(spec: LossSpec, weights, sequences):
    """exp(-loss) of the log weights in each sequence's order, along the
    last axis: a float for one sequence, one probability per row of an
    (r, m) block."""
    f = np.log(np.asarray(weights, dtype=float))[np.asarray(sequences)]
    p = np.exp(-_table_losses(spec, f.reshape(-1, f.shape[-1])))
    return float(p[0]) if f.ndim == 1 else p.reshape(f.shape[:-1])


def vase_probability(weights, sequences):
    """Probability of each full ordering under sequential selection
    proportional to the remaining weights, exp(-ListMLE-exp of log w):
    a float for one ordering, an array for an (r, m) block."""
    return _story_probability(_LISTMLE_EXP, weights, sequences)


def plank_probability(weights, sequences):
    """Probability of each marked plank sequence (A_1..A_n, B_n..B_1) with
    widths w and lengths 1/w, exp(-ListFold-exp of log w): a float for one
    sequence, an array for an (r, m) block. The log domain keeps it finite
    where the product of the remaining width and length sums overflows."""
    return _story_probability(_LISTFOLD_EXP, weights, sequences)


def frequency_zscores(counts: dict[tuple[int, ...], int], draws: int,
                      prob_fn) -> dict[tuple[int, ...], tuple[float, float, float]]:
    """Per-ordering (empirical, analytic, z) over every ordering of
    range(m), as Python floats, where z uses the binomial standard error,
    so a failure names the offending ordering.

    prob_fn maps the (m!, m) table of orderings, in lexicographic order, to
    their m! analytic probabilities in one call. A result of another shape
    raises ValueError, and so does a p that is not a number in [0, 1],
    naming the first such ordering.
    """
    m = len(next(iter(counts))) if counts else 0
    table = _perm_table(m)
    p = np.asarray(prob_fn(table), dtype=float)
    if p.shape != (len(table),):
        raise ValueError(f"prob_fn gave shape {p.shape} for {len(table)} orderings")
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        perm = tuple(table[bad[0]].tolist())
        raise ValueError(f"analytic probability of {perm} is {p[bad[0]].item()!r}, "
                         "not in [0, 1]")
    perms = list(map(tuple, table.tolist()))
    emp = np.array([counts.get(perm, 0) for perm in perms]) / draws
    se = np.sqrt(p * (1.0 - p) / draws)
    # a p of 0 or 1, or a standard error that underflows, gives z = 0
    z = np.divide(emp - p, se, out=np.zeros_like(p), where=(p > 0.0) & (p < 1.0) & (se > 0.0))
    return dict(zip(perms, zip(emp.tolist(), p.tolist(), z.tolist())))
