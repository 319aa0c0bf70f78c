"""Executable checks of the loss-consistency claims: permutation
enumeration, minimizer classification, counterexample search, and Monte
Carlo samplers for the two generative stories behind the losses.

One engine answers every minimizer question of the theorem checks and the
counterexample search: an exact dynamic program over subsets (Held-Karp)
finds the least listfold loss over all orders, or over the half-respecting
ones, in 2^m states for either transform, and a walk down its table lists
the orders within MINIMIZER_TOL = 1e-9 of that least loss. So every check
reaches list length SEARCH_CAP = 14. Each check walks only what it reads:
theorem 1 at most n! + 1 orders per row (enough to tell the set from the
n!-member family), restricted theorem 2 at most 2 (a second order is a
violation), and unrestricted theorem 2 and the search none, unless a row's
least loss beats descending's, whose first order is the witness.
enumerate_losses evaluates every permutation, capped at ENUMERATION_CAP =
8 items (8! = 40320 rows), for the enumeration table, the probe and the
tests. Minimizers are grouped within the tolerance so genuinely tied sets
(the sigmoid case produces them) come out as sets, and _classify names a
minimizer set by the true loss it is consistent with: descending-unique
for the permutation 0-1 loss, binary-class-set for the half-split binary
classification loss.

The Monte Carlo samplers draw the two generative stories behind the
likelihood losses, whose probabilities are those losses: exp(-ListMLE-exp)
for the vase story and exp(-ListFold-exp) for the plank-dart story, of the
log weights, evaluated over a whole block of orderings in one call. The
samplers run draw-major over all draws at once and keep each draw's free
items as one intp code, bit i set while item i is free. A spec's table
of every free set's running sums, 2^m rows of m float64 (plank has one
for the widths and one for the lengths), turns a categorical draw into
one row gather, one multiply and m - 1 compares, and marking a pick into
one XOR. Per draw they hold an 8-byte code, m bytes of picks in the least
unsigned dtype and a gathered row of m float64 values while a stage
draws, and 8 bytes of base-m key while counting. The vase's last item is the one
left, so it takes no draw.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, Transform, evaluate_loss

__all__ = [
    "ENUMERATION_CAP",
    "MINIMIZER_TOL",
    "SAMPLER_CAP",
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
SAMPLER_CAP = 16
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
    _, first, counts = np.unique(rank[index] @ _place(f.size), return_index=True,
                                 return_counts=True)
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
    return frozenset(map(tuple, s[_theorem1_orders(s.size // 2)].tolist()))


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


def _distinct_draws(report: TheoremReport, rng: np.random.Generator):
    """Yield (n, draws) for each n of report.n_values: report.trials_per_n
    uniform(-3, 3) draws of 2n scores, less the tied ones. Every draw
    counts in report.trials_run and a tied one in report.degenerate.
    ValueError unless there is an n and every n has 1 <= n, 2n <= SEARCH_CAP."""
    ns = report.n_values
    if not ns or min(ns) < 1 or 2 * max(ns) > SEARCH_CAP:
        raise ValueError(f"n values must satisfy 1 <= n and 2n <= {SEARCH_CAP}, got {list(ns)}")
    for n in ns:
        draws = rng.uniform(-3.0, 3.0, size=(report.trials_per_n, 2 * n))
        distinct = np.all(np.diff(np.sort(draws, axis=1), axis=1) != 0, axis=1)
        report.trials_run += len(draws)
        report.degenerate += len(draws) - int(distinct.sum())
        if distinct.any():
            yield n, draws[distinct]


def verify_theorem1(trials: int, n_range, seed: int) -> TheoremReport:
    """Check on random distinct score sets that the sigmoid listfold
    minimizer set, every order within MINIMIZER_TOL of the least loss,
    equals the predicted pairing family exactly. The subset DP finds the
    set, so n_range takes any 1 <= n with 2n <= SEARCH_CAP. Its walk keeps
    at most n! + 1 orders per row, so a larger set is reported by its
    first n! + 1.

    The DP runs on each row sorted descending, so its orders are in rank
    space (index r is the row's r-th largest score), where the family is
    the same n! orders for every row: a row passes when the sorted base-2n
    keys of its orders equal the family's. Float tuples are built only for
    a violation's report. Tied inputs enlarge the minimizer set; they are
    counted as degenerate, not as violations.
    """
    report = TheoremReport("theorem1-sigmoid", seed, trials, tuple(int(n) for n in n_range))
    for n, draws in _distinct_draws(report, np.random.default_rng(seed)):
        descending = np.sort(draws, axis=1)[:, ::-1]
        # n! + 1 orders tell a set from the n!-member family
        _, near = _least_listfold(descending, Transform("sigmoid"),
                                  limit=math.factorial(n) + 1)
        place = _place(2 * n)
        family = np.sort(_theorem1_orders(n) @ place)
        for f, s, orders in zip(draws, descending, near):
            if not np.array_equal(np.sort(orders @ place), family):
                report.violations.append(
                    {
                        "scores": tuple(f.tolist()),
                        "found": sorted(map(tuple, s[orders].tolist())),
                        "predicted": sorted(theorem1_minimizer_family(f)),
                    }
                )
    return report


@functools.cache
def _theorem1_orders(n: int) -> np.ndarray:
    """theorem1_minimizer_family's n! orders in rank space, one (read-only)
    row each, as index orders of the 2n scores sorted descending: row sigma
    puts rank sigma_i at slot i and rank n + sigma_i at its mirror."""
    sigma = _perm_table(n)
    orders = np.hstack([sigma, n + sigma[:, ::-1]])
    orders.flags.writeable = False
    return orders


@functools.cache
def _perm_table(m: int) -> np.ndarray:
    """All permutations of range(m) in lexicographic order, one per row."""
    return np.array(list(itertools.permutations(range(m))), dtype=np.intp)


# Elements per (draws, states, pairs) temporary of the subset DP: draws go
# through in chunks so the widest level's gathers stay near 8 MB at m = 14.
_DP_ELEMENTS = 1 << 20


@functools.cache
def _subset_levels(m: int):
    """Index tables of the subset DP over range(m).

    Returns (pi, pj, levels): the C(m, 2) pairs pi < pj, and per even
    level k = 2, 4, ..., m the tuple (k, states, pairs, rest): the k-item
    bitmasks in ascending order, the ids of the C(k, 2) pairs inside each,
    and each state with that pair removed.
    """
    pi, pj = np.triu_indices(m, 1)
    pair_mask = (1 << pi) | (1 << pj)
    size = np.zeros(1 << m, dtype=np.intp)
    for b in range(m):
        size[1 << b : 2 << b] = size[: 1 << b] + 1
    levels = []
    for k in range(2, m + 1, 2):
        states = np.flatnonzero(size == k)
        inside = (states[:, None] & pair_mask) == pair_mask
        pairs = np.nonzero(inside)[1].reshape(states.size, k * (k - 1) // 2)
        levels.append((k, states, pairs, states[:, None] ^ pair_mask[pairs]))
    return pi, pj, levels


# Elements per walk frontier array (branches x candidate pairs, or branches
# x m of partial orders): 16 MiB of float64. The walk takes rows in groups
# of _WALK_ELEMENTS // (limit m (m - 1)), so no frontier array passes
# max(_WALK_ELEMENTS, limit m (m - 1)) elements.
_WALK_ELEMENTS = 1 << 21


def _least_listfold(scores: np.ndarray, transform: Transform, restricted: bool = False, *,
                    limit: int):
    """Least listfold loss over the orders of each row of a (draws, m)
    block (m even), and the orders within MINIMIZER_TOL of it.

    Returns (least, near): least is (draws,), and near[r] is a (k, m) array
    of row r's first k <= limit near-minimizer orders, as indices into the
    row (k >= 1), in the walk's order; limit=0 skips the walk (near is
    None). A row of equal scores has m! near-minimizer orders, and sigmoid
    pair terms under 1e-9 (score gaps over about 21) enlarge a set alike,
    so every caller passes the limit it reads.

    A stage's terms depend only on the set S of still unplaced items and
    the pair it places: the stage term is log D(S) for exp and
    log C(|S|, 2) for sgm, and placing i on top of j costs
    -log psi(f_i - f_j). So the least loss over the orders of S is the
    Held-Karp subset recursion V(S) = stage(S) + min over i != j in S of
    [-log psi(f_i - f_j) + V(S - {i, j})]: 2^m states instead of m!
    orders. restricted lets a stage pair only a top-half item (one of the
    row's first m/2), on top, with a bottom-half one: the half-respecting
    orders.
    """
    draws, m = scores.shape
    pi, pj, levels = _subset_levels(m)
    step = max(1, _DP_ELEMENTS // max(pairs.size for _, _, pairs, _ in levels))
    least = np.empty(draws)
    near = None if limit == 0 else []
    for lo in range(0, draws, step):
        f = scores[lo : lo + step]
        # cost[r, i, j]: item i on top of item j; a barred pair costs inf
        cost = -transform.log_terms(f[:, :, None] - f[:, None, :])[0]
        if restricted:
            top = np.arange(m) < m // 2
            cost[:, ~(top[:, None] & ~top)] = np.inf
        best = np.minimum(cost[:, pi, pj], cost[:, pj, pi])
        if transform.kind == "exponential":
            # log A(S), log B(S): log-sums of e^f and e^-f over every
            # subset, one bit at a time (those holding bit b extend those below 2^b)
            log_a = np.full((len(f), 1 << m), -np.inf)
            log_b = np.full((len(f), 1 << m), -np.inf)
            for b in range(m):
                log_a[:, 1 << b : 2 << b] = np.logaddexp(log_a[:, : 1 << b], f[:, b : b + 1])
                log_b[:, 1 << b : 2 << b] = np.logaddexp(log_b[:, : 1 << b], -f[:, b : b + 1])
        v = np.zeros((len(f), 1 << m))  # V(empty set) = 0
        for k, states, pairs, rest in levels:
            if transform.kind == "exponential":
                # log D(S) = log(A B - |S|), as losses._listfold_exp_denominators
                log_ab = log_a[:, states] + log_b[:, states]
                stage = log_ab + np.log1p(-k * np.exp(-log_ab))
            else:
                stage = math.log(k * (k - 1) / 2)
            v[:, states] = stage + (v[:, rest] + best[:, pairs]).min(axis=2)
        least[lo : lo + step] = v[:, -1]
        if near is not None:
            # rows go in groups whose frontier, at most limit branches per
            # row times m (m - 1) candidates, fits _WALK_ELEMENTS
            group = max(1, _WALK_ELEMENTS // (limit * m * (m - 1)))
            for g in range(0, len(f), group):
                near += _near_minimizers(v[g : g + group], cost[g : g + group], limit)
    return least, near


def _near_minimizers(v: np.ndarray, cost: np.ndarray, limit: int) -> list[np.ndarray]:
    """The first limit orders of each row whose loss is within
    MINIMIZER_TOL of V(full set), split by row, from _least_listfold's
    table V and pair costs.

    The walk places pairs from the outside in, over all rows at once. A
    branch's slack is its loss so far plus V(unplaced) less V(full set):
    placing a pair adds that pair's recursion term less the least one, and
    a branch is kept while its slack fits in MINIMIZER_TOL. The frontier
    stays grouped by row, and each branch's children follow it in order.
    Every kept branch completes to a near-minimizer (its least term adds
    no slack), so a row's first limit branches at any stage hold its first
    limit orders: the frontier is trimmed to them whenever it passes rows x
    limit, and at the last stage.
    """
    c, m = cost.shape[:2]
    pi, pj, levels = _subset_levels(m)
    row = np.arange(c)
    state = np.full(c, (1 << m) - 1)
    slack = np.zeros(c)
    order = np.zeros((c, m), dtype=np.intp)
    for s, (k, states, pairs, rest) in enumerate(levels[::-1]):
        # each state's row within its level, whose states ascend
        at = np.searchsorted(states, state)
        # both orientations of each pair inside the state
        top = np.hstack([pi[pairs[at]], pj[pairs[at]]])
        bottom = np.hstack([pj[pairs[at]], pi[pairs[at]]])
        term = cost[row[:, None], top, bottom] + v[row[:, None], np.tile(rest[at], 2)]
        term = slack[:, None] + (term - term.min(axis=1, keepdims=True))
        keep, pick = np.nonzero(term <= MINIMIZER_TOL)
        if keep.size > c * limit or k == 2:
            # each branch's rank among its row's branches
            first = np.arange(keep.size) - np.searchsorted(row[keep], row[keep]) < limit
            keep, pick = keep[first], pick[first]
        row, slack, order = row[keep], term[keep, pick], order[keep]
        order[:, s], order[:, m - 1 - s] = top[keep, pick], bottom[keep, pick]
        state = state[keep] ^ (1 << order[:, s]) ^ (1 << order[:, m - 1 - s])
    return np.split(order, np.flatnonzero(np.diff(row)) + 1)


def _dp_witnesses(descending: np.ndarray, restricted: bool = False):
    """(row, order, least loss, descending loss) for each row of a (draws,
    m) block of descending scores where the descending order is not the
    unique exponential listfold minimizer: among the half-respecting orders
    (restricted), another order within MINIMIZER_TOL of the least loss;
    among all orders, a least loss below descending's by more than
    MINIMIZER_TOL.

    The restricted walk keeps 2 orders per row, one of which is not
    descending if any is. The unrestricted check reads the least losses
    alone, and walks only a beaten row, for its first order."""
    base = _table_losses(_LISTFOLD_EXP, descending)
    if restricted:
        least, near = _least_listfold(descending, _LISTFOLD_EXP.transform, True, limit=2)
        hits = []
        for r, orders in enumerate(near):
            orders = orders[np.any(orders != np.arange(orders.shape[1]), axis=1)]
            if len(orders):
                hits.append((r, descending[r, orders[0]], least[r], base[r]))
        return hits
    least, _ = _least_listfold(descending, _LISTFOLD_EXP.transform, limit=0)
    beaten = np.flatnonzero(least < base - MINIMIZER_TOL)
    if not beaten.size:
        return []
    _, near = _least_listfold(descending[beaten], _LISTFOLD_EXP.transform, limit=1)
    return [(r, descending[r, orders[0]], least[r], base[r]) for r, orders in zip(beaten, near)]


def verify_theorem2(trials: int, n_range, seed: int, restricted: bool = True) -> TheoremReport:
    """Check that exponential listfold is minimized by the descending sequence.

    restricted mode (the proven statement) demands that the descending
    order is the only half-respecting order (top half kept in the top
    positions) within MINIMIZER_TOL of their least loss. unrestricted mode
    (the conjectured statement) compares the descending loss with the
    least loss over all orders. Both take the subset DP, so n_range takes
    any 1 <= n with 2n <= SEARCH_CAP. Tied inputs are flagged degenerate.
    """
    mode = "restricted" if restricted else "unrestricted"
    report = TheoremReport(f"theorem2-exponential-{mode}", seed, trials,
                           tuple(int(n) for n in n_range))
    for _, draws in _distinct_draws(report, np.random.default_rng(seed)):
        descending = np.sort(draws, axis=1)[:, ::-1]
        for r, perm, loss, base_loss in _dp_witnesses(descending, restricted):
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

    The exact subset DP gives each draw's least loss, which lets size reach
    SEARCH_CAP; a draw's witness is an order within MINIMIZER_TOL of it.
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
    finite normal floats with a finite sum, and there are at most
    SAMPLER_CAP = 16 of them; ValueError names the problem.
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
        if w.size > SAMPLER_CAP:
            # _free_set_sums holds 2^m rows: 8 MiB at 16 weights
            raise ValueError(f"samplers capped at {SAMPLER_CAP} weights, got {w.size}")
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


def _free_set_sums(weights: np.ndarray) -> np.ndarray:
    """The (2^m, m) running sums of every free set of the (m,) weights.

    Row s is the free set whose bit i is set while item i is free, and
    column i holds the left-fold sum of weights[j] * bit_j(s) over j <= i,
    where each term is exactly weights[j] or +0.0. np.cumsum adds along a
    row from left to right, never pairwise, so the last column is the
    running total a draw scales u by."""
    m = weights.size
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    return np.cumsum(weights * bits, axis=1)


def _categorical_codes(rng: np.random.Generator, table: np.ndarray,
                       state: np.ndarray) -> np.ndarray:
    """One item per draw, drawn proportionally to the weights of the items
    free in that draw's intp code state, in the least unsigned dtype that
    holds m - 1; table is the weights' _free_set_sums.

    A draw gathers its free set's row of running sums (a code is below
    2^m, so mode="clip" changes no index and only skips the bounds check),
    scales a uniform by the row's total and counts the m - 1 running sums
    at or below it. A uniform in [0, 1) times a normal total stays below
    that total, so the pick is a free item of positive weight and never m;
    the last running sum is never compared. With one free item the pick is
    forced, so sample_vase takes its last item as the one left instead of
    calling this.

    Gathering one column at a time instead holds less memory, but in a
    fresh process it measured slower end to end (lab-enumerate wall_ref
    0.68-0.72 against 0.59-0.61), though not in a process where row
    gathers had run first, so the cost is in the allocator, not the work.
    """
    m = table.shape[1]
    rows = table.take(state, axis=0, mode="clip")
    u = rng.random(len(state)) * rows[:, -1]
    pick = np.zeros(len(state), dtype=np.min_scalar_type(m - 1))
    for run in rows.T[:-1]:
        pick += u >= run
    return pick


def _place(m: int) -> np.ndarray:
    """Place values of the base-m key: rows @ _place(m) is one integer per
    ordering of range(m), increasing in lexicographic order (int64 holds
    it while m**m does)."""
    return m ** np.arange(m - 1, -1, -1)


def _order_counts(out: np.ndarray) -> dict[tuple[int, ...], int]:
    """Counts of the distinct rows of a (draws, m) block of orderings of
    range(m), keyed by item-index tuple."""
    m = out.shape[1]
    # one base-m integer per row: np.unique(axis=0) takes 96 ms per 40000
    # rows of 8 items against 1.3 ms here, and nearly triples the
    # lab-enumerate benchmark's wall time. Horner's rule over the columns
    # gives the key without a wide copy of the block; uint64 holds it up
    # to SAMPLER_CAP = 16 items, whose largest key is 16**16 - 1.
    key = np.zeros(len(out), dtype=np.uint64)
    for col in out.T:
        key *= m
        np.add(key, col, out=key, dtype=np.uint64, casting="unsafe")
    keys, counts = np.unique(key, return_counts=True)
    rows = keys[:, None] // _place(m).astype(np.uint64) % m
    return dict(zip(zip(*rows.T.tolist()), counts.tolist()))


def _full_set(m: int, draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Every draw's starting free-set code, (1 << m) - 1 as intp (a
    narrower index is cast on every take), and the (m,) bit of each item,
    which state ^= bit.take(pick) clears."""
    return np.full(draws, (1 << m) - 1, dtype=np.intp), 1 << np.arange(m)


def sample_vase(spec: SamplerSpec) -> dict[tuple[int, ...], int]:
    """Empirical counts of full orderings under sequential proportional
    sampling without replacement. Keys are item-index tuples."""
    if spec.model != "vase":
        raise ValueError("spec.model must be 'vase'")
    m = spec.weights.size
    rng = np.random.default_rng(spec.seed)
    # draw-major: one free-set code per draw, so each stage is one row
    # gather and m vector operations over the draws
    table = _free_set_sums(spec.weights)
    state, bit = _full_set(m, spec.draws)
    out = np.empty((spec.draws, m), dtype=np.min_scalar_type(m - 1))
    for stage in range(m - 1):
        pick = _categorical_codes(rng, table, state)
        out[:, stage] = pick
        state ^= bit.take(pick)
    # the one item left is the last; its draw would be forced, and the
    # generator is not used after it. Its code has one set bit, whose item
    # a 2^m lookup gives.
    last = np.zeros(1 << m, dtype=out.dtype)
    last[bit] = np.arange(m)
    out[:, m - 1] = last.take(state, mode="clip")
    return _order_counts(out)


def sample_plank_dart(spec: SamplerSpec) -> dict[tuple[int, ...], int]:
    """Empirical counts of marked sequences (A_1..A_n, B_n..B_1) under the
    simultaneous two-dart process with same-plank rejection."""
    if spec.model != "plank":
        raise ValueError("spec.model must be 'plank'")
    m = spec.weights.size
    n = m // 2
    rng = np.random.default_rng(spec.seed)
    widths, lengths = _free_set_sums(spec.weights), _free_set_sums(1.0 / spec.weights)
    state, bit = _full_set(m, spec.draws)
    out = np.empty((spec.draws, m), dtype=np.min_scalar_type(m - 1))
    for stage in range(n):
        a = _categorical_codes(rng, widths, state)
        b = _categorical_codes(rng, lengths, state)
        idx = np.flatnonzero(a == b)
        while idx.size:
            clashed = state[idx]
            a[idx] = _categorical_codes(rng, widths, clashed)
            b[idx] = _categorical_codes(rng, lengths, clashed)
            idx = idx[a[idx] == b[idx]]
        out[:, stage] = a
        out[:, m - 1 - stage] = b
        state ^= bit.take(a)
        state ^= bit.take(b)
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
    their m! analytic probabilities in one call. More than ENUMERATION_CAP
    items raise ValueError (the table would have m! rows), and so do a
    result of another shape and a p that is not a number in [0, 1], naming
    the first such ordering. A key that is no ordering of range(m) is
    ignored.
    """
    m = len(next(iter(counts))) if counts else 0
    if m > ENUMERATION_CAP:
        raise ValueError(f"z table capped at {ENUMERATION_CAP} items, got {m}")
    table = _perm_table(m)
    p = np.asarray(prob_fn(table), dtype=float)
    if p.shape != (len(table),):
        raise ValueError(f"prob_fn gave shape {p.shape} for {len(table)} orderings")
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        perm = tuple(table[bad[0]].tolist())
        raise ValueError(f"analytic probability of {perm} is {p[bad[0]].item()!r}, "
                         "not in [0, 1]")
    # permutations() yields the table's rows as tuples, in the same order
    perms = list(itertools.permutations(range(m)))
    hits = np.fromiter((counts.get(perm, 0) for perm in perms), np.int64, len(perms))
    emp = hits / draws
    se = np.sqrt(p * (1.0 - p) / draws)
    # a p of 0 or 1, or a standard error that underflows, gives z = 0
    z = np.divide(emp - p, se, out=np.zeros_like(p), where=(p > 0.0) & (p < 1.0) & (se > 0.0))
    return dict(zip(perms, zip(emp.tolist(), p.tolist(), z.tolist())))
