"""The scoring function: a fully-connected network with hand-written
forward/backward passes, plus its mini-batch training loop.

Layer widths follow the [d, 2d, 4d, ceil(d/2), 1] pattern with a ReLU after
every layer. The final ReLU is kept for the ranking losses and dropped for
mse, where negative targets must be reachable. One "batch" is a set of
batch_size weeks; each week is a full ranked list and per-list losses and
gradients are averaged over the batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, FactorPanel, RankedBatch, WindowPlan, ranked_train_weeks
from .losses import LossSpec, evaluate_loss

__all__ = [
    "ScoringNet",
    "TrainConfig",
    "AdamState",
    "SgdState",
    "TrainingDivergenceError",
    "NonFiniteLossError",
    "CheckpointError",
    "init_network",
    "forward",
    "forward_cached",
    "backward",
    "make_optimizer",
    "train_step",
    "train",
    "score_week",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_norm",
]


class NonFiniteLossError(RuntimeError):
    """A single batch produced a non-finite loss; the update was skipped."""


class TrainingDivergenceError(RuntimeError):
    """Ten consecutive batches produced non-finite losses."""


class CheckpointError(DataError):
    """A checkpoint lacks a required array, or a parameter's shape disagrees
    with its layer_dims."""


@dataclass
class ScoringNet:
    """Shared scoring function: the same parameters map every stock's
    factor vector to a scalar."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    final_relu: bool
    seed: int

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec
    batch_size: int = 32
    total_batches: int = 1000
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    final_relu: bool = True
    seed: int = 0
    reverse_labels: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.total_batches < 0:
            raise ValueError("total_batches must be >= 0")


def init_network(feature_dim: int, seed: int, final_relu: bool = True) -> ScoringNet:
    """Widths [d, 2d, 4d, ceil(d/2), 1]; weights uniform in
    +-sqrt(6/(fan_in+fan_out)), biases zero. Deterministic per seed.

    Biases start slightly positive (0.01 hidden, 0.5 at the output when the
    final ReLU is on): an all-zero start drops whole layers dead at small
    widths (non-negative activations against one bad weight sign clamp the
    entire cross-section to a constant, and no gradient ever flows). The
    ranking losses are shift invariant, so the operating point is free.
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    d = feature_dim
    dims = [d, 2 * d, 4 * d, (d + 1) // 2, 1]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.full(fan_out, 0.01))
    biases[-1][:] = 0.5 if final_relu else 0.0
    return ScoringNet(dims, weights, biases, final_relu, seed)


def _buffer(workspace: dict, role: str, layer: int, shape: tuple, dtype=float) -> np.ndarray:
    """The workspace array for (role, layer, shape), made on first use."""
    key = (role, layer, shape)
    buf = workspace.get(key)
    if buf is None:
        buf = workspace[key] = np.empty(shape, dtype)
    return buf


def forward_cached(net: ScoringNet, features: np.ndarray, workspace: dict | None = None):
    """Scores plus the cache backward needs.

    The cache is the list of activations: cache[i] is the input of layer i
    (cache[0] the features) and cache[-1] the network output, whose column
    0 is the scores. No pre-activation is kept: a ReLU's mask is its output
    > 0, which equals pre-activation > 0, NaN included.

    workspace is a dict of reusable arrays keyed by role, layer and shape.
    The activations are written into its arrays, so a later call with the
    same workspace overwrites the scores and cache of this one. Without a
    workspace every call gets fresh arrays.
    """
    if workspace is None:
        workspace = {}
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match network input {net.layer_dims[0]}"
        )
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = np.matmul(acts[i], w, out=_buffer(workspace, "act", i, (len(x), w.shape[1])))
        h += b
        if i < last or net.final_relu:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts[-1][:, 0], acts


def forward(net: ScoringNet, features: np.ndarray) -> np.ndarray:
    """One score per input row, order preserving."""
    scores, _ = forward_cached(net, features)
    return scores


def backward(net: ScoringNet, cache, dscores: np.ndarray, workspace: dict | None = None):
    """Parameter gradients from dLoss/dscore via the chain rule, given the
    activations list forward_cached returned.

    ReLU subgradient at exactly 0 is taken as 0: the mask is activation > 0.
    The gradients and the deltas between layers are written into workspace
    arrays (see forward_cached), so a later call with the same workspace
    overwrites the gradients this one returned. Without a workspace every
    call gets fresh arrays.
    """
    if workspace is None:
        workspace = {}
    last = len(net.weights) - 1
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    delta = np.asarray(dscores, dtype=float)[:, None]
    for i in range(last, -1, -1):
        if i < last or net.final_relu:
            out = cache[i + 1]
            mask = np.greater(out, 0.0, out=_buffer(workspace, "mask", i, out.shape, bool))
            delta = np.multiply(delta, mask, out=_buffer(workspace, "delta", i, out.shape))
        w = net.weights[i]
        grad_w[i] = np.matmul(cache[i].T, delta, out=_buffer(workspace, "grad_w", i, w.shape))
        grad_b[i] = np.sum(delta, axis=0, out=_buffer(workspace, "grad_b", i, (w.shape[1],)))
        if i > 0:
            delta = np.matmul(delta, w.T,
                              out=_buffer(workspace, "delta", i - 1, (len(delta), w.shape[0])))
    return grad_w, grad_b


def _batch_loss_and_grad(scores: np.ndarray, batch: list[RankedBatch], spec: LossSpec,
                         reverse_labels: bool):
    """Per-list losses (B,) and dLoss/dscore in *row* order, from one
    evaluate_loss call on the (B, n) scores gathered into truth order
    (reversed when reverse_labels trains a bottom-up model); the gradient
    is scattered back to the rows the network produced."""
    if len({b.list_length for b in batch}) != 1:
        raise ValueError("every list in a batch must have the same length")
    order = np.stack([b.truth_order for b in batch])
    if reverse_labels:
        order = order[:, ::-1]
    rows = scores.reshape(order.shape)
    returns = None
    if spec.family == "mse":
        returns = np.take_along_axis(np.stack([b.returns for b in batch]), order, axis=1)
    res = evaluate_loss(spec, np.take_along_axis(rows, order, axis=1), returns)
    dscores = np.empty_like(rows)
    np.put_along_axis(dscores, order, res.gradient, axis=1)
    return res.value, dscores.ravel()


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    # two scratch arrays per parameter, so that an update allocates nothing
    work: list = field(default_factory=list, init=False, repr=False, compare=False)

    def update(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """One Adam step, in place. Each comment is the expression the
        lines below it evaluate, in that expression's operation order."""
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        if not self.work:
            self.work = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v, (step, denom) in zip(params, grads, self.m, self.v, self.work):
            # m += (1 - beta1) * (g - m)
            np.subtract(g, m, out=step)
            step *= 1.0 - self.beta1
            m += step
            # v += (1 - beta2) * (g * g - v)
            np.multiply(g, g, out=step)
            step -= v
            step *= 1.0 - self.beta2
            v += step
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
            np.divide(m, b1t, out=step)
            step *= self.lr
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step


@dataclass
class SgdState:
    lr: float
    # one scratch array per parameter, so that an update allocates nothing
    work: list = field(default_factory=list, init=False, repr=False, compare=False)

    def update(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """p -= lr * g for every parameter, in place."""
        if not self.work:
            self.work = [np.empty_like(p) for p in params]
        for p, g, step in zip(params, grads, self.work):
            np.multiply(g, self.lr, out=step)
            p -= step


def make_optimizer(name: str, lr: float):
    if name == "adam":
        return AdamState(lr=lr)
    if name == "sgd":
        return SgdState(lr=lr)
    raise ValueError(f"unknown optimizer: {name!r}")


def train_step(net: ScoringNet, batch: list[RankedBatch], spec: LossSpec,
               optimizer, reverse_labels: bool = False,
               workspace: dict | None = None) -> float:
    """One optimizer update from a batch of ranked lists.

    Lists must share one length. They are stacked into a single
    forward/backward pass and one batched loss evaluation; losses and
    parameter gradients are averaged over the batch. Raises
    NonFiniteLossError (before touching the parameters) when the scores,
    the averaged loss or the loss gradient is not finite: the exponential
    listfold gradient overflows at scores near 1e19 in magnitude while its
    value stays finite. workspace is passed on to forward_cached and backward, and
    also holds the stacked features.
    """
    if not batch:
        raise ValueError("empty batch")
    if workspace is None:
        workspace = {}
    shape = (sum(len(b.features) for b in batch), batch[0].features.shape[1])
    feats = np.concatenate([b.features for b in batch],
                           out=_buffer(workspace, "features", 0, shape))
    scores, cache = forward_cached(net, feats, workspace=workspace)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteLossError("batch scores are not finite")
    values, dscores = _batch_loss_and_grad(scores, batch, spec, reverse_labels)
    mean_loss = float(np.mean(values))
    if not np.isfinite(mean_loss):
        raise NonFiniteLossError(f"batch loss is not finite: {mean_loss}")
    if not np.all(np.isfinite(dscores)):
        raise NonFiniteLossError("batch loss gradient is not finite")
    grad_w, grad_b = backward(net, cache, dscores / len(batch), workspace=workspace)
    params, grads = [], []
    for w, b, gw, gb in zip(net.weights, net.biases, grad_w, grad_b):
        params += [w, b]
        grads += [gw, gb]
    optimizer.update(params, grads)
    return mean_loss


def train(panel: FactorPanel, window: WindowPlan, config: TrainConfig,
          lists: list[RankedBatch] | None = None) -> ScoringNet:
    """Train a fresh network on the window's training weeks.

    One RankedBatch per training week; week order reshuffles with the
    seeded RNG whenever the pool is exhausted, until exactly total_batches
    batches have been consumed. Training never reads a week outside
    train_range. lists takes the window's prebuilt ranked_train_weeks, so models trained on
    one window share them; the median stock of an odd universe must
    already be dropped for the listfold and naive_pt families. Every step
    reuses one workspace of arrays that this call owns.
    """
    if lists is None:
        lists = ranked_train_weeks(panel, window, require_even=config.loss.even_length)
    net = init_network(panel.n_factors, config.seed, final_relu=config.final_relu)
    if config.total_batches == 0:
        return net
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    queue: list[int] = []
    consecutive_bad = 0
    workspace: dict = {}
    for _ in range(config.total_batches):
        while len(queue) < config.batch_size:
            queue.extend(rng.permutation(len(lists)).tolist())
        picks, queue = queue[: config.batch_size], queue[config.batch_size :]
        try:
            train_step(net, [lists[i] for i in picks], config.loss, optimizer,
                       reverse_labels=config.reverse_labels, workspace=workspace)
        except NonFiniteLossError:
            consecutive_bad += 1
            if consecutive_bad >= 10:
                raise TrainingDivergenceError(
                    "loss non-finite for 10 consecutive batches; reduce the learning rate"
                ) from None
            continue
        consecutive_bad = 0
    return net


def score_week(net: ScoringNet, panel: FactorPanel, week: str) -> np.ndarray:
    """Scores aligned to panel.stocks for the given week."""
    feats = panel.week_features(week)
    return forward(net, feats)


def config_digest(config: TrainConfig) -> str:
    text = repr(
        (
            config.loss.family,
            None if config.loss.transform is None else config.loss.transform.kind,
            config.batch_size,
            config.total_batches,
            config.learning_rate,
            config.optimizer,
            config.final_relu,
            config.seed,
            config.reverse_labels,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def save_checkpoint(net: ScoringNet, path, config_hash: str = "",
                    norm_params=None) -> None:
    """Flat .npz of layer dims and row-major parameter arrays; loading
    reproduces forward outputs bit identically. When the model was trained
    on min-max normalized factors, pass the fitted (min, max) pair so
    scoring a raw panel later applies the same mapping."""
    payload = {
        "layer_dims": np.asarray(net.layer_dims, dtype=np.int64),
        "final_relu": np.asarray([int(net.final_relu)], dtype=np.int64),
        "seed": np.asarray([net.seed], dtype=np.int64),
        "config_hash": np.asarray([config_hash]),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    if norm_params is not None:
        payload["norm_min"], payload["norm_max"] = norm_params
    np.savez(path, **payload)


def load_checkpoint(path) -> ScoringNet:
    """The network saved by save_checkpoint. A missing array, or a w{i} /
    b{i} whose shape disagrees with layer_dims, raises CheckpointError."""
    with np.load(path, allow_pickle=False) as blob:
        arrays = dict(blob)
    missing = [key for key in ("layer_dims", "final_relu", "seed") if key not in arrays]
    if missing:
        raise CheckpointError(f"{path}: missing {', '.join(missing)}")
    dims = np.ravel(arrays["layer_dims"]).tolist()
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        for key, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            got = arrays[key].shape if key in arrays else "missing"
            if got != shape:
                raise CheckpointError(f"{path}: {key} is {got}, layer_dims {dims} need {shape}")
    n_layers = len(dims) - 1
    return ScoringNet(
        layer_dims=dims,
        weights=[arrays[f"w{i}"] for i in range(n_layers)],
        biases=[arrays[f"b{i}"] for i in range(n_layers)],
        final_relu=bool(arrays["final_relu"][0]),
        seed=int(arrays["seed"][0]),
    )


def load_checkpoint_norm(path):
    """The (min, max) arrays stored with the checkpoint, or None."""
    with np.load(path, allow_pickle=False) as blob:
        if "norm_min" in blob:
            return blob["norm_min"], blob["norm_max"]
    return None
