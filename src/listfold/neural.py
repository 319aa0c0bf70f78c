"""The scoring function: a fully-connected network with hand-written
forward/backward passes, plus its mini-batch training loop.

Layer widths follow the [d, 2d, 4d, ceil(d/2), 1] pattern with a ReLU after
every layer. The final ReLU is kept for the ranking losses and dropped for
mse, where negative targets must be reachable. One "batch" is a set of
batch_size weeks; each week is a full ranked list and per-list losses and
gradients are averaged over the batch.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, FactorPanel, RankedBatch, _write_whole, apply_norm_params
from .losses import LossSpec, evaluate_loss

__all__ = [
    "MAX_SKIPPED_SHARE",
    "ScoringNet",
    "TrainConfig",
    "AdamState",
    "TrainingDivergenceError",
    "NonFiniteLossError",
    "CheckpointError",
    "init_network",
    "forward",
    "forward_cached",
    "backward",
    "train_step",
    "train",
    "score_week",
    "save_checkpoint",
    "load_checkpoint",
]


class NonFiniteLossError(RuntimeError):
    """A single batch produced a non-finite loss; the update was skipped."""


class TrainingDivergenceError(RuntimeError):
    """Ten consecutive batches produced non-finite losses, or more than
    MAX_SKIPPED_SHARE of a run's batches did."""


# The share of a run's batches that train may skip as non-finite before it
# raises TrainingDivergenceError.
MAX_SKIPPED_SHARE = 0.1


class CheckpointError(DataError):
    """A checkpoint is not an .npz of arrays, lacks a required array, or
    holds an array whose shape disagrees with its layer_dims or whose
    values are not finite real numbers."""


@dataclass
class ScoringNet:
    """Shared scoring function: the same parameters map every stock's
    factor vector to a scalar.

    norm_params is the input map, the per-factor (min, max) of the window
    the network was trained on: every row is min-max scaled with it
    (apply_norm_params) before the first layer. None is the identity."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    final_relu: bool
    seed: int
    norm_params: tuple[np.ndarray, np.ndarray] | None = None

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
    """Scores plus the cache backward needs, from raw factor rows.

    The cache is the list of activations: cache[i] is the input of layer i
    (cache[0] the features after the net's input map) and cache[-1] the
    network output, whose column 0 is the scores. No pre-activation is
    kept: a ReLU's mask is its output > 0, which equals pre-activation > 0,
    NaN included.

    With an input map the mapped features are written into the workspace's
    features array; when features is that array (as in train_step) it is
    mapped in place, so no second copy of the rows is made. features is
    otherwise left as it was.

    workspace is a dict of reusable arrays keyed by role, layer and shape.
    The activations are written into its arrays, so a later call with the
    same workspace overwrites the scores and cache of this one. Without a
    workspace every call gets fresh arrays.

    backward spends the cache: it writes its deltas over the hidden
    activations cache[1:-1]. The features cache[0] and the output cache[-1],
    and so the returned scores, are left as they were.
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
    if net.norm_params is not None:
        x = apply_norm_params(x, *net.norm_params,
                              out=_buffer(workspace, "features", 0, x.shape))
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
    The cache is spent: a hidden activation's last uses are its own mask
    and its layer's weight gradient, after which the delta for that layer
    is written over it. So cache[1:-1] holds deltas on return; cache[0]
    (the features) and cache[-1] (the scores) are not touched. The top
    layer's (rows, 1) delta, the masks and the gradients are written into
    workspace arrays (see forward_cached), so a later call with the same
    workspace overwrites the gradients this one returned. Without a
    workspace every call gets fresh arrays.
    """
    if workspace is None:
        workspace = {}
    last = len(net.weights) - 1
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    delta = np.asarray(dscores, dtype=float)[:, None]
    if net.final_relu:
        out = cache[-1]
        mask = np.greater(out, 0.0, out=_buffer(workspace, "mask", last, out.shape, bool))
        delta = np.multiply(delta, mask, out=_buffer(workspace, "delta", last, out.shape))
    for i in range(last, -1, -1):
        w = net.weights[i]
        grad_w[i] = np.matmul(cache[i].T, delta, out=_buffer(workspace, "grad_w", i, w.shape))
        grad_b[i] = np.sum(delta, axis=0, out=_buffer(workspace, "grad_b", i, (w.shape[1],)))
        if i > 0:
            h = cache[i]
            mask = np.greater(h, 0.0, out=_buffer(workspace, "mask", i - 1, h.shape, bool))
            delta = np.matmul(delta, w.T, out=h)
            np.multiply(delta, mask, out=delta)
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
    # Kingma & Ba's defaults, not fields: no run sets them
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    lr: float
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
    also holds the stacked features, which forward_cached maps in place.
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
    # parameters() order: w0, b0, w1, b1, ...
    optimizer.update(list(net.parameters()),
                     [g for pair in zip(grad_w, grad_b) for g in pair])
    return mean_loss


def train(lists: list[RankedBatch], norm_params: tuple[np.ndarray, np.ndarray] | None,
          config: TrainConfig) -> ScoringNet:
    """Train a fresh network with Adam on lists, one RankedBatch per
    training week, such as a window's ranked_train_weeks.

    Week order reshuffles with the seeded RNG whenever the pool is
    exhausted, until exactly total_batches batches have been consumed; the
    median stock of an odd universe must already be dropped for the
    listfold and naive_pt families. Every step reuses one workspace of
    arrays that this call owns. A batch whose train_step raises
    NonFiniteLossError is skipped; ten in a row, or more than
    MAX_SKIPPED_SHARE of total_batches, raise TrainingDivergenceError.
    Empty lists raise ValueError.

    The lists hold raw factors. The network takes norm_params, the
    window's fitted (mins, maxs), as its input map, so it scales each row
    it reads, in training and in every later forward pass; None trains on
    the factors as they are.
    """
    if not lists:
        raise ValueError("no training lists")
    net = init_network(lists[0].features.shape[1], config.seed, final_relu=config.final_relu)
    net.norm_params = norm_params
    if config.total_batches == 0:
        return net
    optimizer = AdamState(lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    queue: list[int] = []
    consecutive_bad = skipped = 0
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
            skipped += 1
            if consecutive_bad >= 10:
                raise TrainingDivergenceError(
                    "loss non-finite for 10 consecutive batches; reduce the learning rate"
                ) from None
            if skipped > MAX_SKIPPED_SHARE * config.total_batches:
                raise TrainingDivergenceError(
                    f"loss non-finite on {skipped} batches, more than "
                    f"{MAX_SKIPPED_SHARE:.0%} of {config.total_batches}; "
                    "reduce the learning rate") from None
            continue
        consecutive_bad = 0
    return net


def score_week(net: ScoringNet, panel: FactorPanel, week: str) -> np.ndarray:
    """Scores aligned to panel.stocks for the given week of a raw panel."""
    feats = panel.week_features(week)
    return forward(net, feats)


# the checkpoint keys of a net's input map
_NORM_KEYS = ("norm_min", "norm_max")


def save_checkpoint(net: ScoringNet, path) -> None:
    """Flat .npz of layer dims and row-major parameter arrays, plus the
    input map as norm_min and norm_max when the net has one, written to
    exactly path (np.savez would add .npz to a path without it); loading
    reproduces forward outputs bit identically."""
    payload = {
        "layer_dims": np.asarray(net.layer_dims, dtype=np.int64),
        "final_relu": np.asarray([int(net.final_relu)], dtype=np.int64),
        "seed": np.asarray([net.seed], dtype=np.int64),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    if net.norm_params is not None:
        payload.update(zip(_NORM_KEYS, net.norm_params))
    with _write_whole(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path) -> ScoringNet:
    """The network saved by save_checkpoint, its input map included. A file
    that is not an .npz of plain arrays, a missing array, layer_dims that
    are not two or more integer widths >= 1 ending in 1, a w{i} / b{i}
    whose shape disagrees with layer_dims, a final_relu or seed that is not
    one integer, a norm_min without a norm_max (or the reverse) or of a
    shape other than (layer_dims[0],), and a w{i}, b{i} or norm_* array of
    anything but finite real numbers raise CheckpointError naming the key.
    A file that cannot be opened raises OSError. Other keys, such as the
    config_hash that earlier checkpoints carry, are ignored."""
    try:
        blob = np.load(path, allow_pickle=False)
        if not isinstance(blob, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array")
        with blob:
            arrays = dict(blob)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: not a checkpoint .npz ({exc})") from None
    missing = [key for key in ("layer_dims", "final_relu", "seed") if key not in arrays]
    if missing:
        raise CheckpointError(f"{path}: missing {', '.join(missing)}")
    for key in ("final_relu", "seed"):
        if arrays[key].size != 1 or arrays[key].dtype.kind not in "biu":
            raise CheckpointError(f"{path}: {key} is a {arrays[key].dtype} array of shape "
                                  f"{arrays[key].shape}, not one integer")
    dims = np.ravel(arrays["layer_dims"]).tolist()
    # the scores are the one column of the last layer
    if (arrays["layer_dims"].dtype.kind not in "iu" or len(dims) < 2 or min(dims) < 1
            or dims[-1] != 1):
        raise CheckpointError(f"{path}: layer_dims {dims} need two or more integer widths "
                              ">= 1, the last of them 1")
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"w{i}"], shapes[f"b{i}"] = (fan_in, fan_out), (fan_out,)
    has_norm = any(key in arrays for key in _NORM_KEYS)
    if has_norm:
        shapes.update(dict.fromkeys(_NORM_KEYS, (dims[0],)))
    for key, shape in shapes.items():
        got = arrays[key].shape if key in arrays else "missing"
        if got != shape:
            raise CheckpointError(f"{path}: {key} is {got}, layer_dims {dims} need {shape}")
        if arrays[key].dtype.kind not in "biuf":
            raise CheckpointError(f"{path}: {key} is a {arrays[key].dtype} array, "
                                  "not real numbers")
        # a trained network holds none: its training weeks are finite
        if not np.all(np.isfinite(arrays[key])):
            raise CheckpointError(f"{path}: {key} holds a non-finite value")
    n_layers = len(dims) - 1
    return ScoringNet(
        layer_dims=dims,
        weights=[arrays[f"w{i}"] for i in range(n_layers)],
        biases=[arrays[f"b{i}"] for i in range(n_layers)],
        final_relu=bool(arrays["final_relu"].item()),
        seed=int(arrays["seed"].item()),
        norm_params=tuple(arrays[key] for key in _NORM_KEYS) if has_norm else None,
    )
