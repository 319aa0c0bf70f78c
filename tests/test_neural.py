"""Network shapes, manual backprop, training loop contracts, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from listfold import neural
from listfold.backtest import MODEL_SPECS
from listfold.data import (
    apply_norm_params,
    build_ranked_batch,
    fit_norm_params,
    generate_synthetic_panel,
    ranked_train_weeks,
    rolling_windows,
)
from listfold.losses import LossSpec, Transform, evaluate_loss
from listfold.metrics import spearman_ic
from listfold.neural import (
    AdamState,
    ScoringNet,
    TrainConfig,
    TrainingDivergenceError,
    backward,
    forward,
    forward_cached,
    init_network,
    load_checkpoint,
    save_checkpoint,
    score_week,
    train,
    train_step,
)

FOLD_EXP = LossSpec("listfold", Transform("exponential"))


def raw_window(seed=0, weeks=90, stocks=12, factors=6, signal=1.0, noise=0.3,
               train_len=60, test_len=30):
    """The first window's raw panel and its plan, which starts at week 0."""
    panel = generate_synthetic_panel(seed, weeks, stocks, factors, signal, noise)
    return panel.slice_weeks(0, train_len + test_len), rolling_windows(weeks, train_len,
                                                                       test_len)[0]


def window_inputs(panel, plan, spec=FOLD_EXP):
    """What train takes for the plan's window, as train_window builds it:
    the ranked training weeks (the median dropped where spec needs an even
    length) and the input map fitted on them."""
    return (ranked_train_weeks(panel, plan, require_even=spec.even_length),
            fit_norm_params(panel, plan))


class TestInit:
    def test_headline_dims(self):
        assert init_network(68, 0).layer_dims == [68, 136, 272, 34, 1]

    def test_tiny_dims(self):
        assert init_network(1, 0).layer_dims == [1, 2, 4, 1, 1]

    def test_same_seed_identical_bytes(self):
        a, b = init_network(7, 99), init_network(7, 99)
        for x, y in zip(a.parameters(), b.parameters()):
            assert x.tobytes() == y.tobytes()

    def test_different_seed_differs(self):
        a, b = init_network(7, 1), init_network(7, 2)
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


class TestForward:
    def test_all_zero_parameters_score_zero(self):
        net = init_network(4, 0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        np.testing.assert_array_equal(forward(net, np.ones((5, 4))), np.zeros(5))

    def test_hand_built_affine_relu(self):
        # single layer y = relu(x @ w + b) with hand-set parameters
        net = ScoringNet([2, 1], [np.array([[2.0], [-1.0]])], [np.array([0.5])],
                         final_relu=True, seed=0)
        x = np.array([[1.0, 1.0], [0.0, 3.0], [2.0, 0.0]])
        np.testing.assert_allclose(forward(net, x), [1.5, 0.0, 4.5])

    def test_batch_scores_order_preserving(self):
        net = init_network(3, 5)
        x = np.random.default_rng(0).uniform(0, 1, (7, 3))
        full = forward(net, x)
        assert full.shape == (7,)
        # reversed view changes the BLAS summation order by one ulp
        np.testing.assert_allclose(forward(net, x[::-1]), full[::-1], atol=1e-12)

    def test_final_relu_clamps(self):
        net = init_network(3, 5, final_relu=True)
        x = np.random.default_rng(1).uniform(0, 1, (20, 3))
        assert np.all(forward(net, x) >= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(init_network(3, 0), np.ones((2, 4)))


def two_parameter_mse():
    """y = w x + b (no relu) at w = 1.5, b = -0.3, one mse list against r,
    and its hand-derived gradient:
    dL/dw = (2/n) sum (y - r) x, dL/db = (2/n) sum (y - r)."""
    w0, b0 = 1.5, -0.3
    net = ScoringNet([1, 1], [np.array([[w0]])], [np.array([b0])],
                     final_relu=False, seed=0)
    x = np.array([[0.5], [-1.0], [2.0]])
    r = np.array([1.0, 0.0, -0.5])
    y = w0 * x[:, 0] + b0
    grads = (np.mean(2 * (y - r) * x[:, 0]), np.mean(2 * (y - r)))
    return net, build_batch_from_rows(x, r), grads


class TestBackward:
    def test_hand_derived_gradient_on_two_parameter_model(self):
        net, batch, (grad_w, grad_b) = two_parameter_mse()
        scores, cache = forward_cached(net, batch.features)
        _, dscores = neural._batch_loss_and_grad(scores, [batch], LossSpec("mse"), False)
        got_w, got_b = backward(net, cache, dscores)
        assert got_w[0][0, 0] == pytest.approx(grad_w, abs=1e-12)
        assert got_b[0][0] == pytest.approx(grad_b, abs=1e-12)

    def test_score_gradient_seam_matches_loss_module(self):
        # the gradient fed into backprop must be the loss module's analytic
        # gradient scattered back to row order
        rng = np.random.default_rng(2)
        feats = rng.uniform(0, 1, (6, 3))
        rets = rng.uniform(-0.05, 0.05, 6)
        batch = build_batch_from_rows(feats, rets)
        net = init_network(3, 7)
        scores = forward(net, feats)
        values, dscores = neural._batch_loss_and_grad(scores, [batch], FOLD_EXP, False)
        direct = evaluate_loss(FOLD_EXP, scores[batch.truth_order])
        assert values[0] == pytest.approx(direct.value)
        np.testing.assert_allclose(dscores[batch.truth_order], direct.gradient, atol=1e-15)

    def test_parameter_gradients_match_finite_differences(self):
        # tiny net, 4-stock list, inputs nudged off relu kinks
        rng = np.random.default_rng(3)
        net = init_network(3, 11)
        feats = rng.uniform(0.1, 1.0, (4, 3))
        rets = np.array([0.04, 0.02, -0.01, -0.03])
        batch = build_batch_from_rows(feats, rets)

        def total_loss(n):
            scores = forward(n, feats)
            return evaluate_loss(FOLD_EXP, scores[batch.truth_order]).value

        scores, cache = forward_cached(net, feats)
        _, dscores = neural._batch_loss_and_grad(scores, [batch], FOLD_EXP, False)
        for h, w, b in zip(cache, net.weights, net.biases):
            assert np.min(np.abs(h @ w + b)) > 1e-6  # no kink within the step
        grad_w, grad_b = backward(net, cache, dscores)
        step = 1e-6
        worst = 0.0
        for li in range(len(net.weights)):
            for arr, grad in ((net.weights[li], grad_w[li]), (net.biases[li], grad_b[li])):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    keep = arr[idx]
                    arr[idx] = keep + step
                    up = total_loss(net)
                    arr[idx] = keep - step
                    dn = total_loss(net)
                    arr[idx] = keep
                    fd = (up - dn) / (2 * step)
                    err = abs(fd - grad[idx]) / max(1.0, abs(fd), abs(grad[idx]))
                    worst = max(worst, err)
                    it.iternext()
        assert worst < 1e-3

    def test_permutation_equivariance(self):
        net = init_network(4, 13)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (9, 4))
        perm = rng.permutation(9)
        np.testing.assert_allclose(forward(net, x[perm]), forward(net, x)[perm], atol=1e-15)


def build_batch_from_rows(features, returns):
    order = np.argsort(-np.asarray(returns), kind="stable")
    from listfold.data import RankedBatch

    return RankedBatch(
        features=np.asarray(features, dtype=float),
        truth_order=order,
        returns=np.asarray(returns, dtype=float),
    )


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self):
        wp, local = raw_window()
        batch = build_ranked_batch(wp, wp.dates[0])
        net = init_network(wp.n_factors, 3)
        before = [p.copy() for p in net.parameters()]
        train_step(net, [batch], FOLD_EXP, AdamState(lr=0.0))
        for p, q in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, q)

    @staticmethod
    def _identity_net():
        """One linear unit of weight 1: the scores are the single feature."""
        return ScoringNet([1, 1], [np.ones((1, 1))], [np.zeros(1)], final_relu=False, seed=0)

    # mid-run, Adam's moments would move the parameters even on a zero gradient
    @pytest.mark.parametrize("optimizer", [
        AdamState(lr=1e-3),
        AdamState(lr=1e-3, t=3, m=[np.full((1, 1), 0.5), np.full(1, 0.5)],
                  v=[np.full((1, 1), 0.25), np.full(1, 0.25)]),
    ])
    def test_overflowing_gradient_leaves_parameters_untouched(self, optimizer):
        # near 1e19 the stage log-sums round by more than 709, so e^(f + ...)
        # overflows in the exponential listfold gradient; the value stays finite
        rng = np.random.default_rng(0)
        batch = [build_batch_from_rows(rng.uniform(-1e19, 1e19, (8, 1)), rng.normal(size=8))
                 for _ in range(8)]
        with np.errstate(all="ignore"):
            result = evaluate_loss(FOLD_EXP, np.stack([b.features[b.truth_order, 0]
                                                       for b in batch]))
        assert np.all(np.isfinite(result.value))
        assert not np.all(np.isfinite(result.gradient))
        net, t = self._identity_net(), optimizer.t
        with pytest.raises(neural.NonFiniteLossError, match="gradient"):
            with np.errstate(all="ignore"):
                train_step(net, batch, FOLD_EXP, optimizer)
        assert [p.tolist() for p in net.parameters()] == [[[1.0]], [0.0]]
        assert optimizer.t == t

    def test_non_finite_scores_raise_before_the_loss(self):
        wp, _ = raw_window()
        net = init_network(wp.n_factors, 3)
        net.biases[-1][:] = np.nan
        with pytest.raises(neural.NonFiniteLossError, match="scores"):
            train_step(net, [build_ranked_batch(wp, wp.dates[0])], FOLD_EXP, AdamState(lr=1e-3))

    def test_adam_moves_parameters(self):
        wp, local = raw_window()
        batch = build_ranked_batch(wp, wp.dates[0])
        net = init_network(wp.n_factors, 3)
        before = [p.copy() for p in net.parameters()]
        train_step(net, [batch], FOLD_EXP, AdamState(lr=1e-3))
        assert any(not np.array_equal(p, q) for p, q in zip(net.parameters(), before))


class TestBatchedLoss:
    def _batch(self, weeks=4):
        wp, _ = raw_window()
        return wp, [build_ranked_batch(wp, wp.dates[i]) for i in range(weeks)]

    @pytest.mark.parametrize("spec", [FOLD_EXP, LossSpec("listmle", Transform("sigmoid")),
                                      LossSpec("mse")])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_step_loss_is_the_mean_of_per_list_losses(self, spec, reverse):
        wp, batch = self._batch()
        net = init_network(wp.n_factors, 3)
        per_list = []
        for b in batch:
            scores = forward(net, b.features)
            order = b.truth_order[::-1] if reverse else b.truth_order
            returns = b.returns[order] if spec.family == "mse" else None
            per_list.append(evaluate_loss(spec, scores[order], returns).value)
        got = train_step(net, batch, spec, AdamState(lr=0.0), reverse_labels=reverse)
        assert got == pytest.approx(np.mean(per_list), rel=1e-12)

    def test_mixed_lengths_rejected(self):
        wp, batch = self._batch(2)
        short = build_batch_from_rows(batch[1].features[:-1], batch[1].returns[:-1])
        net = init_network(wp.n_factors, 3)
        with pytest.raises(ValueError, match="same length"):
            train_step(net, [batch[0], short], FOLD_EXP, AdamState(lr=0.0))


class TestTrain:
    def test_zero_batches_returns_init(self):
        wp, local = raw_window()
        cfg = TrainConfig(loss=FOLD_EXP, total_batches=0, seed=5)
        got = train(*window_inputs(wp, local, cfg.loss), cfg)
        want = init_network(wp.n_factors, 5)
        for p, q in zip(got.parameters(), want.parameters()):
            np.testing.assert_array_equal(p, q)

    def test_no_lists_rejected(self):
        with pytest.raises(ValueError, match="no training lists"):
            train([], None, TrainConfig(loss=FOLD_EXP, total_batches=0))

    def test_planted_signal_learned_out_of_window(self):
        wp, local = raw_window(seed=21, signal=1.0, noise=0.25)
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=8, total_batches=60, seed=1)
        net = train(*window_inputs(wp, local, cfg.loss), cfg)
        ics = [
            spearman_ic(score_week(net, wp, wp.dates[t]), wp.week_returns(wp.dates[t]))
            for t in range(*local.test_range)
        ]
        assert float(np.mean(ics)) > 0.3

    def test_zero_signal_learns_nothing(self):
        wp, local = raw_window(seed=22, signal=0.0, noise=1.0)
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=8, total_batches=60, seed=1)
        net = train(*window_inputs(wp, local, cfg.loss), cfg)
        ics = [
            spearman_ic(score_week(net, wp, wp.dates[t]), wp.week_returns(wp.dates[t]))
            for t in range(*local.test_range)
        ]
        assert abs(float(np.mean(ics))) < 0.1

    def test_deterministic_given_seed(self):
        wp, local = raw_window()
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=4, total_batches=15, seed=9)
        inputs = window_inputs(wp, local, cfg.loss)
        a, b = train(*inputs, cfg), train(*inputs, cfg)
        for p, q in zip(a.parameters(), b.parameters()):
            assert p.tobytes() == q.tobytes()

    @staticmethod
    def _skipping(monkeypatch, bad):
        """Make train_step raise NonFiniteLossError on the calls numbered in
        bad; returns the list of call numbers."""
        real, calls = neural.train_step, []

        def step(*args, **kwargs):
            calls.append(len(calls))
            if calls[-1] in bad:
                raise neural.NonFiniteLossError("batch loss is not finite: nan")
            return real(*args, **kwargs)

        monkeypatch.setattr(neural, "train_step", step)
        return calls

    def test_skips_up_to_the_share_of_batches(self, monkeypatch):
        wp, local = raw_window()
        calls = self._skipping(monkeypatch, {3, 11})
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=4, total_batches=20, seed=9)
        net = train(*window_inputs(wp, local, cfg.loss), cfg)
        assert len(calls) == 20
        assert all(np.all(np.isfinite(p)) for p in net.parameters())

    def test_more_than_the_share_of_batches_skipped_raises(self, monkeypatch):
        wp, local = raw_window()
        calls = self._skipping(monkeypatch, {3, 11, 17})
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=4, total_batches=20, seed=9)
        assert neural.MAX_SKIPPED_SHARE == 0.1
        with pytest.raises(TrainingDivergenceError, match="on 3 batches, more than 10% of 20"):
            train(*window_inputs(wp, local, cfg.loss), cfg)
        assert len(calls) == 18

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_after_ten_bad_batches(self):
        wp, local = raw_window()
        # an Adam step moves each parameter by about lr, whatever the
        # gradient, so the mse loss overflows once lr squared does; 200
        # batches put the 10% share (20) past ten in a row
        cfg = TrainConfig(loss=LossSpec("mse"), batch_size=4, total_batches=200,
                          learning_rate=1e200, final_relu=False, seed=0)
        with pytest.raises(TrainingDivergenceError, match="10 consecutive"):
            train(*window_inputs(wp, local, cfg.loss), cfg)


class TestScoreWeek:
    def test_matches_forward_on_extracted_matrix(self):
        wp, _ = raw_window()
        net = init_network(wp.n_factors, 2)
        date = wp.dates[5]
        np.testing.assert_array_equal(score_week(net, wp, date),
                                      forward(net, wp.week_features(date)))

    def test_unknown_week_rejected(self):
        wp, _ = raw_window()
        from listfold.data import DataError

        with pytest.raises(DataError):
            score_week(init_network(wp.n_factors, 2), wp, "1970-01-01")


def reference_backward(net, features, dscores):
    """The former pass: pre-activations cached, mask taken on them."""
    inputs, preacts = [], []
    h = np.asarray(features, dtype=float)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        preacts.append(h @ w + b)
        h = np.maximum(preacts[i], 0.0) if i < last or net.final_relu else preacts[i]
    grad_w, grad_b = [None] * (last + 1), [None] * (last + 1)
    delta = np.asarray(dscores, dtype=float)[:, None]
    for i in range(last, -1, -1):
        if i < last or net.final_relu:
            delta = delta * (preacts[i] > 0.0)
        grad_w[i] = inputs[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
    return h[:, 0], grad_w, grad_b


class TestInPlaceOptimizers:
    def _params_and_grads(self, seed):
        # zero start: the first update is the step itself, bit for bit
        rng = np.random.default_rng(seed)
        params = [np.zeros((3, 4)), np.zeros(4)]
        grads = [[rng.normal(size=p.shape) for p in params] for _ in range(4)]
        return params, grads

    def test_adam_matches_expression_reference(self):
        params, steps = self._params_and_grads(0)
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        opt = AdamState(lr=1e-2)
        for t, grads in enumerate(steps, start=1):
            opt.update(params, grads)
            b1t, b2t = 1.0 - 0.9**t, 1.0 - 0.999**t
            for p, g, mi, vi in zip(ref, grads, m, v):
                mi += (1.0 - 0.9) * (g - mi)
                vi += (1.0 - 0.999) * (g * g - vi)
                p -= 1e-2 * (mi / b1t) / (np.sqrt(vi / b2t) + 1e-8)
            for p, q in zip(params, ref):
                assert p.tobytes() == q.tobytes()

    def test_adam_first_step_is_lr_times_the_gradient_sign(self):
        # bias correction makes step 1 lr * g / (|g| + eps): sign sized
        net, batch, grads = two_parameter_mse()
        start = [p.item() for p in net.parameters()]
        lr = 0.05
        train_step(net, [batch], LossSpec("mse"), AdamState(lr=lr))
        for p, p0, g in zip(net.parameters(), start, grads):
            assert p.item() == pytest.approx(p0 - lr * g / (abs(g) + 1e-8), abs=1e-15)


class TestWorkspace:
    @pytest.mark.parametrize("final_relu", [True, False])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_activation_mask_matches_preactivation_reference(self, final_relu):
        # rows at exact zeros, a NaN and an inf exercise the mask edges
        rng = np.random.default_rng(8)
        net = init_network(5, 4, final_relu=final_relu)
        net.biases[0][:] = 0.0
        x = rng.uniform(-1, 1, (40, 5))
        x[3] = 0.0
        x[7, 2] = np.nan
        x[9, 0] = np.inf
        dscores = rng.normal(size=40)
        y = rng.uniform(-1, 1, (40, 5))
        workspace: dict = {}
        # later passes run on reused buffers whose activations backward spent
        for feats in (x, y, x):
            want_scores, want_w, want_b = reference_backward(net, feats, dscores)
            scores, cache = forward_cached(net, feats, workspace=workspace)
            grad_w, grad_b = backward(net, cache, dscores, workspace=workspace)
            assert scores.tobytes() == want_scores.tobytes()
            for got, want in zip(grad_w + grad_b, want_w + want_b):
                assert got.tobytes() == want.tobytes()

    def test_calls_without_workspace_share_no_memory(self):
        net = init_network(4, 1)
        x = np.random.default_rng(0).uniform(0, 1, (5, 4))
        (s1, c1), (s2, c2) = forward_cached(net, x), forward_cached(net, x)
        assert not np.shares_memory(s1, s2)
        for a, b in zip(c1[1:], c2[1:]):
            assert not np.shares_memory(a, b)
        g1, g2 = backward(net, c1, np.ones(5)), backward(net, c2, np.ones(5))
        for a, b in zip(g1[0] + g1[1], g2[0] + g2[1]):
            assert not np.shares_memory(a, b)
        # with one workspace, the second call writes over the first
        workspace: dict = {}
        s3, _ = forward_cached(net, x, workspace=workspace)
        s4, _ = forward_cached(net, x, workspace=workspace)
        assert np.shares_memory(s3, s4)

    @pytest.mark.parametrize("final_relu", [True, False])
    @pytest.mark.parametrize("shared", [True, False])
    def test_backward_keeps_features_and_scores(self, final_relu, shared):
        rng = np.random.default_rng(2)
        net = init_network(6, 5, final_relu=final_relu)
        x = rng.uniform(-1, 1, (30, 6))
        workspace = {} if shared else None
        scores, cache = forward_cached(net, x, workspace=workspace)
        feats, want = cache[0].tobytes(), scores.tobytes()
        backward(net, cache, rng.normal(size=30), workspace=workspace)
        assert cache[0].tobytes() == feats
        assert scores.tobytes() == want

    def test_no_delta_buffer_beyond_the_top_layer(self):
        net = init_network(6, 1)
        workspace: dict = {}
        _, cache = forward_cached(net, np.ones((30, 6)), workspace=workspace)
        backward(net, cache, np.ones(30), workspace=workspace)
        deltas = [shape for role, _, shape in workspace if role == "delta"]
        assert deltas == [(30, 1)]

    def test_input_map_writes_over_the_step_features(self):
        # the step's stacked raw rows are scaled where they lie: one (rows, d)
        # array per workspace, and the mapped rows are the whole-panel map's
        wp, local = raw_window()
        lists, norm = window_inputs(wp, local)
        lists = lists[:4]
        net = init_network(wp.n_factors, 3)
        net.norm_params = norm
        workspace: dict = {}
        train_step(net, lists, FOLD_EXP, AdamState(lr=0.0), workspace=workspace)
        shape = (4 * wp.n_stocks, wp.n_factors)
        assert [key for key in workspace if key[2] == shape] == [("features", 0, shape)]
        feats = workspace[("features", 0, shape)]
        want = apply_norm_params(np.concatenate([b.features for b in lists]),
                                 *norm)
        assert feats.tobytes() == want.tobytes()
        # rows read from outside the workspace are left raw
        raw = wp.week_features(wp.dates[0]).copy()
        _, cache = forward_cached(net, raw)
        assert cache[0].tobytes() == apply_norm_params(raw, *norm).tobytes()
        assert raw.tobytes() == wp.week_features(wp.dates[0]).tobytes()

    @pytest.mark.parametrize("model", ["listfold-exp", "mlp"])
    @pytest.mark.parametrize("batches", [1, 2, 3])
    def test_train_peak_is_features_plus_activations(self, model, batches):
        # the backtest-train step: 32 weekly lists of 80 stocks, 68 factors.
        # With a second set of per-layer delta buffers the peak was 2.2x
        wp, local = raw_window(weeks=40, stocks=80, factors=68, train_len=32, test_len=8)
        spec, reverse, final_relu = MODEL_SPECS[model]
        lists, norm = window_inputs(wp, local, spec)
        cfg = TrainConfig(loss=spec, batch_size=32, total_batches=batches,
                          final_relu=final_relu, seed=1, reverse_labels=reverse)
        rows = 32 * 80
        held = rows * sum(init_network(68, 0).layer_dims) * 8
        tracemalloc.start()
        try:
            train(lists, norm, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * held

    @pytest.mark.parametrize("model", sorted(MODEL_SPECS), ids="adam-{}".format)
    def test_shared_workspace_matches_fresh_workspace_per_step(self, model, monkeypatch):
        wp, local = raw_window()
        spec, reverse, final_relu = MODEL_SPECS[model]
        cfg = TrainConfig(loss=spec, batch_size=4, total_batches=8, learning_rate=1e-2,
                          final_relu=final_relu, seed=3, reverse_labels=reverse)
        shared = train(*window_inputs(wp, local, cfg.loss), cfg)
        step = neural.train_step

        def fresh_step(*args, workspace=None, **kwargs):
            return step(*args, **kwargs)

        monkeypatch.setattr(neural, "train_step", fresh_step)
        fresh = train(*window_inputs(wp, local, cfg.loss), cfg)
        start = init_network(wp.n_factors, 3, final_relu=final_relu)
        assert any(not np.array_equal(p, q)
                   for p, q in zip(shared.parameters(), start.parameters()))
        for p, q in zip(shared.parameters(), fresh.parameters()):
            assert p.tobytes() == q.tobytes()


class TestCheckpoint:
    def test_roundtrip_reproduces_forward_bits(self, tmp_path):
        wp, local = raw_window()
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=4, total_batches=10, seed=4)
        lists, norm = window_inputs(wp, local)
        net = train(lists, norm, cfg)
        assert net.norm_params is norm
        path = tmp_path / "model.npz"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        x = wp.week_features(wp.dates[0])
        assert forward(back, x).tobytes() == forward(net, x).tobytes()
        for got, want in zip(back.norm_params, norm):
            assert got.tobytes() == want.tobytes()

    def test_net_without_input_map_saves_none(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(init_network(6, 1), path)
        with np.load(path) as blob:
            assert "norm_min" not in blob and "norm_max" not in blob
        assert load_checkpoint(path).norm_params is None

    def test_earlier_layout_scores_the_same_bytes(self, tmp_path):
        # a checkpoint written before the network carried its input map: the
        # same npz keys, scored then by applying the stored map by hand
        wp, local = raw_window()
        cfg = TrainConfig(loss=FOLD_EXP, batch_size=4, total_batches=10, seed=4)
        lists, (mins, maxs) = window_inputs(wp, local)
        net = train(lists, (mins, maxs), cfg)
        payload = {"layer_dims": np.asarray(net.layer_dims, dtype=np.int64),
                   "final_relu": np.asarray([1], dtype=np.int64),
                   "seed": np.asarray([net.seed], dtype=np.int64),
                   "config_hash": np.asarray(["abc123"])}
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            payload[f"w{i}"], payload[f"b{i}"] = w, b
        payload["norm_min"], payload["norm_max"] = mins, maxs
        path = tmp_path / "old.npz"
        np.savez(path, **payload)
        back = load_checkpoint(path)
        plain = ScoringNet(net.layer_dims, net.weights, net.biases, True, net.seed)
        for date in wp.dates[local.test_range[0]:]:
            raw = wp.week_features(date)
            want = forward(plain, apply_norm_params(raw, mins, maxs))
            assert forward(back, raw).tobytes() == want.tobytes()
