"""Loss values, analytic gradients, and the invariants each family claims."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loss_oracle import ORACLES

from listfold.losses import (
    LossSpec,
    Transform,
    evaluate_loss,
    exponential,
    listfold_loss,
    listmle_loss,
    loss_gradient_check,
    mse_loss,
    naive_pt_loss,
    sigmoid,
)

EXP = exponential()
SGM = sigmoid()


# -- independent reference implementations (plain loops, no shared code) --


def fold_loss_reference(f, psi):
    f = list(f)
    m = len(f)
    total = 0.0
    for i in range(m // 2):
        w = f[i : m - i]
        num = psi(w[0] - w[-1])
        den = sum(psi(a - b) for ai, a in enumerate(w) for bi, b in enumerate(w) if ai != bi)
        total += math.log(den) - math.log(num)
    return total


def mle_prefix_reference(f, psi, stages):
    f = list(f)
    total = 0.0
    for i in range(stages):
        total += math.log(sum(psi(x) for x in f[i:])) - math.log(psi(f[i]))
    return total


def _psi(kind):
    if kind == "exponential":
        return math.exp
    return lambda x: 1.0 / (1.0 + math.exp(-x))


class TestTransforms:
    def test_positive_everywhere(self):
        # psi > 0 and psi' > 0 is a finite log of each, even where the
        # sigmoid itself underflows
        x = np.linspace(-800, 800, 1001)
        for tr in (EXP, SGM):
            log_psi, log_dpsi = tr.log_terms(x)
            assert np.all(np.isfinite(log_psi)) and np.all(np.isfinite(log_dpsi))

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-20, 20, 1000)
        log_up, log_dpsi = SGM.log_terms(x)
        log_down, _ = SGM.log_terms(-x)
        np.testing.assert_allclose(np.exp(log_up) + np.exp(log_down), 1.0, atol=1e-12)
        # sigma'(x) = sigma(x) sigma(-x)
        np.testing.assert_allclose(log_dpsi, log_up + log_down, atol=1e-12)

    def test_aliases(self):
        with pytest.raises(ValueError, match="unknown transform kind"):
            Transform("linear")


class TestListMLE:
    def test_uniform_scores_give_log_factorial(self):
        res = listmle_loss(np.zeros(3), EXP)
        assert res.value == pytest.approx(math.log(6), abs=1e-12)

    def test_two_one_zero(self):
        # frozen from a by-hand evaluation of the sequential likelihood
        res = listmle_loss(np.array([2.0, 1.0, 0.0]), EXP)
        assert res.value == pytest.approx(0.7208676519626029, abs=1e-9)

    def test_shift_invariant_with_exponential(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(-3, 3, 7)
        a = listmle_loss(f, EXP).value
        b = listmle_loss(f + 11.3, EXP).value
        assert abs(a - b) < 1e-9

    def test_not_shift_invariant_with_sigmoid(self):
        f = np.array([1.0, 0.5, -0.2, -1.0])
        assert abs(listmle_loss(f, SGM).value - listmle_loss(f + 2.0, SGM).value) > 1e-3

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for kind in ("exponential", "sigmoid"):
            f = rng.uniform(-2, 2, 6)
            got = listmle_loss(f, Transform(kind)).value
            want = mle_prefix_reference(f, _psi(kind), 6)
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            listmle_loss(np.array([1.0, np.nan]), EXP)


class TestListFold:
    def test_golden_values(self):
        # worked four-score example: truth at 0.65, scrambles at 4.78 / 6.65
        assert listfold_loss(np.array([5.0, 4.0, 1.0, 0.0]), EXP).value == pytest.approx(0.65, abs=0.01)
        assert listfold_loss(np.array([1.0, 5.0, 4.0, 0.0]), EXP).value == pytest.approx(4.78, abs=0.01)
        assert listfold_loss(np.array([5.0, 1.0, 4.0, 0.0]), EXP).value == pytest.approx(6.65, abs=0.01)

    def test_single_pair_equal_scores(self):
        for tr in (EXP, SGM):
            got = listfold_loss(np.array([0.7, 0.7]), tr).value
            assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            listfold_loss(np.array([1.0, 0.0, -1.0]), EXP)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for kind in ("exponential", "sigmoid"):
            f = rng.uniform(0.5, 4.0, 8)
            got = listfold_loss(f, Transform(kind)).value
            want = fold_loss_reference(f, _psi(kind))
            assert got == pytest.approx(want, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-8, 8), min_size=2, max_size=8).filter(lambda v: len(v) % 2 == 0),
        st.floats(-50, 50),
    )
    def test_shift_invariance_any_transform(self, values, shift):
        f = np.asarray(values)
        for tr in (EXP, SGM):
            a = listfold_loss(f, tr).value
            b = listfold_loss(f + shift, tr).value
            assert abs(a - b) < 1e-9

    def test_sigmoid_reduction_constant(self):
        # loss minus sum log(1 + exp(-pair diff)) must not depend on f, and
        # equals the exact log of the per-stage pair counts
        rng = np.random.default_rng(4)
        n = 3
        expected = sum(
            math.log((2 * n - 2 * i + 2) * (2 * n - 2 * i + 1) / 2) for i in range(1, n + 1)
        )
        consts = []
        for _ in range(2):
            f = rng.uniform(-2, 2, 2 * n)
            pair_terms = sum(math.log1p(math.exp(-(f[i] - f[2 * n - 1 - i]))) for i in range(n))
            consts.append(listfold_loss(f, SGM).value - pair_terms)
        assert consts[0] == pytest.approx(consts[1], abs=1e-12)
        assert consts[0] == pytest.approx(expected, abs=1e-12)

    def test_exponential_decomposition_ignores_inner_permutation(self):
        # wrapping [alpha, inner..., beta] adds a term that depends only on
        # the value multiset and alpha - beta
        rng = np.random.default_rng(5)
        inner = rng.uniform(-2, 2, 4)
        alpha, beta = 2.5, -1.7
        deltas = []
        for perm in itertools.permutations(inner.tolist()):
            wrapped = np.array([alpha, *perm, beta])
            deltas.append(
                listfold_loss(wrapped, EXP).value - listfold_loss(np.asarray(perm), EXP).value
            )
        np.testing.assert_allclose(deltas, deltas[0], atol=1e-12)

    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_probability_normalization(self, length):
        rng = np.random.default_rng(6)
        f = rng.uniform(-2, 2, length)
        for loss_fn in (listfold_loss, listmle_loss):
            total = sum(
                math.exp(-loss_fn(np.asarray(p), EXP).value)
                for p in itertools.permutations(f.tolist())
            )
            assert total == pytest.approx(1.0, abs=1e-9)


class TestNaivePt:
    def test_single_pair_equal_scores(self):
        got = naive_pt_loss(np.array([0.3, 0.3]), EXP).value
        assert got == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_shift_invariant_with_exponential(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(-3, 3, 6)
        assert abs(naive_pt_loss(f, EXP).value - naive_pt_loss(f - 4.2, EXP).value) < 1e-9

    def test_composes_from_two_truncated_selections(self):
        # independent oracle: n top-down stages on the scores plus n stages
        # on the negated reversed scores, computed with plain loops
        for f in (np.array([5.0, 4.0, 1.0, 0.0]), np.random.default_rng(8).uniform(-2, 2, 6)):
            n = f.size // 2
            for kind in ("exponential", "sigmoid"):
                psi = _psi(kind)
                want = mle_prefix_reference(f, psi, n) + mle_prefix_reference(
                    (-f[::-1]).tolist(), psi, n
                )
                got = naive_pt_loss(f, Transform(kind)).value
                assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            naive_pt_loss(np.zeros(5), EXP)


class TestMse:
    def test_perfect_fit(self):
        r = np.array([0.1, -0.2, 0.05])
        assert mse_loss(r, r).value == 0.0

    def test_constant_offset(self):
        r = np.array([0.0, 1.0, -1.0, 2.0])
        assert mse_loss(r + 1.0, r).value == pytest.approx(1.0, abs=1e-15)

    def test_hand_case(self):
        got = mse_loss(np.array([0.1, 0.2]), np.array([0.3, 0.0])).value
        assert got == pytest.approx(0.04, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros(4))


class TestGradients:
    @pytest.mark.parametrize("family", ["listfold", "listmle", "naive_pt"])
    @pytest.mark.parametrize("kind", ["exponential", "sigmoid"])
    def test_rank_losses_match_finite_differences(self, family, kind):
        rng = np.random.default_rng(9)
        spec = LossSpec(family, Transform(kind))
        worst = max(
            loss_gradient_check(spec, rng.uniform(-2, 2, 6), step=1e-5) for _ in range(25)
        )
        assert worst < 1e-4

    def test_mse_is_exact_under_central_differences(self):
        rng = np.random.default_rng(10)
        spec = LossSpec("mse")
        err = loss_gradient_check(spec, rng.uniform(-2, 2, 8), step=1e-5,
                                  returns=rng.uniform(-1, 1, 8))
        assert err < 1e-8

    def test_bounded_scores_stay_finite(self):
        rng = np.random.default_rng(11)
        for family in ("listfold", "listmle", "naive_pt"):
            for kind in ("exponential", "sigmoid"):
                spec = LossSpec(family, Transform(kind))
                f = rng.uniform(-10, 10, 8)
                res = evaluate_loss(spec, f)
                assert np.isfinite(res.value)
                assert np.all(np.isfinite(res.gradient))
                assert loss_gradient_check(spec, f) < 1e-4

    def test_gradient_length_matches_scores(self):
        f = np.random.default_rng(12).uniform(-1, 1, 6)
        for spec in (LossSpec("listfold", EXP), LossSpec("listmle", SGM)):
            assert evaluate_loss(spec, f).gradient.shape == f.shape

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            loss_gradient_check(LossSpec("mse"), np.zeros(2), step=0.0)


# -- the batched evaluator against the former per-list implementation --

KINDS = ("exponential", "sigmoid")
RANK_FAMILIES = ("listfold", "listmle", "naive_pt")


def _score_batches(max_len=64):
    """(lists, even length) score arrays, up to max_len, values in [-10, 10]."""
    return st.tuples(st.integers(1, 4), st.integers(1, max_len // 2)).flatmap(
        lambda shape: st.lists(st.floats(-10, 10), min_size=shape[0] * 2 * shape[1],
                               max_size=shape[0] * 2 * shape[1]).map(
            lambda v: np.asarray(v).reshape(shape[0], 2 * shape[1])))


class TestBatchedEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(_score_batches(), st.sampled_from(KINDS), st.sampled_from(RANK_FAMILIES))
    def test_matches_per_list_oracle(self, scores, kind, family):
        res = evaluate_loss(LossSpec(family, Transform(kind)), scores)
        for row, value, grad in zip(scores, res.value, res.gradient):
            want_value, want_grad = ORACLES[family](row, kind)
            assert value == pytest.approx(want_value, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("length", [2, 3, 8, 80])
    def test_rows_equal_single_list_calls(self, length):
        rng = np.random.default_rng(length)
        scores = rng.uniform(-5, 5, (9, length))
        returns = rng.uniform(-1, 1, (9, length))
        specs = [LossSpec("mse")] + [LossSpec(f, Transform(k)) for f in RANK_FAMILIES
                                     for k in KINDS]
        for spec in specs:
            if spec.even_length and length % 2:
                continue
            batch = evaluate_loss(spec, scores, returns)
            for i in range(len(scores)):
                one = evaluate_loss(spec, scores[i], returns[i])
                assert one.value == batch.value[i]
                np.testing.assert_array_equal(one.gradient, batch.gradient[i])

    def test_value_only_call_matches(self):
        scores = np.random.default_rng(13).uniform(-3, 3, (5, 8))
        for family in RANK_FAMILIES:
            for kind in KINDS:
                spec = LossSpec(family, Transform(kind))
                full = evaluate_loss(spec, scores)
                bare = evaluate_loss(spec, scores, with_gradient=False)
                assert bare.gradient is None
                np.testing.assert_array_equal(bare.value, full.value)

    @settings(max_examples=30, deadline=None)
    @given(_score_batches(max_len=16), st.floats(-100, 100), st.sampled_from(KINDS))
    def test_shift_invariance(self, scores, shift, kind):
        specs = [LossSpec("listfold", Transform(kind))]
        if kind == "exponential":
            specs += [LossSpec("listmle", EXP), LossSpec("naive_pt", EXP)]
        for spec in specs:
            a = evaluate_loss(spec, scores)
            b = evaluate_loss(spec, scores + shift)
            np.testing.assert_allclose(b.value, a.value, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(b.gradient, a.gradient, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(_score_batches(max_len=16), st.floats(1.0, 1e4), st.sampled_from(KINDS))
    def test_finite_at_extreme_spreads(self, scores, scale, kind):
        for family in RANK_FAMILIES:
            res = evaluate_loss(LossSpec(family, Transform(kind)), scale * scores)
            assert np.all(np.isfinite(res.value))
            assert np.all(np.isfinite(res.gradient))

    @pytest.mark.parametrize("family", ["listfold", "naive_pt"])
    @pytest.mark.parametrize("length", [1, 3, 7])
    def test_odd_length_rejected(self, family, length):
        for kind in KINDS:
            spec = LossSpec(family, Transform(kind))
            with pytest.raises(ValueError, match="even list length|too short"):
                evaluate_loss(spec, np.zeros((2, length)))
            with pytest.raises(ValueError, match="even list length|too short"):
                evaluate_loss(spec, np.zeros(length))

    def test_rejects_non_finite_and_bad_rank(self):
        spec = LossSpec("listfold", EXP)
        with pytest.raises(ValueError):
            evaluate_loss(spec, np.array([[0.0, np.inf]]))
        with pytest.raises(ValueError):
            evaluate_loss(spec, np.zeros((2, 2, 2)))


class TestExtremeSpreads:
    """Sigmoid losses used to take the log of an underflowed sigma: inf value,
    NaN gradient at a spread of 1e3."""

    @pytest.mark.parametrize("spread", [1e3, 1e4])
    @pytest.mark.parametrize("family", RANK_FAMILIES)
    @pytest.mark.parametrize("kind", ["exponential", "sigmoid"])
    def test_finite_value_and_gradient(self, spread, family, kind):
        f = np.array([-spread, 0.0, 0.0, spread])
        res = evaluate_loss(LossSpec(family, Transform(kind)), f)
        assert np.isfinite(res.value)
        assert np.all(np.isfinite(res.gradient))

    @pytest.mark.parametrize("spread", [1e3, 1e4])
    def test_sigmoid_listfold_closed_form(self, spread):
        # stage 1: log 6 + softplus(2 spread); stage 2: log 1 + softplus(0)
        res = listfold_loss(np.array([-spread, 0.0, 0.0, spread]), SGM)
        assert res.value == pytest.approx(2 * spread + math.log(12), rel=1e-15)
        np.testing.assert_allclose(res.gradient, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)

    @pytest.mark.parametrize("spread", [1e3, 1e4])
    def test_sigmoid_listmle_closed_form(self, spread):
        # stage 1: log(sigma(-spread) + 2) - log sigma(-spread) = log 2 + spread
        # to double precision; stage 2: log 2 - log(1/2); stage 3: log 3/2 -
        # log(1/2); stage 4: 0
        res = listmle_loss(np.array([-spread, 0.0, 0.0, spread]), SGM)
        assert res.value == pytest.approx(spread + math.log(24), rel=1e-15)
        assert np.all(np.isfinite(res.gradient))
