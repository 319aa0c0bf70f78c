"""Enumeration lab: minimizer sets, theorem checks, probes, and samplers."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consistency_oracle
from loss_oracle import listfold_loss as fold_oracle
from sampler_oracle import _categorical_rows as oracle_rows
from sampler_oracle import plank_probability_exact, vase_probability_exact
from sampler_oracle import sample_plank_dart as oracle_plank
from sampler_oracle import sample_vase as oracle_vase

from listfold import consistency
from listfold.consistency import (
    ENUMERATION_CAP,
    MINIMIZER_TOL,
    SEARCH_CAP,
    SamplerSpec,
    _DISTRIBUTIONS,
    _categorical_columns,
    _classify,
    _least_listfold_exp,
    _order_counts,
    _perm_table,
    _sample_scores,
    _table_losses,
    counterexample_search,
    enumerate_losses,
    frequency_zscores,
    order_sensitivity_probe,
    plank_probability,
    sample_plank_dart,
    sample_vase,
    theorem1_minimizer_family,
    vase_probability,
    verify_theorem1,
    verify_theorem2,
)
from listfold.losses import LossSpec, Transform, evaluate_loss, listfold_loss

FOLD_EXP = LossSpec("listfold", Transform("exponential"))
FOLD_SGM = LossSpec("listfold", Transform("sigmoid"))
MLE_EXP = LossSpec("listmle", Transform("exponential"))
ALL_SPECS = [FOLD_EXP, FOLD_SGM, MLE_EXP, LossSpec("mse"),
             LossSpec("naive_pt", Transform("exponential"))]

# integer ties, signed zeros and plain floats, mixed within one list
_LAB_SCORES = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([0.0, -0.0]),
                        st.floats(-5.0, 5.0, allow_nan=False))


class TestEnumerate:
    def test_exp_unique_minimizer_at_truth(self):
        rep = enumerate_losses([5.0, 4.0, 1.0, 0.0], FOLD_EXP)
        assert rep.minimizers == frozenset({(5.0, 4.0, 1.0, 0.0)})
        assert rep.min_value == pytest.approx(0.65, abs=0.01)
        assert rep.classification == "descending-unique"

    def test_sigmoid_minimizer_set_is_crossed_pairing(self):
        # enumeration oracle: the sigmoid loss ties exactly on the pairings
        # (5 above 1) and (4 above 0) in either slot order
        rep = enumerate_losses([5.0, 4.0, 1.0, 0.0], FOLD_SGM)
        assert rep.minimizers == frozenset({(5.0, 4.0, 0.0, 1.0), (4.0, 5.0, 1.0, 0.0)})
        assert rep.classification == "binary-class-set"
        assert rep.minimizers == theorem1_minimizer_family([5.0, 4.0, 1.0, 0.0])

    @pytest.mark.parametrize("spec", [FOLD_EXP, FOLD_SGM, MLE_EXP, LossSpec("mse"),
                                      LossSpec("naive_pt", Transform("exponential"))])
    def test_two_items_any_family(self, spec):
        rep = enumerate_losses([1.3, -0.4], spec)
        assert (1.3, -0.4) in rep.minimizers
        assert rep.minimizers == frozenset({(1.3, -0.4)})

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_losses(list(range(10)), FOLD_EXP)

    def test_tied_values_collapse_with_multiplicity(self):
        rep = enumerate_losses([0.5, 0.5], FOLD_EXP)
        assert rep.permutations == ((0.5, 0.5),)
        assert rep.multiplicities == (2,)
        assert rep.probability_mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [FOLD_EXP, MLE_EXP])
    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_probability_mass_is_one(self, spec, length):
        rng = np.random.default_rng(length)
        rep = enumerate_losses(rng.uniform(-2, 2, length), spec)
        assert rep.probability_mass() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scores", [
        [2.0, -1.5, 0.3, 1.1, -0.2, 0.9, 2.4, -3.0],
        [0.5, 0.5, 0.5, 1.0, 1.0, -2.0],
        [3.0, 1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, -0.0],
        [-0.0, 1.0, 0.0, -0.0, 2.0, 2.0],
    ])
    @pytest.mark.parametrize("spec", [FOLD_EXP, FOLD_SGM, MLE_EXP, LossSpec("mse")])
    def test_matches_tuple_enumeration_oracle(self, scores, spec):
        # the former dict-of-tuples enumeration; repr keeps the sign of zero,
        # which tuple equality ignores
        f = np.asarray(scores, dtype=float)
        seen: dict = {}
        for perm in itertools.permutations(f.tolist()):
            seen[perm] = seen.get(perm, 0) + 1
        perms = tuple(sorted(seen))
        losses = _table_losses(spec, np.array(perms), np.sort(f)[::-1])
        low = float(losses.min())
        minimizers = frozenset(p for p, v in zip(perms, losses) if v <= low + MINIMIZER_TOL)
        rep = enumerate_losses(f, spec)
        assert repr(rep.permutations) == repr(perms)
        assert rep.multiplicities == tuple(seen[p] for p in perms)
        assert np.array(rep.losses).tobytes() == losses.tobytes()
        assert sorted(map(repr, rep.minimizers)) == sorted(map(repr, minimizers))
        assert rep.min_value == low
        assert rep.classification == _classify(f, minimizers)


class TestTheorem1:
    def test_no_violations_small_ns(self):
        report = verify_theorem1(40, [1, 2, 3], seed=101)
        assert report.passed
        assert report.trials_run == 120

    def test_n1_family_is_descending(self):
        assert theorem1_minimizer_family([2.0, -1.0]) == frozenset({(2.0, -1.0)})

    def test_family_size_is_n_factorial(self):
        fam = theorem1_minimizer_family([6.0, 5.0, 4.0, 2.0, 1.0, 0.0])
        assert len(fam) == math.factorial(3)

    def test_tie_straddling_median_degenerate_not_violation(self):
        # force the tied draw through the public path by checking the
        # degenerate counter on a crafted generator seed is not required:
        # call the enumeration directly instead
        scores = [3.0, 1.0, 1.0, 0.0]
        rep = enumerate_losses(scores, FOLD_SGM)
        fam = theorem1_minimizer_family(scores)
        # enlarged set is allowed; the family is still contained in it
        assert fam <= rep.minimizers or fam == rep.minimizers

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(_LAB_SCORES, min_size=2 * n,
                                                         max_size=2 * n)))
    def test_family_matches_loop_oracle(self, scores):
        # repr keeps which signed zero a member holds; tuple equality ignores it
        got = theorem1_minimizer_family(scores)
        want = consistency_oracle.theorem1_minimizer_family(scores)
        assert sorted(map(repr, got)) == sorted(map(repr, want))

    def test_report_summary_reproducible(self):
        a = verify_theorem1(10, [1, 2], seed=7).summary()
        b = verify_theorem1(10, [1, 2], seed=7).summary()
        assert a == b


class TestTheorem2:
    def test_restricted_no_violations(self):
        report = verify_theorem2(40, [1, 2, 3], seed=33, restricted=True)
        assert report.passed

    def test_unrestricted_no_violations(self):
        report = verify_theorem2(40, [1, 2, 3, 4], seed=33, restricted=False)
        assert report.passed

    def test_all_equal_scores_degenerate(self):
        rep = enumerate_losses([1.0, 1.0, 1.0, 1.0], FOLD_EXP)
        assert rep.permutations == ((1.0, 1.0, 1.0, 1.0),)
        assert rep.classification != "other"

    def test_fast_evaluator_matches_reference_loss(self):
        # the whole permutation table in one value-only call, against the
        # former per-list pair-matrix implementation
        rng = np.random.default_rng(5)
        for m in (2, 4, 6, 8):
            f = rng.uniform(-4, 4, m)
            vals = f[_perm_table(m)]
            losses = evaluate_loss(FOLD_EXP, vals, with_gradient=False).value
            for row in rng.integers(0, len(losses), size=8):
                direct, _ = fold_oracle(vals[row], "exponential")
                assert direct == pytest.approx(losses[row], abs=1e-10)


class TestCounterexampleSearch:
    @pytest.mark.parametrize("dist", ["uniform", "normal", "clustered", "near-ties"])
    def test_no_witnesses_at_size_six(self, dist):
        assert counterexample_search(150, 6, dist, seed=13) == []

    def test_size_two_provably_empty(self):
        assert counterexample_search(200, 2, "uniform", seed=14) == []

    def test_size_validated(self):
        with pytest.raises(ValueError):
            counterexample_search(1, 7, "uniform", seed=0)
        with pytest.raises(ValueError):
            counterexample_search(1, 16, "uniform", seed=0)

    def test_past_enumeration_cap_on_the_dp_path_only(self):
        assert ENUMERATION_CAP < SEARCH_CAP
        assert counterexample_search(3, SEARCH_CAP, "normal", seed=17) == []

    def test_witness_is_the_dp_order(self, monkeypatch):
        # a DP that reports the ascending order 1 below descending: the
        # search must turn it into a witness with that order and loss
        def rigged(descending):
            base = evaluate_loss(FOLD_EXP, descending, with_gradient=False).value
            m = descending.shape[1]
            return base - 1.0, np.tile(np.arange(m)[::-1], (len(descending), 1))

        monkeypatch.setattr(consistency, "_least_listfold_exp", rigged)
        witnesses = counterexample_search(3, 6, "uniform", seed=18)
        assert len(witnesses) == 3
        for w in witnesses:
            assert w.permutation == tuple(sorted(w.scores))
            assert w.gap == pytest.approx(1.0, abs=1e-12)


class TestSubsetDP:
    """The exact subset DP against the enumeration oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), st.sampled_from(_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1))
    def test_minimum_and_order_match_enumeration(self, m, dist, seed):
        rng = np.random.default_rng(seed)
        draws = np.array([_sample_scores(rng, m, dist) for _ in range(3)])
        least, order = _least_listfold_exp(draws)
        rescored = evaluate_loss(FOLD_EXP, np.take_along_axis(draws, order, axis=1),
                                 with_gradient=False).value
        for f, v, o, r in zip(draws, least, order, rescored):
            assert abs(_table_losses(FOLD_EXP, f[_perm_table(m)]).min() - v) <= 1e-12
            assert sorted(o.tolist()) == list(range(m))
            assert abs(r - v) <= 1e-12

    @pytest.mark.parametrize("m", [8, 14])
    def test_finite_at_extreme_spreads(self, m):
        rng = np.random.default_rng(m)
        draws = rng.uniform(-1e4, 1e4, size=(6, m))
        draws[:, 0] = [-1e4, 1e4, -1e4, 1e4, -1e4, 1e4]
        least, order = _least_listfold_exp(draws)
        assert np.all(np.isfinite(least))
        rescored = evaluate_loss(FOLD_EXP, np.take_along_axis(draws, order, axis=1),
                                 with_gradient=False).value
        # each stage's log D and score gap are ~1e4 and cancel, so the two
        # summation orders agree to 1e-12 of the spread, not absolutely
        assert np.allclose(rescored, least, rtol=0.0, atol=1e-12 * 1e4)

    def test_chunks_agree_with_one_block(self, monkeypatch):
        draws = np.random.default_rng(19).normal(0.0, 2.0, size=(7, 10))
        whole = _least_listfold_exp(draws)
        monkeypatch.setattr(consistency, "_DP_ELEMENTS", 1)
        chunked = _least_listfold_exp(draws)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])


class TestOrderSensitivityProbe:
    def test_worked_swap_increases_loss(self):
        records = order_sensitivity_probe([5.0, 4.0, 1.0, 0.0], FOLD_EXP)
        hit = [r for r in records
               if r.permutation == (1.0, 5.0, 4.0, 0.0) and r.swap == (0, 1)]
        assert len(hit) == 1
        assert hit[0].delta == pytest.approx(6.65 - 4.78, abs=0.01)

    def test_listmle_has_no_violations(self):
        assert order_sensitivity_probe([5.0, 4.0, 1.0, 0.0], MLE_EXP) == []

    def test_two_items_no_violations(self):
        for spec in (FOLD_EXP, FOLD_SGM, MLE_EXP):
            assert order_sensitivity_probe([1.0, 0.0], spec) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(ALL_SPECS))
    def test_matches_recount_oracle(self, data, spec):
        # the same records in the same order, each delta bit-equal
        sizes = [2, 4, 6] if spec.even_length else [2, 3, 4, 5, 6]
        m = data.draw(st.sampled_from(sizes))
        scores = data.draw(st.lists(_LAB_SCORES, min_size=m, max_size=m))
        got = order_sensitivity_probe(scores, spec)
        assert repr(got) == repr(consistency_oracle.order_sensitivity_probe(scores, spec))

    def test_rejects_odd_length_for_even_families(self):
        with pytest.raises(ValueError, match="even list length"):
            order_sensitivity_probe([2.0, 1.0, 0.0], FOLD_EXP)


def _row_loop_counts(out):
    """Counts of each row, one Python dict update per draw."""
    counts = {}
    for row in out:
        key = tuple(row.tolist())
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestOrderCounts:
    @pytest.mark.parametrize("sampler, spec", [
        (sample_vase, SamplerSpec("vase", np.array([2.0, 1.0, 0.7, 0.4]), 5000, seed=20)),
        (sample_plank_dart, SamplerSpec("plank", np.array([2.0, 1.0, 0.7, 0.4]), 5000,
                                        seed=21)),
        (sample_vase, SamplerSpec("vase", np.ones(7), 3000, seed=22)),
    ])
    def test_sampler_counts_equal_row_loop(self, sampler, spec, monkeypatch):
        seen = []

        def spy(out):
            seen.append(out.copy())
            return _order_counts(out)

        monkeypatch.setattr(consistency, "_order_counts", spy)
        counts = sampler(spec)
        assert counts == _row_loop_counts(seen[0])
        assert sum(counts.values()) == spec.draws

    def test_wide_orderings_counted_by_rows(self):
        # 16^16 overflows int64, so 16 items take the row-wise path
        rng = np.random.default_rng(23)
        out = np.array([rng.permutation(16) for _ in range(50)] * 2)
        assert _order_counts(out) == _row_loop_counts(out)


class TestVaseSampler:
    def test_equal_weights_uniform_over_orderings(self):
        spec = SamplerSpec("vase", np.ones(3), draws=60_000, seed=3)
        counts = sample_vase(spec)
        table = frequency_zscores(counts, spec.draws,
                                  lambda perms: vase_probability(spec.weights, perms))
        assert len(table) == 6
        assert all(abs(z) < 3 for _, _, z in table.values())

    def test_heavy_first_two_thirds(self):
        spec = SamplerSpec("vase", np.array([2.0, 1.0]), draws=100_000, seed=4)
        counts = sample_vase(spec)
        assert counts[(0, 1)] / spec.draws == pytest.approx(2 / 3, abs=0.01)

    def test_matches_exp_of_negative_listmle(self):
        w = np.array([1.8, 0.9, 0.5])
        spec = SamplerSpec("vase", w, draws=100_000, seed=5)
        counts = sample_vase(spec)
        f = np.log(w)

        def likelihood(perms):
            return np.exp(-evaluate_loss(MLE_EXP, f[perms], with_gradient=False).value)

        table = frequency_zscores(counts, spec.draws, likelihood)
        assert all(abs(z) < 3 for _, _, z in table.values())

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            SamplerSpec("vase", np.array([1.0, 0.0]), draws=10)


class TestPlankSampler:
    def test_two_planks_equal_weights_half(self):
        spec = SamplerSpec("plank", np.ones(2), draws=100_000, seed=6)
        counts = sample_plank_dart(spec)
        assert counts[(0, 1)] / spec.draws == pytest.approx(0.5, abs=0.01)
        assert plank_probability(np.ones(2), (0, 1)) == pytest.approx(1 / (2 * 2 - 2))

    def test_degenerate_pair_closed_form(self):
        w = np.array([math.e, 1 / math.e])
        p = plank_probability(w, (0, 1))
        assert p == pytest.approx(math.e**2 / (math.e**2 + math.e**-2), abs=1e-12)

    def test_matches_exp_of_negative_listfold(self):
        w = np.array([1.5, 1.0, 0.7, 0.4])
        spec = SamplerSpec("plank", w, draws=100_000, seed=7)
        counts = sample_plank_dart(spec)
        f = np.log(w)

        def likelihood(seqs):
            return np.exp(-evaluate_loss(FOLD_EXP, f[seqs], with_gradient=False).value)

        table = frequency_zscores(counts, spec.draws, likelihood)
        assert len(table) == 24
        assert all(abs(z) < 3 for _, _, z in table.values())

    def test_closed_form_equals_loss_likelihood(self):
        w = np.array([2.0, 1.1, 0.6, 0.3])
        f = np.log(w)
        for seq in itertools.permutations(range(4)):
            direct = plank_probability(w, seq)
            via_loss = math.exp(-listfold_loss(f[list(seq)], Transform("exponential")).value)
            assert direct == pytest.approx(via_loss, rel=1e-10)

    def test_length_constraint_validated(self):
        with pytest.raises(ValueError):
            SamplerSpec("plank", np.ones(3), draws=10)

    def test_closed_form_finite_where_the_sum_product_overflows(self):
        # the remaining widths and lengths both sum to ~1e200, so their
        # product overflows; each stage's factor must not
        w = np.array([1e200, 1e-200, 1.0, 1.0])
        probs = [plank_probability(w, seq) for seq in itertools.permutations(range(4))]
        assert len(probs) == 24
        assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs)
        assert abs(math.fsum(probs) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.25, 1.5])
    def test_zscores_reject_an_analytic_p_outside_the_unit_interval(self, bad):
        counts = {(0, 1): 3, (1, 0): 1}
        prob = lambda perms: np.where((perms == (1, 0)).all(axis=1), bad, 0.5)
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            frequency_zscores(counts, 4, prob)

    @pytest.mark.parametrize("prob", [lambda perms: 0.5, lambda perms: np.full(3, 0.5),
                                      lambda perms: np.full((2, 1), 0.5)])
    def test_zscores_reject_a_block_result_of_the_wrong_shape(self, prob):
        with pytest.raises(ValueError, match=r"shape"):
            frequency_zscores({(0, 1): 3, (1, 0): 1}, 4, prob)

    def test_zscores_call_prob_fn_once_and_return_python_floats(self):
        w = np.array([1.5, 1.0, 0.7, 0.4])
        calls = []

        def prob(perms):
            calls.append(perms.shape)
            return plank_probability(w, perms)

        counts = sample_plank_dart(SamplerSpec("plank", w, 2000, seed=9))
        table = frequency_zscores(counts, 2000, prob)
        assert calls == [(24, 4)]
        assert list(table) == list(itertools.permutations(range(4)))
        assert all(type(x) is float for row in table.values() for x in row)

    def test_deterministic_given_seed(self):
        spec = SamplerSpec("plank", np.array([1.4, 1.0, 0.8, 0.5]), draws=5000, seed=8)
        assert sample_plank_dart(spec) == sample_plank_dart(spec)

    def test_error_scales_with_inverse_root_draws(self):
        # quartering the draw count should double the empirical rms error
        w = np.array([1.5, 1.0, 0.7, 0.4])

        def rms_dev(draws, seed):
            counts = sample_plank_dart(SamplerSpec("plank", w, draws, seed=seed))
            table = frequency_zscores(counts, draws, lambda seqs: plank_probability(w, seqs))
            return float(np.sqrt(np.mean([(emp - p) ** 2 for emp, p, _ in table.values()])))

        ratios = [rms_dev(16_000, seed + 100) / rms_dev(64_000, seed) for seed in (1, 2, 3)]
        assert 1.4 < float(np.mean(ratios)) < 2.8


_CLOSED_FORMS = {"vase": (vase_probability, vase_probability_exact),
                 "plank": (plank_probability, plank_probability_exact)}


def _close_to_exact(p: float, exact: Fraction) -> bool:
    """Within 1e-12 relative of the exact rational; below the least normal
    float, where exp(-loss) loses bits to underflow, within 1e-12 times
    that float."""
    return abs(Fraction(p) - exact) <= Fraction(1, 10**12) * max(exact, Fraction(2.0**-1022))


class TestClosedFormsExact:
    """vase_probability and plank_probability against the two stories in
    exact rational arithmetic. A linear-domain vase loop that subtracts
    each drawn weight from the remaining sum cancels: on weights in
    1e-6..1e6 it was off by up to 1.8e-4 relative."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["vase", "plank"]))
    def test_probabilities_match_the_exact_stories(self, data, model):
        m = data.draw(st.integers(1, 8) if model == "vase" else st.sampled_from([2, 4, 6, 8]))
        w = 10.0 ** np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m)))
        closed, exact = _CLOSED_FORMS[model]
        table = _perm_table(m)
        rows = (range(len(table)) if m <= 5 else
                data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=24,
                                   unique=True)))
        seqs = table[list(rows)]
        for seq in seqs:
            assert _close_to_exact(closed(w, tuple(seq.tolist())), exact(w, seq.tolist()))
        for seq, p in zip(seqs.tolist(), closed(w, seqs).tolist()):
            assert _close_to_exact(p, exact(w, seq))
        assert abs(math.fsum(closed(w, table).tolist()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("model", ["vase", "plank"])
    def test_exact_where_the_sum_product_overflows(self, model):
        w = np.array([1e200, 1e-200, 1.0, 1.0])
        closed, exact = _CLOSED_FORMS[model]
        table = _perm_table(4)
        probs = closed(w, table).tolist()
        assert all(_close_to_exact(p, exact(w, seq)) for seq, p in zip(table.tolist(), probs))
        assert abs(math.fsum(probs) - 1.0) <= 1e-12


# Weight vectors of 8 or more items on which the draw-major samplers were
# checked to give the row-major oracle's counts. Identity is not a theorem
# there: the oracle's row total is numpy's pairwise sum, which can round
# differently from the last cumulative sum the new samplers use.
WIDE_SPECS = [
    SamplerSpec("vase", np.exp(np.linspace(-2.0, 2.0, 8)), 3000, seed=31),
    SamplerSpec("vase", np.arange(1.0, 13.0), 2000, seed=32),
    SamplerSpec("vase", np.geomspace(1e-3, 1e3, 16), 1000, seed=33),
    SamplerSpec("plank", np.exp(np.linspace(-1.5, 1.5, 8)), 3000, seed=34),
    SamplerSpec("plank", np.arange(1.0, 11.0), 2000, seed=35),
    SamplerSpec("plank", np.geomspace(0.01, 100.0, 14), 1000, seed=36),
]

_SAMPLERS = {"vase": (sample_vase, oracle_vase), "plank": (sample_plank_dart, oracle_plank)}


class _NearOneGenerator:
    """Stands in for np.random.Generator: every uniform is 1 - 2**-53, the
    largest double below 1 that Generator.random returns."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class TestSamplerOracle:
    """The draw-major samplers against the former row-major ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["vase", "plank"]), st.integers(1, 5000),
           st.integers(0, 2**63 - 1))
    def test_counts_equal_row_major_oracle(self, data, model, draws, seed):
        m = data.draw(st.integers(2, 7) if model == "vase" else st.sampled_from([2, 4, 6]))
        weights = data.draw(st.lists(st.floats(1e-6, 1e6), min_size=m, max_size=m))
        spec = SamplerSpec(model, np.array(weights), draws, seed=seed)
        new, old = _SAMPLERS[model]
        assert new(spec) == old(spec)

    @pytest.mark.parametrize("spec", WIDE_SPECS,
                             ids=lambda s: f"{s.model}-{s.weights.size}")
    def test_wide_specs_equal_row_major_oracle(self, spec):
        new, old = _SAMPLERS[spec.model]
        assert new(spec) == old(spec)

    def test_total_is_the_last_cumulative_sum(self):
        # numpy sums 8 values pairwise: 1 + 3 * 2**-52 here, while the
        # running sum stays at 1, so the oracle's u = (1 - 2**-53) * total
        # passes every cumulative sum and picks item 8 of 8
        weights = np.array([1.0] + [2.0**-53] * 7)
        assert weights.sum() > np.cumsum(weights)[-1]
        assert oracle_rows(_NearOneGenerator(), weights[None, :]).tolist() == [8]
        pick = _categorical_columns(_NearOneGenerator(), weights[:, None])
        assert pick.shape == (1,)
        assert 0 <= pick[0] < 8 and weights[pick[0]] > 0
        # a zeroed tail (items already drawn) is never picked either
        live = np.array([0.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])[:, None]
        assert _categorical_columns(_NearOneGenerator(), live).tolist() == [2]


class TestSamplerSpecWeights:
    """Weights the categorical draws cannot use are rejected up front."""

    @pytest.mark.parametrize("model, weights, match", [
        ("vase", [1.0, np.nan], "weights must be finite"),
        ("plank", [1.0, np.nan], "weights must be finite"),
        ("vase", [1.0, np.inf], "weights must be finite"),
        ("plank", [1.0, np.inf], "weights must be finite"),
        ("vase", [1e308, 1e308], "sum of the weights overflows"),
        ("plank", [1e308, 1e308], "sum of the weights overflows"),
        ("vase", [1e-320, 1e-320], "least normal float"),
        ("plank", [1e-320, 1.0], "least normal float"),
        ("plank", [1e308, 1.0], "lengths 1/w must be at least"),
        ("plank", [2.3e-308] * 6, "sum of the lengths 1/w overflows"),
        ("vase", [], "at least one weight"),
    ])
    def test_unusable_weights_rejected(self, model, weights, match):
        # built only: a NaN plank spec was once accepted, and its sampler
        # never returned
        with pytest.raises(ValueError, match=match):
            SamplerSpec(model, np.array(weights), draws=10)

    def test_extreme_normal_weights_sample(self):
        tiny = np.finfo(float).tiny
        for spec in (SamplerSpec("vase", np.array([tiny, tiny, 1e300]), 2000, seed=37),
                     SamplerSpec("plank", np.array([1e-300, 1.0, 2.0, 1e300]), 2000, seed=38)):
            counts = _SAMPLERS[spec.model][0](spec)
            assert sum(counts.values()) == spec.draws
            assert all(sorted(key) == list(range(spec.weights.size)) for key in counts)
