"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines appear;
the whole module takes a few minutes, dominated by the synthetic
end-to-end reproduction (criterion 9).
"""

import math
import zlib

import numpy as np
import pytest

from listfold import consistency
from listfold.backtest import (
    BacktestConfig,
    PnlSeries,
    StrategySpec,
    batch_size_grid,
    compute_stats,
    cutoff_heatmap,
    standard_strategies,
    run_backtest,
    write_heatmap_csv,
    write_batchgrid_csv,
    write_pnl_csv,
    write_rankmetrics_csv,
    write_stats_csv,
)
from listfold.data import generate_synthetic_panel, load_panel, save_panel
from listfold.losses import (
    LossSpec,
    Transform,
    listfold_loss,
    loss_gradient_check,
)
from listfold.metrics import RankEval, ndcg_at_k, ndcg_at_minus_k, ndcg_pm_k, spearman_ic
from listfold.neural import backward, forward, forward_cached, init_network

EXP = Transform("exponential")
SGM = Transform("sigmoid")


def ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_golden_loss_values():
    got = {
        (5.0, 4.0, 1.0, 0.0): 0.65,
        (1.0, 5.0, 4.0, 0.0): 4.78,
        (5.0, 1.0, 4.0, 0.0): 6.65,
    }
    for seq, target in got.items():
        value = listfold_loss(np.asarray(seq), EXP).value
        assert value == pytest.approx(target, abs=0.01)
    ok(1, "listfold-exp reproduces 0.65 / 4.78 / 6.65 within 0.01")


def test_criterion_2_sigmoid_minimizer_family():
    report = consistency.verify_theorem1(trials=100, n_range=[1, 2, 3], seed=271828)
    assert report.trials_run == 300
    assert report.degenerate == 0
    assert report.passed, report.summary()
    ok(2, "sigmoid minimizer set equals the pairing family on 300/300 draws")


def test_criterion_3_exponential_descending_minimizer():
    restricted = consistency.verify_theorem2(trials=100, n_range=[1, 2, 3, 4],
                                             seed=314159, restricted=True)
    assert restricted.trials_run == 400
    assert restricted.passed, restricted.summary()

    total = 0
    for size in (4, 6, 8):
        for dist, budget in (("uniform", 1360), ("normal", 1020),
                             ("clustered", 510), ("near-ties", 510)):
            seed = zlib.crc32(f"{size}:{dist}".encode())
            witnesses = consistency.counterexample_search(budget, size, dist, seed=seed)
            assert witnesses == [], witnesses[:3]
            total += budget
    assert total >= 10_000
    ok(3, f"descending uniquely minimal on 400 restricted draws; "
          f"{total} unrestricted samples at sizes 4/6/8 found no counterexample")


def test_criterion_4_probability_normalization():
    rng = np.random.default_rng(42)
    for length in (2, 4, 6):
        scores = rng.uniform(-3, 3, length)
        for family in ("listfold", "listmle"):
            rep = consistency.enumerate_losses(scores, LossSpec(family, EXP))
            assert rep.probability_mass() == pytest.approx(1.0, abs=1e-9)
    ok(4, "exp(-loss) sums to 1 over all permutations at lengths 2/4/6")


def test_criterion_5_sampler_fidelity():
    draws = 100_000
    worst = 0.0
    for weights in (np.array([1.7, 0.6]), np.array([1.5, 1.0, 0.7, 0.4])):
        spec = consistency.SamplerSpec("plank", weights, draws, seed=5)
        counts = consistency.sample_plank_dart(spec)
        table = consistency.frequency_zscores(
            counts, draws, lambda p: consistency.plank_probability(weights, p)
        )
        worst = max(worst, max(abs(z) for _, _, z in table.values()))
    for weights in (np.array([2.0, 1.0, 0.5]), np.array([1.2, 1.0, 0.8, 0.5])):
        spec = consistency.SamplerSpec("vase", weights, draws, seed=6)
        counts = consistency.sample_vase(spec)
        table = consistency.frequency_zscores(
            counts, draws, lambda p: consistency.vase_probability(weights, p)
        )
        worst = max(worst, max(abs(z) for _, _, z in table.values()))
    assert worst < 4.0
    ok(5, f"plank and vase Monte Carlo match analytic probabilities, max |z| = {worst:.2f}")


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for family in ("listfold", "listmle", "naive_pt"):
        for transform in (EXP, SGM):
            spec = LossSpec(family, transform)
            for _ in range(100):
                worst = max(worst, loss_gradient_check(spec, rng.uniform(-2, 2, 6)))
    assert worst < 1e-4
    mse_worst = max(
        loss_gradient_check(LossSpec("mse"), rng.uniform(-2, 2, 6),
                            returns=rng.uniform(-1, 1, 6))
        for _ in range(100)
    )
    assert mse_worst < 1e-8

    # end-to-end parameter gradients on a tiny net against central differences
    net = init_network(3, 11)
    feats = rng.uniform(0.1, 1.0, (4, 3))
    spec = LossSpec("listfold", EXP)
    scores, cache = forward_cached(net, feats)
    for h, w, b in zip(cache, net.weights, net.biases):
        assert np.min(np.abs(h @ w + b)) > 1e-6  # clear of relu kinks
    order = np.argsort(-scores, kind="stable")

    def loss_of(n):
        s = forward(n, feats)
        return listfold_loss(s[order], EXP).value

    base = listfold_loss(scores[order], EXP)
    dscores = np.zeros(4)
    dscores[order] = base.gradient
    grad_w, grad_b = backward(net, cache, dscores)
    step = 1e-6
    end_to_end_worst = 0.0
    for li in range(len(net.weights)):
        for arr, grad in ((net.weights[li], grad_w[li]), (net.biases[li], grad_b[li])):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + step
                up = loss_of(net)
                arr[idx] = keep - step
                dn = loss_of(net)
                arr[idx] = keep
                fd = (up - dn) / (2 * step)
                err = abs(fd - grad[idx]) / max(1.0, abs(fd), abs(grad[idx]))
                end_to_end_worst = max(end_to_end_worst, err)
                it.iternext()
    assert end_to_end_worst < 1e-3
    ok(6, f"loss gradients at {worst:.1e} (mse {mse_worst:.1e}), "
          f"network parameter gradients at {end_to_end_worst:.1e}")


def test_criterion_7_metrics():
    labels = np.array([3, 2, 4, 1])
    perfect = RankEval(np.array([2, 0, 1, 3]), labels, 4)
    assert ndcg_at_k(perfect) == pytest.approx(1.0, abs=1e-12)

    worked = RankEval(np.array([0, 1, 2, 3]), labels, 2)
    assert ndcg_at_k(worked) == pytest.approx(0.458, abs=1e-3)
    assert ndcg_at_minus_k(worked, levels=4) == pytest.approx(0.805, abs=1e-3)
    assert ndcg_pm_k(worked, levels=4) == pytest.approx(0.631, abs=1e-3)

    assert spearman_ic([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8, abs=1e-12)
    ok(7, "perfect NDCG = 1; worked case 0.458 / 0.805 / 0.631; spearman closed form 0.8")


def test_criterion_8_backtest_accounting():
    def series(returns, turnover):
        dates = [f"W{i:02d}" for i in range(len(returns))]
        return PnlSeries(dates, list(returns), [0.0] * len(returns), list(returns),
                         list(turnover))

    # cumulative path (0, 1.0, 0.5, 0.8): drawdown exactly one half
    stats = compute_stats(series([1.0, -0.5, 0.3], [1.0, 0.5, 0.25]), rf_annual=0.0)
    assert stats.mdd == 0.5
    assert stats.trv == pytest.approx((1.0 + 0.5 + 0.25) / 3, abs=0)

    stats = compute_stats(series([0.02, 0.00], [1.0, 0.0]), rf_annual=0.03)
    mean = (0.02 + 0.0) / 2
    sigma = math.sqrt(((0.02 - mean) ** 2 + (0.0 - mean) ** 2) / 1) * math.sqrt(52)
    assert stats.mu_excess == pytest.approx(mean * 52 - 0.03, abs=1e-15)
    assert stats.sigma == pytest.approx(sigma, abs=1e-15)
    assert stats.sharpe == pytest.approx((mean * 52 - 0.03) / sigma, rel=1e-12)

    monotone = compute_stats(series([0.01, 0.02, 0.005], [0.0, 0.0, 0.0]), rf_annual=0.0)
    assert monotone.mdd == 0.0
    ok(8, "pnl fixtures reproduce mean/sigma/sharpe/mdd/turnover to machine precision")


SYNTH_SEED = 20240601


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    panel = generate_synthetic_panel(SYNTH_SEED, weeks=631, stocks=80, factors=68,
                                     signal_strength=1.0, noise_scale=0.25)
    cfg = BacktestConfig(train_len=331, test_len=50, batch_size=8, total_batches=60,
                         seed=7, cost_bps=30.0, levels=10)
    # the five models plus their short-average books: the full two-mode table
    strategies = standard_strategies(k=8, short_average=True)
    first = run_backtest(panel, strategies, cfg)
    second = run_backtest(panel, strategies, cfg)
    return panel, cfg, strategies, first, second, tmp_path_factory.mktemp("acc9")


def test_criterion_9a_planted_signal_ic(planted_run):
    panel, cfg, strategies, result, _, _ = planted_run
    assert {s.name for s in strategies} >= {"ListFold-exp", "ListFold-sgm", "ListMLE",
                                            "List2MLE", "MLP"}
    assert len(result.stats) == 9  # five long-short rows, four short-average rows
    ics = [spearman_ic(result.scores["listfold-exp"][d], panel.week_returns(d))
           for d in result.test_dates]
    mean = float(np.mean(ics))
    se = float(np.std(ics, ddof=1) / np.sqrt(len(ics)))
    assert mean > 3 * se
    ok(9, f"(a) listfold-exp mean weekly IC {mean:.3f} > 3 se = {3 * se:.4f} "
          f"over {len(ics)} test weeks; both portfolio-mode panels emitted")


def test_criterion_9b_perfect_foresight_heatmap(planted_run):
    panel, cfg, strategies, result, _, _ = planted_run
    oracle = {"oracle": {d: panel.week_returns(d) for d in result.test_dates}}
    _, ks, grid = cutoff_heatmap(oracle, panel, range(1, 41), result.test_dates)
    col = grid[:, 0]
    assert np.all(np.diff(col) <= 1e-9)
    ok(9, "(b) perfect-foresight cutoff heatmap non-increasing from k=1 to 40")


def test_criterion_9c_rerun_byte_identical(planted_run):
    panel, cfg, strategies, first, second, out = planted_run
    pairs = []
    for tag, res in (("a", first), ("b", second)):
        stats_p = out / f"stats_{tag}.csv"
        rank_p = out / f"rank_{tag}.csv"
        pnl_p = out / f"pnl_{tag}.csv"
        write_stats_csv(stats_p, res.stats)
        write_rankmetrics_csv(rank_p, res.rank_metrics)
        write_pnl_csv(pnl_p, res.pnl["ListFold-exp"])
        pairs.append((stats_p, rank_p, pnl_p))
    for a, b in zip(*pairs):
        assert a.read_bytes() == b.read_bytes()
    ok(9, "(c) full pipeline rerun is byte-identical (stats, rank metrics, pnl)")


def test_criterion_10_tables_pipeline_on_conforming_csv(tmp_path):
    # The published headline table values need the proprietary factor panel
    # and are not reproducible here; the contract is that any conforming CSV
    # drives the full tables pipeline to completion with the right shapes.
    small = generate_synthetic_panel(99, weeks=70, stocks=12, factors=6,
                                     signal_strength=0.8, noise_scale=0.4)
    path = tmp_path / "panel.csv"
    save_panel(small, path)
    panel = load_panel(path)

    cfg = BacktestConfig(train_len=40, test_len=15, batch_size=4, total_batches=8,
                         seed=3, cost_bps=30.0, levels=6)
    strategies = standard_strategies(k=2)  # 5 long-short rows + 4 short-average rows
    result = run_backtest(panel, strategies, cfg)
    write_stats_csv(tmp_path / "stats.csv", result.stats)
    write_rankmetrics_csv(tmp_path / "rankmetrics.csv", result.rank_metrics)
    assert len(result.stats) == 9
    assert set(result.rank_metrics) == {"listfold-exp", "listfold-sgm", "listmle",
                                        "listmle-rvs", "mlp"}
    for row in result.rank_metrics.values():
        assert set(row) == {"ic", "ndcg", "ndcg_at_k", "ndcg_at_minus_k", "ndcg_pm_k"}

    models, ks, grid = cutoff_heatmap(result.scores, panel, range(1, panel.n_stocks // 2 + 1),
                                      result.test_dates)
    write_heatmap_csv(tmp_path / "heatmap.csv", models, ks, grid)
    assert grid.shape == (panel.n_stocks // 2, len(result.scores))

    grid_strategies = [
        StrategySpec("ListFold-exp", "listfold-exp", "ls", 2),
        StrategySpec("ListFold-sgm", "listfold-sgm", "ls", 2),
        StrategySpec("ListMLE", "listmle", "ls", 2),
        StrategySpec("ListMLE-rvs", "listmle-rvs", "ls", 2),
        StrategySpec("List2MLE", "listmle", "list2mle", 2),
    ]
    names, sizes, bgrid = batch_size_grid(panel, [2, 4, 8, 16, 32], grid_strategies, cfg)
    write_batchgrid_csv(tmp_path / "batchgrid.csv", names, sizes, bgrid)
    assert bgrid.shape == (5, 5)
    assert np.all(np.isfinite(bgrid))
    for name in ("stats.csv", "rankmetrics.csv", "heatmap.csv", "batchgrid.csv"):
        assert (tmp_path / name).exists()
    ok(10, "conforming CSV drives the stats / rank / heatmap / batch-grid pipeline "
           "to completion with the published tables' shapes")
