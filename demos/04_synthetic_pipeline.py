"""End-to-end research loop on a synthetic factor panel.

Generates a planted-signal panel, walks the rolling windows (train with
each loss, score the test weeks, build long-short books, account pnl with
costs), and prints the stats and rank-metric tables. Output CSVs land in
./demo_out. Runtime is a few seconds.
"""

from pathlib import Path

from listfold import (
    BacktestConfig,
    cutoff_heatmap,
    generate_synthetic_panel,
    standard_strategies,
    run_backtest,
    save_panel,
)
from listfold.backtest import (
    write_heatmap_csv,
    write_pnl_csv,
    write_rankmetrics_csv,
    write_stats_csv,
)

out = Path("demo_out")
out.mkdir(exist_ok=True)

panel = generate_synthetic_panel(seed=17, weeks=240, stocks=40, factors=20,
                                 signal_strength=0.8, noise_scale=0.6)
save_panel(panel, out / "panel.csv")
print(f"panel: {panel.n_weeks} weeks x {panel.n_stocks} stocks x {panel.n_factors} factors")

config = BacktestConfig(train_len=120, test_len=30, batch_size=8, total_batches=80,
                        seed=11, cost_bps=30.0, rf_annual=0.03)
strategies = standard_strategies(k=4)
result = run_backtest(panel, strategies, config)
print(f"rolling windows: {(panel.n_weeks - config.train_len) // config.test_len}, "
      f"test weeks: {len(result.test_dates)}\n")

print(f"{'strategy':<16} {'mu-rf':>8} {'sigma':>8} {'sharpe':>8} {'mdd':>8} {'trv':>6}")
for name, s in result.stats.items():
    print(f"{name:<16} {s.mu_excess:>8.3f} {s.sigma:>8.3f} {s.sharpe:>8.2f} "
          f"{s.mdd:>8.3f} {s.trv:>6.2f}")
print()

print(f"{'model':<14} {'IC':>7} {'NDCG':>7} {'N@k':>7} {'N@-k':>7} {'N@+-k':>7}")
for model, row in result.rank_metrics.items():
    print(f"{model:<14} {row['ic']:>7.3f} {row['ndcg']:>7.3f} {row['ndcg_at_k']:>7.3f} "
          f"{row['ndcg_at_minus_k']:>7.3f} {row['ndcg_pm_k']:>7.3f}")
print()

for name, ov in result.overlap_per_week.items():
    print(f"{name}: the two legs overlap on {ov:.2f} stocks/week on average")

write_stats_csv(out / "stats.csv", result.stats)
write_rankmetrics_csv(out / "rankmetrics.csv", result.rank_metrics)
for name, series in result.pnl.items():
    write_pnl_csv(out / f"pnl_{name}.csv", series)

models, ks, grid = cutoff_heatmap(result.scores, panel,
                                  range(1, panel.n_stocks // 2 + 1), result.test_dates)
write_heatmap_csv(out / "heatmap.csv", models, ks, grid)
print(f"\nheatmap rows (k = 1 .. {ks[-1]}), gross weekly bps by model:")
print(" ", "  ".join(models))
for row, k in zip(grid, ks):
    if k in (1, 4, 8, ks[-1]):
        print(f"  k={k:<3}", "  ".join(f"{v:7.1f}" for v in row))

print(f"\nCSV artifacts written under {out}/")
