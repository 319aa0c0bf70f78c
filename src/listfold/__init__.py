"""listfold: listwise learn-to-rank losses built for long-short portfolios.

The package bundles the ListFold loss family with the ListMLE, naive
two-sided and mse baselines, a from-scratch scoring network, rank metrics
(IC and both-ends NDCG), an enumeration lab that checks the consistency
claims by brute force, Monte Carlo samplers for the generative ranking
models, and a rolling-window long-short backtest harness with a synthetic
panel generator.
"""

from .data import (
    DataError,
    FactorPanel,
    ParseError,
    RankedBatch,
    WindowPlan,
    build_ranked_batch,
    decile_labels,
    fit_norm_params,
    generate_synthetic_panel,
    load_panel,
    rolling_windows,
    save_panel,
)
from .losses import (
    LossResult,
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
from .metrics import (
    RankEval,
    ndcg_at_k,
    ndcg_at_minus_k,
    ndcg_pm_k,
    spearman_ic,
)
from .neural import (
    ScoringNet,
    TrainConfig,
    TrainingDivergenceError,
    forward,
    init_network,
    load_checkpoint,
    save_checkpoint,
    score_week,
    train,
    train_step,
)
from .consistency import (
    EnumerationReport,
    SamplerSpec,
    counterexample_search,
    enumerate_losses,
    order_sensitivity_probe,
    plank_probability,
    sample_plank_dart,
    sample_vase,
    vase_probability,
    verify_theorem1,
    verify_theorem2,
)
from .backtest import (
    BacktestConfig,
    BacktestResult,
    PnlSeries,
    StrategySpec,
    StrategyStats,
    batch_size_grid,
    book_pnl,
    build_long_short,
    build_short_average,
    compute_stats,
    cutoff_heatmap,
    standard_strategies,
    run_backtest,
)

__version__ = "0.1.0"
