"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (timed
as set-up), runs one complete pass of listfold work in ``run`` (timed), and
afterwards fingerprints and checks the pass's outputs outside the timed
region. A pass is deterministic for a seed, so every pass of a run must
produce the same digest. README.md beside this file says why each workload
exists and which ROADMAP item it shows or bypasses.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import math

import numpy as np

# Largest |z| a correct sampler may show on any one ordering. With 24
# orderings a run exceeds it by chance with probability about 1e-5.
SAMPLER_Z_BOUND = 5.0
GOLDEN = (((5.0, 4.0, 1.0, 0.0), 0.65), ((1.0, 5.0, 4.0, 0.0), 4.78),
          ((5.0, 1.0, 4.0, 0.0), 6.65))


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class BacktestTrain:
    """run_backtest with the README headline step shape, on few windows."""

    name = "backtest-train"
    work_name, work_unit = "train_steps_per_s", "train steps"
    FULL = dict(weeks=332, stocks=80, factors=68, train_len=300, test_len=16,
                batch_size=32, total_batches=3, k=8)
    TOY = dict(weeks=64, stocks=32, factors=16, train_len=32, test_len=8,
               batch_size=8, total_batches=8, k=4)

    def __init__(self, lf, seed: int, toy: bool, workdir):
        self.lf, self.seed = lf, seed
        self.size = self.TOY if toy else self.FULL

    def setup(self) -> None:
        lf, z = self.lf, self.size
        self.panel = lf.generate_synthetic_panel(
            seed=self.seed, weeks=z["weeks"], stocks=z["stocks"], factors=z["factors"],
            signal_strength=0.8, noise_scale=0.5)
        self.strategies = lf.standard_strategies(k=z["k"])
        self.config = lf.BacktestConfig(
            train_len=z["train_len"], test_len=z["test_len"], batch_size=z["batch_size"],
            total_batches=z["total_batches"], seed=self.seed)
        windows = (z["weeks"] - z["train_len"]) // z["test_len"]
        models = {m for s in self.strategies for m in s.required_models()}
        self.steps = windows * len(models) * z["total_batches"]
        self.work = self.steps
        self.perm_evals = 0

    def run(self):
        return self.lf.run_backtest(self.panel, self.strategies, self.config)

    def digest(self, out) -> str:
        parts = [sorted((k, tuple(vars(v).values())) for k, v in out.stats.items()),
                 sorted((m, sorted(r.items())) for m, r in out.rank_metrics.items()),
                 sorted(out.overlap_per_week.items()), out.test_dates]
        for model in sorted(out.scores):
            parts += [out.scores[model][d].tobytes() for d in out.test_dates]
        return _sha(*parts)

    def weekly_ic(self, out) -> np.ndarray:
        scores = out.scores["listfold-exp"]
        return np.array([self.lf.spearman_ic(scores[d], self.panel.week_returns(d))
                         for d in out.test_dates])

    def checks(self, out):
        ic = self.weekly_ic(out)
        se = ic.std(ddof=1) / math.sqrt(ic.size)
        stats = [x for s in out.stats.values() for x in vars(s).values()]
        ranks = [x for r in out.rank_metrics.values() for x in r.values()]
        flat = sum(np.ptp(out.scores["listfold-exp"][d]) == 0 for d in out.test_dates)
        return [
            ("ic_listfold_exp_above_3se", ic.mean() > 3 * se,
             f"mean IC {ic.mean():.4f}, se {se:.4f}, {ic.size} weeks, "
             f"{flat} with constant scores"),
            ("stats_finite", _finite(stats + ranks), f"{len(stats) + len(ranks)} values"),
        ]

    def reported(self, out):
        ic = self.weekly_ic(out)
        return [("ic_listfold_exp", float(ic.mean()), "ic",
                 f"higher is better; se {ic.std(ddof=1) / math.sqrt(ic.size):.4f}, "
                 f"{ic.size} weeks")]


class TablesBook:
    """The `listfold backtest` CLI on a panel CSV, token training, all tables."""

    name = "tables-book"
    work_name = "book_cells_per_s"
    work_unit = "(strategy, week) books and (model, k, week) heatmap cells"
    FULL = dict(weeks=104, stocks=80, factors=68, train_len=40, test_len=32,
                batch_size=1, total_batches=4, k=8)
    TOY = dict(weeks=28, stocks=16, factors=6, train_len=16, test_len=6,
               batch_size=2, total_batches=1, k=4)
    MODELS = 5  # the CLI's default strategies train five models
    STRATEGIES = 9  # five long-short books plus four short-average ones

    def __init__(self, lf, seed: int, toy: bool, workdir):
        self.lf, self.seed = lf, seed
        self.size = self.TOY if toy else self.FULL
        self.cli = importlib.import_module("listfold.cli")
        self.csv_path = workdir / "panel.csv"
        self.out_dir = workdir / "tables"

    def setup(self) -> None:
        lf, z = self.lf, self.size
        self.panel = lf.generate_synthetic_panel(
            seed=self.seed, weeks=z["weeks"], stocks=z["stocks"], factors=z["factors"],
            signal_strength=0.8, noise_scale=0.5)
        lf.save_panel(self.panel, self.csv_path)
        self.argv = ["backtest", "--panel", str(self.csv_path), "--out", str(self.out_dir),
                     "--train-len", str(z["train_len"]), "--test-len", str(z["test_len"]),
                     "--k", str(z["k"]), "--batch-size", str(z["batch_size"]),
                     "--total-batches", str(z["total_batches"]), "--seed", str(self.seed)]
        windows = (z["weeks"] - z["train_len"]) // z["test_len"]
        self.test_dates = list(self.panel.dates[z["train_len"]:
                                                z["train_len"] + windows * z["test_len"]])
        weeks = len(self.test_dates)
        self.steps = windows * self.MODELS * z["total_batches"]
        self.work = self.STRATEGIES * weeks + self.MODELS * (z["stocks"] // 2) * weeks
        self.perm_evals = 0

    def run(self):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = self.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"listfold backtest exited with {code}")
        return printed.getvalue()

    def _outputs(self):
        return sorted(self.out_dir.iterdir())

    def digest(self, out) -> str:
        return _sha(out, *[(p.name, p.read_bytes()) for p in self._outputs()])

    def _csv_values(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        return [cell for row in rows for cell in row[1:]]

    def checks(self, out):
        lf, panel = self.lf, self.panel
        back = lf.load_panel(self.csv_path)
        round_trip = (back.dates == panel.dates and back.stocks == panel.stocks
                      and back.factor_names == panel.factor_names
                      and np.array_equal(back.factors, panel.factors)
                      and np.array_equal(back.fwd_return, panel.fwd_return))
        oracle = {"oracle": {d: panel.week_returns(d) for d in self.test_dates}}
        ks = range(1, panel.n_stocks // 2 + 1)
        _, _, grid = lf.cutoff_heatmap(oracle, panel, ks, self.test_dates)
        steps = np.diff(grid[:, 0])
        names = [p.name for p in self._outputs()]
        cells = [c for p in self._outputs() for c in self._csv_values(p)]
        finite = all(c != "" and math.isfinite(float(c)) for c in cells)
        return [
            ("panel_csv_round_trip_bit_equal", round_trip,
             f"{panel.n_weeks} x {panel.n_stocks} x {panel.n_factors}"),
            ("oracle_heatmap_non_increasing", bool(np.all(steps <= 1e-9)),
             f"largest step up {steps.max():.3e} bps over k = 1..{len(ks)}"),
            ("outputs_finite", finite and len(names) == 3 + self.STRATEGIES,
             f"{len(cells)} cells in {len(names)} CSV files"),
        ]

    def reported(self, out):
        return []


def _discordant(seq) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] < seq[j])


def probe_evaluations(scores) -> int:
    """Losses order_sensitivity_probe evaluates: each distinct permutation
    plus each of its transpositions that removes discordant pairs."""
    total = 0
    for perm in set(itertools.permutations(scores)):
        base = _discordant(perm)
        total += 1
        for i, j in itertools.combinations(range(len(perm)), 2):
            swapped = list(perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            total += _discordant(swapped) < base
    return total


class LabEnumerate:
    """The work of `listfold verify` plus both samplers, through consistency."""

    name = "lab-enumerate"
    work_name, work_unit = "perm_evals_per_s", "permutation losses"
    FULL = dict(t1_trials=5, t2_trials=5, budget=6, draws=40000)
    TOY = dict(t1_trials=1, t2_trials=1, budget=1, draws=4000)
    T1_NS = (1, 2, 3)
    T2_NS = (1, 2, 3, 4)
    SEARCH_SIZES = (4, 6, 8)
    DISTRIBUTIONS = ("uniform", "normal", "clustered", "near-ties")
    WEIGHTS = (2.0, 1.0, 0.7, 0.4)
    PROBE = (5.0, 4.0, 1.0, 0.0)

    def __init__(self, lf, seed: int, toy: bool, workdir):
        self.lf, self.seed = lf, seed
        self.size = self.TOY if toy else self.FULL

    def setup(self) -> None:
        consistency = self.lf.consistency
        z = self.size
        # one independent stream per check, all fixed by the benchmark seed
        seeds = [int(s) for s in np.random.SeedSequence(self.seed).generate_state(5)]
        self.t1_seed, self.t2_seed, self.search_seed, vase_seed, plank_seed = seeds
        weights = np.asarray(self.WEIGHTS)
        self.vase = consistency.SamplerSpec("vase", weights, z["draws"], vase_seed)
        self.plank = consistency.SamplerSpec("plank", weights, z["draws"], plank_seed)
        self.probe_spec = self.lf.LossSpec("listfold", self.lf.exponential())
        f = math.factorial
        self.perm_evals = (
            len(GOLDEN)
            + z["t1_trials"] * sum(f(2 * n) for n in self.T1_NS)
            + z["t2_trials"] * sum(f(n) ** 2 for n in self.T2_NS)
            + z["t2_trials"] * sum(f(2 * n) + 1 for n in self.T2_NS)
            + z["budget"] * len(self.DISTRIBUTIONS) * sum(f(m) + 1 for m in self.SEARCH_SIZES)
            + probe_evaluations(self.PROBE))
        self.work = self.perm_evals
        self.steps = 0

    def run(self):
        consistency, losses = self.lf.consistency, self.lf.losses
        z, w = self.size, np.asarray(self.WEIGHTS)
        expo = losses.exponential()
        out = {"golden": [losses.listfold_loss(np.asarray(seq), expo).value
                          for seq, _ in GOLDEN]}
        out["theorem1"] = consistency.verify_theorem1(z["t1_trials"], self.T1_NS, self.t1_seed)
        out["theorem2_restricted"] = consistency.verify_theorem2(
            z["t2_trials"], self.T2_NS, self.t2_seed, restricted=True)
        out["theorem2_unrestricted"] = consistency.verify_theorem2(
            z["t2_trials"], self.T2_NS, self.t2_seed, restricted=False)
        out["witnesses"] = [
            wit for size in self.SEARCH_SIZES for dist in self.DISTRIBUTIONS
            for wit in consistency.counterexample_search(z["budget"], size, dist,
                                                         seed=self.search_seed)]
        out["probe"] = consistency.order_sensitivity_probe(np.asarray(self.PROBE),
                                                           self.probe_spec)
        vase = consistency.sample_vase(self.vase)
        out["vase_z"] = consistency.frequency_zscores(
            vase, z["draws"], lambda p: consistency.vase_probability(w, p))
        plank = consistency.sample_plank_dart(self.plank)
        out["plank_z"] = consistency.frequency_zscores(
            plank, z["draws"], lambda p: consistency.plank_probability(w, p))
        return out

    def digest(self, out) -> str:
        reports = [(r.passed, r.trials_run, r.degenerate, repr(r.violations))
                   for r in (out["theorem1"], out["theorem2_restricted"],
                             out["theorem2_unrestricted"])]
        return _sha(out["golden"], reports, out["witnesses"], out["probe"],
                    sorted(out["vase_z"].items()), sorted(out["plank_z"].items()))

    def checks(self, out):
        result = []
        golden_ok = all(abs(v - t) < 0.01 for v, (_, t) in zip(out["golden"], GOLDEN))
        result.append(("golden_listfold_exp", golden_ok,
                       " ".join(f"{v:.4f}" for v in out["golden"])))
        expected = {"theorem1": self.size["t1_trials"] * len(self.T1_NS),
                    "theorem2_restricted": self.size["t2_trials"] * len(self.T2_NS),
                    "theorem2_unrestricted": self.size["t2_trials"] * len(self.T2_NS)}
        for key, trials in expected.items():
            r = out[key]
            ok = (r.passed and not r.violations and r.degenerate == 0
                  and r.trials_run == trials)
            result.append((f"{key}_pass", ok,
                           f"trials {r.trials_run}, violations {len(r.violations)}, "
                           f"degenerate {r.degenerate}"))
        result.append(("counterexample_witnesses_none", not out["witnesses"],
                       f"{len(out['witnesses'])} witnesses"))
        for key in ("vase_z", "plank_z"):
            worst = max(abs(z) for _, _, z in out[key].values())
            result.append((f"{key}_within_bound", worst <= SAMPLER_Z_BOUND,
                           f"max |z| {worst:.2f} <= {SAMPLER_Z_BOUND}"))
        return result

    def reported(self, out):
        return []


WORKLOADS = {w.name: w for w in (BacktestTrain, TablesBook, LabEnumerate)}
