"""End-to-end command tests: exit codes, files, and determinism."""

import csv
import re
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from listfold import cli
from listfold.backtest import BacktestConfig, StrategySpec, run_backtest
from listfold.cli import main, parse_config_file, build_run_config, ConfigError
from listfold.data import DataError, apply_norm_params, load_panel, rolling_windows
from listfold.neural import CheckpointError, forward, load_checkpoint, load_checkpoint_norm


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = root / "panel.csv"
    rc = main(["synth", "--out", str(path), "--seed", "5", "--weeks", "90",
               "--stocks", "12", "--factors", "6", "--signal-strength", "1.0",
               "--noise-scale", "0.3"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def base_config(panel_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    cfg = root / "run.cfg"
    cfg.write_text(
        f"panel = {panel_csv}\n"
        "train_len = 60\n"
        "test_len = 15\n"
        "k = 2\n"
        "batch_size = 8\n"
        "total_batches = 15\n"
        "levels = 6\n"
        "cost_bps = 30\n"
        "# comment line\n"
        "seed = 3\n"
    )
    return cfg


def via_key_and_flag(monkeypatch, panel_csv, tmp_path, name, value):
    """The configs `backtest` hands to run_backtest when `name` is set once
    as a config-file key and once as a flag; each run stops there."""
    seen = []

    def stop(panel, strategies, config):
        seen.append(config)
        raise DataError("stopped before training")

    monkeypatch.setattr(cli, "run_backtest", stop)
    cfg = tmp_path / "run.cfg"
    # k = 2 fits the 12-stock panel (the default k = 8 would not)
    cfg.write_text(f"panel = {panel_csv}\nk = 2\n{name} = {value}\n")
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["backtest", "--panel", str(panel_csv), "--out", str(tmp_path), "--k", "2",
                 "--" + name.replace("_", "-"), str(value)]) == 2
    return seen


def other_value(field):
    """A valid value of a BacktestConfig field other than its default."""
    if isinstance(field.default, str):
        return {"optimizer": "sgd"}[field.name]
    return field.default + 1 if isinstance(field.default, int) else field.default * 2


class TestConfig:
    def test_parse_flat_file(self, base_config):
        values = parse_config_file(base_config)
        assert values["train_len"] == "60"
        assert "# comment line" not in values

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            build_run_config({"wibble": "1"}, {})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="train_len"):
            build_run_config({"train_len": "soon"}, {})

    def test_unknown_strategy_named(self):
        with pytest.raises(ConfigError, match="strategies"):
            build_run_config({"strategies": "listfool"}, {})

    @pytest.mark.parametrize("field", fields(BacktestConfig), ids=lambda f: f.name)
    def test_backtest_field_is_a_config_key_and_a_flag(self, field, panel_csv, tmp_path,
                                                       monkeypatch):
        value = other_value(field)
        from_file, from_flag = via_key_and_flag(monkeypatch, panel_csv, tmp_path,
                                                field.name, value)
        assert from_file == from_flag == replace(BacktestConfig(), **{field.name: value})

    def test_new_backtest_field_needs_no_cli_edit(self, panel_csv, tmp_path, monkeypatch):
        extended = make_dataclass("Extended", [("extra_knob", int, 5)],
                                  bases=(BacktestConfig,), frozen=True)
        monkeypatch.setattr(cli, "BacktestConfig", extended)
        from_file, from_flag = via_key_and_flag(monkeypatch, panel_csv, tmp_path,
                                                "extra_knob", 7)
        assert from_file.extra_knob == from_flag.extra_knob == 7

    def test_readme_run_cfg_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        body = re.search(r"cat > run\.cfg <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
        path = tmp_path / "run.cfg"
        path.write_text(body + "\n")
        values = parse_config_file(path)
        assert "train_len" in values
        cfg = build_run_config(values, {})
        assert cfg.panel == values["panel"]
        assert cfg.backtest.train_len == int(values["train_len"])

    def test_bad_flag_value_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--k", "abc"])
        assert exc.value.code == 1
        assert "--k" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--help"])
        assert exc.value.code == 0


class TestSynth:
    def test_deterministic_and_loadable(self, panel_csv, tmp_path):
        other = tmp_path / "again.csv"
        rc = main(["synth", "--out", str(other), "--seed", "5", "--weeks", "90",
                   "--stocks", "12", "--factors", "6", "--signal-strength", "1.0",
                   "--noise-scale", "0.3"])
        assert rc == 0
        assert other.read_bytes() == panel_csv.read_bytes()
        panel = load_panel(panel_csv)
        assert (panel.n_weeks, panel.n_stocks, panel.n_factors) == (90, 12, 6)

    def test_row_count(self, panel_csv):
        with open(panel_csv) as fh:
            rows = sum(1 for _ in fh) - 1
        assert rows == 90 * 12

    def test_bad_counts_exit_one(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x.csv"), "--weeks", "0"]) == 1


class TestBacktestCommand:
    def test_exit_zero_and_outputs(self, base_config, tmp_path, capsys):
        out = tmp_path / "run1"
        rc = main(["backtest", "--config", str(base_config), "--out", str(out)])
        assert rc == 0
        for name in ("stats.csv", "rankmetrics.csv", "heatmap.csv"):
            assert (out / name).exists()
        with open(out / "stats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9  # five models long-short + four short-average
        assert {r["strategy"] for r in rows} >= {"ListFold-exp", "List2MLE", "MLP-sa"}
        assert "ListFold-exp" in capsys.readouterr().out

    def test_rerun_byte_identical(self, base_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["backtest", "--config", str(base_config), "--out", str(a)]) == 0
        assert main(["backtest", "--config", str(base_config), "--out", str(b)]) == 0
        assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()
        assert (a / "rankmetrics.csv").read_bytes() == (b / "rankmetrics.csv").read_bytes()

    def test_missing_panel_exit_two_names_path(self, base_config, tmp_path, capsys):
        rc = main(["backtest", "--config", str(base_config),
                   "--panel", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("optimizer, rate", [("sgd", "1e8"), ("adam", "1e30"),
                                                 ("sgd", "1e30")])
    def test_huge_learning_rate_exits_three(self, optimizer, rate, base_config, tmp_path,
                                            capsys):
        # an overflowing step is skipped, not written into the parameters,
        # so the run ends in ten bad batches in a row, not a traceback
        rc = main(["backtest", "--config", str(base_config), "--out", str(tmp_path / "o"),
                   "--optimizer", optimizer, "--learning-rate", rate])
        assert rc == 3
        assert "training diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_isolated_overflowing_batches_are_skipped(self, base_config, tmp_path):
        # adam at 1e8 overflows 10 of ListFold-exp's 30 batches here, never
        # ten in a row: the run skips them and finishes
        out = tmp_path / "o"
        assert main(["backtest", "--config", str(base_config), "--out", str(out),
                     "--learning-rate", "1e8"]) == 0
        assert "nan" not in (out / "pnl_ListFold-exp.csv").read_text()

    def test_bad_field_exit_one_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("panel = x.csv\noptimizer = newton\n")
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "optimizer" in capsys.readouterr().err

    def test_levels_below_two_is_a_config_error_before_training(self, base_config, tmp_path,
                                                                capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_backtest", lambda *args: pytest.fail("trained"))
        rc = main(["backtest", "--config", str(base_config), "--levels", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: field levels: must be >= 2" in capsys.readouterr().err

    def test_k_above_half_the_universe_is_a_config_error_before_training(
            self, base_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_backtest", lambda *args: pytest.fail("trained"))
        rc = main(["backtest", "--config", str(base_config), "--k", "7",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("config error: field k: universe of 12 too small for 2 x k = 14"
                in capsys.readouterr().err)

    def test_short_average_k_may_fill_the_universe(self, base_config, tmp_path, monkeypatch):
        seen = []

        def stop(panel, strategies, config):
            seen.append(strategies)
            raise DataError("stopped before training")

        monkeypatch.setattr(cli, "run_backtest", stop)
        argv = ["backtest", "--config", str(base_config), "--strategies", "listfold-exp,mlp",
                "--modes", "sa", "--out", str(tmp_path / "o")]
        assert main(argv + ["--k", "12"]) == 2
        assert [(s.mode, s.k) for s in seen[0]] == [("sa", 12), ("sa", 12)]
        assert main(argv + ["--k", "13"]) == 1

    def test_short_csv_row_exit_two(self, base_config, panel_csv, tmp_path, capsys):
        lines = panel_csv.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:3])
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines) + "\n")
        rc = main(["backtest", "--config", str(base_config), "--panel", str(short),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "row 6: 3 fields" in capsys.readouterr().err

    def test_non_utf8_csv_exit_two_names_file_and_row(self, base_config, panel_csv, tmp_path,
                                                      capsys):
        lines = panel_csv.read_text().splitlines()
        lines[6] = lines[6].replace(",S", ",é", 1)
        latin = tmp_path / "latin1.csv"
        latin.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        rc = main(["backtest", "--config", str(base_config), "--panel", str(latin),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"data error: {latin}: row 7: not UTF-8" in capsys.readouterr().err

    def test_quoted_field_over_csv_limit_exit_two(self, base_config, panel_csv, tmp_path,
                                                  capsys):
        lines = panel_csv.read_text().splitlines()
        fields = lines[5].split(",")
        lines[5] = ",".join([fields[0], '"' + "S" * 140001 + '"', *fields[2:]])
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        rc = main(["backtest", "--config", str(base_config), "--panel", str(big),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert (f"data error: {big}: row 6: field larger than field limit (131072)"
                in capsys.readouterr().err)

    def test_duplicate_csv_header_exit_two(self, base_config, panel_csv, tmp_path, capsys):
        lines = panel_csv.read_text().splitlines()
        names = lines[0].split(",")
        lines[0] = ",".join(names[:-1] + [names[-2]])
        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join(lines) + "\n")
        rc = main(["backtest", "--config", str(base_config), "--panel", str(dup),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"duplicate column {names[-2]!r}" in capsys.readouterr().err

    def test_batch_sizes_flag_emits_batchgrid(self, base_config, tmp_path):
        out = tmp_path / "grid"
        rc = main(["backtest", "--config", str(base_config), "--out", str(out),
                   "--strategies", "listfold-exp,listmle", "--modes", "ls",
                   "--total-batches", "5", "--batch-sizes", "2,8"])
        assert rc == 0
        with open(out / "batchgrid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["batch_size", "ListFold-exp", "ListMLE"]
        assert [r[0] for r in rows[1:]] == ["2", "8"]

    def test_window_out_of_range_exit_two(self, base_config, tmp_path):
        rc = main(["train", "--config", str(base_config), "--model", "mlp",
                   "--window", "99", "--checkpoint", str(tmp_path / "c.npz")])
        assert rc == 2


class TestVerifyCommand:
    def test_default_like_run(self, tmp_path, capsys):
        out = tmp_path / "ver"
        rc = main(["verify", "--trials", "8", "--sizes", "2,4", "--budget", "40",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = (out / "verify_report.txt").read_text()
        for token in ("0.65", "4.78", "6.65", "PASS"):
            assert token in text
        assert (out / "enumeration_5410.csv").exists()

    def test_oversized_list_exit_one(self, tmp_path):
        assert main(["verify", "--sizes", "16", "--out", str(tmp_path / "v")]) == 1

    def test_search_sizes_past_the_enumeration_cap(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--trials", "2", "--sizes", "4,10", "--budget", "8",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        text = (out / "verify_report.txt").read_text()
        # the theorem checks keep to n = 2; only the search takes size 10
        assert text.count("n_values=[2]") == 3
        assert "counterexample search witnesses: 0" in text

    def test_non_integer_size_is_a_config_error(self, tmp_path, capsys):
        assert main(["verify", "--sizes", "a", "--out", str(tmp_path / "v")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "sizes" in err

    def test_failed_theorem_check_exit_four(self, tmp_path, monkeypatch):
        from listfold import consistency

        def failing(trials, n_range, seed):
            report = consistency.TheoremReport("theorem1-sigmoid", seed, trials, tuple(n_range))
            report.violations.append({"scores": (1.0, 0.0)})
            return report

        monkeypatch.setattr(consistency, "verify_theorem1", failing)
        rc = main(["verify", "--trials", "2", "--sizes", "2", "--budget", "4",
                   "--out", str(tmp_path / "v")])
        assert rc == 4
        assert "FAIL" in (tmp_path / "v" / "verify_report.txt").read_text()

    def test_report_bytes_reproducible(self, tmp_path):
        a, b = tmp_path / "v1", tmp_path / "v2"
        argv = ["verify", "--trials", "5", "--sizes", "2,4", "--budget", "20", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "verify_report.txt").read_bytes() == (b / "verify_report.txt").read_bytes()


class TestSimulateCommand:
    def test_plank_two_equal_weights(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "plank", "--weights", "1,1",
                   "--draws", "50000", "--seed", "0", "--out", str(out)])
        assert rc == 0
        with open(out / "simulate_plank.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert float(row["empirical"]) == pytest.approx(0.5, abs=0.02)
            assert abs(float(row["z"])) < 3

    def test_vase_heavy_first(self, tmp_path):
        out = tmp_path / "sim2"
        rc = main(["simulate", "--model", "vase", "--weights", "2,1",
                   "--draws", "50000", "--seed", "0", "--out", str(out)])
        assert rc == 0
        with open(out / "simulate_vase.csv") as fh:
            rows = {r["permutation"]: r for r in csv.DictReader(fh)}
        assert float(rows["0 1"]["empirical"]) == pytest.approx(2 / 3, abs=0.02)

    def test_zero_draws_exit_one(self, tmp_path):
        assert main(["simulate", "--model", "vase", "--weights", "1,1",
                     "--draws", "0", "--out", str(tmp_path / "s")]) == 1

    def test_negative_weight_exit_one(self, tmp_path):
        assert main(["simulate", "--model", "vase", "--weights", "1,-1",
                     "--out", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("model", ["vase", "plank"])
    def test_more_weights_than_the_enumeration_cap_exit_one(self, model, tmp_path,
                                                             monkeypatch, capsys):
        # the z table lists all m! orderings: 12 weights once ran for hours
        def no_sampling(spec):
            raise AssertionError("sampled")

        monkeypatch.setattr(cli.consistency, "sample_vase", no_sampling)
        monkeypatch.setattr(cli.consistency, "sample_plank_dart", no_sampling)
        out = tmp_path / "s"
        weights = ",".join(["1"] * 12)
        assert main(["simulate", "--model", model, "--weights", weights,
                     "--out", str(out)]) == 1
        assert "at most 8 weights, got 12" in capsys.readouterr().err
        assert not out.exists()

    def test_eight_weights_accepted(self, tmp_path):
        out = tmp_path / "s"
        assert main(["simulate", "--model", "plank", "--weights", "1,2,3,4,5,6,7,8",
                     "--draws", "100", "--out", str(out)]) == 0
        with open(out / "simulate_plank.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 40320

    def test_plank_weights_whose_sum_product_overflows(self, tmp_path, capsys):
        # widths and lengths both sum to ~1e200: the analytic cells were nan
        # and the report read max |z| = 0.00
        out = tmp_path / "s"
        assert main(["simulate", "--model", "plank", "--weights", "1e200,1e-200,1,1",
                     "--draws", "20000", "--out", str(out)]) == 0
        with open(out / "simulate_plank.csv") as fh:
            rows = list(csv.DictReader(fh))
        analytic = [float(r["analytic"]) for r in rows]
        assert all(np.isfinite(analytic))
        assert sum(analytic) == pytest.approx(1.0, abs=1e-12)
        assert max(abs(float(r["z"])) for r in rows) < 4
        assert "max |z| = 0.00" not in capsys.readouterr().out

    @pytest.mark.parametrize("model, weights", [
        ("vase", "1,nan"), ("vase", "1,inf"), ("plank", "1,inf"),
    ])
    def test_non_finite_weight_exit_one(self, model, weights, tmp_path, capsys):
        # a NaN weight once gave a meaningless table with exit 0, and an
        # infinite one an IndexError traceback
        out = tmp_path / "s"
        assert main(["simulate", "--model", model, "--weights", weights,
                     "--draws", "1000", "--out", str(out)]) == 1
        assert "config error: weights must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestTrainScoreCommands:
    def test_checkpoint_then_score(self, base_config, panel_csv, tmp_path):
        ck = tmp_path / "model.npz"
        rc = main(["train", "--config", str(base_config), "--model", "listfold-exp",
                   "--window", "0", "--checkpoint", str(ck)])
        assert rc == 0
        out = tmp_path / "scores.csv"
        panel = load_panel(panel_csv)
        week = panel.dates[65]  # inside the first test range
        rc = main(["score", "--checkpoint", str(ck), "--panel", str(panel_csv),
                   "--week", week, "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == panel.n_stocks
        values = np.array([float(r["score"]) for r in rows])
        assert np.std(values) > 0  # normalization params applied, scores not collapsed

    def test_checkpoint_is_the_model_the_backtest_scored(self, base_config, panel_csv,
                                                         tmp_path):
        panel = load_panel(panel_csv)
        config = build_run_config(parse_config_file(base_config), {}).backtest
        strategies = [StrategySpec("ListFold-exp", "listfold-exp", "ls", 2),
                      StrategySpec("List2MLE", "listmle", "list2mle", 2)]
        result = run_backtest(panel, strategies, config)
        window = 1
        plan = rolling_windows(panel.n_weeks, config.train_len, config.test_len)[window]
        test_dates = panel.dates[plan.test_range[0]:plan.test_range[1]]
        for model, sign in (("listfold-exp", 1.0), ("listmle-rvs", -1.0)):
            ck = tmp_path / f"{model}.npz"
            assert main(["train", "--config", str(base_config), "--model", model,
                         "--window", str(window), "--checkpoint", str(ck)]) == 0
            net, norm = load_checkpoint(ck), load_checkpoint_norm(ck)
            for date in test_dates:
                scores = forward(net, apply_norm_params(panel.week_features(date), *norm))
                # reverse-labeled models are stored return oriented, i.e. negated
                assert (sign * scores).tobytes() == result.scores[model][date].tobytes()

    def test_unknown_week_exit_two(self, base_config, panel_csv, tmp_path):
        ck = tmp_path / "model.npz"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--window", "0", "--checkpoint", str(ck)]) == 0
        rc = main(["score", "--checkpoint", str(ck), "--panel", str(panel_csv),
                   "--week", "1999-01-01", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_unknown_model_exit_one(self, base_config, tmp_path):
        rc = main(["train", "--config", str(base_config), "--model", "gru",
                   "--checkpoint", str(tmp_path / "c.npz")])
        assert rc == 1

    @pytest.fixture
    def checkpoint_arrays(self, base_config, tmp_path):
        ck = tmp_path / "model.npz"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--window", "0", "--checkpoint", str(ck)]) == 0
        with np.load(ck) as blob:
            return dict(blob)

    def _score_malformed(self, arrays, panel_csv, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        panel = load_panel(panel_csv)
        return main(["score", "--checkpoint", str(bad), "--panel", str(panel_csv),
                     "--week", panel.dates[65], "--out", str(tmp_path / "s.csv")])

    def test_checkpoint_without_layer_dims_is_a_data_error(self, checkpoint_arrays,
                                                           panel_csv, tmp_path, capsys):
        del checkpoint_arrays["layer_dims"]
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        assert "data error:" in capsys.readouterr().err

    def test_checkpoint_weight_of_wrong_shape_is_a_data_error(self, checkpoint_arrays,
                                                              panel_csv, tmp_path, capsys):
        checkpoint_arrays["w1"] = checkpoint_arrays["w1"][:, :-1]
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "w1" in err
