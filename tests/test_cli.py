"""End-to-end command tests: exit codes, files, and determinism."""

import csv
import re
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from listfold import backtest, cli, neural
from listfold.backtest import BacktestConfig, StrategySpec, run_backtest
from listfold.cli import main, parse_config_file, build_run_config, ConfigError
from listfold.data import (DataError, generate_synthetic_panel, load_panel, rolling_windows,
                           save_panel)
from listfold.neural import (CheckpointError, forward, init_network, load_checkpoint,
                             save_checkpoint)


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
    return field.default + 1 if isinstance(field.default, int) else field.default * 2


class TestConfig:
    def test_parse_flat_file(self, base_config):
        values = parse_config_file(base_config)
        assert values["train_len"] == "60"
        assert "# comment line" not in values

    def test_unknown_field_named(self, panel_csv, tmp_path, capsys):
        # threads and optimizer were BacktestConfig fields: serial training
        # is the one path, and Adam the one optimizer; every run reports
        # both books of each model (modes) and ranks on deciles (levels)
        for key in ("wibble", "threads", "optimizer", "modes", "levels"):
            with pytest.raises(ConfigError, match=key):
                build_run_config({key: "1"}, {})
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"panel = {panel_csv}\nk = 2\n{key} = 2\n")
            assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            assert f"config error: unknown config field: {key}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="train_len"):
            build_run_config({"train_len": "soon"}, {})

    def test_unknown_strategy_named(self, panel_csv, tmp_path, capsys):
        # the lineup is checked by strategy_lineup, not by build_run_config
        with pytest.raises(ValueError, match="strategies"):
            backtest.strategy_lineup(["listfool"], 8)
        rc = main(["backtest", "--panel", str(panel_csv), "--out", str(tmp_path / "o"),
                   "--k", "2", "--strategies", "listfool"])
        assert rc == 1
        assert re.search("strategies", capsys.readouterr().err)

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

    def test_batch_size_digit_that_int_refuses_is_a_config_error(self, panel_csv, tmp_path,
                                                                capsys):
        # '²' passes str.isdigit, and int('²') raised a ValueError traceback
        rc = main(["backtest", "--panel", str(panel_csv), "--out", str(tmp_path / "o"),
                   "--k", "2", "--batch-sizes", "8,²"])
        assert rc == 1
        assert "config error: field batch_sizes: bad entry '²'" in capsys.readouterr().err

    def test_config_file_with_a_byte_order_mark(self, panel_csv, tmp_path):
        # the mark was read into the first key: unknown config field '\ufeffpanel'
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"panel = {panel_csv}\nk = 2\n".encode("utf-8-sig"))
        assert parse_config_file(cfg) == {"panel": str(panel_csv), "k": "2"}

    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # a UnicodeDecodeError traceback before
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 2\n# caf\xe9\n")
        assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: cannot read config file {cfg}" in err
        assert "can't decode byte 0xe9" in err

    def test_config_line_without_equals_names_file_and_line(self, panel_csv, tmp_path,
                                                            capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"panel = {panel_csv}\ntrain_len 60\n")
        assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert (f"config error: {cfg}:2: expected 'key = value', got 'train_len 60'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["backtest", "train"])
    def test_run_without_a_panel_is_a_config_error(self, command, tmp_path, capsys):
        argv = [command, "--out", str(tmp_path / "o")]
        if command == "train":
            argv += ["--model", "mlp", "--checkpoint", str(tmp_path / "c.npz")]
        assert main(argv) == 1
        assert ("config error: field panel: a panel CSV path is required"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key, value, message", [
        ("k", "0", "field k: must be >= 1"),
        ("strategies", ",", "field strategies: empty strategy list"),
        ("strategies", "mlp,listfool",
         "field strategies: unknown model 'listfool' (known: listfold-exp, "),
    ])
    def test_bad_lineup_is_a_config_error_before_any_work(self, key, value, message,
                                                          panel_csv, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "load_panel", lambda *a: pytest.fail("read the panel"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                               {"panel": panel_csv, "k": 2, key: value}.items()))
        assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_flag_value_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--k", "abc"])
        assert exc.value.code == 1
        assert "--k" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--threads", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--optimizer", "adam"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --optimizer adam" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--threads" not in out and "--optimizer" not in out


@pytest.mark.parametrize("command", ["backtest", "train", "verify", "simulate", "synth"])
def test_negative_seed_is_a_config_error(command, base_config, tmp_path, capsys):
    # numpy's SeedSequence takes no negative integer: a named config
    # error before any work, not its traceback
    argv = {
        "backtest": ["backtest", "--config", str(base_config), "--out", str(tmp_path / "o")],
        "train": ["train", "--config", str(base_config), "--model", "mlp",
                  "--checkpoint", str(tmp_path / "c.npz")],
        "verify": ["verify", "--trials", "1", "--sizes", "2", "--budget", "0",
                   "--out", str(tmp_path / "v")],
        "simulate": ["simulate", "--model", "vase", "--weights", "1,2", "--draws", "10",
                     "--out", str(tmp_path / "s")],
        "synth": ["synth", "--out", str(tmp_path / "p.csv"), "--weeks", "2",
                  "--stocks", "2", "--factors", "1"],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 1
    assert "config error: field seed: must be >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["backtest", "verify", "simulate", "synth", "train",
                                     "score"])
def test_output_path_under_a_file_is_a_config_error(command, base_config, panel_csv,
                                                     tmp_path, capsys):
    # mkdir raised FileExistsError or NotADirectoryError, a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    ck = tmp_path / "model.npz"
    save_checkpoint(init_network(6, seed=1), ck)
    argv, made = {
        "backtest": (["backtest", "--config", str(base_config), "--out", str(blocker)],
                     blocker),
        "verify": (["verify", "--trials", "1", "--sizes", "2", "--budget", "0",
                    "--out", str(blocker)], blocker),
        "simulate": (["simulate", "--model", "vase", "--weights", "1,2", "--draws", "10",
                      "--out", str(blocker / "sim")], blocker / "sim"),
        "synth": (["synth", "--out", str(blocker / "p.csv"), "--weeks", "2", "--stocks", "2",
                   "--factors", "1"], blocker),
        "train": (["train", "--config", str(base_config), "--model", "mlp",
                   "--checkpoint", str(blocker / "c.npz")], blocker),
        "score": (["score", "--checkpoint", str(ck), "--panel", str(panel_csv),
                   "--week", load_panel(panel_csv).dates[65],
                   "--out", str(blocker / "s.csv")], blocker),
    }[command]
    assert main(argv) == 1
    assert f"config error: cannot create output directory {made}" in capsys.readouterr().err
    assert blocker.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
@pytest.mark.parametrize("command", ["synth", "train", "score"])
def test_output_file_is_checked_before_any_work(command, kind, base_config, panel_csv,
                                                tmp_path, capsys, monkeypatch):
    # an existing directory ended in an IsADirectoryError traceback, and
    # train reported an uncreatable path only after training
    ck = tmp_path / "model.npz"
    save_checkpoint(init_network(6, seed=1), ck)
    for name in ("generate_synthetic_panel", "load_panel", "load_checkpoint",
                 "train_window"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("work before the check"))
    if kind == "directory":
        out = tmp_path / "taken"
        out.mkdir()
        message = f"config error: output path {out} is a directory"
    else:
        (tmp_path / "taken").write_text("a file, not a directory\n")
        out = tmp_path / "taken" / "out"
        message = f"config error: cannot create output directory {out.parent}"
    argv = {
        "synth": ["synth", "--out", str(out), "--weeks", "2", "--stocks", "2",
                  "--factors", "1"],
        "train": ["train", "--config", str(base_config), "--model", "mlp",
                  "--checkpoint", str(out)],
        "score": ["score", "--checkpoint", str(ck), "--panel", str(panel_csv),
                  "--week", "2000-01-07", "--out", str(out)],
    }[command]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz", "taken"]


@pytest.mark.parametrize("command", ["backtest", "verify", "simulate"])
def test_table_path_that_is_a_directory_is_a_config_error(command, base_config, tmp_path,
                                                          capsys, monkeypatch):
    # an IsADirectoryError traceback when the table was written; backtest
    # reached it only after all its training
    trained = []
    monkeypatch.setattr(cli, "run_backtest", lambda *args: trained.append(args))
    out = tmp_path / "out"
    argv, table = {
        "backtest": (["backtest", "--config", str(base_config), "--out", str(out)],
                     "stats.csv"),
        "verify": (["verify", "--trials", "1", "--sizes", "2", "--budget", "0",
                    "--out", str(out)], "enumeration_5410.csv"),
        "simulate": (["simulate", "--model", "vase", "--weights", "1,2", "--draws", "10",
                      "--out", str(out)], "simulate_vase.csv"),
    }[command]
    (out / table).mkdir(parents=True)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"config error: output path {out / table} is a directory" in err
    assert "Traceback" not in err
    assert not trained
    assert [p.name for p in out.iterdir()] == [table]


def test_negative_seed_in_a_config_file_is_a_config_error(panel_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"panel = {panel_csv}\nk = 2\nseed = -1\n")
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config error: field seed: must be >= 0" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag, value", [
        ("--signal-strength", "nan"), ("--signal-strength", "inf"),
        ("--noise-scale", "nan"), ("--noise-scale", "inf"),
    ])
    def test_non_finite_scale_exit_one_names_flag(self, flag, value, tmp_path, capsys):
        # a NaN signal once wrote a panel of empty returns with exit 0
        out = tmp_path / "sub" / "x.csv"
        assert main(["synth", "--out", str(out), flag, value]) == 1
        assert f"config error: {flag}: must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()


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

    def test_zero_spread_book_has_an_empty_sharpe_cell(self, tmp_path, capsys):
        # forward returns equal within every week: every book's weekly return
        # is 0, so sigma is 0 and the Sharpe undefined; dyadic returns keep
        # the long and short legs' products exact, so the 0 is exact
        panel = generate_synthetic_panel(3, weeks=40, stocks=8, factors=3,
                                         signal_strength=0.5, noise_scale=0.5)
        week_ret = (np.arange(40) % 5 - 2) / 64.0
        flat = tmp_path / "flat.csv"
        save_panel(replace(panel, fwd_return=np.repeat(week_ret[:, None], 8, axis=1)), flat)
        out = tmp_path / "o"
        rc = main(["backtest", "--panel", str(flat), "--out", str(out), "--train-len", "20",
                   "--test-len", "10", "--k", "2", "--batch-size", "4", "--total-batches", "2",
                   "--cost-bps", "0"])
        assert rc == 0
        with open(out / "stats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert all(r["sigma"] == "0.0" and r["sharpe"] == "" for r in rows)
        printed = capsys.readouterr().out.splitlines()[1:10]
        assert [line.split()[3] for line in printed] == ["n/a"] * 9

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("date,stock,fwd_ret\n2020-01-03,S0,0.1\n", "no factor columns found"),
    ])
    def test_panel_without_factors_exit_two(self, text, message, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text(text)
        rc = main(["backtest", "--panel", str(path), "--k", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"data error: {path}: {message}" in capsys.readouterr().err

    def test_batch_sizes_without_an_entry_writes_no_batchgrid(self, base_config, tmp_path):
        out = tmp_path / "o"
        assert main(["backtest", "--config", str(base_config), "--out", str(out),
                     "--strategies", "mlp", "--total-batches", "1",
                     "--batch-sizes", ","]) == 0
        assert (out / "stats.csv").exists() and not (out / "batchgrid.csv").exists()

    def test_missing_panel_exit_two_names_path(self, base_config, tmp_path, capsys):
        rc = main(["backtest", "--config", str(base_config),
                   "--panel", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_learning_rate_exits_three(self, base_config, tmp_path, capsys):
        # an overflowing step is skipped, not written into the parameters,
        # so the run ends in ten bad batches in a row, not a traceback
        rc = main(["backtest", "--config", str(base_config), "--out", str(tmp_path / "o"),
                   "--learning-rate", "1e30"])
        assert rc == 3
        assert "training diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_skipping_over_a_tenth_of_the_batches_exits_three(self, base_config, tmp_path,
                                                              capsys):
        # adam at 1e8 overflows 10 of ListFold-exp's 30 batches here, never
        # ten in a row; more than 10% of a (model, window) run is a failure
        rc = main(["backtest", "--config", str(base_config), "--out", str(tmp_path / "o"),
                   "--learning-rate", "1e8"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "training diverged: listfold-exp, window 0: loss non-finite on 2 batches" in err
        assert "more than 10% of 15" in err

    def test_isolated_overflowing_batches_are_skipped(self, base_config, tmp_path,
                                                      monkeypatch):
        # one batch in fifteen is non-finite in every (model, window) run:
        # under the 10% share, each is skipped and the run finishes
        real, calls = neural.train_step, []

        def one_in_fifteen(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) % 15 == 8:
                raise neural.NonFiniteLossError("batch loss is not finite: nan")
            return real(*args, **kwargs)

        monkeypatch.setattr(neural, "train_step", one_in_fifteen)
        out = tmp_path / "o"
        assert main(["backtest", "--config", str(base_config), "--out", str(out)]) == 0
        assert len(calls) == 5 * 2 * 15
        assert "nan" not in (out / "pnl_ListFold-exp.csv").read_text()

    def test_bad_field_exit_one_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("panel = x.csv\nlearning_rate = fast\n")
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "field learning_rate: cannot parse 'fast'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--modes", "--levels"])
    def test_removed_setting_flag_is_unrecognized(self, flag, base_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--config", str(base_config), flag, "6",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        assert f"error: unrecognized arguments: {flag} 6" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["backtest", "--help"])
        assert flag not in capsys.readouterr().out

    def test_one_test_week_exit_two_before_training(self, tmp_path, monkeypatch, capsys):
        # compute_stats raised "need at least two weekly returns" after
        # training, and the run ended in a traceback
        path = tmp_path / "p.csv"
        assert main(["synth", "--out", str(path), "--seed", "1", "--weeks", "21",
                     "--stocks", "6", "--factors", "3"]) == 0
        monkeypatch.setattr(backtest, "train_window", lambda *a: pytest.fail("trained"))
        rc = main(["backtest", "--panel", str(path), "--out", str(tmp_path / "o"),
                   "--train-len", "20", "--test-len", "1", "--k", "1", "--batch-size", "2",
                   "--total-batches", "1"])
        assert rc == 2
        assert "data error: insufficient data: 1 test week" in capsys.readouterr().err

    def test_nan_learning_rate_is_a_config_error_before_training(self, base_config, tmp_path,
                                                                capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_backtest", lambda *args: pytest.fail("trained"))
        rc = main(["backtest", "--config", str(base_config), "--learning-rate", "nan",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: field learning_rate: must be finite" in capsys.readouterr().err

    def test_k_above_half_the_universe_is_a_config_error_before_training(
            self, base_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_backtest", lambda *args: pytest.fail("trained"))
        rc = main(["backtest", "--config", str(base_config), "--k", "7",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("config error: field k: universe of 12 too small for 2 x k = 14"
                in capsys.readouterr().err)

    def test_infinite_training_return_exit_two_names_week(self, base_config, panel_csv,
                                                          tmp_path, capsys):
        # it once reached the mse model and the run exited 3 (diverged)
        lines = panel_csv.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "inf"
        lines[5] = ",".join(fields)
        bad = tmp_path / "inf.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["backtest", "--config", str(base_config), "--panel", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert (f"week {fields[0]}: infinite forward return for stock {fields[1]}"
                in capsys.readouterr().err)

    def test_missing_test_week_factor_exit_two_before_training(self, tmp_path, monkeypatch,
                                                              capsys):
        # the stock's test-week score was nan: the books never held it, IC
        # ranked it top, and the run exited 0
        path = tmp_path / "panel.csv"
        assert main(["synth", "--out", str(path), "--seed", "1", "--weeks", "40",
                     "--stocks", "8", "--factors", "3"]) == 0
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        assert lines[0].split(",")[3] == "f01" and fields[:2] == ["2000-10-06", "S0007"]
        fields[3] = ""
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        trained = []
        monkeypatch.setattr(backtest, "train_window", lambda *a: trained.append(a))
        rc = main(["backtest", "--panel", str(path), "--train-len", "20", "--test-len", "10",
                   "--total-batches", "5", "--k", "2", "--out", str(tmp_path / "o")])
        assert rc == 2 and not trained
        assert ("week 2000-10-06: missing factor f01 for stock S0007"
                in capsys.readouterr().err)

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
                   "--strategies", "listfold-exp,listmle",
                   "--total-batches", "5", "--batch-sizes", "2,8"])
        assert rc == 0
        with open(out / "batchgrid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["batch_size", "ListFold-exp", "ListFold-exp-sa", "ListMLE",
                           "ListMLE-sa"]
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

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--budget", "-1")])
    def test_no_trials_or_a_negative_budget_is_a_config_error(self, flag, value, tmp_path,
                                                              capsys):
        assert main(["verify", flag, value, "--out", str(tmp_path / "v")]) == 1
        assert "config error: trials must be >= 1 and budget >= 0" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_oversized_list_exit_one(self, tmp_path):
        assert main(["verify", "--sizes", "16", "--out", str(tmp_path / "v")]) == 1

    def test_search_sizes_past_the_enumeration_cap(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--trials", "2", "--sizes", "4,10", "--budget", "8",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        text = (out / "verify_report.txt").read_text()
        # every check runs at every requested size
        assert text.count("n_values=[2, 5]") == 3
        assert "counterexample search witnesses: 0" in text

    @pytest.mark.parametrize("budget", [0, 1, 6, 9])
    def test_budget_draws_exactly_that_many_per_size(self, tmp_path, monkeypatch, budget):
        from listfold import consistency

        asked = []
        search = consistency.counterexample_search

        def recording(draws, size, distribution, seed=0):
            asked.append((size, distribution, draws))
            return search(draws, size, distribution, seed)

        monkeypatch.setattr(consistency, "counterexample_search", recording)
        assert main(["verify", "--trials", "1", "--sizes", "2,4", "--budget", str(budget),
                     "--out", str(tmp_path / "v")]) == 0
        for size in (2, 4):
            draws = [d for s, _, d in asked if s == size]
            assert sum(draws) == budget
            # the remainder goes to the first distributions, one draw each
            assert draws == sorted(draws, reverse=True) and max(draws) - min(draws) <= 1

    def test_empty_sizes_is_a_config_error(self, tmp_path, capsys):
        assert main(["verify", "--sizes", "", "--out", str(tmp_path / "v")]) == 1
        assert "sizes" in capsys.readouterr().err

    def test_repeated_size_is_searched_once(self, tmp_path, monkeypatch):
        from listfold import consistency

        sizes = []
        search = consistency.counterexample_search

        def recording(draws, size, distribution, seed=0):
            sizes.append(size)
            return search(draws, size, distribution, seed)

        monkeypatch.setattr(consistency, "counterexample_search", recording)
        assert main(["verify", "--trials", "1", "--sizes", "4,4", "--budget", "8",
                     "--out", str(tmp_path / "v")]) == 0
        assert sizes == [4, 4, 4, 4]  # one call per distribution

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

    def test_weight_that_is_not_a_number_is_a_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--model", "vase", "--weights", "2,x",
                     "--out", str(tmp_path / "s")]) == 1
        assert "config error: bad weights '2,x'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("model, worst, kept", [("plank", "3.83", 5210),
                                                    ("vase", "3.94", 5055)])
    def test_max_z_reads_only_orderings_expected_five_times(self, model, worst, kept,
                                                             tmp_path, capsys):
        # over all 40320 orderings a correct sampler read 14.02 (plank) and
        # 9.21 (vase): single hits against expected counts near 0.005
        out = tmp_path / "s"
        assert main(["simulate", "--model", model, "--weights", "1,2,3,4,5,6,7,8",
                     "--draws", "100000", "--seed", "0", "--out", str(out)]) == 0
        assert (f"max |z| = {worst} over {kept} expected >= 5 times "
                f"({40320 - kept} left out)") in capsys.readouterr().out
        with open(out / f"simulate_{model}.csv") as fh:
            rows = list(csv.DictReader(fh))
        counted = [abs(float(r["z"])) for r in rows if 100000 * float(r["analytic"]) >= 5]
        assert len(counted) == kept and f"{max(counted):.2f}" == worst

    def test_max_z_is_n_a_when_no_ordering_is_expected_five_times(self, tmp_path, capsys):
        assert main(["simulate", "--model", "vase", "--weights", "1,1", "--draws", "9",
                     "--out", str(tmp_path / "s")]) == 0
        assert "max |z| = n/a over 0 expected >= 5 times (2 left out)" in capsys.readouterr().out

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
        strategies = [StrategySpec("ListFold-exp", "listfold-exp", "listfold-exp", 2),
                      StrategySpec("List2MLE", "listmle", "listmle-rvs", 2)]
        result = run_backtest(panel, strategies, config)
        window = 1
        plan = rolling_windows(panel.n_weeks, config.train_len, config.test_len)[window]
        test_dates = panel.dates[plan.test_range[0]:plan.test_range[1]]
        for model, sign in (("listfold-exp", 1.0), ("listmle-rvs", -1.0)):
            ck = tmp_path / f"{model}.npz"
            assert main(["train", "--config", str(base_config), "--model", model,
                         "--window", str(window), "--checkpoint", str(ck)]) == 0
            net = load_checkpoint(ck)
            for date in test_dates:
                # the checkpoint carries the window's input map
                scores = forward(net, panel.week_features(date))
                # reverse-labeled models are stored return oriented, i.e. negated
                assert (sign * scores).tobytes() == result.scores[model][date].tobytes()

    def test_checkpoint_path_without_suffix_is_written_as_given(self, base_config,
                                                                 panel_csv, tmp_path, capsys):
        # np.savez added .npz, so score could not find the printed path
        ck = tmp_path / "model_ck"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--checkpoint", str(ck)]) == 0
        assert f"checkpoint written to {ck}" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model_ck"]
        out = tmp_path / "scores.csv"
        assert main(["score", "--checkpoint", str(ck), "--panel", str(panel_csv),
                     "--week", load_panel(panel_csv).dates[65], "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 12

    def test_stock_id_with_a_comma_reads_back(self, tmp_path):
        panel = generate_synthetic_panel(2, weeks=3, stocks=4, factors=3,
                                         signal_strength=1.0)
        panel = replace(panel, stocks=("ACME, Inc.", *panel.stocks[1:]))
        path = tmp_path / "panel.csv"
        save_panel(panel, path)
        loaded = load_panel(path)
        assert "ACME, Inc." in loaded.stocks
        ck = tmp_path / "model.npz"
        save_checkpoint(init_network(panel.n_factors, seed=1), ck)
        out = tmp_path / "scores.csv"
        assert main(["score", "--checkpoint", str(ck), "--panel", str(path),
                     "--week", panel.dates[0], "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert [row[0] for row in rows[1:]] == list(loaded.stocks)

    def test_missing_factor_in_the_scored_week_exit_two(self, base_config, panel_csv, tmp_path,
                                                        capsys):
        ck = tmp_path / "model.npz"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--window", "0", "--checkpoint", str(ck)]) == 0
        panel = load_panel(panel_csv)
        week, stock = panel.dates[65], panel.stocks[4]
        lines = panel_csv.read_text().splitlines()
        header = lines[0].split(",")
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{week},{stock},"))
        fields = lines[row].split(",")
        fields[header.index(panel.factor_names[2])] = ""
        lines[row] = ",".join(fields)
        bad = tmp_path / "gap.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.csv"
        rc = main(["score", "--checkpoint", str(ck), "--panel", str(bad), "--week", week,
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert (f"week {week}: missing factor {panel.factor_names[2]} for stock {stock}"
                in capsys.readouterr().err)

    def test_checkpoint_of_another_factor_count_exit_two(self, base_config, tmp_path,
                                                         capsys):
        ck = tmp_path / "model.npz"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--checkpoint", str(ck)]) == 0
        narrow = tmp_path / "narrow.csv"
        assert main(["synth", "--out", str(narrow), "--seed", "5", "--weeks", "90",
                     "--stocks", "12", "--factors", "3"]) == 0
        out = tmp_path / "s.csv"
        rc = main(["score", "--checkpoint", str(ck), "--panel", str(narrow),
                   "--week", load_panel(narrow).dates[65], "--out", str(out)])
        assert rc == 2
        assert ("data error: feature dimension 3 does not match network input 6"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_week_exit_two(self, base_config, panel_csv, tmp_path):
        ck = tmp_path / "model.npz"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--window", "0", "--checkpoint", str(ck)]) == 0
        rc = main(["score", "--checkpoint", str(ck), "--panel", str(panel_csv),
                   "--week", "1999-01-01", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--strategies", "listfool"),
                                             ("--batch-sizes", "0"), ("--k", "0"),
                                             ("--out", "")])
    def test_run_keys_train_never_reads_are_not_checked(self, base_config, tmp_path, flag,
                                                        value):
        # these exited 1 ("field strategies: unknown model 'listfool'", ...)
        plain, flagged = tmp_path / "plain.npz", tmp_path / "flagged.npz"
        argv = ["train", "--config", str(base_config), "--model", "mlp"]
        assert main([*argv, "--checkpoint", str(plain)]) == 0
        assert main([*argv, flag, value, "--checkpoint", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_config_shared_with_backtest_trains(self, base_config, tmp_path):
        shared = tmp_path / "shared.cfg"
        shared.write_text(base_config.read_text()
                          + "strategies = listfool\nbatch_sizes = 0,x\nk = 0\n")
        plain, flagged = tmp_path / "plain.npz", tmp_path / "shared.npz"
        assert main(["train", "--config", str(base_config), "--model", "mlp",
                     "--checkpoint", str(plain)]) == 0
        assert main(["train", "--config", str(shared), "--model", "mlp",
                     "--checkpoint", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()
        assert main(["backtest", "--config", str(shared), "--out", str(tmp_path / "o")]) == 1

    def test_run_key_that_does_not_parse_stops_train(self, base_config, tmp_path, capsys):
        # train checks no run key's range, but parses every value's type
        shared = tmp_path / "shared.cfg"
        shared.write_text(base_config.read_text() + "k = abc\n")
        ck = tmp_path / "c.npz"
        assert main(["train", "--config", str(shared), "--model", "mlp",
                     "--checkpoint", str(ck)]) == 1
        assert "config error: field k: cannot parse 'abc'" in capsys.readouterr().err
        assert not ck.exists()

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
        return self._score_bad_file(bad, panel_csv, tmp_path)

    def _score_bad_file(self, bad, panel_csv, tmp_path):
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

    @pytest.mark.parametrize("kind", ["text", "npy"])
    def test_file_that_is_not_an_npz_is_a_data_error(self, kind, panel_csv, tmp_path,
                                                      capsys):
        # numpy's "pickled (object) data" ValueError ended in a traceback
        bad = tmp_path / "bad.npz"
        if kind == "text":
            bad.write_text("date,stock\n")
        else:
            with open(bad, "wb") as fh:
                np.save(fh, np.zeros(3))
        assert self._score_bad_file(bad, panel_csv, tmp_path) == 2
        assert "not a checkpoint .npz" in capsys.readouterr().err

    def test_empty_layer_dims_is_a_data_error(self, checkpoint_arrays, panel_csv, tmp_path,
                                              capsys):
        # a net of no layers scored every stock by its first factor, exit 0
        checkpoint_arrays["layer_dims"] = checkpoint_arrays["layer_dims"][:0]
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        assert "layer_dims [] need" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("final_relu", np.zeros(0, dtype=np.int64)),
        ("seed", np.zeros(0, dtype=np.int64)),
        ("seed", np.array(["seven"])),
        ("seed", np.array([1, 2])),
        ("final_relu", np.array([0.5])),
    ], ids=["empty-final-relu", "empty-seed", "string-seed", "two-seeds", "float-relu"])
    def test_final_relu_or_seed_not_one_integer_is_a_data_error(self, key, value,
                                                                checkpoint_arrays,
                                                                panel_csv, tmp_path, capsys):
        # an empty array ended in an IndexError traceback, a string in a ValueError one
        checkpoint_arrays[key] = value
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and f"{key} is a" in err and "not one integer" in err

    @pytest.mark.parametrize("defect", ["last-width-2", "zero-width", "float-widths",
                                        "str-w0", "complex-w0"])
    def test_malformed_network_is_a_data_error(self, defect, checkpoint_arrays, panel_csv,
                                               tmp_path, capsys):
        # a last width of 2 scored with column 0 (exit 0), a zero width gave
        # every stock one score, float widths were taken as they were, and
        # non-real weights ended in a numpy traceback
        arrays = checkpoint_arrays
        dims = arrays["layer_dims"]
        assert dims.tolist() == [6, 12, 24, 3, 1]
        if defect == "last-width-2":
            dims[-1] = 2
            arrays["w3"], arrays["b3"] = np.tile(arrays["w3"], 2), np.tile(arrays["b3"], 2)
        elif defect == "zero-width":
            dims[3] = 0
            arrays["w2"], arrays["b2"] = arrays["w2"][:, :0], arrays["b2"][:0]
            arrays["w3"] = arrays["w3"][:0]
        elif defect == "float-widths":
            arrays["layer_dims"] = dims.astype(float)
        else:
            arrays["w0"] = arrays["w0"].astype(defect.split("-")[0])
        assert self._score_malformed(arrays, panel_csv, tmp_path) == 2
        err = capsys.readouterr().err
        key = "w0" if defect.endswith("w0") else "layer_dims"
        assert f"data error: {tmp_path / 'bad.npz'}: {key}" in err

    def test_norm_min_without_norm_max_is_a_data_error(self, checkpoint_arrays, panel_csv,
                                                       tmp_path, capsys):
        # this ended in a KeyError traceback
        del checkpoint_arrays["norm_max"]
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "norm_max is missing" in err

    @pytest.mark.parametrize("key, value", [("w0", np.inf), ("b2", np.nan),
                                            ("norm_max", np.nan)])
    def test_non_finite_array_is_a_data_error(self, key, value, checkpoint_arrays, panel_csv,
                                              tmp_path, capsys):
        # score wrote nan for every stock and exited 0
        checkpoint_arrays[key].flat[0] = value
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'bad.npz'}: {key} holds a non-finite value" in err
        assert not (tmp_path / "s.csv").exists()

    def test_norm_min_of_wrong_shape_is_a_data_error(self, checkpoint_arrays, panel_csv,
                                                     tmp_path, capsys):
        # this surfaced as numpy's broadcast message, naming no key
        checkpoint_arrays["norm_min"] = checkpoint_arrays["norm_min"][:-1]
        assert self._score_malformed(checkpoint_arrays, panel_csv, tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error:" in err and "norm_min is (5,)" in err
