"""A fuzzed command line: `cli.main` on argv drawn from every subcommand's
own parser actions, valid values mixed with hostile ones, never lets an
exception out (argparse's SystemExit aside) and exits with a documented
code and message."""

import contextlib
import io
import os
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from listfold import cli

HOSTILE = ["", "²", "nan", "inf", "-1", "1e400", "@dir", "@file", "@missing", "@under_file"]
# every value that sets how much work a run does: drawn always, and small
SIZES = {
    "weeks": ["1", "2", "5"],
    "stocks": ["1", "2", "6"],
    "factors": ["1", "3"],
    "draws": ["1", "40"],
    "trials": ["1", "2"],
    "budget": ["0", "1", "3"],
    "sizes": ["2", "2,4", "4,2,2"],
    "train_len": ["1", "3", "11"],
    "test_len": ["1", "4"],
    "batch_size": ["1", "3"],
    "total_batches": ["0", "1", "2"],
    "batch_sizes": ["", "1,2", "2,2"],
}
# drawn always too, so that most runs get past the first check
ALWAYS = {"panel", "k"}
VALUES = {
    "panel": ["@panel"],
    "config": ["@config"],
    "strategies": ["mlp", "listfold-exp,list2mle", "list2mle"],
    "k": ["1", "2", "4"],
    "weights": ["1,2", "2,1,0.7,0.4", "1"],
    "week": ["2000-01-07", "2000-03-24"],
    "window": ["0", "1", "5"],
    "signal_strength": ["0", "0.5", "-3"],
    "noise_scale": ["0", "0.5"],
    "learning_rate": ["1e-3", "0.01", "1e300"],
}
# values that parse but are out of range, drawn with the hostile ones
BAD = {
    "sizes": ["3", "16"],
    "batch_sizes": ["0", ","],
    "strategies": ["listfool", ","],
    "weights": ["1,0", "1,nan", "1,1e400", "1,2,3,4,5,6,7,8,9"],
    "week": ["1999-12-31"],
    "learning_rate": ["0"],
    "model": ["listfool"],
}
# paths a command writes: a file there is overwritten, so these never
# name an input (and so neither @file nor @missing is hostile here)
OUT_DIRS = ["@dir", "@new", ""]
OUT_FILES = ["@new_file", "@out_file"]
OUT_HOSTILE = ["", "²", "nan", "inf", "-1", "1e400", "@dir", "@out_file", "@under_file"]
INT_VALUES = ["0", "1", "3"]
FLOAT_VALUES = ["0", "0.5", "30"]
PREFIXES = ("config error:", "data error:", "training diverged:")


def _value_choices(command: str, action) -> tuple[list[str], list[str]]:
    """The in-range and the hostile values of one parser action."""
    if action.dest == "out" or (command, action.dest) == ("train", "checkpoint"):
        dirs = command in ("backtest", "verify", "simulate")
        return OUT_DIRS if dirs else OUT_FILES, OUT_HOSTILE
    hostile = HOSTILE + BAD.get(action.dest, [])
    if action.dest in SIZES:
        return SIZES[action.dest], hostile
    if action.dest in VALUES:
        return VALUES[action.dest], hostile
    if action.dest == "checkpoint":
        return ["@checkpoint"], hostile + ["@panel"]
    if action.choices:
        return list(action.choices), hostile
    if action.dest == "model":
        return ["mlp", "listmle-rvs"], hostile
    if action.type is int:
        return INT_VALUES, hostile
    if action.type is float:
        return FLOAT_VALUES, hostile
    return ["x"], hostile


def _subparsers():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if a.choices and a.dest == "command")
    return sub.choices


@st.composite
def argvs(draw):
    """A command and, for each of its actions, the flag and a value, drawn
    always for a size, a required flag and ALWAYS, and maybe for the rest."""
    commands = _subparsers()
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for action in commands[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        always = action.required or action.dest in SIZES or action.dest in ALWAYS
        if not always and not draw(st.booleans()):
            continue
        valid, hostile = _value_choices(command, action)
        # one value in eight is hostile, so that most runs get past parsing
        value = draw(st.sampled_from(hostile if draw(st.integers(0, 7)) == 7 else valid))
        argv += [draw(st.sampled_from(action.option_strings)), value]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The paths the @ tokens name: a tiny panel, config and checkpoint, a
    directory, a regular file, and paths to be written."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {
        "@panel": root / "panel.csv",
        "@config": root / "run.cfg",
        "@checkpoint": root / "model.npz",
        "@dir": root / "dir",
        "@file": root / "plain.txt",
        "@missing": root / "missing.csv",
        "@new": root / "cwd" / "out",
        "@new_file": root / "cwd" / "new.csv",
        "@out_file": root / "cwd" / "written.txt",
        "@under_file": root / "plain.txt" / "out",
    }
    paths["@dir"].mkdir()
    (root / "cwd").mkdir()
    paths["@file"].write_text("not a panel\n")
    paths["@out_file"].write_text("to be overwritten\n")
    assert cli.main(["synth", "--out", str(paths["@panel"]), "--seed", "1", "--weeks", "12",
                     "--stocks", "6", "--factors", "3"]) == 0
    paths["@config"].write_text(f"panel = {paths['@panel']}\ntrain_len = 6\ntest_len = 3\n"
                                "k = 1\nbatch_size = 2\ntotal_batches = 1\n")
    assert cli.main(["train", "--config", str(paths["@config"]), "--model", "mlp",
                     "--checkpoint", str(paths["@checkpoint"])]) == 0
    return root, {token: str(path) for token, path in paths.items()}


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
# one test week: compute_stats' ValueError once escaped after training
@example(argv=["backtest", "--panel", "@panel", "--out", "@new", "--train-len", "11",
               "--test-len", "1", "--k", "1", "--batch-size", "2", "--total-batches", "1"])
def test_main_exits_with_a_documented_code_and_message(files, argv):
    root, paths = files
    argv = [paths.get(tok, tok) for tok in argv]
    err = io.StringIO()
    cwd = os.getcwd()
    # an empty output path is the working directory
    os.chdir(root / "cwd")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    text = err.getvalue()
    assert code in range(5), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code and not (code == cli.EXIT_CHECK_FAILED and argv[0] == "verify"):
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        assert (last.startswith(PREFIXES)
                or re.match(rf"listfold( {argv[0]})?: error: ", last)), (argv, code, text)
