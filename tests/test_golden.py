"""Reduced-scale golden runs, pinned by the SHA-256 of every file they write:

- `listfold synth` then `listfold backtest` on a 48-week panel with an odd
  universe of 13 stocks and 6 factors (three rolling windows of 24
  training and 8 test weeks, the five standard models, k = 3);
- `listfold verify --trials 20 --sizes 2,4,6,8 --budget 200 --seed 0`
  (about 1 s): the golden losses, the three theorem reports, the probe,
  the counterexample search and the enumeration table;
- `listfold simulate` of both stories with weights 2,1,0.7,0.4, 20000
  draws and seed 0: the sampled counts and the z table.

Nothing else pins a whole backtest's numbers from one change to the next.
A change that moves these hashes changes results and must say why. The
hashes were taken on an x86-64 Linux guest with 2 cores, Python 3.11,
numpy 2.4.6 on OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels); another
BLAS or CPU may round the network's matrix products differently.
"""

import hashlib

from listfold.cli import main

GOLDEN = {
    "heatmap.csv": "18a57eb9ec0ae24995b253e8e67b65b9432972eb25399bce5a78e8387e684ee9",
    "pnl_List2MLE.csv": "2f8ab3d73ed4d27082bdfb5990a5d4145399ecc7464d9ce4f4e9930a7a35910b",
    "pnl_ListFold-exp-sa.csv": "5ca838669f0821a71f0283127906d9d0f6c9a238986f504998532648b200c588",
    "pnl_ListFold-exp.csv": "3e4a1ac0d2ed586cc18e6b982c1bc2668fed14e834f40e1ef6cc0448deb39ee3",
    "pnl_ListFold-sgm-sa.csv": "ed16d73a162dbbeeb870222eae51487e2827e17f63d6992fab298baa0b0af9aa",
    "pnl_ListFold-sgm.csv": "c612846cbf054c137bad998944e0a6c36cffe91dde1a464f8fd34bf00ae88a61",
    "pnl_ListMLE-sa.csv": "ba863f49abee6949a103c43acc2dfd710da32738bff40312050d3e7813031bd8",
    "pnl_ListMLE.csv": "ef4a977e462fcc0b97f1acd980835873ed9ddc6691df62f78fbe981efd1eb54f",
    "pnl_MLP-sa.csv": "dc3e8afd45bf2716ca67eb7710a5262201467dfe9ec13bbb25f4cdcc049b27c4",
    "pnl_MLP.csv": "f6a0668a3fb11b4012d07785348c1adbca42f2f38dd2f745917f167396d96dd1",
    "rankmetrics.csv": "1a313631c9bfc1f35007399b7c389251dbe8b96133234272c0ba349b583ede2b",
    "stats.csv": "9dd6001868325c7b824b9bff8623d2fa19311d0d60c25baa18802dffb0c175b1",
}


VERIFY_GOLDEN = {
    "enumeration_5410.csv": "dec5d749893d54d8d91e2e24e7aa6b75d34d15f5cc195e4925e206c8ae352eaf",
    "verify_report.txt": "b217668bb15eba452fbe52a3a8558e9f0c58135e1bfbd89f9c68806da240bfd7",
}


SIMULATE_GOLDEN = {
    "simulate_plank.csv": "9df49613927fb02a69b09b2cc225300314cef02b788a7dff457eddb4e7c7cad6",
    "simulate_vase.csv": "1a6b9ffeb3e70f0f03579e77f90b658507da4967c670adbcc684f6fb76e30a37",
}


def sha256_of_files(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_verify_outputs_match_golden_hashes(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--trials", "20", "--sizes", "2,4,6,8", "--budget", "200",
                 "--seed", "0", "--out", str(out)]) == 0
    assert sha256_of_files(out) == VERIFY_GOLDEN


def test_simulate_tables_match_golden_hashes(tmp_path):
    out = tmp_path / "simulate"
    for model in ("vase", "plank"):
        assert main(["simulate", "--model", model, "--weights", "2,1,0.7,0.4",
                     "--draws", "20000", "--seed", "0", "--out", str(out)]) == 0
    assert sha256_of_files(out) == SIMULATE_GOLDEN


def test_backtest_tables_match_golden_hashes(tmp_path):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--out", str(panel), "--seed", "11", "--weeks", "48",
                 "--stocks", "13", "--factors", "6", "--signal-strength", "1.0",
                 "--noise-scale", "0.5"]) == 0
    out = tmp_path / "bt"
    assert main(["backtest", "--panel", str(panel), "--out", str(out),
                 "--train-len", "24", "--test-len", "8", "--k", "3", "--batch-size", "4",
                 "--total-batches", "12", "--seed", "11"]) == 0
    assert sha256_of_files(out) == GOLDEN
