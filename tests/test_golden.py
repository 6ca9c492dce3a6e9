"""Golden outputs: the md5 of each recorded command's stdout, run in-process.

The tables of these commands stay byte-identical unless a change says why.
A digest here changes only together with a CHANGES.md line giving the
reason. The Monte Carlo commands are pinned at workers 1 and 2.
"""

import hashlib

import pytest

from lorafix.cli import main

SOLVE = ["solve", "1.1864679979e-4", "1.1295747147e-4", "1.1898980542e-4"]  # README line
ERROR_MAP = ["error-map", "--seed", "3"]
SWEEP = ["sweep-emax", "--seed", "7", "--points", "20000"]

GOLDEN = [
    (["alpha-bounds"], "f496449f1501207f55a4dabe938208ca"),
    (["dutycycle-grid"], "37b4dd0f7009d19dd39e216850e0fc47"),
    (["dutycycle-grid", "--n-bits", "30"], "68eb51c44911beba6cb88a15059c44d0"),
    (["airtime"], "9f4d9ebaa46ae28359c710653246d547"),
    (SOLVE, "54bfaf3a8eda98fb6d8820bb885538e7"),
    ([*ERROR_MAP, "--workers", "1"], "529f43521b69c7122ff9856696f18927"),
    ([*ERROR_MAP, "--workers", "2"], "529f43521b69c7122ff9856696f18927"),
    ([*SWEEP, "--workers", "1"], "bbc9a86cab0d37341e831ba00af658f5"),
    ([*SWEEP, "--workers", "2"], "bbc9a86cab0d37341e831ba00af658f5"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    got = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    assert got == digest, f"lorafix {' '.join(argv)}: stdout md5 {got}, expected {digest}"
