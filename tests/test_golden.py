"""Golden outputs: the md5 of each recorded command's stdout, run in-process.

The tables of these commands stay byte-identical unless a change says why.
A digest here changes only together with a CHANGES.md line giving the
reason. The Monte Carlo commands are pinned at workers 1 and 2. The JSON
tables and the ``--out`` summaries run the Monte Carlo commands small, at
one worker.
"""

import hashlib
import json

import pytest

from lorafix.cli import main

SOLVE = ["solve", "1.1864679979e-4", "1.1295747147e-4", "1.1898980542e-4"]  # README line
ERROR_MAP = ["error-map", "--seed", "3"]
SWEEP = ["sweep-emax", "--seed", "7", "--points", "20000"]
# SF 7 runs without the low-data-rate flag, so its symbol counts differ from SF 12's.
ALPHA_SF7 = ["alpha-bounds", "--sf", "7"]
SMALL_MAP = [*ERROR_MAP, "--points", "200", "--workers", "1"]
SMALL_SWEEP = ["sweep-emax", "--seed", "7", "--points", "2000", "--workers", "1"]
# At 1 cm every solve fails, so the summary takes its "no fix" branch.
NO_FIX_MAP = [
    "error-map", "--diameter-m", "0.01", "--points", "3", "--transmissions", "1", "--seed", "2",
]  # fmt: skip

GOLDEN = [
    (["alpha-bounds"], "f496449f1501207f55a4dabe938208ca"),
    (ALPHA_SF7, "603dcc4bc62d85607ce9865de82ab2dd"),
    (["dutycycle-grid"], "37b4dd0f7009d19dd39e216850e0fc47"),
    (["dutycycle-grid", "--n-bits", "30"], "68eb51c44911beba6cb88a15059c44d0"),
    (["airtime"], "9f4d9ebaa46ae28359c710653246d547"),
    (SOLVE, "edeba78fbbb61111ebb88b4a140387ea"),
    ([*ERROR_MAP, "--workers", "1"], "529f43521b69c7122ff9856696f18927"),
    ([*ERROR_MAP, "--workers", "2"], "529f43521b69c7122ff9856696f18927"),
    ([*SWEEP, "--workers", "1"], "bbc9a86cab0d37341e831ba00af658f5"),
    ([*SWEEP, "--workers", "2"], "bbc9a86cab0d37341e831ba00af658f5"),
]

GOLDEN_JSON = [
    (["alpha-bounds"], "46b5c81f6e064698f0f3020d26ac9219"),
    (ALPHA_SF7, "8e0b9d3a222832bc72ee08b323348c0d"),
    (["dutycycle-grid"], "42ba74b746b6529dfd9a981683b345bc"),
    (["airtime"], "94c757e28e9ec8df6a7a5cfa6d19c2f0"),
    (SOLVE, "47760d09f733ea7a67a3f11f5eb5b525"),
    (SMALL_MAP, "dde139837f99a8197a22ecb5cc06e40e"),
    (SMALL_SWEEP, "4456bea10550d3b3888a04080277c70d"),
]

# With --out the table goes to the file and stdout holds the summary line.
GOLDEN_SUMMARY = [
    (["alpha-bounds"], "10cdbd76d21f559b6335f8583898fa75"),
    (ALPHA_SF7, "6a864476262c5267443d835c7f52ac11"),
    (["dutycycle-grid"], "53ee7caef4d4725cbe3a82559dbc560b"),
    (["airtime"], "be9102f0c1f5b4bf2f18cfa31a4d73fd"),
    (SOLVE, "1977ac223bbcf3a4241a53d324a5a058"),
    (SMALL_MAP, "094b9929d320718e1cf7e3f8768ca9f6"),
    (SMALL_SWEEP, "778b247db417263e2804e9ec23d1cc27"),
    (NO_FIX_MAP, "5b9137cffbb26e27c61e3f8a27d09d80"),
]

# Periods of 1 us and more pin the selectors' t0 floor. The sweep does not
# solve (-,-,-), whose true root has t0 = -T, but the floor still reaches
# the patterns it solves. Re-solving these 2000 targets with the floor at
# -inf changes the pick of 130-147 of them in each of (+,-,-), (-,+,-) and
# (-,-,+) at 1 us, and of 11-38 in each of (+,+,-), (+,-,+) and (-,+,+)
# from 2.5 us on; every solved pattern but (+,+,-) and (+,-,+) has picks
# below the floor, the fallback, already at 1 us.
LATE_SWEEP = {"sweep": {"start_ns": 500, "stop_ns": 3000, "step_ns": 500}}
LATE_SWEEP_DIGEST = "44dc06f3b111b8d8e754c522103c7517"


def _ids(cases):
    return [" ".join(a) for a, _ in cases]


def _check(capsys, argv, digest):
    assert main(argv) == 0
    got = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    assert got == digest, f"lorafix {' '.join(argv)}: stdout md5 {got}, expected {digest}"


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=_ids(GOLDEN))
def test_stdout_digest(capsys, argv, digest):
    _check(capsys, argv, digest)


@pytest.mark.parametrize("argv, digest", GOLDEN_JSON, ids=_ids(GOLDEN_JSON))
def test_json_digest(capsys, argv, digest):
    _check(capsys, [*argv, "--format", "json"], digest)


@pytest.mark.parametrize("argv, digest", GOLDEN_SUMMARY, ids=_ids(GOLDEN_SUMMARY))
def test_out_summary_digest(tmp_path, capsys, argv, digest):
    _check(capsys, [*argv, "--out", str(tmp_path / "table")], digest)


def test_late_period_sweep_digest(tmp_path, capsys):
    cfg = tmp_path / "late.json"
    cfg.write_text(json.dumps(LATE_SWEEP))
    _check(capsys, [*SMALL_SWEEP, "--config", str(cfg)], LATE_SWEEP_DIGEST)
