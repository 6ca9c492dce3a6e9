"""End-to-end checks of the command-line interface.

``run_cli`` calls ``main`` in-process and returns what a child process would:
its exit code, stdout and stderr, warnings included. ``run_cli_child`` runs
``python -m lorafix`` where a fresh interpreter is the point: the entry
point, the environment, output that could depend on the hash seed, and
allocations too large for the address space.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lorafix
from lorafix import CounterConfig, Position, canonical_triangle, cli, duty_cycle, forward_toa
from lorafix.cli import DEFAULTS, NOT_CONFIG, _render, build_parser, main

from _oracles import (
    ALPHA_ORACLE_MAX_S,
    ALPHA_ORACLE_MIN_S,
    LATE_ROOTLESS_GATEWAYS,
    LATE_ROOTLESS_OBS,
    NO_REAL_ROOT_OBS,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as e:  # argparse's own errors
                code = e.code
        for w in caught:
            err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_cli_child(*argv, env_extra=None):
    env = {**os.environ, **(env_extra or {})}
    # The child imports the same lorafix as these tests, wherever it came from.
    src = os.path.dirname(os.path.dirname(lorafix.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "lorafix", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def write_config(tmp_path, doc, name="cfg.json"):
    """Write ``doc`` as JSON, or as is if it is a string (raw JSON text)."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


class TestSolve:
    def test_recovers_known_position(self):
        # Through the `python -m lorafix` entry point.
        tri = canonical_triangle(10000.0)
        obs = forward_toa(Position(1000.0, 500.0), tri, 1e-4)
        r = run_cli_child("solve", repr(obs.t1), repr(obs.t2), repr(obs.t3))
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        assert header == "x_m,y_m,t0_s,residual_m,root_index"
        vals = row.split(",")
        assert float(vals[0]) == pytest.approx(1000.0, abs=1e-6)
        assert float(vals[1]) == pytest.approx(500.0, abs=1e-6)
        assert float(vals[2]) == pytest.approx(1e-4, abs=1e-12)

    def test_toa_from_config(self, tmp_path):
        tri = canonical_triangle(10000.0)
        obs = forward_toa(Position(0.0, 0.0), tri)
        cfg = write_config(tmp_path, {"toa": [obs.t1, obs.t2, obs.t3]})
        r = run_cli("solve", "--config", cfg)
        assert r.returncode == 0
        row = r.stdout.strip().splitlines()[1].split(",")
        assert abs(float(row[0])) < 1e-6
        assert abs(float(row[1])) < 1e-6

    def test_json_format(self):
        tri = canonical_triangle(10000.0)
        obs = forward_toa(Position(-2000.0, 1000.0), tri)
        r = run_cli("solve", repr(obs.t1), repr(obs.t2), repr(obs.t3), "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["columns"][0] == "x_m"
        assert doc["rows"][0][0] == pytest.approx(-2000.0, abs=1e-6)

    def test_collinear_gateways_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "toa": [1e-5, 2e-5, 3e-5],
                "geometry": {"gateways": [[0.0, 0.0], [1000.0, 0.0], [2000.0, 0.0]]},
            },
        )
        r = run_cli("solve", "--config", cfg)
        assert r.returncode == 2
        assert "singular-geometry" in r.stderr

    def test_no_real_root_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"toa": list(NO_REAL_ROOT_OBS)})
        r = run_cli("solve", "--config", cfg)
        assert r.returncode == 2
        assert "no-real-root" in r.stderr

    def test_late_rootless_observation_exit_2(self, tmp_path):
        doc = {
            "toa": list(LATE_ROOTLESS_OBS),
            "geometry": {"gateways": [list(g) for g in LATE_ROOTLESS_GATEWAYS]},
        }
        r = run_cli("solve", "--config", write_config(tmp_path, doc))
        assert r.returncode == 2
        assert "no-real-root" in r.stderr
        assert r.stdout == ""

    def test_late_emission_keeps_the_true_root(self):
        # Emitted 100 s after the sync, inside the 32-bit, 40 ns counter's span;
        # the other root lies at (-1419.224, 630.321) m with a 1.047e4 m residual.
        r = run_cli("solve", "100.00001500735297", "100.0000142091908", "100.00002283545176")
        assert r.returncode == 0, r.stderr
        x, y, t0, residual, root = map(float, r.stdout.strip().splitlines()[1].split(","))
        assert (x, y) == (pytest.approx(1658.169, abs=1e-3), pytest.approx(-817.621, abs=1e-3))
        assert t0 == pytest.approx(100.0, abs=1e-9)
        assert residual < 1e-5

    def test_wrong_arity_exit_1(self):
        r = run_cli("solve", "1e-5", "2e-5")
        assert r.returncode == 1


class TestAirtime:
    def test_default_configuration(self):
        r = run_cli("airtime")
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["tau_s"]) == pytest.approx(2.465792, rel=1e-12)
        assert int(cols["payload_symbols"]) == 63
        assert float(cols["delta"]) == pytest.approx(2.465792 / 171.79869184, rel=1e-9)

    def test_flags_override(self):
        r = run_cli("airtime", "--sf", "7", "--bw-hz", "500000", "--payload", "12")
        assert r.returncode == 0
        row = r.stdout.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.010304, rel=1e-9)

    def test_invalid_sf_exit_1(self):
        r = run_cli("airtime", "--sf", "6")
        assert r.returncode == 1


class TestAlphaBounds:
    def test_matches_oracle(self):
        r = run_cli("alpha-bounds")
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        assert header == "tau_min_s,tau_max_s,argmin_params,argmax_params"
        vals = row.split(",")
        assert float(vals[0]) == pytest.approx(ALPHA_ORACLE_MIN_S, abs=1e-9)
        assert float(vals[1]) == pytest.approx(ALPHA_ORACLE_MAX_S, abs=1e-9)
        assert vals[3] == "sf=12 bw=125000 cr=4 pl=51 de=1"

    def test_config_pl_caps_replace_the_default_map(self, tmp_path):
        # A 125 kHz-only map must not keep sweeping 500 kHz (tau_min 0.206848 s).
        cfg = write_config(tmp_path, {"alpha": {"pl_caps": {"125000": 51}}})
        r = run_cli("alpha-bounds", "--config", cfg)
        assert r.returncode == 0, r.stderr
        vals = r.stdout.strip().splitlines()[1].split(",")
        assert float(vals[0]) == pytest.approx(0.827392, abs=1e-9)
        assert vals[2] == "sf=12 bw=125000 cr=1 pl=1 de=1"

    def test_config_pl_caps_keys_are_bandwidths_not_config_keys(self, tmp_path):
        # The loader checks the config's shape only down to alpha.pl_caps.
        cfg = write_config(tmp_path, {"alpha": {"pl_caps": {"500000": 33, "250000": 51}}})
        r = run_cli("alpha-bounds", "--config", cfg)
        assert r.returncode == 0, r.stderr
        vals = r.stdout.strip().splitlines()[1].split(",")
        assert float(vals[0]) == pytest.approx(0.206848, abs=1e-9)
        assert vals[2].startswith("sf=12 bw=500000 ")

    def test_empty_coding_rate_range_exit_1(self, tmp_path):
        # A zero payload cap leaves no payload to sweep at the only bandwidth.
        cfg = write_config(tmp_path, {"alpha": {"pl_caps": {"125000": 0}}})
        r = run_cli("alpha-bounds", "--config", cfg)
        assert r.returncode == 1
        assert "cross product is empty" in r.stderr

    def test_coding_rates_are_a_set(self, tmp_path):
        # alpha.cr lists the rates to sweep: their order does not matter.
        tables = []
        for name, cr in (("a.json", [4, 1]), ("b.json", [1, 4])):
            r = run_cli("alpha-bounds", "--config", write_config(tmp_path, {"alpha": {"cr": cr}}, name))
            assert r.returncode == 0, r.stderr
            tables.append(r.stdout)
        assert tables[0] == tables[1]

    def test_every_listed_coding_rate_checked(self, tmp_path):
        cfg = write_config(tmp_path, {"alpha": {"cr": [1, 9, 4]}})
        r = run_cli("alpha-bounds", "--config", cfg)
        assert r.returncode == 1
        assert "cr must be in 1..4, got 9" in r.stderr


class TestDutyCycleGrid:
    def test_grid_row_values(self):
        r = run_cli("dutycycle-grid", "--n-bits", "32")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "tau_s,n_bits,T_s,delta,feasible_10pct,feasible_1pct"
        row = dict(zip(lines[0].split(","), lines[3].split(",")))
        assert row["tau_s"] == "1"
        assert float(row["delta"]) == pytest.approx(1.0 / 171.79869184, rel=1e-9)
        assert row["feasible_1pct"] == "true"

    def test_reads_only_the_counter_period(self, tmp_path, capsys):
        # The grid sweeps its own n_bits, so counter.n_bits is not read, as in
        # sweep-emax; the period is still checked in every cell.
        cfg = write_config(tmp_path, {"counter": {"n_bits": 0}})
        assert main(["dutycycle-grid", "--config", cfg]) == 0
        got = capsys.readouterr().out
        assert main(["dutycycle-grid"]) == 0
        assert got == capsys.readouterr().out
        assert main(["dutycycle-grid", "--config", cfg, "--T-ns", "0"]) == 1
        assert "period_s must be positive, got 0.0" in capsys.readouterr().err

    @staticmethod
    def _cells(tmp_path, capsys, taus, ns):
        """The JSON grid at T = 40 ns, one {column: value} dict per row."""
        cfg = write_config(tmp_path, {"grid": {"tau_s": taus, "n_bits": ns}})
        assert main(["dutycycle-grid", "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        return [dict(zip(doc["columns"], row)) for row in doc["rows"]]

    def test_matches_scalar_duty_cycle(self, tmp_path, capsys):
        taus, ns = [0.25, 1.0, 3.6], [24, 32, 38]
        cells = self._cells(tmp_path, capsys, taus, ns)
        assert [(c["tau_s"], c["n_bits"]) for c in cells] == [(t, n) for t in taus for n in ns]
        for c in cells:
            assert c["delta"] == duty_cycle(c["tau_s"], CounterConfig(c["n_bits"], c["T_s"]))

    def test_reference_cell(self, tmp_path, capsys):
        (cell,) = self._cells(tmp_path, capsys, [1.0], [32])
        assert cell["delta"] == pytest.approx(1.0 / 171.79869184, rel=1e-12)
        assert cell["feasible_10pct"] is True and cell["feasible_1pct"] is True

    def test_short_counter_infeasible(self, tmp_path, capsys):
        (cell,) = self._cells(tmp_path, capsys, [3.6], [4])
        assert cell["delta"] > 1.0
        assert cell["feasible_10pct"] is False and cell["feasible_1pct"] is False

    def test_feasibility_monotone_in_bits(self, tmp_path, capsys):
        cells = self._cells(tmp_path, capsys, [2.0], list(range(10, 40)))
        deltas = [c["delta"] for c in cells]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        flips = [c["feasible_1pct"] for c in cells]
        assert flips == sorted(flips) and flips[0] is False and flips[-1] is True


class TestSweepRange:
    def test_stop_below_start_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"start_ns": 20, "stop_ns": 10, "points": 50}})
        r = run_cli("sweep-emax", "--config", cfg, "--seed", "1")
        assert r.returncode == 1
        assert "below its start" in r.stderr

    def test_nonpositive_start_exit_1(self, tmp_path):
        sweep = {"start_ns": -5, "stop_ns": 5, "step_ns": 5, "points": 50}
        cfg = write_config(tmp_path, {"sweep": sweep})
        r = run_cli("sweep-emax", "--config", cfg, "--seed", "1")
        assert r.returncode == 1
        assert "T range start must be positive, got -5e-09" in r.stderr

    def _assert_one_line_error(self, r, code, message):
        assert r.returncode == code
        assert "Traceback" not in r.stderr
        errors = [line for line in r.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert r.stderr.splitlines()[-1] == errors[0]

    def test_infinite_period_count_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"stop_ns": 1e300, "step_ns": 1e-300}})
        r = run_cli("sweep-emax", "--seed", "1", "--points", "2", "--config", cfg)
        self._assert_one_line_error(r, 1, "no finite period count")

    # 728 TiB of targets and 693 PiB of periods: both exceed the 128 TiB
    # address space of a 64-bit Linux process, so the first array is refused
    # before anything is allocated.
    @pytest.mark.parametrize(
        "flags, doc",
        [
            (["--points", "100000000000000"], {}),
            (["--points", "2"], {"sweep": {"step_ns": 1e-15}}),
        ],
    )
    def test_too_large_for_memory_exit_4(self, tmp_path, flags, doc):
        cfg = write_config(tmp_path, doc)
        r = run_cli_child("sweep-emax", "--seed", "1", *flags, "--config", cfg)
        self._assert_one_line_error(r, 4, "error: out-of-memory: Unable to allocate")


class TestWorkers:
    @pytest.mark.parametrize("command, workers", [("sweep-emax", "0"), ("error-map", "-3")])
    def test_nonpositive_workers_exit_1(self, command, workers):
        r = run_cli(command, "--seed", "1", "--points", "20", "--workers", workers)
        assert r.returncode == 1
        assert "workers must be >= 1" in r.stderr

    def test_deterministic_command_has_no_workers_flag(self):
        r = run_cli("solve", "--workers", "2", "1e-4", "1e-4", "1e-4")
        assert r.returncode == 1
        assert "unrecognized arguments: --workers" in r.stderr


class TestConfigTypes:
    SEEDED = ["--seed", "1"]
    SOLVE = ["solve", "1e-4", "1e-4", "1e-4"]

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["sweep-emax", *SEEDED], {"workers": None}, "workers must be an integer, got null"),
            (["sweep-emax"], {"seed": "x"}, 'seed must be an integer, got "x"'),
            (
                ["sweep-emax", *SEEDED],
                {"sweep": {"points": "abc"}},
                'sweep.points must be an integer, got "abc"',
            ),
            (
                ["error-map", *SEEDED],
                {"map": {"transmissions": 2.5}},
                "map.transmissions must be an integer, got 2.5",
            ),
            (
                ["solve", "1e-4", "1e-4", "1e-4"],
                {"geometry": {"diameter_m": None}},
                "geometry.diameter_m must be a number, got null",
            ),
            (["solve"], {"toa": [1e-4, "1e-4", 1e-4]}, 'toa[1] must be a number, got "1e-4"'),
            (
                ["airtime"],
                {"counter": {"n_bits": True}},
                "counter.n_bits must be an integer, got true",
            ),
            (["airtime"], {"radio": {"sf": "12"}}, 'radio.sf must be an integer, got "12"'),
            (
                ["dutycycle-grid"],
                {"grid": {"tau_s": [1.0, None]}},
                "grid.tau_s[1] must be a number, got null",
            ),
            (
                ["alpha-bounds"],
                {"alpha": {"preamble": False}},
                "alpha.preamble must be an integer, got false",
            ),
            (["sweep-emax", *SEEDED], {"sweep": None}, "sweep must be an object, got null"),
            (SOLVE, {"geometry": None}, "geometry must be an object, got null"),
            (["airtime"], {"radio": None}, "radio must be an object, got null"),
            (["airtime"], {"counter": 3}, "counter must be an object, got 3"),
            (
                ["alpha-bounds"],
                {"alpha": {"cr": []}},
                "alpha.cr must be a non-empty list of integers, got []",
            ),
            (
                ["dutycycle-grid"],
                {"grid": {"tau_s": 5}},
                "grid.tau_s must be a non-empty list of numbers, got 5",
            ),
            (["solve"], {"toa": 5}, "toa must be a list of 3 numbers, got 5"),
            (
                SOLVE,
                {"geometry": {"gateways": [[0], [1, 2], [3, 4]]}},
                "geometry.gateways[0] must be a list of 2 numbers, got [0]",
            ),
            (
                SOLVE,
                {"geometry": {"gateways": [[0, 0], [1, 0]]}},
                "geometry.gateways must be 3 [x, y] pairs, got [[0, 0], [1, 0]]",
            ),
            (
                ["alpha-bounds"],
                {"alpha": {"pl_caps": {"abc": 5}}},
                'alpha.pl_caps must map integer bandwidths to caps, got {"abc": 5}',
            ),
            # argparse's float() and json.load both parse nan and inf: a NaN
            # anchor period once made sweep-emax summarize an arbitrary period
            # and exit 0, and an integer beyond the float range ended in an
            # OverflowError traceback.
            (
                ["sweep-emax", *SEEDED, "--points", "10", "--T-ns", "nan"],
                {},
                "counter.T_ns must be a finite number, got NaN",
            ),
            (
                ["airtime", "--T-ns", "inf"],
                {},
                "counter.T_ns must be a finite number, got Infinity",
            ),
            (
                ["airtime"],
                {"counter": {"T_ns": float("nan")}},
                "counter.T_ns must be a finite number, got NaN",
            ),
            (
                ["sweep-emax", *SEEDED],
                {"sweep": {"stop_ns": float("inf")}},
                "sweep.stop_ns must be a finite number, got Infinity",
            ),
            (
                ["solve"],
                {"toa": [1e-4, float("-inf"), 1e-4]},
                "toa[1] must be a finite number, got -Infinity",
            ),
            (
                ["airtime"],
                {"counter": {"T_ns": 10**400}},
                f"counter.T_ns must be a finite number, got {10**400}",
            ),
            (
                ["sweep-emax", "--seed", "-1", "--points", "10"],
                {},
                "seed must be a non-negative integer, got -1",
            ),
            # Both keys parse to 125000, so one of the two caps would be dropped unseen.
            (
                ["alpha-bounds"],
                {"alpha": {"pl_caps": {"125000": 51, "0125000": 3}}},
                "alpha.pl_caps.0125000 repeats bandwidth 125000",
            ),
            # The config's shape is checked whole on load: a misspelled key
            # once ran the paper-scale sweep, and a section no command reads
            # may not be malformed either.
            (["sweep-emax", *SEEDED], {"sed": 3}, "unknown config key sed"),
            (["sweep-emax", *SEEDED], {"sweep": {"point": 10}}, "unknown config key sweep.point"),
            (["airtime"], {"sweep": None}, "sweep must be an object, got null"),
            (["airtime"], "[1, 2]", "config root must be an object, got [1, 2]"),
            # json.load keeps the last of a repeated key, which ran 20 targets here.
            (
                ["sweep-emax", *SEEDED],
                '{"sweep": {"points": 10, "points": 20}}',
                "config repeats key points",
            ),
        ],
    )
    def test_wrong_type_names_key_exit_1(self, tmp_path, argv, doc, message):
        r = run_cli(*argv, "--config", write_config(tmp_path, doc))
        assert r.returncode == 1
        assert r.stderr.strip().endswith(f"error: {message}")
        assert r.stderr.count("error:") == 1
        assert "Traceback" not in r.stderr

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"points": 20.0, "start_ns": 40, "stop_ns": 40}})
        r = run_cli("sweep-emax", "--seed", "1", "--config", cfg)
        assert r.returncode == 0, r.stderr
        assert "over 20 targets" in r.stderr


class TestOutOfRangeNumbers:
    # Each of these once died with an OverflowError or ZeroDivisionError
    # traceback: 2**sf / bw_hz was formed before the radio fields were
    # checked, and float ** overflowed in the solvers' singularity tests.
    # None may print a numpy warning. A 1 mm triangle is a valid geometry,
    # and arrivals seconds apart on the 10 km triangle have no real root.
    @pytest.mark.parametrize(
        "argv, doc, code, last_line",
        [
            (["airtime", "--sf", "2000"], None, 1, "error: sf must be in 7..12, got 2000"),
            (["alpha-bounds", "--sf", "2000"], None, 1, "error: sf must be in 7..12, got 2000"),
            (["airtime", "--bw-hz", "0"], None, 1, "error: bw_hz must be one of"),
            (["alpha-bounds"], {"alpha": {"pl_caps": {"0": 5}}}, 1, "error: bw_hz must be one of"),
            (["solve", *["1e-4"] * 3, "--diameter-m", "1e200"], None, 2, "error: no-real-root: "),
            (["solve", *["1e146"] * 3, "--diameter-m", "1e150"], None, 0, "position (0.000, 0.000)"),
            # Every solve fails, so the summary reports no fix, as error-map's does.
            (
                ["sweep-emax", "--seed", "1", "--points", "10", "--diameter-m", "1e300"],
                None,
                0,
                "no fix over 10 targets (60 failed solves)",
            ),
            (["solve", *["1e-6"] * 3, "--diameter-m", "0.001"], None, 0, "position (0.000, 0.000)"),
            (["solve", "1", "2", "3"], None, 2, "error: no-real-root: "),
            (["solve", "--", "1e300", "-1e300", "0"], None, 2, "error: no-real-root: "),
        ],
    )
    def test_exit_code_and_message(self, tmp_path, argv, doc, code, last_line):
        if doc is not None:
            argv = [*argv, "--config", write_config(tmp_path, doc)]
        r = run_cli(*argv)
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        assert "Warning" not in r.stderr
        assert r.stderr.strip().splitlines()[-1].startswith(last_line)


class TestNegativeNumbers:
    # argparse takes only -<digits>[.<digits>] as a negative number, so float
    # flags given -4e1 or -inf once exited with "expected one argument",
    # naming no config key, where --T-ns=-4e1 reached the checks.
    @pytest.mark.parametrize(
        "value, message",
        [
            ("-40", "period_s must be positive, got -4e-08"),
            ("-4e1", "period_s must be positive, got -4e-08"),
            ("-.5E+1", "period_s must be positive, got -5e-09"),
            ("-1.e1", "period_s must be positive, got -1e-08"),
            ("-inf", "counter.T_ns must be a finite number, got -Infinity"),
            ("-Infinity", "counter.T_ns must be a finite number, got -Infinity"),
            ("-nan", "counter.T_ns must be a finite number, got NaN"),
        ],
    )
    def test_flag_value_meets_the_checks_in_both_forms(self, value, message):
        for argv in (["airtime", "--T-ns", value], ["airtime", f"--T-ns={value}"]):
            r = run_cli(*argv)
            assert (r.returncode, r.stderr) == (1, f"error: {message}\n")

    def test_negative_positionals_need_no_separator(self, capsys):
        r = run_cli("solve", "1e300", "-1e300", "0")
        assert (r.returncode, r.stderr) == (
            2,
            "error: no-real-root: observation admits no real range solution\n",
        )
        assert main(["solve", "-1e-4", "-1e-4", "-1e-4"]) == 0
        assert main(["solve", "1e-4", "1.1e-4", "1.2e-4", "--diameter-m", "-1e4"]) == 1
        assert "circumdiameter must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-x", "-4e", "--inf"])
    def test_non_numbers_stay_flags(self, value):
        r = run_cli("airtime", "--T-ns", value)
        assert (r.returncode, r.stderr) == (1, "error: argument --T-ns: expected one argument\n")


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_programming_error_is_not_a_config_error(monkeypatch, error):
    # Exit 1 means a bad config or flag value; an error from the code itself propagates.
    def broken(*args, **kwargs):
        raise error("bug")

    monkeypatch.setattr(cli, "sweep_emax", broken)
    with pytest.raises(error, match="bug"):
        main(["sweep-emax", "--seed", "1", "--points", "10"])


_OBS = forward_toa(Position(500.0, 250.0), canonical_triangle(5000.0))
FAST = {
    "solve": {"toa": [_OBS.t1, _OBS.t2, _OBS.t3]},
    "airtime": {},
    "sweep-emax": {"seed": 1, "sweep": {"start_ns": 40, "stop_ns": 40, "points": 20}},
    "dutycycle-grid": {},
    "error-map": {"seed": 1, "map": {"points": 20, "transmissions": 1}},
    "alpha-bounds": {},
}


def _with(doc, key, value):
    """Copy of ``doc`` with ``value`` at dotted ``key``."""
    head, _, rest = key.partition(".")
    return {**doc, head: _with(doc.get(head, {}), rest, value) if rest else value}


class TestFlagPrecedence:
    @pytest.mark.parametrize(
        "command, argv, key, value",
        [
            ("solve", ["1e-4", "1.1e-4", "1.2e-4"], "toa", [1e-4, 1.1e-4, 1.2e-4]),
            ("solve", ["--diameter-m", "5000"], "geometry.diameter_m", 5000.0),
            ("airtime", ["--sf", "9"], "radio.sf", 9),
            ("airtime", ["--bw-hz", "250000"], "radio.bw_hz", 250000),
            ("airtime", ["--cr", "3"], "radio.cr", 3),
            ("airtime", ["--payload", "12"], "radio.payload", 12),
            ("airtime", ["--n-bits", "30"], "counter.n_bits", 30),
            ("airtime", ["--T-ns", "20"], "counter.T_ns", 20.0),
            ("sweep-emax", ["--seed", "5"], "seed", 5),
            ("sweep-emax", ["--workers", "1"], "workers", 1),
            ("sweep-emax", ["--points", "30"], "sweep.points", 30),
            ("sweep-emax", ["--T-ns", "20"], "counter.T_ns", 20.0),
            ("sweep-emax", ["--diameter-m", "5000"], "geometry.diameter_m", 5000.0),
            ("dutycycle-grid", ["--n-bits", "30"], "grid.n_bits", [30]),
            ("dutycycle-grid", ["--T-ns", "20"], "counter.T_ns", 20.0),
            ("error-map", ["--seed", "5"], "seed", 5),
            ("error-map", ["--workers", "1"], "workers", 1),
            ("error-map", ["--points", "30"], "map.points", 30),
            ("error-map", ["--transmissions", "2"], "map.transmissions", 2),
            ("error-map", ["--n-bits", "30"], "counter.n_bits", 30),
            ("error-map", ["--T-ns", "20"], "counter.T_ns", 20.0),
            ("error-map", ["--diameter-m", "5000"], "geometry.diameter_m", 5000.0),
            ("alpha-bounds", ["--sf", "9"], "alpha.sf", 9),
        ],
    )
    def test_flag_beats_config(self, tmp_path, capsys, command, argv, key, value):
        # The config sets the flag's key to a value no reader accepts, so the
        # run succeeds only if the flag wins, and must then print the table a
        # config holding the flag's value prints.
        flagged = write_config(tmp_path, _with(FAST[command], key, "bad"), "flagged.json")
        plain = write_config(tmp_path, _with(FAST[command], key, value), "plain.json")
        assert main([command, *argv, "--config", flagged]) == 0
        got = capsys.readouterr().out
        assert main([command, "--config", plain]) == 0
        assert got == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "sweep-emax", "error-map"])
    def test_diameter_flag_beats_config_gateways(self, tmp_path, capsys, command):
        gateways = {"geometry": {"gateways": [[0, 0], [500, 0], [0, 500]]}}
        flagged = write_config(tmp_path, {**FAST[command], **gateways}, "flagged.json")
        plain = write_config(tmp_path, _with(FAST[command], "geometry.diameter_m", 5000), "plain.json")
        assert main([command, "--diameter-m", "5000", "--config", flagged]) == 0
        got = capsys.readouterr().out
        assert main([command, "--config", plain]) == 0
        assert got == capsys.readouterr().out


def test_every_parser_dest_is_a_config_key():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest in (*NOT_CONFIG, "help"):
                continue
            node = DEFAULTS
            for part in action.dest.split("."):
                assert isinstance(node, dict) and part in node, f"{name}: {action.dest}"
                node = node[part]


class TestStrictJson:
    def test_nan_row_renders_null(self):
        text = _render(["T_s", "e_max_m"], [[4e-8, float("nan")], [8e-8, 1.5]], "json")

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert json.loads(text, parse_constant=reject)["rows"] == [[4e-8, None], [8e-8, 1.5]]

    def test_error_map_with_every_solve_failed(self):
        # At 1 cm the 40 ns shifts (12 m) leave no hyperbola pair intersecting.
        r = run_cli(
            "error-map", "--diameter-m", "0.01", "--points", "3", "--transmissions", "1",
            "--seed", "2", "--format", "json",
        )  # fmt: skip
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout, parse_constant=lambda name: pytest.fail(name))
        assert [row[2:] for row in doc["rows"]] == [[None, 8]] * 3
        assert "no fix" in r.stderr

    def test_csv_keeps_nan(self):
        text = _render(["T_s", "e_max_m"], [[4e-8, float("nan")]], "csv")
        assert text == "T_s,e_max_m\n4.0000000000000001e-08,nan\n"


class TestCsvRender:
    """``_render``'s CSV bytes equal the per-cell ``_csv_cell`` join."""

    @staticmethod
    def _per_cell(cols, rows):
        lines = [",".join(cols)]
        lines.extend(",".join(map(cli._csv_cell, r)) for r in rows)
        return "\n".join(lines) + "\n"

    ROWS = [
        [float("nan"), float("inf"), -0.0, 0.1, 7, "a"],
        [-float("inf"), 1e-300, 5e-324, 1.7976931348623157e308, 2**70, "50% b"],
        [True, False, -0.0, 0.5, -(2**80), ""],
        # Column 4 changes type from row to row: int, float, bool, str, numpy int.
        [1.5, 2.5, 3.5, 4.5, 1.0, "d"],
        [1.5, 2.5, 3.5, 4.5, False, "e"],
        [1.5, 2.5, 3.5, 4.5, "f", "g"],
        [1.5, 2.5, 3.5, 4.5, np.int32(9), "h"],
        [1.5, 2.5, 3.5, 4.5, 7, "i"],
    ]

    def test_mixed_cells_match_per_cell_join(self):
        cols = ["a", "b", "c", "d", "e", "f"]
        assert _render(cols, self.ROWS, "csv") == self._per_cell(cols, self.ROWS)

    def test_row_iterators_and_tuples(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        x[::17] = np.nan
        n = rng.integers(-(2**62), 2**62, 200)
        cols = ["x", "n", "s"]
        want = self._per_cell(cols, zip(x.tolist(), n.tolist(), ["s"] * 200))
        assert _render(cols, zip(x.tolist(), n.tolist(), ["s"] * 200), "csv") == want
        assert _render(cols, list(zip(x, n, ["s"] * 200)), "csv") == want

    def test_empty_table(self):
        assert _render(["a", "b"], [], "csv") == "a,b\n"


class TestCellTypes:
    """Every command hands ``_render`` only Python bool, int, float and str
    cells, so neither encoding needs to convert numpy scalars."""

    COMMANDS = [
        ["solve", "1.1864679979e-4", "1.1295747147e-4", "1.1898980542e-4"],
        ["airtime"],
        ["sweep-emax", "--seed", "1", "--points", "20"],
        ["dutycycle-grid"],
        ["error-map", "--seed", "1", "--points", "10", "--transmissions", "2"],
        ["alpha-bounds"],
    ]
    # Configured gateways and a forced low-data-rate flag take other paths
    # than the canonical triangle and the symbol-duration rule.
    CONFIG = {
        "geometry": {"gateways": [[0, -5000], [4330.13, 2500], [-4330.13, 2500]]},
        "radio": {"low_dr_opt": 0},
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_are_python_scalars(self, tmp_path, capsys, monkeypatch, fmt):
        types = set()
        render = cli._render

        def checked(cols, rows, fmt):
            rows = [list(r) for r in rows]
            types.update(type(v) for r in rows for v in r)
            return render(cols, rows, fmt)

        monkeypatch.setattr(cli, "_render", checked)
        cfg = write_config(tmp_path, self.CONFIG)
        for argv in self.COMMANDS:
            for extra in ([], ["--config", cfg]):
                assert main([*argv, *extra, "--format", fmt]) == 0, argv
        capsys.readouterr()
        assert types == {bool, int, float, str}


class TestSeedResolution:
    def test_missing_seed_exit_1(self):
        # The seed comes from --seed or the config alone, never the environment.
        r = run_cli_child("sweep-emax", "--points", "50", env_extra={"LORAFIX_SEED": "9"})
        assert r.returncode == 1
        assert "seed" in r.stderr


class TestStochasticReproducibility:
    def test_sweep_rerun_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, {"sweep": {"start_ns": 10, "stop_ns": 50, "step_ns": 10, "points": 400}}
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            r = run_cli_child("sweep-emax", "--config", cfg, "--seed", "42", "--out", str(out))
            assert r.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_workers_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, {"sweep": {"start_ns": 10, "stop_ns": 50, "step_ns": 10, "points": 400}}
        )
        out_1 = tmp_path / "w1.csv"
        out_4 = tmp_path / "w4.csv"
        r1 = run_cli_child("sweep-emax", "--config", cfg, "--seed", "42", "--workers", "1", "--out", str(out_1))
        r4 = run_cli_child("sweep-emax", "--config", cfg, "--seed", "42", "--workers", "4", "--out", str(out_4))
        assert r1.returncode == r4.returncode == 0
        assert out_1.read_bytes() == out_4.read_bytes()

    def test_error_map_rerun_identical(self, tmp_path):
        args = ("error-map", "--points", "200", "--transmissions", "3", "--seed", "7")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            r = run_cli_child(*args, "--out", str(out))
            assert r.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_summary_goes_to_stdout_with_out(self, tmp_path):
        out = tmp_path / "t.csv"
        r = run_cli_child("error-map", "--points", "100", "--transmissions", "2", "--seed", "1", "--out", str(out))
        assert r.returncode == 0
        assert "max error" in r.stdout
        assert out.read_text().startswith("x_m,y_m,max_error_m,failed_solves")

    def test_error_map_counter_overflow_exit_2(self):
        # An 8-bit counter at 40 ns wraps after 10 us, before the arrivals.
        r = run_cli_child("error-map", "--n-bits", "8", "--seed", "1")
        assert r.returncode == 2
        assert "counter-overflow" in r.stderr
        assert r.stdout == ""


class TestIOFailures:
    def test_missing_config_exit_3(self):
        r = run_cli("airtime", "--config", "/nonexistent/cfg.json")
        assert r.returncode == 3

    def test_unwritable_out_exit_3(self, tmp_path):
        r = run_cli("airtime", "--out", str(tmp_path / "no" / "such" / "dir" / "o.csv"))
        assert r.returncode == 3

    def test_invalid_json_config_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        r = run_cli("airtime", "--config", str(path))
        assert r.returncode == 1

    def test_unknown_flag_exit_1(self):
        r = run_cli("airtime", "--frequency", "868")
        assert r.returncode == 1
