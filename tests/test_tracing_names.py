"""The names the benchmark's tracer patches exist and carry the calls it times.

``perfbench/tracing.py`` records a span by replacing a name that a lorafix
module binds, so renaming one of those names, or calling around it, silently
drops a layer from the benchmark. This test runs the tracer in-process.
"""

import json
import sys
from pathlib import Path

from lorafix import cli, experiments, solver
from lorafix.geometry import Position, canonical_triangle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_tracer_sees_every_layer_and_restores_every_name(tmp_path, capsys):
    modules = (cli, experiments, solver)
    before = [dict(vars(m)) for m in modules]
    tri = canonical_triangle(10000.0)
    obs = solver.forward_toa(Position(500.0, 250.0), tri)
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.main(["solve", str(obs.t1), str(obs.t2), str(obs.t3)]) == 0
        out = str(tmp_path / "sweep.csv")
        argv = ["sweep-emax", "--seed", "1", "--points", "200", "--workers", "1", "--out", out]
        assert cli.main(argv) == 0
        # cmd_solve binds solve_analytic by name, out of the tracer's sight,
        # so the scalar routes are called through the solver module here.
        solver.solve_analytic(obs, tri)
        solver.solve_closed_form(obs, tri)
    finally:
        t.uninstall()
    capsys.readouterr()

    missing = {
        "cli.main",
        "experiments.sweep_emax",
        "solver.solve_closed_form_batch",
        "solver.forward_toa_batch",
        "geometry.sample_points_in_triangle",
        "solver.solve_analytic",
        "solver.solve_closed_form",
    } - {s.name for s in t.spans}
    assert not missing
    for m, saved in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in saved.items()), m.__name__


def test_tracer_counts_every_kernel_row(tmp_path, capsys):
    """The kernel solves through ``experiments.solve_closed_form_batch``, so the
    tracer sees every solved row: the sweep's 6 differential sign patterns per
    target and period, and the map's 8 per target and transmission."""
    n, periods, transmissions = 300, 3, 5
    out = str(tmp_path / "table.csv")
    cfg = tmp_path / "periods.json"
    cfg.write_text(json.dumps({"sweep": {"start_ns": 10.0, "stop_ns": 30.0, "step_ns": 10.0}}))
    sweep = ["sweep-emax", "--seed", "4", "--points", str(n), "--workers", "1",
             "--config", str(cfg), "--out", out]  # fmt: skip
    emap = ["error-map", "--seed", "4", "--points", str(n), "--transmissions",
            str(transmissions), "--workers", "1", "--out", out]  # fmt: skip
    for argv, rows in ((sweep, 6 * periods * n), (emap, 8 * transmissions * n)):
        t = tracing.Tracer()
        t.install()
        try:
            assert cli.main(argv) == 0
        finally:
            t.uninstall()
        got = sum(s.attrs["rows"] for s in t.spans if s.name == "solver.solve_closed_form_batch")
        assert got == rows, argv[0]
    capsys.readouterr()
