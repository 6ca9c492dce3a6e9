"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_lorafix()

import tracing  # noqa: E402
import workloads  # noqa: E402
from lorafix import experiments, solver  # noqa: E402

SMALL = {
    "sweep-bigbatch": {"points": 2000, "sample_targets": 16},
    "map-pool": {"points": 300, "transmissions": 3, "sample_targets": 3},
    "interactive": {"pool": 64, "noiseless_checks": 16},
}


@pytest.fixture
def tmp(request):
    # Inside the checkout: the benchmark writes nowhere else.
    path = run.ROOT / ".perfbench_tmp" / f"test-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def small(name, tmp, seed=5):
    return workloads.WORKLOADS[name](seed, tmp, **SMALL[name])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_appears_with_its_unit(name, trace, tmp):
    res = run.measure(small(name, tmp), seconds=0.5, trace=trace, setup_runs=1)
    assert res["correct"], res["problems"]
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert list(res["metrics"]) == list(want)
    for metric, m in res["metrics"].items():
        assert m["unit"] == want[metric]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    json.dumps(res["metrics"], allow_nan=False)


def _shifted(batch_solve):
    def corrupted(toas, gws, *args, **kwargs):
        out = batch_solve(toas, gws, *args, **kwargs)
        return solver.BatchSolveResult(
            out.x + 0.01, out.y, out.t0_s, out.residual_m, out.root_index, out.ok
        )

    return corrupted


@pytest.mark.parametrize("name", list(SMALL))
def test_corrupted_solver_output_trips_the_gate(name, tmp, monkeypatch):
    # A 1 cm shift is ten times the route-agreement tolerance.
    monkeypatch.setattr(experiments, "solve_closed_form_batch", _shifted(solver.solve_closed_form_batch))
    monkeypatch.setattr(solver, "solve_closed_form_batch", _shifted(solver.solve_closed_form_batch))
    res = run.measure(small(name, tmp), seconds=0.3, trace=False, setup_runs=1)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert any("apart" in p or "analytic route" in p for p in res["problems"]), res["problems"]


def test_failed_gate_exits_nonzero_after_printing_the_result(tmp):
    # Cross-check with the whole pipeline in a child process, corrupted through
    # a wrapper script that patches the solver before running the benchmark.
    script = tmp / "corrupt_run.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "run.import_lorafix()\n"
        "from lorafix import solver\n"
        "orig = solver.solve_analytic\n"
        "def shifted(obs, gws, *a, **k):\n"
        "    est = orig(obs, gws, *a, **k)\n"
        "    return type(est)(type(est.pos)(est.pos.x + 1.0, est.pos.y), est.t0_s, est.residual_m, est.root_index)\n"
        "solver.solve_analytic = shifted\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "interactive", "--seed", "3", "--seconds", "0.3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_no_result_without_lorafix_source(tmp):
    bench = tmp / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive", "--seed", "0", "--seconds", "1"],
        cwd=tmp,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(SMALL))
def test_generator_starts_only_the_map_pool_workers(name, tmp, monkeypatch):
    w = small(name, tmp)
    w.op(0)  # warm-up outside the count
    forks, spawns = [], []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: spawns.append(a) or pytest.fail("Popen"))
    failures = []
    ops = run.run_ops(w, range(1, 4), failures)
    assert not failures and len(ops) == 3
    expected = 3 * w.WORKERS if name == "map-pool" else 0
    if multiprocessing.get_start_method() == "fork":
        assert len(forks) == expected
    assert not spawns
    # Every worker has been waited for: no child is left.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="worker spans need fork")
def test_map_pool_trace_has_worker_side_spans(tmp):
    w = small("map-pool", tmp)
    res = run.measure(w, seconds=0.5, trace=True, setup_runs=1)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert res["correct"], res["problems"]
    assert m["experiments.pool.worker_spans"] > 0
    assert m["solver.solve_closed_form_batch.calls"] > 0
    assert 0 < m["experiments.pool.worker_busy_mean_s"] <= m["experiments.pool.worker_busy_max_s"]
    assert m["experiments.pool.worker_busy_max_s"] <= m["experiments.pool.wait_s"]


def test_tracer_restores_every_name():
    from lorafix import cli

    before = (cli.main, experiments.solve_closed_form_batch, experiments.ProcessPoolExecutor)
    t = tracing.Tracer()
    t.install()
    assert cli.main is not before[0]
    t.uninstall()
    assert (cli.main, experiments.solve_closed_form_batch, experiments.ProcessPoolExecutor) == before


def test_alpha_oracle_matches_the_readme_airtime():
    # README: SF12, 125 kHz, CR 4/5, 51-byte payload -> 2.465792 s.
    assert float(workloads.airtime_exact(12, 125000, 1, 51)) == pytest.approx(2.465792, abs=1e-12)
    assert np.isclose(workloads.alpha_oracle(12)[1], float(workloads.airtime_exact(12, 125000, 4, 51)))


def test_probe_timeout_is_a_failed_operation(monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", hang)
    failures = []
    _, rss = run.probe_setup({"argv": []}, failures)
    assert rss is None and len(failures) == 1


def test_request_p99_ignores_a_slow_call_of_a_repeated_request():
    rng = np.random.default_rng(0)
    requests = list(range(1000)) * 5
    lat = list(rng.uniform(100e-6, 110e-6, len(requests)))
    steady = workloads.request_percentile_us(lat, requests, 99)
    assert 105 < steady < 110
    for k in range(0, len(lat), 51):  # 2% of calls slowed, each request at most once
        lat[k] = 1e-3
    assert workloads.percentile_us(lat, 99) == 1000.0
    assert workloads.request_percentile_us(lat, requests, 99) == pytest.approx(steady, abs=0.5)
    lat[:5000:1000] = [1e-3] * 5  # request 0 slow on every repeat
    assert workloads.request_percentile_us(lat, requests, 100) == 1000.0
