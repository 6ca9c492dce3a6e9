"""lorafix benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-bigbatch --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; lorafix is imported from ``src/`` next
to this directory, never from an installed copy. A run

1. makes the workload's inputs from ``--seed`` and completes its warm-up call;
2. runs the closed loop for ``--seconds`` (``--trace 0``), or, traced, runs
   every operation twice, once with spans recorded (``--trace 1``; see
   ``tracing.py``), and reports the per-layer metrics of the traced copies;
3. checks the outputs (``Workload.check``), outside the timed region;
4. untraced only: measures ``setup_s`` and ``peak_rss_mb`` as medians over
   fresh interpreters that import lorafix and make the warm-up call
   (``probe.py``), one after each of ``SETUP_RUNS`` equal slices of the
   timed loop.

It prints the machine, every metric by name and unit, and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
It exits 1 if the correctness check fails, which also counts every operation
of the run as failed, and 2 if there is no lorafix source to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "solves_per_s": "solves/s",
    "fix_analytic_p50_us": "us",
    "fix_analytic_p99_us": "us",
    "fix_closed_p50_us": "us",
    "fix_closed_p99_us": "us",
    "alpha_bounds_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_BATCH = "solver.solve_closed_form_batch"
PER_LAYER = {
    f"{_BATCH}.calls": "count",
    f"{_BATCH}.rows": "count",
    f"{_BATCH}.s": "s",
    f"{_BATCH}.rows_per_s": "rows/s",
    f"{_BATCH}.us_per_call": "us",
    f"{_BATCH}.fail_rows": "count",
    f"{_BATCH}.bytes_io_computed": "bytes",
    "solver.forward_toa_batch.calls": "count",
    "solver.forward_toa_batch.rows": "count",
    "solver.forward_toa_batch.s": "s",
    "geometry.sample_points_in_triangle.s": "s",
    "solver.solve_analytic.calls": "count",
    "solver.solve_analytic.s": "s",
    "solver.solve_closed_form.calls": "count",
    "solver.solve_closed_form.s": "s",
    "experiments.sweep_emax.self_s": "s",
    "experiments.error_map.self_s": "s",
    "experiments.pool.wait_s": "s",
    "experiments.pool.worker_busy_max_s": "s",
    "experiments.pool.worker_busy_mean_s": "s",
    "experiments.pool.worker_spans": "count",
    "lora_phy.time_on_air.calls": "count",
    "lora_phy.time_on_air.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
    "solves_attempted": "count",
    "solves_failed": "count",
}

SETUP_RUNS = 7
PROBE_TIMEOUT_S = 60


def import_lorafix():
    """Import lorafix from this checkout's ``src/``; exit 2 if it is absent."""
    if not (SRC / "lorafix" / "__init__.py").is_file():
        print(f"perfbench: no lorafix source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lorafix

    if Path(lorafix.__file__).resolve().parent != SRC / "lorafix":
        print(f"perfbench: imported lorafix from {lorafix.__file__}", file=sys.stderr)
        sys.exit(2)


def machine(seed: int) -> dict:
    import numpy

    caches = {}
    try:
        for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            level = (d / "level").read_text().strip()
            if (d / "type").read_text().strip() in ("Unified", "Data") and level in ("2", "3"):
                caches[f"l{level}"] = (d / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def run_ops(w, indices, failures: list[str], until: float | None = None, between: bool = True) -> list[dict]:
    """Run operations in order; with ``until``, stop once that time has passed.

    With ``between``, the workload's untimed requests follow each operation.
    """
    ops = []
    for i in indices:
        try:
            op = w.op(i)
            if between:
                w.between(i)
        except Exception as e:  # a failed operation is counted, not fatal
            failures.append(f"operation {i}: {type(e).__name__}: {e}")
        else:
            ops.append(op)
        if until is not None and time.perf_counter() >= until:
            break
    return ops


def probe_setup(spec: dict, failures: list[str]) -> tuple[float, float | None]:
    """One fresh interpreter importing lorafix and warming up: its wall time
    (s) and the peak RSS of the probe plus its largest child (MiB), or None
    if the probe failed."""
    cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append(f"setup probe ran over {PROBE_TIMEOUT_S} s")
        return time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return dt, None
    return dt, json.loads(proc.stdout.splitlines()[-1])["rss_kib"] / 1024.0


def measure(w, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload object end to end; return the result document."""
    failures: list[str] = []
    spec = w.warmup_spec()
    probe.run_warmup(spec)
    if not trace:
        # The set-up probes run between equal slices of the timed loop, so
        # that they sample the whole run, not one moment of it. A probe's own
        # time does not count towards ``seconds``.
        ops, setup = [], []
        indices = itertools.count()
        for _ in range(setup_runs):
            ops += run_ops(w, indices, failures, until=time.perf_counter() + seconds / setup_runs)
            setup.append(probe_setup(spec, failures))
        attempted = len(ops) + len(failures)
    else:
        # Each operation runs twice, untraced and traced, in alternating
        # order, so that both sides see the same machine state.
        tracer = tracing.Tracer()
        plain, ops = [], []
        until = time.perf_counter() + seconds
        for i in itertools.count():
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    (ops if traced else plain).extend(run_ops(w, [i], failures, between=not traced))
                finally:
                    tracer.uninstall()
            if time.perf_counter() >= until:
                break
        attempted = 2 * (i + 1)
        layer = tracing.layer_metrics(tracer.spans)
        layer["trace.overhead_ratio"] = sum(op["s"] for op in ops) / sum(op["s"] for op in plain)
    try:
        problems = w.check()
    except Exception as e:
        problems = [f"check raised {type(e).__name__}: {e}"]

    solves = sum(op["solves"] for op in ops)
    rejected = sum(op["rejected"] for op in ops)
    if trace:
        metrics = dict(layer, fail_ratio=rejected / solves, solves_attempted=solves, solves_failed=rejected)
        units = PER_LAYER
    else:
        metrics = w.metrics(ops)
        metrics["setup_s"] = statistics.median([t for t, _ in setup])
        rss = [r for _, r in setup if r is not None]
        metrics["peak_rss_mb"] = statistics.median(rss) if rss else 0.0
        units = END_TO_END
    problems = failures + problems
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "problems": problems,
        "solves": (solves, rejected),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_lorafix()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    print("machine " + json.dumps(machine(args.seed)))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, tmp)
        res = measure(w, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            tmp.parent.rmdir()

    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    solves, rejected = res["solves"]
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {res['attempted']} operations, "
        f"{solves} solves attempted, {rejected} rejected as rootless"
    )
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
