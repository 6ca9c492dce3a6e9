"""Acceptance gate: the eight contract-level checks, one printed line each.

Each test prints `[k/8] <name> ... PASS/FAIL (detail)` directly to the
terminal (bypassing pytest's capture) before asserting, so a full `pytest`
run always shows the verdict table.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

import lorafix
from lorafix import (
    CounterConfig,
    ErrorMapConfig,
    ErrorModelParams,
    NoRealRootError,
    Position,
    SweepConfig,
    ToAObservation,
    alpha_bounds,
    canonical_triangle,
    distance,
    error_map,
    forward_toa,
    forward_toa_batch,
    overflow_time,
    rtc_drift_error,
    sample_error,
    sample_points_in_triangle,
    solve_analytic,
    solve_closed_form,
    sweep_emax,
    time_on_air,
)
from lorafix.lora_phy import RadioParams

from _oracles import AIRTIME_ORACLE

TRI = canonical_triangle(10000.0)


def report(capfd, k, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        sys.stdout.write(f"[{k}/8] {name} ... {verdict} ({detail})\n")
        sys.stdout.flush()
    assert ok, f"{name}: {detail}"


def test_01_round_trip_exactness(capfd):
    n = 10_000
    rng = np.random.default_rng(1001)
    pts = sample_points_in_triangle(TRI, n, rng)
    t0s = rng.uniform(0.0, 1e-3, n)
    start = time.perf_counter()
    worst_pos = 0.0
    worst_t0 = 0.0
    for (x, y), t0 in zip(pts, t0s):
        p = Position(float(x), float(y))
        est = solve_analytic(forward_toa(p, TRI, float(t0)), TRI)
        worst_pos = max(worst_pos, distance(p, est.pos))
        worst_t0 = max(worst_t0, abs(est.t0_s - t0))
    elapsed = time.perf_counter() - start
    ok = worst_pos < 1e-6 and worst_t0 < 1e-12 and elapsed < 10.0
    report(
        capfd,
        1,
        "round-trip exactness",
        ok,
        f"worst pos {worst_pos:.2e} m, worst t0 {worst_t0:.2e} s, {elapsed:.1f} s for 1e4",
    )


def test_02_solver_route_equivalence(capfd):
    n = 10_000
    rng = np.random.default_rng(1002)
    pts = sample_points_in_triangle(TRI, n, rng)
    t0s = rng.uniform(0.0, 1e-3, n)
    clean = forward_toa_batch(pts, TRI, t0s)
    noise = rng.uniform(-100e-9, 100e-9, (n, 3))
    start = time.perf_counter()
    worst = {"noiseless": 0.0, "perturbed": 0.0}
    both_rejected = 0
    split_verdicts = 0
    for label, toas in (("noiseless", clean), ("perturbed", clean + noise)):
        for row in toas:
            obs = ToAObservation(*row)
            try:
                a = solve_analytic(obs, TRI)
            except NoRealRootError:
                a = None
            try:
                b = solve_closed_form(obs, TRI)
            except NoRealRootError:
                b = None
            if a is None or b is None:
                # A perturbation can push an observation outside the solvable
                # set (hyperbolas cease to intersect); the routes agree as
                # long as they reject it together.
                if a is None and b is None:
                    both_rejected += 1
                else:
                    split_verdicts += 1
                continue
            gap = math.hypot(a.pos.x - b.pos.x, a.pos.y - b.pos.y)
            worst[label] = max(worst[label], gap)
    elapsed = time.perf_counter() - start
    ok = (
        worst["noiseless"] < 1e-6
        and worst["perturbed"] < 1e-3
        and split_verdicts == 0
        and elapsed < 30.0
    )
    report(
        capfd,
        2,
        "dual solver routes agree",
        ok,
        f"noiseless {worst['noiseless']:.2e} m, perturbed {worst['perturbed']:.2e} m, "
        f"{both_rejected} jointly rejected, {split_verdicts} split verdicts, {elapsed:.1f} s",
    )


def test_03_worst_case_error_sweep(capfd):
    start = time.perf_counter()
    res = sweep_emax(SweepConfig(n_points=100_000, seed=0), workers=1)
    elapsed = time.perf_counter() - start
    i40 = int(np.argmin(np.abs(res.T_s - 40e-9)))
    e40 = float(res.e_max_m[i40])
    rho = float(stats.spearmanr(res.T_s, res.e_max_m).statistic)
    in_band = 18.75 * 0.85 <= e40 <= 18.75 * 1.15
    ok = in_band and rho > 0.99 and elapsed < 300.0
    report(
        capfd,
        3,
        "error-vs-period sweep",
        ok,
        f"e_max(40 ns) {e40:.2f} m (band 15.94..21.56), spearman {rho:.4f}, {elapsed:.0f} s",
    )


def test_04_spatial_error_map(capfd):
    start = time.perf_counter()
    res = error_map(ErrorMapConfig(n_points=7050, n_transmissions=23, seed=0), workers=1)
    elapsed = time.perf_counter() - start
    errs = np.asarray(res.max_error_m)
    g = TRI.as_array()
    d_vertex = np.min(
        np.hypot(res.points[:, 0, None] - g[None, :, 0], res.points[:, 1, None] - g[None, :, 1]),
        axis=1,
    )
    d_centroid = np.hypot(res.points[:, 0], res.points[:, 1])
    vertex_mean = float(errs[d_vertex < 1500.0].mean())
    centroid_mean = float(errs[d_centroid < 1500.0].mean())
    mx = float(np.max(errs))
    ok = 23.0 * 0.8 <= mx <= 23.0 * 1.2 and vertex_mean > centroid_mean and elapsed < 120.0
    report(
        capfd,
        4,
        "spatial error map",
        ok,
        f"max {mx:.2f} m (band 18.4..27.6), vertex mean {vertex_mean:.2f} > "
        f"centroid mean {centroid_mean:.2f}, {elapsed:.1f} s",
    )


def test_05_counter_arithmetic(capfd):
    ot = overflow_time(CounterConfig(n_bits=32, period_s=40e-9))
    drift = rtc_drift_error(5.0, 200.0)
    ok = abs(ot - 171.79) <= 0.01 and drift == 1e-3
    report(
        capfd,
        5,
        "counter arithmetic",
        ok,
        f"overflow {ot:.8f} s (target 171.79 +/- 0.01), drift {drift!r} == 0.001",
    )


def test_06_airtime_validity(capfd):
    bounds = alpha_bounds()
    contained = 0.20 <= bounds.tau_min_s and bounds.tau_max_s <= 3.80
    covers = bounds.tau_min_s - 0.05 <= 0.25 and 3.60 <= bounds.tau_max_s + 0.20
    worst = 0.0
    for sf, bw, pl, cr, n_pre, h, de, expected in AIRTIME_ORACLE:
        p = RadioParams(
            sf=sf,
            bw_hz=bw,
            cr=cr,
            payload_len=pl,
            n_preamble=n_pre,
            header_disabled=h,
            low_dr_opt=de,
        )
        worst = max(worst, abs(time_on_air(p) - expected))
    ok = contained and covers and worst < 1e-6
    report(
        capfd,
        6,
        "airtime validity",
        ok,
        f"bounds [{bounds.tau_min_s:.6f}, {bounds.tau_max_s:.6f}] s, "
        f"worst oracle gap {worst:.2e} s over {len(AIRTIME_ORACLE)} tuples",
    )


def test_07_error_distributions(capfd):
    ideal = ErrorModelParams()
    rng = np.random.default_rng(2718)
    xs = np.array([sample_error(ideal, 0, rng).rounding_s for _ in range(100_000)])
    p_value = float(stats.kstest(xs / ideal.counter.period_s, "uniform").pvalue)

    drifty = ErrorModelParams(sigma1_s=1e-12)
    rng = np.random.default_rng(2719)
    ds = np.array([sample_error(drifty, 1_000_000, rng).drift_s for _ in range(100_000)])
    std = float(np.std(ds))
    std_ok = abs(std - 1e-6) <= 0.02 * 1e-6
    ok = p_value > 0.001 and std_ok
    report(
        capfd,
        7,
        "error distributions",
        ok,
        f"KS p {p_value:.4f} > 0.001, drift std {std:.4e} s (target 1e-6 +/- 2%)",
    )


def _run_cli(*argv, workers):
    # The child imports the same lorafix as these tests, wherever it came from.
    src = os.path.dirname(os.path.dirname(lorafix.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "lorafix", *argv, "--workers", str(workers)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_08_cli_determinism(capfd, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"sweep": {"start_ns": 10, "stop_ns": 40, "step_ns": 10, "points": 2000}})
    )
    checks = []
    for name, argv in (
        ("sweep-emax", ("sweep-emax", "--config", str(cfg_path), "--seed", "42")),
        ("error-map", ("error-map", "--points", "1500", "--transmissions", "5", "--seed", "42")),
    ):
        outs = []
        for tag, workers in (("r1w1", 1), ("r2w1", 1), ("r1w4", 4)):
            out = tmp_path / f"{name}-{tag}.csv"
            r = _run_cli(*argv, "--out", str(out), workers=workers)
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        checks.append(outs[0] == outs[1] == outs[2])
    ok = all(checks)
    report(
        capfd,
        8,
        "stochastic CLI determinism",
        ok,
        f"sweep-emax identical={checks[0]}, error-map identical={checks[1]} "
        f"(rerun and workers 1 vs 4)",
    )
