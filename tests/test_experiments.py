import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from lorafix import (
    DEFAULT_PL_CAPS,
    AlphaBounds,
    CounterConfig,
    CounterOverflowError,
    ErrorMapConfig,
    GatewayTriple,
    Position,
    SweepConfig,
    alpha_bounds,
    canonical_triangle,
    error_map,
    forward_toa_batch,
    sample_points_in_triangle,
    solve_closed_form_batch,
    sweep_emax,
)
from lorafix import experiments
from lorafix.error_model import SIGN_PATTERNS
from lorafix.experiments import _KERNEL_ROWS, _SWEEP_PATTERNS, _chunk_slices, _map_chunk, _t_grid
from lorafix.lora_phy import VALID_BW_HZ, RadioParams, low_dr_opt_auto, time_on_air
from lorafix.solver import DEFAULT_T0_FLOOR_S

from _oracles import ALPHA_ORACLE_MAX_S, ALPHA_ORACLE_MIN_S

SMALL_SWEEP = SweepConfig(T_range=(10e-9, 60e-9, 10e-9), n_points=400, seed=3)
SMALL_MAP = ErrorMapConfig(n_points=300, n_transmissions=4, seed=3)


def test_t_grid_default_range():
    grid = _t_grid((2.5e-9, 100e-9, 2.5e-9))
    assert len(grid) == 40
    assert grid[0] == pytest.approx(2.5e-9, rel=1e-12)
    assert grid[-1] == pytest.approx(100e-9, rel=1e-12)


def test_chunk_slices_cover_range():
    for n, w in [(10, 3), (7, 7), (5, 9), (100, 4)]:
        slices = _chunk_slices(n, w)
        idx = np.concatenate([np.arange(n)[s] for s in slices])
        assert np.array_equal(idx, np.arange(n))
        assert all(s.stop > s.start for s in slices)


def test_chunk_slices_capped_at_cpu_count():
    # Only the slicing is exercised: no process is started.
    slices = _chunk_slices(10**7, 10**6)
    assert len(slices) == min(10**6, os.cpu_count() or 1)
    assert slices[0].start == 0 and slices[-1].stop == 10**7


@pytest.mark.parametrize("workers", [0, -3])
def test_chunk_slices_reject_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        _chunk_slices(10, workers)


def test_kernel_shared_magnitudes_match_broadcast():
    """One (1, K, 1) magnitude set per T gives the bits of its (n, K, 3) copy."""
    gws = canonical_triangle(10000.0)
    pts = sample_points_in_triangle(gws, 300, np.random.default_rng(8))
    t_clean = forward_toa_batch(pts, gws)
    T_values = _t_grid((10e-9, 40e-9, 10e-9))
    shared = _map_chunk(pts, t_clean, T_values[None, :, None], SIGN_PATTERNS, gws)
    full = _map_chunk(
        pts, t_clean, np.broadcast_to(T_values[None, :, None], (300, 4, 3)), SIGN_PATTERNS, gws
    )
    assert shared[0].shape == shared[1].shape == (4, 300)
    assert np.array_equal(shared[0], full[0])
    assert np.array_equal(shared[1], full[1])
    pooled = _map_chunk(pts, t_clean, T_values[None, :, None], SIGN_PATTERNS, gws, False)
    assert np.array_equal(pooled[0], shared[0].max(axis=0, keepdims=True))
    assert np.array_equal(pooled[1], shared[1].sum(axis=0, keepdims=True))


def _per_pattern_kernel(pts, t_clean, mags, signs, gws, per_set=True):
    """Reference kernel: one solver call over every target per (set, sign pattern)."""
    n_sets = mags.shape[1]
    shape = (n_sets if per_set else 1, pts.shape[0])
    worst = np.full(shape, -np.inf)
    fails = np.zeros(shape, dtype=np.int64)
    for k in range(n_sets):
        row = k if per_set else 0
        for s in signs:
            out = solve_closed_form_batch(t_clean + s[None, :] * mags[:, k, :], gws)
            err = np.where(out.ok, np.hypot(out.x - pts[:, 0], out.y - pts[:, 1]), -np.inf)
            np.maximum(worst[row], err, out=worst[row])
            fails[row] += ~out.ok
    return worst, fails


def _kernel_cases(signs, prefix, cases):
    return [pytest.param(signs, *c, id=prefix + "-".join(map(str, c))) for c in cases]


@pytest.mark.parametrize(
    "signs, diameter_m, n, n_sets",
    [
        *_kernel_cases(
            SIGN_PATTERNS,
            "",
            [
                (10000.0, 300, 4),  # 256-target blocks, the last one partial
                (10000.0, 5, 513),  # 8 K rows of two targets exceed a block, so one per block
                (10000.0, 5, _KERNEL_ROWS // 8 + 1),  # one target's 8 K rows exceed a block
                (0.01, 200, 3),  # a 1 cm cell, where solves fail
            ],
        ),
        # The sweep's 6 patterns: the block is sized from 6 K rows.
        *_kernel_cases(
            _SWEEP_PATTERNS,
            "6-",
            [
                (10000.0, 400, 4),  # 341-target blocks, the last one partial
                (10000.0, 5, 513),  # two targets per block, the last one partial
                (10000.0, 5, _KERNEL_ROWS // 6 + 1),  # one target's 6 K rows exceed a block
                (0.01, 200, 3),
            ],
        ),
    ],
)
@pytest.mark.parametrize("per_set", [True, False])
@pytest.mark.parametrize("shared", [True, False])
def test_kernel_matches_per_pattern_loop(signs, diameter_m, n, n_sets, per_set, shared):
    gws = canonical_triangle(diameter_m)
    rng = np.random.default_rng(12)
    pts = sample_points_in_triangle(gws, n, rng)
    t_clean = forward_toa_batch(pts, gws)
    if shared:
        mags = np.linspace(10e-9, 60e-9, n_sets)[None, :, None]
    else:
        mags = rng.random((n, n_sets, 3)) * 40e-9
    block = max(1, _KERNEL_ROWS // (len(signs) * n_sets))
    assert block == 1 or n % block
    got = _map_chunk(pts, t_clean, mags, signs, gws, per_set)
    want = _per_pattern_kernel(pts, t_clean, mags, signs, gws, per_set)
    assert got[0].shape == want[0].shape == (n_sets if per_set else 1, n)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    if diameter_m < 1.0 and not shared:
        # Equal shifts on all three gateways still give real roots here; the
        # drawn magnitudes leave most hyperbola pairs without an intersection.
        assert want[1].sum() > 0


@pytest.mark.parametrize("diameter_m", [0.01, 10000.0, 1e6])
@pytest.mark.parametrize("seed", [0, 7, 401])
def test_sweep_patterns_match_all_eight(diameter_m, seed):
    """On the default period grid, the sweep's 6 patterns give the worst cases
    and failure counts of all 8, bit for bit: (+,+,+) and (-,-,-) only move t0."""
    gws = canonical_triangle(diameter_m)
    pts = sample_points_in_triangle(gws, 1000, np.random.default_rng(seed))
    t_clean = forward_toa_batch(pts, gws)
    mags = _t_grid(SweepConfig().T_range)[None, :, None]
    got = _map_chunk(pts, t_clean, mags, _SWEEP_PATTERNS, gws)
    want = _per_pattern_kernel(pts, t_clean, mags, SIGN_PATTERNS, gws)
    assert got[0].shape == (40, 1000)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# Non-canonical deployments: scalene, off the origin, from 40 m to 38 km across.
COMMON_MODE_TRIANGLES = [
    ((0.0, 0.0), (7300.0, 0.0), (2100.0, 4800.0)),
    ((1.2e5, -3.4e4), (1.23e5, -3.3e4), (1.21e5, -3.1e4)),
    ((0.0, 0.0), (40.0, 5.0), (12.0, 30.0)),
    ((-2.0e4, 5.0e3), (1.5e4, -1.0e4), (3.0e3, 2.6e4)),
]


def _common_mode_rows(verts, seed, T):
    """Clean arrivals, their fixes, and the (+,+,+) and (-,-,-) solves at period T."""
    gws = GatewayTriple(*(Position(*v) for v in verts))
    pts = sample_points_in_triangle(gws, 500, np.random.default_rng(seed))
    t_clean = forward_toa_batch(pts, gws)
    base = solve_closed_form_batch(t_clean, gws)
    rows = {sign: solve_closed_form_batch(t_clean + sign * T, gws) for sign in (1.0, -1.0)}
    return t_clean, base, rows


@pytest.mark.parametrize("seed, verts", list(enumerate(COMMON_MODE_TRIANGLES)))
def test_common_mode_patterns_only_move_t0(seed, verts):
    """Why the sweep skips (+,+,+) and (-,-,-): below 1 us they give the
    unperturbed fix, with the whole shift absorbed by t0 = +/-T."""
    assert [tuple(r) for r in SIGN_PATTERNS[[0, 7]]] == [(1.0,) * 3, (-1.0,) * 3]
    for T in (2.5e-9, 40e-9, 100e-9, 900e-9):
        t_clean, base, rows = _common_mode_rows(verts, seed, T)
        assert base.ok.all()
        rounding = 64 * np.finfo(float).eps * (t_clean.max() + T)
        for sign, out in rows.items():
            assert out.ok.all()
            assert np.hypot(out.x - base.x, out.y - base.y).max() <= 1e-6, (T, sign)
            assert np.abs(out.t0_s - sign * T).max() <= rounding, (T, sign)


@pytest.mark.parametrize("seed, verts", list(enumerate(COMMON_MODE_TRIANGLES)))
def test_common_mode_identity_stops_at_the_t0_floor(seed, verts):
    """At T >= 1 us the (-,-,-) root's t0 = -T is below the solver's t0 floor:
    a ghost root above the floor wins, or the pick falls back below the floor."""
    T = 1.5e-6
    assert -T < DEFAULT_T0_FLOOR_S
    _, base, rows = _common_mode_rows(verts, seed, T)
    plus, minus = rows[1.0], rows[-1.0]
    assert np.hypot(plus.x - base.x, plus.y - base.y).max() <= 1e-6
    moved = np.hypot(minus.x - base.x, minus.y - base.y)
    assert np.all((moved > 1.0) | (minus.t0_s < DEFAULT_T0_FLOOR_S))
    assert np.any(moved > 1.0)


class TestSweepEmax:
    def test_shapes_and_positivity(self):
        res = sweep_emax(SMALL_SWEEP)
        assert res.T_s.shape == res.e_max_m.shape == res.sigma_m.shape
        assert len(res.T_s) == 6
        assert np.all(res.e_max_m > 0)
        assert np.all(res.sigma_m > 0)

    def test_monotone_in_period(self):
        res = sweep_emax(SMALL_SWEEP)
        assert stats.spearmanr(res.T_s, res.e_max_m).statistic > 0.99

    def test_error_linear_in_period(self):
        res = sweep_emax(SweepConfig(T_range=(40e-9, 80e-9, 40e-9), n_points=2000, seed=4))
        assert res.e_max_m[1] / res.e_max_m[0] == pytest.approx(2.0, rel=0.1)

    def test_vanishing_period(self):
        res = sweep_emax(SweepConfig(T_range=(1e-15, 1e-15, 1e-15), n_points=200, seed=5))
        assert res.e_max_m[0] < 1e-4

    def test_deterministic(self):
        a = sweep_emax(SMALL_SWEEP)
        b = sweep_emax(SMALL_SWEEP)
        assert np.array_equal(a.e_max_m, b.e_max_m)
        assert np.array_equal(a.sigma_m, b.sigma_m)

    def test_worker_count_does_not_change_results(self):
        """Identical bits regardless of process parallelism."""
        base = sweep_emax(SMALL_SWEEP, workers=1)
        for w in (2, 4):
            par = sweep_emax(SMALL_SWEEP, workers=w)
            assert np.array_equal(base.e_max_m, par.e_max_m)
            assert np.array_equal(base.sigma_m, par.sigma_m)
            assert np.array_equal(base.failed_solves, par.failed_solves)

    def test_spread_needs_two_finite_targets(self):
        # One target has a worst case but no spread. At 1e300 m every solve
        # overflows, so no target has a worst case either: 10 targets, 6
        # solved sign patterns each.
        one = sweep_emax(SweepConfig(T_range=(40e-9, 40e-9, 1e-9), n_points=1, seed=1))
        assert np.isfinite(one.e_max_m[0]) and np.isnan(one.sigma_m[0])
        huge = SweepConfig(
            T_range=(40e-9, 40e-9, 1e-9), n_points=10, seed=1, gws=canonical_triangle(1e300)
        )
        none = sweep_emax(huge)
        assert np.isnan(none.e_max_m[0]) and np.isnan(none.sigma_m[0])
        assert none.failed_solves[0] == 60

    def test_stop_below_start_rejected(self):
        with pytest.raises(ValueError, match="below its start"):
            SweepConfig(T_range=(20e-9, 10e-9, 2.5e-9))
        # A start at or below zero would put non-positive periods on the grid.
        for start in (-5e-9, 0.0):
            with pytest.raises(ValueError, match="start must be positive"):
                SweepConfig(T_range=(start, 5e-9, 5e-9))

    def test_non_integer_counts_and_seeds_rejected(self):
        # Whole floats would only fail later, inside numpy or the seeding.
        cases = [
            (SweepConfig, "n_points", 100.0),
            (SweepConfig, "n_points", True),
            (ErrorMapConfig, "n_points", 50.0),
            (ErrorMapConfig, "n_transmissions", 2.0),
        ] + [(c, "seed", s) for c in (SweepConfig, ErrorMapConfig) for s in (2.0, 1.5)]
        for cfg, name, value in cases:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                cfg(**{name: value})
        for cfg in (SweepConfig, ErrorMapConfig):
            with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
                cfg(seed=-1)
            assert cfg(n_points=np.int64(5), seed=np.uint32(3)).seed == 3

    def test_infinite_period_count_rejected(self):
        # 1e300 ns in steps of 1e-300 ns (a subnormal 1e-309 s) is inf periods,
        # which no grid can hold.
        with pytest.raises(ValueError, match="no finite period count"):
            SweepConfig(T_range=(2.5e-9, 1e300 * 1e-9, 1e-300 * 1e-9))


class TestErrorMap:
    def test_shapes(self):
        res = error_map(SMALL_MAP)
        assert res.points.shape == (300, 2)
        assert res.max_error_m.shape == (300,)
        assert np.all(np.isfinite(res.max_error_m))
        assert np.all(res.max_error_m >= 0)
        assert int(np.sum(res.failed_solves)) == 0

    def test_deterministic(self):
        a = error_map(SMALL_MAP)
        b = error_map(SMALL_MAP)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.max_error_m, b.max_error_m)

    def test_worker_count_does_not_change_results(self):
        base = error_map(SMALL_MAP, workers=1)
        for w in (2, 4):
            par = error_map(SMALL_MAP, workers=w)
            assert np.array_equal(base.points, par.points)
            assert np.array_equal(base.max_error_m, par.max_error_m)

    def test_tiny_period_gives_tiny_errors(self):
        # 64 bits keep the counter span above the flight time at T = 1 fs.
        cfg = ErrorMapConfig(counter=CounterConfig(64, 1e-15), n_points=100, n_transmissions=2, seed=6)
        res = error_map(cfg)
        assert float(np.max(res.max_error_m)) < 1e-4

    def test_counter_span_guard(self):
        # An 8-bit counter at 40 ns wraps after ~10 us, shorter than the
        # flight time across a 10 km cell: the map must refuse to run.
        cfg = ErrorMapConfig(counter=CounterConfig(8, 40e-9), n_points=50, n_transmissions=2, seed=7)
        with pytest.raises(ValueError):
            error_map(cfg)

    def test_counter_span_guard_allows_one_period(self):
        # A 4-bit span of 16 T: the latest clean arrival t_max fits at
        # T = t_max / 15.5, but t_max + T does not; at T = t_max / 14.5 both fit.
        cfg = ErrorMapConfig(n_points=50, n_transmissions=2, seed=7)
        pts = sample_points_in_triangle(cfg.gws, cfg.n_points, np.random.default_rng(cfg.seed))
        t_max = float(forward_toa_batch(pts, cfg.gws, 0.0).max())
        with pytest.raises(CounterOverflowError):
            error_map(replace(cfg, counter=CounterConfig(4, t_max / 15.5)))
        fits = replace(cfg, counter=CounterConfig(4, t_max / 14.5))
        assert error_map(fits).points.shape == (50, 2)


def _swept_alpha_bounds(sf=12, pl_caps=None, cr_range=(1, 2, 3, 4), n_preamble=8):
    """Reference: every (bandwidth, coding rate, payload) in sweep order."""
    caps = DEFAULT_PL_CAPS if pl_caps is None else pl_caps
    best_min = None
    best_max = None
    for bw in sorted(caps):
        de = low_dr_opt_auto(sf, bw)
        for cr in cr_range:
            for pl in range(1, caps[bw] + 1):
                p = RadioParams(sf, bw, cr, pl, n_preamble, 0, de)
                tau = time_on_air(p)
                if best_min is None or tau < best_min[0]:
                    best_min = (tau, p)
                if best_max is None or tau > best_max[0]:
                    best_max = (tau, p)
    if best_min is None:
        raise ValueError("empty")
    return AlphaBounds(best_min[0], best_max[0], best_min[1], best_max[1])


class TestAlphaBounds:
    def test_matches_independent_sweep(self):
        res = alpha_bounds()
        assert res.tau_min_s == pytest.approx(ALPHA_ORACLE_MIN_S, abs=1e-9)
        assert res.tau_max_s == pytest.approx(ALPHA_ORACLE_MAX_S, abs=1e-9)

    def test_extreme_configurations(self):
        res = alpha_bounds()
        assert (res.argmin.bw_hz, res.argmin.cr, res.argmin.payload_len) == (500000, 1, 1)
        assert res.argmin.low_dr_opt == 0
        assert (res.argmax.bw_hz, res.argmax.cr, res.argmax.payload_len) == (125000, 4, 51)
        assert res.argmax.low_dr_opt == 1
        assert res.argmax.sf == 12

    def test_single_point_design_space(self):
        res = alpha_bounds(pl_caps={125000: 1}, cr_range=(1,))
        assert res.tau_min_s == res.tau_max_s
        assert res.argmin == res.argmax

    def test_bw_subset(self):
        res = alpha_bounds(pl_caps={125000: 51})
        assert res.argmin.bw_hz == 125000
        assert res.tau_max_s == pytest.approx(ALPHA_ORACLE_MAX_S, abs=1e-9)
        assert res.tau_min_s > ALPHA_ORACLE_MIN_S

    def test_matches_full_sweep_on_random_designs(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            bws = [bw for bw in VALID_BW_HZ if rng.random() < 0.7] or [125000]
            kwargs = dict(
                sf=int(rng.integers(7, 13)),
                pl_caps={bw: int(rng.integers(1, 256)) for bw in bws},
                cr_range=tuple(int(cr) for cr in rng.permutation(4)[: rng.integers(1, 5)] + 1),
                n_preamble=int(rng.integers(1, 21)),
            )
            res = alpha_bounds(**kwargs)
            assert res == _swept_alpha_bounds(**kwargs), kwargs
            assert res.tau_min_s == time_on_air(res.argmin)
            assert res.tau_max_s == time_on_air(res.argmax)

    def test_at_most_two_airtime_calls_per_query(self, monkeypatch):
        # The extremes come from integer symbol counts; the public formula is
        # evaluated once for each configuration returned.
        calls = []

        def counted(params):
            calls.append(params)
            return time_on_air(params)

        monkeypatch.setattr(experiments, "time_on_air", counted)
        for sf in range(7, 13):
            for caps in (None, {125000: 255}, {250000: 1, 500000: 200}):
                calls.clear()
                alpha_bounds(sf=sf, pl_caps=caps)
                assert len(calls) <= 2, (sf, caps)

    # Per bandwidth in order, the full sweep checks sf and the bandwidth, then
    # each coding rate at pl = 1, which names a bad preamble before a bad cap,
    # then the cap; the first failing check names its field.
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sf": 13}, "sf must be in 7..12, got 13"),
            ({"pl_caps": {125000: 51, 200000: 51}}, f"bw_hz must be one of {VALID_BW_HZ}, got 200000"),
            ({"pl_caps": {125000: 300}}, "payload_len must be in 0..255, got 300"),
            ({"cr_range": (1, 5)}, "cr must be in 1..4, got 5"),
            ({"n_preamble": 0}, "n_preamble must be >= 1, got 0"),
            ({"pl_caps": {125000: 300}, "cr_range": (5, 1)}, "cr must be in 1..4, got 5"),
            ({"pl_caps": {125000: 300}, "cr_range": (1, 5)}, "payload_len must be in 0..255, got 300"),
            ({"pl_caps": {125000: 300}, "n_preamble": 0}, "n_preamble must be >= 1, got 0"),
            ({"pl_caps": {125000: 51, 250000: 300}}, "payload_len must be in 0..255, got 300"),
            ({"pl_caps": {125000: 51, 250000: 300}, "cr_range": (2, 9)}, "cr must be in 1..4, got 9"),
            ({"sf": 6, "pl_caps": {125000: 0, 250000: 5}}, "sf must be in 7..12, got 6"),
        ],
    )
    def test_invalid_input_names_the_sweeps_first_bad_field(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            alpha_bounds(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kwargs", [{"cr_range": range(4, 2)}, {"pl_caps": {}}, {"pl_caps": {125000: 0}}]
    )
    def test_empty_design_space_rejected(self, kwargs):
        with pytest.raises(ValueError, match="cross product is empty"):
            alpha_bounds(**kwargs)

    def test_default_caps(self):
        assert DEFAULT_PL_CAPS == {125000: 51, 250000: 51, 500000: 33}
