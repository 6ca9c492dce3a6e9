import math
import warnings

import numpy as np
import pytest

from lorafix import (
    SPEED_OF_LIGHT,
    GatewayTriple,
    LocalizationEstimate,
    NoRealRootError,
    Position,
    ToAObservation,
    canonical_triangle,
    forward_toa,
    forward_toa_batch,
    sample_points_in_triangle,
    solve_analytic,
    solve_closed_form,
    solve_closed_form_batch,
)
from lorafix import solver
from lorafix.geometry import contains
from lorafix.solver import (
    _NEG_DISC_RTOL,
    _T0_CLAMP_S,
    DEFAULT_T0_FLOOR_S,
    BatchSolveResult,
    _pick,
    _prefer,
    _rms_residual,
)

from _oracles import LATE_ROOTLESS_GATEWAYS, LATE_ROOTLESS_OBS, NO_REAL_ROOT_OBS

TRI = canonical_triangle(10000.0)


def _random_interior(n, seed):
    return sample_points_in_triangle(TRI, n, np.random.default_rng(seed))


def _random_triangle(rng, size, min_angle_deg):
    """(3, 2) vertices: a unit base and an apex with every angle at least
    ``min_angle_deg``, scaled by ``size`` and rotated at random."""
    lo = math.radians(min_angle_deg)
    a = rng.uniform(lo, math.pi - 2.0 * lo)
    b = rng.uniform(lo, math.pi - lo - a)
    side = math.sin(b) / math.sin(a + b)
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [side * math.cos(a), side * math.sin(a)]])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return unit @ rot.T * size


def _triple(verts):
    return GatewayTriple(*(Position(float(x), float(y)) for x, y in verts))


def _tie_window(t_max):
    """Residuals closer than this tie: 1 nm plus 1024 eps of c * t_max."""
    return 1e-9 + 1024 * 2.0**-52 * (SPEED_OF_LIGHT * t_max)


def _reference_batch(toas, gws):
    """Reference batch solve: the root-per-column (n, 2) layout with
    ``np.hypot`` ranges, in absolute coordinates. Scores the raw t0 and
    snaps only the reported one at 1 ps."""
    c = SPEED_OF_LIGHT
    t = np.asarray(toas, dtype=float)
    g = gws.as_array()
    a1, b1 = g[0]
    a2, b2 = g[1]
    a3, b3 = g[2]

    A21, B21 = 2.0 * (a2 - a1), 2.0 * (b2 - b1)
    A31, B31 = 2.0 * (a3 - a1), 2.0 * (b3 - b1)
    D = A21 * B31 - A31 * B21

    d21 = c * (t[:, 1] - t[:, 0])
    d31 = c * (t[:, 2] - t[:, 0])
    k2 = (a2 * a2 + b2 * b2) - (a1 * a1 + b1 * b1)
    k3 = (a3 * a3 + b3 * b3) - (a1 * a1 + b1 * b1)
    p2 = k2 - d21 * d21
    p3 = k3 - d31 * d31

    xc = (p2 * B31 - p3 * B21) / D
    xl = (-2.0 * d21 * B31 + 2.0 * d31 * B21) / D
    yc = (A21 * p3 - A31 * p2) / D
    yl = (-2.0 * d31 * A21 + 2.0 * d21 * A31) / D

    fx = xc - a1
    fy = yc - b1
    qa = xl * xl + yl * yl - 1.0
    qb = 2.0 * (fx * xl + fy * yl)
    qc = fx * fx + fy * fy

    qb2 = qb * qb
    qac4 = 4.0 * qa * qc
    disc = qb2 - qac4
    graze_tol = _NEG_DISC_RTOL * np.maximum(qb2, np.abs(qac4))
    no_root = disc < -graze_tol
    disc = np.where(disc < 0.0, 0.0, disc)
    sq = np.sqrt(disc)
    q = -0.5 * (qb + np.copysign(sq, qb))
    d1 = np.empty((t.shape[0], 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(q, qa, out=d1[:, 0])
        np.divide(qc, q, out=d1[:, 1])

    x = xc[:, None] + xl[:, None] * d1
    y = yc[:, None] + yl[:, None] * d1
    t0 = t[:, 0][:, None] - d1 / c

    with np.errstate(invalid="ignore"):
        ssq = np.zeros_like(d1)
        for j in range(3):
            r = np.hypot(x - g[j, 0], y - g[j, 1])
            r -= c * (t[:, j][:, None] - t0)
            ssq += r * r
        res = np.sqrt(ssq / 3.0)
    bad_cand = ~np.isfinite(res)
    res[bad_cand] = np.inf

    passes = (t0 >= DEFAULT_T0_FLOOR_S) & ~bad_cand
    any_pass = passes[:, 0] | passes[:, 1]
    eff = np.where(passes | ~any_pass[:, None], res, np.inf)
    eff0, eff1 = eff[:, 0], eff[:, 1]

    pick = eff1 < eff0
    t_max = np.maximum(np.maximum(np.abs(t[:, 0]), np.abs(t[:, 1])), np.abs(t[:, 2]))
    tie = np.isfinite(eff0) & np.isfinite(eff1) & (np.abs(eff0 - eff1) < _tie_window(t_max))
    rows = np.flatnonzero(tie)
    if rows.size:
        cx = g[:, 0].mean()
        cy = g[:, 1].mean()
        xt, yt = x[rows], y[rows]
        with np.errstate(invalid="ignore"):
            in0 = contains(gws, (xt[:, 0], yt[:, 0]))
            in1 = contains(gws, (xt[:, 1], yt[:, 1]))
            cd0 = np.hypot(xt[:, 0] - cx, yt[:, 0] - cy)
            cd1 = np.hypot(xt[:, 1] - cx, yt[:, 1] - cy)
        better1 = (in1 & ~in0) | ((in1 == in0) & (cd1 < cd0))
        better0 = (in0 & ~in1) | ((in0 == in1) & (cd0 < cd1))
        pick[rows] = np.where(better0, False, better1 | pick[rows])

    sel_res = np.where(pick, eff1, eff0)
    ok = np.isfinite(sel_res) & ~no_root
    nan = np.where(ok, 0.0, np.nan)
    sel_t0 = np.where(pick, t0[:, 1], t0[:, 0])
    return BatchSolveResult(
        x=np.where(pick, x[:, 1], x[:, 0]) + nan,
        y=np.where(pick, y[:, 1], y[:, 0]) + nan,
        t0_s=np.where(np.abs(sel_t0) < _T0_CLAMP_S, 0.0, sel_t0) + nan,
        residual_m=sel_res + nan,
        root_index=pick.astype(np.int8),
        ok=ok,
    )


class TestForwardModel:
    def test_center_is_equidistant(self):
        obs = forward_toa(Position(0.0, 0.0), TRI)
        expected = 5000.0 / SPEED_OF_LIGHT
        assert obs.t1 == pytest.approx(expected, rel=1e-12)
        assert obs.t2 == pytest.approx(expected, rel=1e-12)
        assert obs.t3 == pytest.approx(expected, rel=1e-12)

    def test_emission_time_shifts_all(self):
        p = Position(1000.0, 500.0)
        a = forward_toa(p, TRI)
        b = forward_toa(p, TRI, t0_s=1e-3)
        for d in (b.t1 - a.t1, b.t2 - a.t2, b.t3 - a.t3):
            assert d == pytest.approx(1e-3, abs=1e-17)

    def test_negative_emission_rejected(self):
        with pytest.raises(ValueError):
            forward_toa(Position(0.0, 0.0), TRI, t0_s=-1e-9)
        with pytest.raises(ValueError):
            forward_toa_batch(np.zeros((2, 2)), TRI, t0_s=np.array([0.0, -1e-9]))
        for t0 in (np.nan, np.array([0.0, np.nan])):
            with pytest.raises(ValueError):
                forward_toa_batch(np.zeros((2, 2)), TRI, t0_s=t0)

    def test_batch_matches_scalar(self):
        pts = _random_interior(50, 71)
        t0s = np.linspace(0.0, 1e-3, 50)
        batch = forward_toa_batch(pts, TRI, t0s)
        assert batch.shape == (50, 3)
        for i in range(50):
            obs = forward_toa(Position(*pts[i]), TRI, float(t0s[i]))
            assert np.array_equal(batch[i], [obs.t1, obs.t2, obs.t3])

    def test_batch_matches_scalar_across_seeds(self):
        """The check above on seeds 0-199, then on a triangle 4000 km off the
        origin with targets out to 1.7x its size and emissions up to 171 s:
        45 000 arrival times, each the batch's bits."""
        t0s = np.linspace(0.0, 1e-3, 50)
        cases = [(_random_interior(50, seed), TRI, t0s) for seed in range(200)]
        rng = np.random.default_rng(30)
        far = _triple(_random_triangle(rng, 10000.0, 15.0) + 4e6)
        centre = far.as_array().mean(axis=0)
        for seed in range(100):
            pts = sample_points_in_triangle(far, 50, np.random.default_rng(seed))
            cases.append((centre + 1.7 * (pts - centre), far, rng.uniform(0.0, 171.0, 50)))
        for pts, gws, t0s in cases:
            batch = forward_toa_batch(pts, gws, t0s)
            for p, t0, row in zip(pts, t0s, batch):
                obs = forward_toa(Position(*p), gws, float(t0))
                assert np.array_equal(row, [obs.t1, obs.t2, obs.t3])

    def test_batch_matches_broadcast_formula(self):
        """Column by column, the batch gives the bits of the (n, 3) broadcast
        t0 + hypot(dx, dy) / c, with a scalar and a per-point t0."""
        c = SPEED_OF_LIGHT
        rng = np.random.default_rng(2502)
        for gws in (TRI, _triple(_random_triangle(rng, 300.0, 15.0) + 4e4)):
            g = gws.as_array()
            for seed in range(5):
                pts = sample_points_in_triangle(gws, 2000, np.random.default_rng(seed)) * 1.5
                d = np.hypot(pts[:, None, 0] - g[None, :, 0], pts[:, None, 1] - g[None, :, 1])
                t0s = rng.uniform(0.0, 171.0, 2000)
                for t0, want in ((0.25, 0.25 + d / c), (t0s, t0s[:, None] + d / c)):
                    got = forward_toa_batch(pts, gws, t0)
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, want)


def test_toa_observation_validation():
    with pytest.raises(ValueError):
        ToAObservation(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        ToAObservation(0.0, math.inf, 0.0)


def test_estimate_validation():
    with pytest.raises(ValueError):
        LocalizationEstimate(Position(0.0, 0.0), 0.0, -1.0, 0)


class TestRoundTrip:
    def test_analytic_recovers_position_and_emission(self):
        """Noise-free invert-the-forward-model across random interior points."""
        pts = _random_interior(2000, 72)
        t0s = np.random.default_rng(73).uniform(0.0, 1e-3, 2000)
        for (x, y), t0 in zip(pts, t0s):
            p = Position(float(x), float(y))
            est = solve_analytic(forward_toa(p, TRI, float(t0)), TRI)
            assert distance(p, est.pos) < 1e-6
            assert abs(est.t0_s - t0) < 1e-14
            assert est.root_index in (0, 1)

    def test_closed_form_recovers_position_and_emission(self):
        pts = _random_interior(2000, 74)
        t0s = np.random.default_rng(75).uniform(0.0, 1e-3, 2000)
        for (x, y), t0 in zip(pts, t0s):
            p = Position(float(x), float(y))
            est = solve_closed_form(forward_toa(p, TRI, float(t0)), TRI)
            assert distance(p, est.pos) < 1e-6
            assert abs(est.t0_s - t0) < 1e-14

    def test_zero_emission_time_is_exact_zero(self):
        # Sub-picosecond numerical residue on t0 is clamped to a clean zero.
        for (x, y) in _random_interior(100, 76):
            obs = forward_toa(Position(float(x), float(y)), TRI, 0.0)
            assert solve_closed_form(obs, TRI).t0_s == 0.0
            assert solve_analytic(obs, TRI).t0_s == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_emission_snap_leaves_the_residual(self, seed):
        """Candidates are scored before the 1 ps snap of the reported t0, so a
        noisy fix emitted at t0 = 0 keeps the sub-nm residual it has when
        emitted later, on the batch and on both scalar routes."""
        rng = np.random.default_rng(seed)
        toas = forward_toa_batch(sample_points_in_triangle(TRI, 20_000, rng), TRI)
        toas += rng.uniform(-40e-9, 40e-9, toas.shape)
        out = solve_closed_form_batch(toas, TRI)
        assert out.residual_m[out.ok].max() < 1e-9
        for row in toas[out.ok & (out.t0_s == 0.0)].tolist():
            for route in (solve_analytic, solve_closed_form):
                assert route(ToAObservation(*row), TRI).residual_m < 1e-9


class TestRouteEquivalence:
    def test_noiseless(self):
        pts = _random_interior(2000, 77)
        t0s = np.random.default_rng(78).uniform(0.0, 1e-3, 2000)
        for (x, y), t0 in zip(pts, t0s):
            obs = forward_toa(Position(float(x), float(y)), TRI, float(t0))
            a = solve_analytic(obs, TRI)
            b = solve_closed_form(obs, TRI)
            assert distance(a.pos, b.pos) < 1e-6

    def test_with_timestamp_noise(self):
        rng = np.random.default_rng(79)
        pts = _random_interior(2000, 80)
        t0s = rng.uniform(0.0, 1e-3, 2000)
        noise = rng.uniform(-100e-9, 100e-9, (2000, 3))
        toas = forward_toa_batch(pts, TRI, t0s) + noise
        for row in toas:
            obs = ToAObservation(*row)
            try:
                a = solve_analytic(obs, TRI)
            except NoRealRootError:
                # Noise can push a near-vertex observation outside the
                # solvable set; the other route must then reject it too.
                with pytest.raises(NoRealRootError):
                    solve_closed_form(obs, TRI)
                continue
            b = solve_closed_form(obs, TRI)
            assert distance(a.pos, b.pos) < 1e-3

    def test_seeded_far_offset_rows(self):
        """The scalar analytic route and the batch route agree on 20k rows:
        500 triangles of 1 cm to 50 km, rotated and shifted by up to 100
        sizes, with emissions up to 0.1 ms late and timestamps perturbed by
        up to 5 light-times of the triangle. Seeded NumPy, unlike the
        Hypothesis route test, draws the same rows whatever else the
        session imports."""
        rng = np.random.default_rng(20_000)
        splits, gaps = [], []
        for k in range(500):
            size = 10.0 ** rng.uniform(-2.0, math.log10(5e4))
            verts = _random_triangle(rng, size, 15.0) + rng.uniform(-100.0, 100.0, 2) * size
            gws = _triple(verts)
            targets = rng.dirichlet([1.0, 1.0, 1.0], 40) @ verts
            toas = forward_toa_batch(targets, gws, rng.uniform(0.0, 1e-4, 40))
            rel = rng.choice([0.0, 1e-4, 1e-2, 0.2, 1.0, 5.0], (40, 1))
            toas += rng.uniform(-1.0, 1.0, toas.shape) * (rel * size / SPEED_OF_LIGHT)
            out = solve_closed_form_batch(toas, gws)
            for i, row in enumerate(toas):
                try:
                    est = solve_analytic(ToAObservation(*row), gws)
                except NoRealRootError:
                    if out.ok[i]:
                        splits.append((k, i))
                    continue
                if not out.ok[i]:
                    splits.append((k, i))
                elif math.hypot(est.pos.x - out.x[i], est.pos.y - out.y[i]) > 1e-3:
                    gaps.append((k, i))
        assert splits == []
        assert gaps == []


def distance(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


class TestAugmentedSolve:
    def test_cofactors_match_linear_solve(self):
        """The analytic route's cofactor solve gives the (u, v) that
        np.linalg.solve gives on the same 3x3 matrix: 2000 triangles of 1 cm
        to 50 km, shifted by up to 100 sizes, with emissions up to 1000 s late
        and timestamps perturbed by up to 5 light-times of the triangle.

        Both are stable solves of one matrix A, so each lies within a small
        multiple of eps * cond(A) of the exact (u, v), relative to its norm
        (the worst case seen is 1.7 eps cond(A)); 16 eps cond(A) bounds the gap
        between them. cond(A) stays below 1e3 here, so the bound stays
        below 4e-12."""
        c = SPEED_OF_LIGHT
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17_017)
        for _ in range(2000):
            size = 10.0 ** rng.uniform(-2.0, math.log10(5e4))
            verts = _random_triangle(rng, size, 15.0) + rng.uniform(-100.0, 100.0, 2) * size
            gws = _triple(verts)
            target = rng.dirichlet([1.0, 1.0, 1.0]) @ verts
            late = rng.choice([0.0, 1e-4, 1.0, 1e3]) * rng.uniform(0.0, 1.0, 1)
            toa = forward_toa_batch(target[None], gws, late)[0]
            toa += rng.uniform(-1.0, 1.0, 3) * rng.choice([0.0, 1e-2, 1.0, 5.0]) * size / c
            t = tuple(toa.tolist())
            _, _, ga, gb = solver._centred_frame(gws)
            u, v, t_min, radius = solver._augmented_solve(ga, gb, t)
            assert (t_min, radius) == (min(t), max(map(math.hypot, ga, gb)))
            A = np.array([(a, b, c * (tj - t_min) + radius) for a, b, tj in zip(ga, gb, t)])
            ref = np.linalg.solve(A, np.array([(1.0, a * a + b * b - z * z) for a, b, z in A]))
            cond = np.linalg.cond(A, np.inf)
            assert cond < 1e3
            for got, want in ((u, ref[:, 0]), (v, ref[:, 1])):
                gap = np.max(np.abs(np.array(got) - want))
                assert gap <= 16.0 * eps * cond * np.max(np.abs(want))


class TestBatchSolver:
    def test_matches_scalar_bitwise(self, monkeypatch):
        """The scalar closed form gives the batch row bit for bit, and the
        same reject verdict: 300 rows on the canonical triangle, 100
        noiseless rows around it, many tied, with numpy-float gateways, 20k
        rows on 400 triangles of 1 cm to 1e8 m, rotated and shifted by up to
        100 sizes, so the centroid frame matters, with timestamps perturbed
        by up to 1000 light-times of the triangle, so rootless rows are
        included."""
        rng = np.random.default_rng(81)
        toas = forward_toa_batch(_random_interior(300, 82), TRI, rng.uniform(0.0, 1e-3, 300))
        np_tri = GatewayTriple(*(Position(*map(np.float64, g)) for g in TRI.as_array()))
        # Noiseless targets outside the triangle: many see two exact roots.
        t0 = np.random.default_rng(84).uniform(0.0, 1e-3, 100)
        tied = forward_toa_batch(3.0 * _random_interior(100, 83), TRI, t0)
        cases = [(TRI, toas + rng.uniform(-40e-9, 40e-9, toas.shape)), (np_tri, tied)]
        for _ in range(400):
            size = 10.0 ** rng.uniform(-2.0, 8.0)
            verts = _random_triangle(rng, size, 10.0) + rng.uniform(-100.0, 100.0, 2) * size
            gws = _triple(verts)
            targets = rng.dirichlet([1.0, 1.0, 1.0], 50) @ verts
            targets *= rng.uniform(0.8, 1.2, (50, 1))
            toas = forward_toa_batch(targets, gws, rng.uniform(0.0, 1e-3, 50))
            rel = rng.choice([0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1000.0], (50, 1))
            toas += rng.uniform(-1.0, 1.0, toas.shape) * (rel * size / SPEED_OF_LIGHT)
            cases.append((gws, toas))
        ties = []
        monkeypatch.setattr(solver, "_prefer", lambda *a: ties.append(a) or _prefer(*a))
        checked = rootless = np_ties = 0
        for k, (gws, toas) in enumerate(cases):
            out = solve_closed_form_batch(toas, gws)
            for i, row in enumerate(toas):
                n_ties = len(ties)
                try:
                    est = solve_closed_form(ToAObservation(*row), gws)
                except NoRealRootError:
                    assert not out.ok[i], (k, i)
                    rootless += 1
                    continue
                assert out.ok[i], (k, i)
                got = (est.pos.x, est.pos.y, est.t0_s, est.residual_m, est.root_index)
                want = (out.x[i], out.y[i], out.t0_s[i], out.residual_m[i], out.root_index[i])
                assert got == want, (k, i)
                # The prior's containment test gives numpy bools on numpy gateways.
                assert type(est.root_index) is int, (k, i)
                checked += 1
                np_ties += k == 1 and len(ties) > n_ties
        assert checked + rootless == 20_400
        assert np_ties >= 20
        assert 2_000 < rootless < 10_000

    def test_column_major_view_gives_the_same_bits(self):
        """A (3, n) array's ``.T`` view, the layout the worst-case kernel passes,
        gives every output bit of the same rows C-ordered: NaN placement, signs
        and NaN payloads included. Rows on the canonical triangle, a 1 cm cell
        and a triangle 80 sizes from the origin, emitted up to 171 s after the
        sync, a third of them perturbed by up to 10 light-times of the
        triangle, so rootless."""
        rng = np.random.default_rng(2501)
        far = _random_triangle(rng, 500.0, 15.0) + 80.0 * 500.0 * np.array([0.6, -0.8])
        checked = rootless = 0
        for gws in (TRI, canonical_triangle(0.01), _triple(far)):
            verts = gws.as_array()
            size = np.ptp(verts, axis=0).max()
            for shift in (0.0, 1e-3, 1.0, 100.0, 171.0):
                targets = rng.dirichlet([1.0, 1.0, 1.0], 600) @ verts
                targets *= rng.uniform(0.8, 1.2, (600, 1))
                rows = forward_toa_batch(targets, gws, shift)
                rel = np.where(np.arange(600) % 3 == 0, 10.0, 1e-3)[:, None]
                rows += rng.uniform(-1.0, 1.0, rows.shape) * (rel * size / SPEED_OF_LIGHT)
                cols = np.ascontiguousarray(rows.T).T
                assert cols.flags.f_contiguous and not cols.flags.c_contiguous
                a = solve_closed_form_batch(rows, gws)
                b = solve_closed_form_batch(cols, gws)
                for name in ("x", "y", "t0_s", "residual_m"):
                    got, want = getattr(b, name), getattr(a, name)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, shift)
                assert np.array_equal(b.root_index, a.root_index)
                assert np.array_equal(b.ok, a.ok)
                checked += a.ok.sum()
                rootless += (~a.ok).sum()
        assert checked > 5000 and rootless > 500

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_closed_form_batch(np.zeros(3), TRI)
        with pytest.raises(ValueError):
            solve_closed_form_batch(np.zeros((2, 4)), TRI)

    def test_failed_rows_are_nan(self):
        obs = forward_toa(Position(0.0, 0.0), TRI)
        toas = np.array([[obs.t1, obs.t2, obs.t3], NO_REAL_ROOT_OBS])
        out = solve_closed_form_batch(toas, TRI)
        assert out.ok[0] and not out.ok[1]
        assert np.isnan(out.x[1]) and np.isnan(out.y[1]) and np.isnan(out.t0_s[1])
        assert np.isfinite(out.x[0])

    def test_matches_reference_rows(self):
        """Same fixes as the reference layout on 480k rows, rootless ones too.

        Each triangle has g3 = -(g1 + g2), so its centroid is exactly 0 and
        the solver's centring changes no bit. The sqrt-form ranges move a
        residual by a few ulps of the candidate's ranges, so the bound is
        1e-3 of the tie window plus 4 ulps of the largest range: a fix tens
        of km outside a small triangle has ranges whose ulp alone exceeds
        1e-3 of the window.
        """
        rng = np.random.default_rng(606)
        n_rows = 10_000
        rootless = 0
        for _ in range(48):
            verts = _random_triangle(rng, 10 ** rng.uniform(-2.0, math.log10(3e4)), 10.0)
            verts -= verts.mean(axis=0)
            verts[2] = -(verts[0] + verts[1])
            gws = _triple(verts)
            targets = rng.dirichlet([1.0, 1.0, 1.0], n_rows) @ verts
            targets *= rng.uniform(0.5, 2.0, (n_rows, 1))
            t0 = np.where(rng.random(n_rows) < 0.5, 0.0, rng.uniform(0.0, 1e-3, n_rows))
            toas = forward_toa_batch(targets, gws, t0)
            toas += rng.uniform(-1.0, 1.0, toas.shape) * 10 ** rng.uniform(-9.0, -4.0)
            got = solve_closed_form_batch(toas, gws)
            want = _reference_batch(toas, gws)
            for name in ("x", "y", "t0_s", "root_index", "ok"):
                assert np.array_equal(
                    getattr(got, name), getattr(want, name), equal_nan=name != "ok"
                ), name
            rootless += int((~want.ok).sum())
            ok = want.ok
            ranges = np.hypot(want.x[ok, None] - verts[:, 0], want.y[ok, None] - verts[:, 1])
            tol = 1e-3 * _tie_window(np.abs(toas[ok]).max(axis=1))
            tol += 4.0 * np.spacing(ranges.max(axis=1))
            assert np.all(np.abs(got.residual_m[ok] - want.residual_m[ok]) <= tol)
        assert 0.05 * 48 * n_rows < rootless < 0.95 * 48 * n_rows

    def test_far_origin_noiseless_rows(self):
        # 50 m to 5 km triangles 60 to 90 of their sizes from the origin:
        # every noiseless row must be fixed to the micrometre.
        rng = np.random.default_rng(607)
        worst = 0.0
        for _ in range(1500):
            size = 10 ** rng.uniform(math.log10(50.0), math.log10(5000.0))
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            offset = rng.uniform(60.0, 90.0) * size
            verts = _random_triangle(rng, size, 15.0)
            verts += offset * np.array([math.cos(bearing), math.sin(bearing)])
            gws = _triple(verts)
            targets = rng.dirichlet([1.0, 1.0, 1.0], 26) @ verts
            out = solve_closed_form_batch(forward_toa_batch(targets, gws), gws)
            assert out.ok.all()
            worst = max(worst, np.hypot(out.x - targets[:, 0], out.y - targets[:, 1]).max())
        assert worst < 1e-6


class TestSelectionRule:
    """``_pick`` and ``_prefer`` give one answer on floats (one fix) and on
    arrays (one value per row), so the scalar and batch selectors share them."""

    BELOW = 2.0 * DEFAULT_T0_FLOOR_S
    INF, NAN = math.inf, math.nan
    # (res0, res1, t00, t01, t_max) -> (pick1, tie); a NaN residual loses like inf.
    PICK = [
        ((INF, 5.0, NAN, BELOW, 0.0), (True, False)),  # the finite root wins below the floor
        ((5.0, INF, BELOW, NAN, 0.0), (False, False)),
        ((NAN, 5.0, 0.0, BELOW, 0.0), (True, False)),
        ((5.0, NAN, BELOW, 0.0, 0.0), (False, False)),
        ((1.0, 5.0, BELOW, 0.0, 0.0), (True, False)),  # the floor beats the residual
        ((1.0, 1.0, BELOW, 0.0, 0.0), (True, False)),  # and leaves no tie
        ((3.0, 2.0, BELOW, BELOW, 0.0), (True, False)),  # both below: smaller residual
        ((INF, INF, NAN, NAN, 0.0), (False, False)),  # both non-finite
        ((NAN, INF, 0.0, 0.0, 0.0), (False, False)),
        ((NAN, NAN, 0.0, 0.0, 0.0), (False, False)),
        ((1.0, 1.0, 0.0, 0.0, 0.0), (False, True)),  # equal residuals: root 0, tied
        ((1.0, 1.0 + 1e-12, 0.0, 0.0, 0.0), (False, True)),
        ((1.005, 1.0, 0.0, 0.0, 0.0), (True, False)),  # 5 mm apart: no tie at t_max 0,
        ((1.005, 1.0, 0.0, 0.0, 171.0), (True, True)),  # but inside the 12 mm at 171 s
    ]
    # (x0, y0, x1, y1, pick) -> pick1, on the canonical triangle (centroid 0, 0).
    PREFER = [
        ((0.0, 0.0, 0.0, 2e4, True), False),  # inside beats outside
        ((0.0, 2e4, 0.0, -3e4, True), False),  # both outside: nearer the centroid
        ((100.0, 0.0, 0.0, 50.0, False), True),  # both inside: nearer the centroid
        ((0.0, 2e4, 0.0, -2e4, True), True),  # equal keys: pick stands
        ((0.0, 2e4, 0.0, -2e4, False), False),
    ]

    def test_pick_on_floats_and_arrays(self):
        args, want = zip(*self.PICK)
        for a, w in zip(args, want):
            assert _pick(*a) == w, a
        with np.errstate(invalid="ignore"):  # inf - inf
            pick, tie = _pick(*np.array(args).T)
        assert [pick.tolist(), tie.tolist()] == [list(c) for c in zip(*want)]

    def test_prefer_on_floats_and_arrays(self):
        args, want = zip(*self.PREFER)
        for a, w in zip(args, want):
            assert _prefer(*a, TRI, 0.0, 0.0) == w, a
        cols = np.array(args).T
        got = _prefer(*cols[:4], cols[4].astype(bool), TRI, 0.0, 0.0)
        assert got.tolist() == list(want)


def _route_fixes(toas):
    """{route: ((n, 3) x, y, root_index with NaN for no fix, (n,) ok)} on TRI."""
    out = {}
    for route in (solve_analytic, solve_closed_form):
        fixes, ok = np.full((len(toas), 3), np.nan), np.zeros(len(toas), bool)
        for i, row in enumerate(toas.tolist()):
            try:
                est = route(ToAObservation(*row), TRI)
            except NoRealRootError:
                continue
            fixes[i], ok[i] = (est.pos.x, est.pos.y, est.root_index), True
        out[route.__name__] = fixes, ok
    res = solve_closed_form_batch(toas, TRI)
    out["batch"] = np.column_stack([res.x, res.y, np.where(res.ok, res.root_index, np.nan)]), res.ok
    return out


class TestLateEmission:
    """Picks do not depend on how long after the sync the packet was sent.

    Every row's emission is shifted by up to 171 s, inside the 171.8 s span of
    the 32-bit, 40 ns counter. Both routes work relative to the arrivals, so
    the shift only rounds each arrival by at most ulp(s) (the rows' arrivals
    are far below s), c * ulp(s) of range; inside the canonical triangle a
    fix moves by about that much (measured: at most 0.9 c * ulp(s), and
    3.5 at 1 ms, where the solvers' own rounding at the 10 km scale is as
    large), against metres to kilometres for the other root. The rows with one arrival
    moved by microseconds lie far outside the triangle, where rounding is
    amplified, and at s = 0 the absolute t0 floor rather than the residual
    decides some of them; they pin the verdicts and the root picked instead.
    """

    SHIFTS_S = (1e-3, 1.0, 100.0, 171.0)

    def test_shifted_emissions_keep_verdicts_and_fixes(self):
        rng = np.random.default_rng(2210)
        toas = forward_toa_batch(_random_interior(600, 2211), TRI)
        toas += rng.uniform(-40e-9, 40e-9, toas.shape)
        far = np.arange(len(toas)) % 3 == 0
        toas[far, 0] += rng.choice([-1.0, 1.0], far.sum()) * rng.uniform(1e-6, 2e-5, far.sum())
        base = _route_fixes(toas)
        early = _route_fixes(toas + self.SHIFTS_S[0])
        for shift in self.SHIFTS_S:
            tol = 16.0 * SPEED_OF_LIGHT * math.ulp(shift)
            for route, (fixes, ok) in _route_fixes(toas + shift).items():
                fixes0, ok0 = base[route]
                assert np.array_equal(ok, ok0), (route, shift)
                near = ok & ~far
                gap = np.hypot(*(fixes[near, :2] - fixes0[near, :2]).T)
                assert gap.max() <= tol, (route, shift, gap.max())
                assert np.array_equal(fixes[ok & far, 2], early[route][0][ok & far, 2])
        assert 0 < (~ok0).sum() < far.sum()  # some far rows have no real root

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_emission_picks_as_a_later_one(self, seed):
        """Outside the circumcircle both roots are often exact, so the tie
        rule decides. A noiseless fix emitted at t0 = 0, whose reported t0 is
        snapped, keeps the root it gets when emitted 1 ms later: the snap
        comes after scoring, so it cannot push the true root out of the
        tie window."""
        rng = np.random.default_rng(seed)
        g = TRI.as_array()
        centre = g.mean(axis=0)
        r = np.hypot(*(g - centre).T).max() * np.sqrt(rng.uniform(1.0, 16.0, 20_000))
        theta = rng.uniform(0.0, 2.0 * math.pi, 20_000)
        toas = forward_toa_batch(centre + np.column_stack([r * np.cos(theta), r * np.sin(theta)]), TRI)
        now, later = (solve_closed_form_batch(toas + s, TRI) for s in (0.0, 1e-3))
        assert now.ok.all() and later.ok.all()
        assert np.array_equal(now.root_index, later.root_index)
        assert np.hypot(now.x - later.x, now.y - later.y).max() < 1e-2
        now, later = (_route_fixes(toas[:500] + s) for s in (0.0, 1e-3))
        for route, (fixes, ok) in now.items():
            assert ok.all() and np.array_equal(fixes[:, 2], later[route][0][:, 2]), route


class TestInvariances:
    def test_translation_equivariance(self):
        rng = np.random.default_rng(83)
        p = Position(1234.5, -678.9)
        obs = forward_toa(p, TRI, 3e-4)
        base = solve_analytic(obs, TRI)
        for _ in range(10):
            dx, dy = rng.uniform(-1e5, 1e5, 2)
            tri = GatewayTriple(
                Position(TRI.g1.x + dx, TRI.g1.y + dy),
                Position(TRI.g2.x + dx, TRI.g2.y + dy),
                Position(TRI.g3.x + dx, TRI.g3.y + dy),
            )
            est = solve_analytic(forward_toa(Position(p.x + dx, p.y + dy), tri, 3e-4), tri)
            assert est.pos.x - dx == pytest.approx(base.pos.x, abs=1e-5)
            assert est.pos.y - dy == pytest.approx(base.pos.y, abs=1e-5)

    def test_similarity_scaling(self):
        # Scaling every length and every time by s scales the fix by s.
        s = 2.0
        p = Position(800.0, -1500.0)
        obs = forward_toa(p, TRI, 2e-4)
        tri2 = GatewayTriple(
            Position(s * TRI.g1.x, s * TRI.g1.y),
            Position(s * TRI.g2.x, s * TRI.g2.y),
            Position(s * TRI.g3.x, s * TRI.g3.y),
        )
        est = solve_analytic(ToAObservation(s * obs.t1, s * obs.t2, s * obs.t3), tri2)
        assert est.pos.x == pytest.approx(s * p.x, abs=1e-5)
        assert est.pos.y == pytest.approx(s * p.y, abs=1e-5)
        assert est.t0_s == pytest.approx(s * 2e-4, rel=1e-9)

    def test_error_scales_linearly_with_perturbation(self):
        """Halving the timestamp perturbation halves the median position error."""
        rng = np.random.default_rng(84)
        pts = _random_interior(1000, 85)
        clean = forward_toa_batch(pts, TRI, 1e-4)
        noise = rng.uniform(-1.0, 1.0, (1000, 3)) * 50e-9
        err = {}
        for scale in (1.0, 0.5):
            out = solve_closed_form_batch(clean + scale * noise, TRI)
            assert out.ok.all()
            err[scale] = np.median(np.hypot(out.x - pts[:, 0], out.y - pts[:, 1]))
        assert err[1.0] / err[0.5] == pytest.approx(2.0, rel=0.1)

    def test_seeded_rigid_motion_and_scaling(self):
        """A rotation plus translation of the deployment moves every fix with
        it, and scaling the deployment and the times by 4 scales every fix by
        4, to within 1e-8 triangle sizes and with no ok verdict changed: 8000
        perturbed rows on 200 triangles of 10 m to 30 km, offset by up to 50
        sizes, on the batch route and on every tenth row of the scalar
        analytic route. The t0 floor is an absolute time, so a fix whose t0
        lies in [floor, floor/4) may lose to the other root once scaled; only
        those rows are exempt from the scaling check."""
        rng = np.random.default_rng(8_000)
        splits, gaps = [], []

        def check(where, ok, ok2, got, want, size, t0, f):
            floored = DEFAULT_T0_FLOOR_S <= t0 < DEFAULT_T0_FLOOR_S / f
            if ok != ok2:
                splits.append(where)
            elif ok and math.dist(got, want) > 1e-8 * size and not floored:
                gaps.append(where)

        def analytic(row, gws):
            try:
                est = solve_analytic(ToAObservation(*row), gws)
            except NoRealRootError:
                return False, (math.nan, math.nan), math.nan
            return True, (est.pos.x, est.pos.y), est.t0_s

        for k in range(200):
            size = 10.0 ** rng.uniform(1.0, math.log10(3e4))
            verts = _random_triangle(rng, size, 15.0) + rng.uniform(-50.0, 50.0, 2) * size
            gws = _triple(verts)
            targets = rng.dirichlet([1.0, 1.0, 1.0], 40) @ verts
            toas = forward_toa_batch(targets, gws, rng.uniform(0.0, 1e-4, 40))
            rel = rng.choice([0.0, 1e-4, 1e-2, 0.2, 1.0, 5.0], (40, 1))
            toas += rng.uniform(-1.0, 1.0, toas.shape) * (rel * size / SPEED_OF_LIGHT)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            centroid, shift = verts.mean(axis=0), rng.uniform(-50.0, 50.0, 2) * size
            base = solve_closed_form_batch(toas, gws)
            for move, f in ((lambda p: (p - centroid) @ rot.T + shift, 1.0), (lambda p: 4.0 * p, 4.0)):
                gws2 = _triple(move(verts))
                out = solve_closed_form_batch(f * toas, gws2)
                want = move(np.column_stack([base.x, base.y]))
                for i in range(40):
                    got = (out.x[i], out.y[i])
                    check((k, i, f), base.ok[i], out.ok[i], got, want[i], size, base.t0_s[i], f)
                for i in range(0, 40, 10):
                    ok, pos, t0 = analytic(toas[i], gws)
                    ok2, got, _ = analytic(f * toas[i], gws2)
                    check((k, i, f, "analytic"), ok, ok2, got, move(np.array(pos)), size, t0, f)
        assert splits == []
        assert gaps == []


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called on a scalar candidate")


def _residual(est, obs, gws=TRI):
    """RMS range residual of a fix, in absolute coordinates with math.hypot."""
    s = 0.0
    for g, tj in zip((gws.g1, gws.g2, gws.g3), (obs.t1, obs.t2, obs.t3)):
        r = math.hypot(est.pos.x - g.x, est.pos.y - g.y) - SPEED_OF_LIGHT * (tj - est.t0_s)
        s += r * r
    return math.sqrt(s / 3.0)


class TestResidual:
    def test_exact_solution_has_tiny_residual(self):
        # The canonical triangle and the same triangle 50 km off the origin,
        # where the solvers' centroid frame and this oracle's absolute one
        # round differently.
        shift = np.array([3e4, -4e4])
        verts = np.array([(g.x, g.y) for g in (TRI.g1, TRI.g2, TRI.g3)])
        for gws, offset in ((TRI, 0.0), (_triple(verts + shift), shift)):
            for (x, y) in _random_interior(200, 86) + offset:
                obs = forward_toa(Position(float(x), float(y)), gws, 5e-4)
                for solve in (solve_analytic, solve_closed_form):
                    est = solve(obs, gws)
                    assert est.residual_m < 1e-6
                    assert _residual(est, obs, gws) == pytest.approx(est.residual_m, abs=1e-9)

    def test_displaced_estimate_has_positive_residual(self):
        obs = forward_toa(Position(0.0, 0.0), TRI, 1e-4)
        est = solve_closed_form(obs, TRI)
        moved = LocalizationEstimate(
            Position(est.pos.x + 1.0, est.pos.y), est.t0_s, est.residual_m, est.root_index
        )
        assert _residual(moved, obs) > 0.5

    def test_rms_residual_same_bits_on_floats_and_arrays(self, monkeypatch):
        """``_rms_residual`` scores each candidate's Python floats, with
        ``math.sqrt`` and no numpy call, to the bits of one (2, n) array call
        with ``np.sqrt``, NaN positions and payloads included, without touching
        its array inputs. Seeded x, y, t0 mix finite values with +-1e200 (the
        squares overflow), +-inf and NaN, on the canonical triangle and one
        far off the origin. Covers every candidate, not only the one each
        route returns: a dropped candidate's score still steers ``_pick``."""
        rng = np.random.default_rng(2701)
        far = _random_triangle(rng, 3e3, 15.0) + np.array([4e6, -7e6])
        special = np.array([1e200, -1e200, np.inf, -np.inf, np.nan])
        n = 5000
        for gws in (TRI, _triple(far)):
            _, _, ga, gb = solver._centred_frame(gws)
            size = np.ptp(gws.as_array(), axis=0).max()
            t = np.sort(rng.uniform(0.0, 1e-3, (3, n)), axis=0)
            cands = []
            for scale in (size, size, 1e-3):  # x, y, t0
                v = rng.uniform(-3.0, 3.0, (2, n)) * scale
                mask = rng.random((2, n)) < 0.1
                v[mask] = rng.choice(special, mask.sum())
                cands.append(v)
            x, y, t0 = cands
            t0[:, ::7] = t[0, ::7]  # exact zero range differences
            saved = [a.copy() for a in (x, y, t0, t)]
            with np.errstate(all="ignore"):
                want = _rms_residual(x, y, t0, t, ga, gb, np.sqrt)
            for a, b in zip((x, y, t0, t), saved):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
            with monkeypatch.context() as m:
                m.setattr(solver, "np", _NoNumpy())
                got = [
                    _rms_residual(float(x[k, i]), float(y[k, i]), float(t0[k, i]),
                                  tuple(map(float, t[:, i])), ga, gb, math.sqrt)
                    for k in range(2) for i in range(n)
                ]
            assert all(type(g) is float for g in got)
            assert np.array_equal(np.array(got).view(np.uint64), want.ravel().view(np.uint64))
            assert np.isnan(want).sum() > 500 and np.isinf(want).sum() > 500
            assert np.isfinite(want).sum() > 3000


class TestDegenerateInputs:
    def test_analytic_solves_centred_dependent_time_column(self):
        # About the gateway centroid (2/3, 2/3), c*t_j = (a_j - 2/3) + (b_j - 2/3)
        # is the sum of the two coordinate columns. The analytic route's time
        # origin, one triangle radius before the earliest arrival, makes the
        # time column positive, so it solves, to the closed form's answer.
        tri = GatewayTriple(Position(1.0, 0.0), Position(0.0, 1.0), Position(1.0, 1.0))
        c = SPEED_OF_LIGHT
        obs = ToAObservation(-1.0 / (3.0 * c), -1.0 / (3.0 * c), 2.0 / (3.0 * c))
        est = solve_analytic(obs, tri)
        ref = solve_closed_form(obs, tri)
        assert distance(est.pos, ref.pos) < 1e-9
        assert est.t0_s == pytest.approx(ref.t0_s, rel=1e-12)
        assert est.residual_m == pytest.approx(ref.residual_m, rel=1e-12)
        assert est.root_index == ref.root_index

    def test_no_real_root_raised_by_both_routes(self):
        # Arrivals seconds apart on a 10 km triangle: no two hyperbolas meet,
        # and both routes must say so with the same error.
        for toa in (NO_REAL_ROOT_OBS, (1.0, 2.0, 3.0)):
            obs = ToAObservation(*toa)
            with pytest.raises(NoRealRootError):
                solve_closed_form(obs, TRI)
            with pytest.raises(NoRealRootError):
                solve_analytic(obs, TRI)

    def test_equal_late_arrivals_solve_on_both_routes(self):
        # At t = 1e12 s the triangle's light time is below the timestamps'
        # resolution. The analytic route's time column keeps its radius
        # offset, so the arrival matrix stays regular and both routes put the
        # fix at the circumcentre.
        obs = ToAObservation(1e12, 1e12, 1e12)
        for est in (solve_analytic(obs, TRI), solve_closed_form(obs, TRI)):
            assert math.hypot(est.pos.x, est.pos.y) < 1e-6

    def test_late_rootless_observation_rejected_by_both_routes(self):
        tri = _triple(LATE_ROOTLESS_GATEWAYS)
        obs = ToAObservation(*LATE_ROOTLESS_OBS)
        with pytest.raises(NoRealRootError):
            solve_closed_form(obs, tri)
        with pytest.raises(NoRealRootError):
            solve_analytic(obs, tri)

    def test_numpy_scalar_inputs_do_not_warn(self):
        # Timestamps that overflow c*(t_j - t_1) reject without a numpy
        # warning, also when they or the gateways arrive as numpy scalars.
        obs = ToAObservation(np.float64(1e300), np.float64(-1e300), np.float64(0.0))
        np_tri = GatewayTriple(
            *(Position(np.float64(p.x), np.float64(p.y)) for p in (TRI.g1, TRI.g2, TRI.g3))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (solve_closed_form, solve_analytic):
                for gws in (TRI, np_tri):
                    with pytest.raises(NoRealRootError):
                        solve(obs, gws)

    def test_underflowing_area_rejected_like_batch(self):
        # A 1e-170 m triangle is valid, but eight times its area underflows
        # to 0 in the closed form: the batch row fails and the scalar route
        # rejects it rather than dividing by zero.
        tiny = canonical_triangle(1e-170)
        assert not solve_closed_form_batch(np.zeros((1, 3)), tiny).ok[0]
        with pytest.raises(NoRealRootError):
            solve_closed_form(ToAObservation(0.0, 0.0, 0.0), tiny)
        # The analytic route's det A underflows alike; it must not divide by it.
        with pytest.raises(NoRealRootError, match="area underflows"):
            solve_analytic(ToAObservation(0.0, 0.0, 0.0), tiny)
