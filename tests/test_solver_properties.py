"""Property tests of the batch solver over random non-degenerate triangles.

Seeded numpy generators draw every case: the deployment (shape, scale,
rotation, offset), the perturbation size and the observation rows. The draws
depend on nothing but this file. The Monte Carlo kernel stacks many targets
and sign patterns into one batch call, which is only sound if every row is
solved independently of the others, so the batch must equal its one-row
solves and any reordering of itself bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

from lorafix import (
    SPEED_OF_LIGHT,
    GatewayTriple,
    NoRealRootError,
    Position,
    ToAObservation,
    forward_toa_batch,
    solve_analytic,
    solve_closed_form_batch,
)

SEED = 20240611
CASES = 100
ROWS = 48
ROUTE_TOL_M = 1e-3
MIN_ANGLE_DEG = 15.0
APEX_BOX = ((-0.5, 1.5), (0.3, 1.5))
SCALE_RANGE = (50.0, 50_000.0)
RELS = (0.0, 1e-4, 1e-2, 0.2, 1.0, 5.0)


def _min_angle_deg(p):
    angles = []
    for i in range(3):
        u = p[(i + 1) % 3] - p[i]
        v = p[(i + 2) % 3] - p[i]
        cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
    return min(angles)


def _unit(apex):
    return np.array([[0.0, 0.0], [1.0, 0.0], apex])


def _observations(apex, scale, rng):
    """(gws, toas) for one case: the unit triangle with the given apex,
    scaled, rotated at random and shifted by up to 100 triangle sizes; ROWS
    targets inside it, emission times up to 0.1 ms, and timestamps shifted by
    up to ``rel`` times the triangle's light time. The largest shifts leave
    about one row in ten with no real root.

    Both routes solve about the gateway centroid, and ``solve_analytic``
    also shifts its time origin next to the earliest arrival, so the offset
    from the coordinate origin must not change a verdict or move a fix.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    offset = rng.uniform(-100.0, 100.0, 2) * scale
    rel = RELS[rng.integers(len(RELS))]
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    verts = _unit(apex) @ rot.T * scale + offset
    gws = GatewayTriple(*(Position(float(x), float(y)) for x, y in verts))
    targets = rng.dirichlet([1.0, 1.0, 1.0], ROWS) @ verts
    toas = forward_toa_batch(targets, gws, rng.uniform(0.0, 1e-4, ROWS))
    toas += rng.uniform(-1.0, 1.0, toas.shape) * (rel * scale / SPEED_OF_LIGHT)
    return gws, toas


def _cases():
    """CASES draws with the apex uniform on APEX_BOX (every angle at least
    MIN_ANGLE_DEG) and the scale uniform on SCALE_RANGE, then each box corner
    that passes the angle filter at both ends of the scale range."""
    rng = np.random.default_rng(SEED)
    cases = []
    while len(cases) < CASES:
        apex = tuple(rng.uniform(lo, hi) for lo, hi in APEX_BOX)
        if _min_angle_deg(_unit(apex)) >= MIN_ANGLE_DEG:
            cases.append(_observations(apex, rng.uniform(*SCALE_RANGE), rng))
    corners = [c for c in itertools.product(*APEX_BOX) if _min_angle_deg(_unit(c)) >= MIN_ANGLE_DEG]
    assert corners, "no corner of the apex box passes the angle filter"
    for apex, scale in itertools.product(corners, SCALE_RANGE):
        cases.append(_observations(apex, scale, rng))
    return cases


@pytest.fixture(scope="module")
def cases():
    return _cases()


def _assert_rows_equal(a, b, case):
    for name in ("x", "y", "t0_s", "residual_m", "root_index", "ok"):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype, (case, name)
        assert np.array_equal(u, v, equal_nan=u.dtype.kind == "f"), (case, name)
        if u.dtype.kind == "f":
            assert np.array_equal(np.signbit(u), np.signbit(v)), (case, name)


def _rows(out, idx):
    return type(out)(**{k: getattr(out, k)[idx] for k in out.__dataclass_fields__})


def test_batch_rows_are_independent(cases):
    perm = np.random.default_rng(ROWS).permutation(ROWS)
    for case, (gws, toas) in enumerate(cases):
        out = solve_closed_form_batch(toas, gws)
        singles = [solve_closed_form_batch(toas[i : i + 1], gws) for i in range(ROWS)]
        stacked = type(out)(
            **{k: np.concatenate([getattr(s, k) for s in singles]) for k in out.__dataclass_fields__}
        )
        _assert_rows_equal(out, stacked, case)
        _assert_rows_equal(_rows(out, perm), solve_closed_form_batch(toas[perm], gws), case)


def test_batch_agrees_with_analytic_route(cases):
    for case, (gws, toas) in enumerate(cases):
        out = solve_closed_form_batch(toas, gws)
        for i in range(ROWS):
            try:
                est = solve_analytic(ToAObservation(*toas[i]), gws)
            except NoRealRootError:
                assert not out.ok[i], f"case {case} row {i}: analytic rejects, batch fixes"
                continue
            assert out.ok[i], f"case {case} row {i}: batch rejects, analytic fixes"
            gap = math.hypot(est.pos.x - out.x[i], est.pos.y - out.y[i])
            assert gap <= ROUTE_TOL_M, f"case {case} row {i}: routes {gap:.3e} m apart"


def test_far_origin_keeps_precision():
    # A 50 m triangle 50 km from the origin: both routes must fix noiseless
    # observations to the micrometre.
    verts = np.array([[0.0, 0.0], [50.0, 0.0], [15.0, 45.0]]) + np.array([30_000.0, 40_000.0])
    gws = GatewayTriple(*(Position(float(x), float(y)) for x, y in verts))
    rng = np.random.default_rng(5)
    targets = rng.dirichlet([1.0, 1.0, 1.0], 200) @ verts
    toas = forward_toa_batch(targets, gws, rng.uniform(0.0, 1e-4, 200))
    out = solve_closed_form_batch(toas, gws)
    fixes = [solve_analytic(ToAObservation(*row), gws).pos for row in toas]
    analytic = np.array([(p.x, p.y) for p in fixes])
    assert np.hypot(out.x - targets[:, 0], out.y - targets[:, 1]).max() < 1e-6
    assert np.hypot(*(analytic - targets).T).max() < 1e-6
