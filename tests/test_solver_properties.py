"""Property tests of the batch solver over random non-degenerate triangles.

Hypothesis draws the deployment (shape, scale, rotation, offset), the
perturbation size and a seed; numpy draws the observation rows from that
seed. The Monte Carlo kernel stacks many targets and sign patterns into one
batch call, which is only sound if every row is solved independently of the
others, so the batch must equal its one-row solves and any reordering of
itself bit for bit.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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

ROWS = 48
ROUTE_TOL_M = 1e-3
MIN_ANGLE_DEG = 15.0

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _min_angle_deg(p):
    angles = []
    for i in range(3):
        u = p[(i + 1) % 3] - p[i]
        v = p[(i + 2) % 3] - p[i]
        cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
    return min(angles)


@st.composite
def deployments(draw):
    """A triangle that is not degenerate: unit base, free apex, then scaled,
    rotated and shifted by up to 100 triangle sizes.

    Both routes solve about the gateway centroid, and ``solve_analytic``
    also shifts its time origin next to the earliest arrival, so the offset
    from the coordinate origin must not change a verdict or move a fix.
    """
    apex = (draw(st.floats(-0.5, 1.5)), draw(st.floats(0.3, 1.5)))
    unit = np.array([[0.0, 0.0], [1.0, 0.0], apex])
    assume(_min_angle_deg(unit) >= MIN_ANGLE_DEG)
    scale = draw(st.floats(50.0, 50_000.0))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    offset = np.array([draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))]) * scale
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    pts = unit @ rot.T * scale + offset
    gws = GatewayTriple(*(Position(float(x), float(y)) for x, y in pts))
    return gws, pts, scale


@st.composite
def observations(draw):
    """(gws, toas): ROWS targets inside the triangle, emission times up to
    0.1 ms, timestamps shifted by up to ``rel`` times the triangle's light
    time. The largest shifts leave about one row in ten with no real root."""
    gws, verts, scale = draw(deployments())
    rel = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.2, 1.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.dirichlet([1.0, 1.0, 1.0], ROWS) @ verts
    toas = forward_toa_batch(targets, gws, rng.uniform(0.0, 1e-4, ROWS))
    toas += rng.uniform(-1.0, 1.0, toas.shape) * (rel * scale / SPEED_OF_LIGHT)
    return gws, toas


def _assert_rows_equal(a, b):
    for name in ("x", "y", "t0_s", "residual_m", "root_index", "ok"):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype, name
        assert np.array_equal(u, v, equal_nan=u.dtype.kind == "f"), name
        if u.dtype.kind == "f":
            assert np.array_equal(np.signbit(u), np.signbit(v)), name


def _rows(out, idx):
    return type(out)(**{k: getattr(out, k)[idx] for k in out.__dataclass_fields__})


@PROPERTY_SETTINGS
@given(observations())
def test_batch_rows_are_independent(case):
    gws, toas = case
    out = solve_closed_form_batch(toas, gws)
    singles = [solve_closed_form_batch(toas[i : i + 1], gws) for i in range(ROWS)]
    stacked = type(out)(
        **{k: np.concatenate([getattr(s, k) for s in singles]) for k in out.__dataclass_fields__}
    )
    _assert_rows_equal(out, stacked)
    perm = np.random.default_rng(ROWS).permutation(ROWS)
    _assert_rows_equal(_rows(out, perm), solve_closed_form_batch(toas[perm], gws))


@PROPERTY_SETTINGS
@given(observations())
def test_batch_agrees_with_analytic_route(case):
    gws, toas = case
    out = solve_closed_form_batch(toas, gws)
    for i in range(ROWS):
        try:
            est = solve_analytic(ToAObservation(*toas[i]), gws)
        except NoRealRootError:
            assert not out.ok[i], f"row {i}: analytic rejects, batch fixes"
            continue
        assert out.ok[i], f"row {i}: batch rejects, analytic fixes"
        gap = math.hypot(est.pos.x - out.x[i], est.pos.y - out.y[i])
        assert gap <= ROUTE_TOL_M, f"row {i}: routes {gap:.3e} m apart"


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
