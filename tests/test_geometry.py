import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from lorafix import (
    CollinearGatewaysError,
    GatewayTriple,
    Position,
    barycentric,
    canonical_triangle,
    contains,
    distance,
    sample_points_in_triangle,
)


def test_distance_identity():
    p = Position(3.0, -7.0)
    assert distance(p, p) == 0.0


def test_distance_pythagorean():
    assert distance(Position(0.0, 0.0), Position(3.0, 4.0)) == 5.0


def test_distance_symmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = Position(*rng.uniform(-1e4, 1e4, 2))
        b = Position(*rng.uniform(-1e4, 1e4, 2))
        assert distance(a, b) == distance(b, a)
        assert distance(a, b) >= 0.0


def test_distance_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b, c = (Position(*rng.uniform(-1e4, 1e4, 2)) for _ in range(3))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(math.nan, 0.0)
    with pytest.raises(ValueError):
        Position(0.0, math.inf)


class TestCanonicalTriangle:
    def test_vertices(self):
        """Equilateral layout on a 10 km circle: apex down, two up."""
        tri = canonical_triangle(10000.0)
        g1, g2, g3 = tri.g1, tri.g2, tri.g3
        assert (g1.x, g1.y) == (0.0, -5000.0)
        assert g2.x == pytest.approx(4330.13, abs=0.01)
        assert g2.y == pytest.approx(2500.0, abs=1e-9)
        assert g3.x == pytest.approx(-4330.13, abs=0.01)
        assert g3.y == pytest.approx(2500.0, abs=1e-9)

    def test_side_length(self):
        tri = canonical_triangle(10000.0)
        side = distance(tri.g1, tri.g2)
        assert side == pytest.approx(8660.25, abs=0.01)
        assert distance(tri.g2, tri.g3) == pytest.approx(side, rel=1e-12)
        assert distance(tri.g3, tri.g1) == pytest.approx(side, rel=1e-12)

    def test_circumradius_scales_with_diameter(self):
        for d in (2.0, 10000.0, 12345.6):
            tri = canonical_triangle(d)
            for g in (tri.g1, tri.g2, tri.g3):
                assert math.hypot(g.x, g.y) == pytest.approx(d / 2, rel=1e-12)

    def test_invalid_diameter(self):
        with pytest.raises(ValueError):
            canonical_triangle(0.0)
        with pytest.raises(ValueError):
            canonical_triangle(-1.0)


def test_gateway_triple_rejects_collinear():
    with pytest.raises(CollinearGatewaysError):
        GatewayTriple(Position(0.0, 0.0), Position(1.0, 1.0), Position(2.0, 2.0))


SCALES_M = (1e-3, 1.0, 1e3, 1e6, 1e9)


def test_equilateral_accepted_at_every_scale():
    # The degeneracy rule is scale-free: a 1 mm triangle is as good as 1e9 m.
    for scale in SCALES_M:
        canonical_triangle(scale)


def test_sliver_rejected_at_every_scale():
    # Thin enough that the solvers' pairwise-difference system would be
    # numerically rank 1, so it must never reach them at any scale.
    for scale in SCALES_M:
        with pytest.raises(CollinearGatewaysError):
            GatewayTriple(
                Position(0.0, 0.0), Position(scale, 0.0), Position(2.0 * scale, 3e-14 * scale)
            )


def _frame_formula(gws):
    """Centroid, coordinates about it and radius R, written out in Python floats."""
    x1, x2, x3 = (float(g.x) for g in (gws.g1, gws.g2, gws.g3))
    y1, y2, y3 = (float(g.y) for g in (gws.g1, gws.g2, gws.g3))
    cx = (x1 + x2 + x3) / 3.0
    cy = (y1 + y2 + y3) / 3.0
    ga = (x1 - cx, x2 - cx, x3 - cx)
    gb = (y1 - cy, y2 - cy, y3 - cy)
    return cx, cy, ga, gb, max(map(math.hypot, ga, gb))


def _frame_bits(frame):
    cx, cy, ga, gb, radius = frame
    values = (cx, cy, *ga, *gb, radius)
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


class TestFrame:
    def test_matches_formula_bitwise(self):
        """The frame a triple carries is the formula's, bit for bit: 400
        seeded triangles of 1e-3 m to 1e5 m, offset by up to 100 sizes, with
        Python, numpy float64 and numpy float32 coordinates."""
        rng = np.random.default_rng(3303)
        for _ in range(400):
            size = 10.0 ** rng.uniform(-3.0, 5.0)
            verts = rng.uniform(-1.0, 1.0, (3, 2)) * size + rng.uniform(-100.0, 100.0, 2) * size
            for cast in (float, np.float64, np.float32):
                gws = GatewayTriple(*(Position(cast(x), cast(y)) for x, y in verts))
                assert _frame_bits(gws._frame) == _frame_bits(_frame_formula(gws))

    def test_survives_pickle_copy_and_replace(self):
        gws = GatewayTriple(Position(1.0, 2.0), Position(40.0, -3.0), Position(7.5, 31.0))
        want = _frame_bits(_frame_formula(gws))
        for twin in (pickle.loads(pickle.dumps(gws)), copy.deepcopy(gws)):
            assert twin == gws
            assert _frame_bits(twin._frame) == want
        moved = dataclasses.replace(gws, g1=Position(-5.0, 0.0))
        assert _frame_bits(moved._frame) == _frame_bits(_frame_formula(moved)) != want

    def test_not_a_field(self):
        """Fields, asdict, repr, == and hash see only the three gateways."""
        gws = canonical_triangle(10000.0)
        assert [f.name for f in dataclasses.fields(gws)] == ["g1", "g2", "g3"]
        assert dataclasses.asdict(gws).keys() == {"g1", "g2", "g3"}
        assert repr(gws) == f"GatewayTriple(g1={gws.g1!r}, g2={gws.g2!r}, g3={gws.g3!r})"
        twin = GatewayTriple(gws.g1, gws.g2, gws.g3)
        object.__setattr__(twin, "_frame", None)
        assert twin == gws
        assert hash(twin) == hash(gws) == hash((gws.g1, gws.g2, gws.g3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            gws._frame = None


def test_gateway_triple_as_array():
    tri = canonical_triangle(10000.0)
    arr = tri.as_array()
    assert arr.shape == (3, 2)
    assert arr[0, 1] == -5000.0


def test_barycentric_vertices_and_centroid():
    tri = canonical_triangle(10000.0)
    w = barycentric(tri, tri.g1)
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(w[1]) < 1e-12 and abs(w[2]) < 1e-12
    cx = (tri.g1.x + tri.g2.x + tri.g3.x) / 3
    cy = (tri.g1.y + tri.g2.y + tri.g3.y) / 3
    w = barycentric(tri, Position(cx, cy))
    assert w == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_contains():
    tri = canonical_triangle(10000.0)
    assert contains(tri, Position(0.0, 0.0))
    assert not contains(tri, Position(0.0, -6000.0))
    assert not contains(tri, Position(9000.0, 9000.0))
    # A vertex is on the boundary, which counts as inside.
    assert contains(tri, tri.g1)


def test_array_containment_matches_scalar():
    tri = canonical_triangle(10000.0)
    rng = np.random.default_rng(30)
    xs = np.concatenate([rng.uniform(-6000.0, 6000.0, 500), [tri.g1.x, np.nan]])
    ys = np.concatenate([rng.uniform(-6000.0, 6000.0, 500), [tri.g1.y, np.nan]])
    w = barycentric(tri, (xs, ys))
    inside = contains(tri, (xs, ys))
    for i in range(500):
        p = Position(xs[i], ys[i])
        assert tuple(wk[i] for wk in w) == barycentric(tri, p)
        assert inside[i] == contains(tri, p)
    assert inside[500]
    assert not inside[501]


class TestSampling:
    def test_samples_strictly_interior(self):
        tri = canonical_triangle(10000.0)
        pts = sample_points_in_triangle(tri, 2000, np.random.default_rng(31))
        # Strict interior: every barycentric weight positive.
        assert all(np.all(w > 0.0) for w in barycentric(tri, (pts[:, 0], pts[:, 1])))

    def test_batch_matches_containment(self):
        tri = canonical_triangle(10000.0)
        pts = sample_points_in_triangle(tri, 5000, np.random.default_rng(32))
        assert pts.shape == (5000, 2)
        for x, y in pts[::97]:
            assert min(barycentric(tri, Position(x, y))) > 0.0

    def test_deterministic_for_seed(self):
        tri = canonical_triangle(10000.0)
        a = sample_points_in_triangle(tri, 1000, np.random.default_rng(7))
        b = sample_points_in_triangle(tri, 1000, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_boundary_draws_are_redrawn(self):
        """Draws on the boundary are redrawn, and only those, in index order."""

        class Scripted:
            def __init__(self, *draws):
                self.draws, self.sizes = list(draws), []

            def random(self, k):
                self.sizes.append(k)
                return np.array(self.draws.pop(0), dtype=float)

        unit = GatewayTriple(Position(0.0, 0.0), Position(1.0, 0.0), Position(0.0, 1.0))
        # Point 0 has u = 0 and point 1 has u + v = 1; their redraw for
        # point 1 needs a fold.
        rng = Scripted([0.0, 0.25, 0.6], [0.5, 0.75, 0.2], [0.1, 0.9], [0.2, 0.3])
        pts = sample_points_in_triangle(unit, 3, rng)
        assert rng.sizes == [3, 3, 2, 2]
        assert pts.tolist() == [[0.1, 0.2], [1.0 - 0.9, 1.0 - 0.3], [0.6, 0.2]]

    def test_matches_broadcast_formula(self):
        """Column by column, the points are the bits of the (n, 2) broadcast
        g1 + u (g2 - g1) + v (g3 - g1) over the same folded draws."""
        far = GatewayTriple(
            Position(3e4, -2e4), Position(3.07e4, -1.98e4), Position(3.01e4, -1.93e4)
        )
        for tri in (canonical_triangle(10000.0), far):
            g = tri.as_array()
            for seed in range(5):
                rng = np.random.default_rng(seed)
                u, v = rng.random(5000), rng.random(5000)
                fold = u + v > 1.0
                u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
                assert np.all((u > 0.0) & (v > 0.0) & (u + v < 1.0))  # no redraw
                want = g[0] + u[:, None] * (g[1] - g[0]) + v[:, None] * (g[2] - g[0])
                got = sample_points_in_triangle(tri, 5000, np.random.default_rng(seed))
                assert got.flags.c_contiguous
                assert np.array_equal(got, want)

    def test_mean_approaches_centroid(self):
        tri = canonical_triangle(10000.0)
        pts = sample_points_in_triangle(tri, 100000, np.random.default_rng(33))
        # Centroid of the canonical layout is the origin; the sample mean of
        # 1e5 uniform draws lands within a few standard errors of it.
        assert abs(pts[:, 0].mean()) < 30.0
        assert abs(pts[:, 1].mean()) < 30.0

    def test_uniformity_chi_squared(self):
        """Counts over the four midpoint sub-triangles are equidistributed."""
        tri = canonical_triangle(10000.0)
        n = 40000
        pts = sample_points_in_triangle(tri, n, np.random.default_rng(34))
        counts = np.zeros(4, dtype=int)
        for x, y in pts:
            w = barycentric(tri, Position(x, y))
            corner = [i for i in range(3) if w[i] > 0.5]
            counts[corner[0] if corner else 3] += 1
        chi2 = float(((counts - n / 4) ** 2 / (n / 4)).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=3)
