import math

import numpy as np
import pytest

from lorafix import (
    SPEED_OF_LIGHT,
    GatewayTriple,
    LocalizationEstimate,
    NoRealRootError,
    Position,
    SingularGeometryError,
    ToAObservation,
    canonical_triangle,
    forward_toa,
    forward_toa_batch,
    localization_error,
    residual,
    sample_points_in_triangle,
    solve_analytic,
    solve_closed_form,
    solve_closed_form_batch,
)

from _oracles import NO_REAL_ROOT_OBS

TRI = canonical_triangle(10000.0)


def _random_interior(n, seed):
    return sample_points_in_triangle(TRI, n, np.random.default_rng(seed))


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

    def test_batch_matches_scalar(self):
        pts = _random_interior(50, 71)
        t0s = np.linspace(0.0, 1e-3, 50)
        batch = forward_toa_batch(pts, TRI, t0s)
        assert batch.shape == (50, 3)
        for i in range(50):
            obs = forward_toa(Position(*pts[i]), TRI, float(t0s[i]))
            assert np.array_equal(batch[i], obs.as_array())


def test_toa_observation_validation():
    with pytest.raises(ValueError):
        ToAObservation(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        ToAObservation(0.0, math.inf, 0.0)


def test_estimate_validation():
    with pytest.raises(ValueError):
        LocalizationEstimate(Position(0.0, 0.0), 0.0, -1.0, 0)


def test_localization_error():
    est = LocalizationEstimate(Position(3.0, 4.0), 0.0, 0.0, 0)
    assert localization_error(Position(0.0, 0.0), est) == 5.0
    assert localization_error(Position(3.0, 4.0), est) == 0.0


class TestRoundTrip:
    def test_analytic_recovers_position_and_emission(self):
        """Noise-free invert-the-forward-model across random interior points."""
        pts = _random_interior(2000, 72)
        t0s = np.random.default_rng(73).uniform(0.0, 1e-3, 2000)
        for (x, y), t0 in zip(pts, t0s):
            p = Position(float(x), float(y))
            est = solve_analytic(forward_toa(p, TRI, float(t0)), TRI)
            assert localization_error(p, est) < 1e-6
            assert abs(est.t0_s - t0) < 1e-14
            assert est.root_index in (0, 1)

    def test_closed_form_recovers_position_and_emission(self):
        pts = _random_interior(2000, 74)
        t0s = np.random.default_rng(75).uniform(0.0, 1e-3, 2000)
        for (x, y), t0 in zip(pts, t0s):
            p = Position(float(x), float(y))
            est = solve_closed_form(forward_toa(p, TRI, float(t0)), TRI)
            assert localization_error(p, est) < 1e-6
            assert abs(est.t0_s - t0) < 1e-14

    def test_zero_emission_time_is_exact_zero(self):
        # Sub-picosecond numerical residue on t0 is clamped to a clean zero.
        for (x, y) in _random_interior(100, 76):
            obs = forward_toa(Position(float(x), float(y)), TRI, 0.0)
            assert solve_closed_form(obs, TRI).t0_s == 0.0
            assert solve_analytic(obs, TRI).t0_s == 0.0


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


def distance(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


class TestBatchSolver:
    def test_matches_scalar_bitwise(self):
        rng = np.random.default_rng(81)
        pts = _random_interior(300, 82)
        toas = forward_toa_batch(pts, TRI, rng.uniform(0.0, 1e-3, 300))
        toas += rng.uniform(-40e-9, 40e-9, toas.shape)
        out = solve_closed_form_batch(toas, TRI)
        for i in range(300):
            est = solve_closed_form(ToAObservation(*toas[i]), TRI)
            assert est.pos.x == out.x[i]
            assert est.pos.y == out.y[i]
            assert est.t0_s == out.t0_s[i]
            assert est.residual_m == out.residual_m[i]
            assert est.root_index == out.root_index[i]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_closed_form_batch(np.zeros(3), TRI)
        with pytest.raises(ValueError):
            solve_closed_form_batch(np.zeros((2, 4)), TRI)

    def test_failed_rows_are_nan(self):
        toas = np.array([forward_toa(Position(0.0, 0.0), TRI).as_array(), NO_REAL_ROOT_OBS])
        out = solve_closed_form_batch(toas, TRI)
        assert out.ok[0] and not out.ok[1]
        assert np.isnan(out.x[1]) and np.isnan(out.y[1]) and np.isnan(out.t0_s[1])
        assert np.isfinite(out.x[0])


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


class TestResidual:
    def test_exact_solution_has_tiny_residual(self):
        for (x, y) in _random_interior(200, 86):
            obs = forward_toa(Position(float(x), float(y)), TRI, 5e-4)
            est = solve_closed_form(obs, TRI)
            assert est.residual_m < 1e-6
            # Public recomputation agrees with the stored value.
            assert residual(est, obs, TRI) == pytest.approx(est.residual_m, abs=1e-9)

    def test_displaced_estimate_has_positive_residual(self):
        obs = forward_toa(Position(0.0, 0.0), TRI, 1e-4)
        est = solve_closed_form(obs, TRI)
        moved = LocalizationEstimate(
            Position(est.pos.x + 1.0, est.pos.y), est.t0_s, est.residual_m, est.root_index
        )
        assert residual(moved, obs, TRI) > 0.5


class TestDegenerateInputs:
    def test_analytic_rejects_dependent_time_column(self):
        # The arrival matrix is built about the gateway centroid (2/3, 2/3), so
        # c*t_j = (a_j - 2/3) + (b_j - 2/3) makes it rank 2.
        tri = GatewayTriple(Position(1.0, 0.0), Position(0.0, 1.0), Position(1.0, 1.0))
        c = SPEED_OF_LIGHT
        obs = ToAObservation(-1.0 / (3.0 * c), -1.0 / (3.0 * c), 2.0 / (3.0 * c))
        with pytest.raises(SingularGeometryError):
            solve_analytic(obs, tri)

    def test_sliver_triangle_rejected_by_both_routes(self):
        # Thin enough that the difference system is numerically rank 1,
        # but fat enough to pass the constructor's collinearity gate.
        tri = GatewayTriple(
            Position(0.0, 0.0), Position(10000.0, 0.0), Position(20000.0, 3e-10)
        )
        obs = forward_toa(Position(5000.0, 1.0), tri)
        with pytest.raises(SingularGeometryError):
            solve_closed_form(obs, tri)
        with pytest.raises(SingularGeometryError):
            solve_analytic(obs, tri)

    def test_no_real_root_raised_by_both_routes(self):
        obs = ToAObservation(*NO_REAL_ROOT_OBS)
        with pytest.raises(NoRealRootError):
            solve_closed_form(obs, TRI)
        with pytest.raises(NoRealRootError):
            solve_analytic(obs, TRI)
