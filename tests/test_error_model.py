import itertools
import math

import numpy as np
import pytest
from scipy import stats

from lorafix import (
    SIGN_PATTERNS,
    SPEED_OF_LIGHT,
    CounterConfig,
    DegenerateSyncTimingError,
    ErrorModelParams,
    Position,
    SyncNodeConfig,
    sample_error,
    sync_offset,
)

IDEAL = ErrorModelParams()


class TestSyncOffset:
    def test_perfect_placement_is_zero(self):
        sync = SyncNodeConfig(pos=Position(0.0, 0.0))
        assert sync_offset(sync, Position(5000.0, 0.0), 5000.0 / SPEED_OF_LIGHT) == 0.0

    def test_reference_value(self):
        # Sync at origin believed correct but actually displaced 0.1 m
        # toward a gateway 5 km out on the x axis.
        sync = SyncNodeConfig(pos=Position(0.0, 0.0), pos_error=(0.1, 0.0))
        t_d = 5000.0 / SPEED_OF_LIGHT
        off = sync_offset(sync, Position(5000.0, 0.0), t_d)
        assert off == pytest.approx(-0.1 / SPEED_OF_LIGHT, rel=1e-12)

    def test_linearity_in_placement_error(self):
        rng = np.random.default_rng(61)
        gw = Position(3000.0, -2000.0)
        t_d = math.hypot(gw.x, gw.y) / SPEED_OF_LIGHT
        for _ in range(50):
            dx, dy = rng.uniform(-1.0, 1.0, 2)
            one = sync_offset(SyncNodeConfig(Position(0.0, 0.0), (dx, dy)), gw, t_d)
            two = sync_offset(SyncNodeConfig(Position(0.0, 0.0), (2 * dx, 2 * dy)), gw, t_d)
            assert two == pytest.approx(2 * one, rel=1e-12, abs=1e-30)

    def test_zero_delay_raises(self):
        sync = SyncNodeConfig(pos=Position(0.0, 0.0), pos_error=(0.1, 0.0))
        with pytest.raises(DegenerateSyncTimingError):
            sync_offset(sync, Position(0.0, 0.0), 0.0)


class TestSampleError:
    def test_ideal_mode_components(self):
        """Ideal mode leaves only the quantization residue."""
        rng = np.random.default_rng(62)
        for _ in range(500):
            s = sample_error(IDEAL, 1000, rng)
            assert s.sync_offset_s == 0.0
            assert s.drift_s == 0.0
            assert s.slippage_s == 0.0
            assert 0.0 <= s.rounding_s < IDEAL.counter.period_s
            assert s.total_s == s.rounding_s

    def test_total_is_component_sum(self):
        params = ErrorModelParams(
            sigma1_s=1e-12,
            sigma2_s=1e-10,
            max_slippages=3,
            drift_enabled=True,
            slippage_enabled=True,
        )
        rng = np.random.default_rng(63)
        for _ in range(200):
            s = sample_error(params, 12345, rng, sync_offset_s=2e-9)
            assert s.total_s == s.sync_offset_s + s.drift_s + s.rounding_s + s.slippage_s
            assert s.sync_offset_s == 2e-9

    def test_rounding_uniformity(self):
        rng = np.random.default_rng(2718)
        xs = np.array([sample_error(IDEAL, 0, rng).rounding_s for _ in range(20000)])
        res = stats.kstest(xs / IDEAL.counter.period_s, "uniform")
        assert res.pvalue > 0.001

    def test_drift_scales_with_count(self):
        params = ErrorModelParams(sigma1_s=1e-9, drift_enabled=True)
        rng = np.random.default_rng(64)
        xs = np.array([sample_error(params, 1000, rng).drift_s for _ in range(20000)])
        assert np.std(xs) == pytest.approx(1000 * 1e-9, rel=0.05)
        assert abs(np.mean(xs)) < 5 * 1e-6 / math.sqrt(20000)

    def test_drift_requires_flag(self):
        params = ErrorModelParams(sigma1_s=1e-9)  # flag left off
        rng = np.random.default_rng(65)
        assert all(sample_error(params, 1000, rng).drift_s == 0.0 for _ in range(20))

    def test_slippage_multiples_without_jitter(self):
        params = ErrorModelParams(max_slippages=3, slippage_enabled=True)
        t_g = params.proc.period_s
        rng = np.random.default_rng(66)
        seen = set()
        for _ in range(500):
            s = sample_error(params, 0, rng)
            k = s.slippage_s / t_g
            assert k == pytest.approx(round(k), abs=1e-9)
            assert 0 <= round(k) <= 3
            seen.add(round(k))
        assert seen == {0, 1, 2, 3}

    def test_count_range_checked(self):
        rng = np.random.default_rng(67)
        with pytest.raises(ValueError):
            sample_error(IDEAL, -1, rng)
        with pytest.raises(ValueError):
            sample_error(IDEAL, 2**32, rng)

    def test_deterministic_for_seed(self):
        params = ErrorModelParams(
            sigma1_s=1e-12, sigma2_s=1e-11, max_slippages=2, drift_enabled=True, slippage_enabled=True
        )
        a = [sample_error(params, 7, np.random.default_rng(99)) for _ in range(10)]
        b = [sample_error(params, 7, np.random.default_rng(99)) for _ in range(10)]
        assert a == b


def test_params_validation():
    with pytest.raises(ValueError):
        ErrorModelParams(sigma1_s=-1e-9)
    with pytest.raises(ValueError):
        ErrorModelParams(max_slippages=-1)


def test_sign_patterns_order():
    """8 distinct +/-1 rows, in itertools.product((1, -1), repeat=3) order."""
    assert SIGN_PATTERNS.shape == (8, 3)
    assert [tuple(r) for r in SIGN_PATTERNS] == list(itertools.product((1.0, -1.0), repeat=3))
    assert len({tuple(r) for r in SIGN_PATTERNS}) == 8
