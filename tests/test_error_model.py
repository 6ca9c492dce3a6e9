import itertools
import math

import numpy as np
import pytest
from scipy import stats

from lorafix import SIGN_PATTERNS, CounterConfig, ErrorModelParams, sample_error

IDEAL = ErrorModelParams()


class TestSampleError:
    def test_ideal_mode_components(self):
        """Ideal mode leaves only the quantization residue."""
        rng = np.random.default_rng(62)
        for _ in range(500):
            s = sample_error(IDEAL, 1000, rng)
            assert s.drift_s == 0.0
            assert s.slippage_s == 0.0
            assert 0.0 <= s.rounding_s < IDEAL.counter.period_s
            assert s.total_s == s.rounding_s

    def test_total_is_component_sum(self):
        params = ErrorModelParams(sigma1_s=1e-12, sigma2_s=1e-10, max_slippages=3)
        rng = np.random.default_rng(63)
        for _ in range(200):
            s = sample_error(params, 12345, rng)
            assert s.total_s == s.drift_s + s.rounding_s + s.slippage_s
        s = sample_error(params, np.full((50, 4, 3), 12345), rng)
        assert s.total_s.shape == (50, 4, 3)
        for term in (s.drift_s, s.rounding_s, s.slippage_s):
            assert term.shape == (50, 4, 3)
        assert np.array_equal(s.total_s, s.drift_s + s.rounding_s + s.slippage_s)
        assert np.all(s.drift_s != 0.0) and np.any(s.slippage_s != 0.0)

    def test_rounding_uniformity(self):
        rng = np.random.default_rng(2718)
        xs = np.array([sample_error(IDEAL, 0, rng).rounding_s for _ in range(20000)])
        res = stats.kstest(xs / IDEAL.counter.period_s, "uniform")
        assert res.pvalue > 0.001

    def test_drift_scales_with_count(self):
        params = ErrorModelParams(sigma1_s=1e-9)
        rng = np.random.default_rng(64)
        xs = np.array([sample_error(params, 1000, rng).drift_s for _ in range(20000)])
        assert np.std(xs) == pytest.approx(1000 * 1e-9, rel=0.05)
        assert abs(np.mean(xs)) < 5 * 1e-6 / math.sqrt(20000)
        counts = np.repeat([[1000], [4000]], 20000, axis=1)
        drift = sample_error(params, counts, rng).drift_s
        assert np.std(drift, axis=1) == pytest.approx([1000 * 1e-9, 4000 * 1e-9], rel=0.05)
        assert np.all(np.abs(drift.mean(axis=1)) < 5 * np.array([1e-6, 4e-6]) / math.sqrt(20000))

    def test_slippage_multiples_without_jitter(self):
        params = ErrorModelParams(max_slippages=3)
        rng = np.random.default_rng(66)
        seen = set()
        for _ in range(500):
            s = sample_error(params, 0, rng)
            k = s.slippage_s / params.t_g_s
            assert k == pytest.approx(round(k), abs=1e-9)
            assert 0 <= round(k) <= 3
            seen.add(round(k))
        assert seen == {0, 1, 2, 3}
        k = sample_error(params, np.zeros((100, 5), int), rng).slippage_s / params.t_g_s
        assert k.shape == (100, 5)
        assert np.allclose(k, np.round(k), rtol=0.0, atol=1e-9)
        assert set(np.round(k).astype(int).ravel()) == {0, 1, 2, 3}

    def test_ideal_array_draw_equals_scalar_loop(self):
        """One (n, K, 3) ideal-mode draw is n*K*3 scalar draws, bit for bit."""
        counts = np.arange(60, dtype=np.uint64).reshape(5, 4, 3) * 1000
        s = sample_error(IDEAL, counts, np.random.default_rng(68))
        rng = np.random.default_rng(68)
        loop = [sample_error(IDEAL, int(n), rng).total_s for n in counts.ravel()]
        assert s.total_s.shape == (5, 4, 3)
        assert np.array_equal(s.total_s, s.rounding_s)
        assert np.array_equal(s.total_s.ravel(), loop)

    def test_count_range_checked(self):
        rng = np.random.default_rng(67)
        with pytest.raises(ValueError):
            sample_error(IDEAL, -1, rng)
        with pytest.raises(ValueError):
            sample_error(IDEAL, 2**32, rng)
        with pytest.raises(ValueError):
            sample_error(IDEAL, np.array([0, 5, 2**32]), rng)
        full = ErrorModelParams(counter=CounterConfig(64, 40e-9))
        top = np.array([2**64 - 1], dtype=np.uint64)
        assert sample_error(full, top, rng).total_s.shape == (1,)

    def test_deterministic_for_seed(self):
        params = ErrorModelParams(sigma1_s=1e-12, sigma2_s=1e-11, max_slippages=2)
        a = [sample_error(params, 7, np.random.default_rng(99)) for _ in range(10)]
        b = [sample_error(params, 7, np.random.default_rng(99)) for _ in range(10)]
        assert a == b


def test_params_validation():
    with pytest.raises(ValueError):
        ErrorModelParams(sigma1_s=-1e-9)
    with pytest.raises(ValueError):
        ErrorModelParams(max_slippages=-1)
    with pytest.raises(ValueError):
        ErrorModelParams(t_g_s=0.0)
    for knob in ("sigma1_s", "sigma2_s", "max_slippages"):
        with pytest.raises(ValueError):
            ErrorModelParams(**{knob: math.nan})


def test_sign_patterns_order():
    """8 distinct +/-1 rows, in itertools.product((1, -1), repeat=3) order."""
    assert SIGN_PATTERNS.shape == (8, 3)
    assert [tuple(r) for r in SIGN_PATTERNS] == list(itertools.product((1.0, -1.0), repeat=3))
    assert len({tuple(r) for r in SIGN_PATTERNS}) == 8
