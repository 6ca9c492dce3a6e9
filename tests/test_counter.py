import math

import numpy as np
import pytest

from lorafix import (
    CounterConfig,
    CounterOverflowError,
    overflow_time,
    quantize,
    rtc_drift_error,
)

CFG32 = CounterConfig(n_bits=32, period_s=40e-9)


def test_quantize_zero():
    assert quantize(0.0, CFG32) == 0


def test_quantize_floors():
    assert quantize(100e-9, CFG32) == 2
    assert quantize(2.5, CounterConfig(n_bits=8, period_s=1.0)) == 2


def test_quantize_rejects_negative():
    with pytest.raises(ValueError):
        quantize(-1e-9, CFG32)


def test_quantize_monotone():
    rng = np.random.default_rng(51)
    ts = np.sort(rng.uniform(0.0, 100.0, 500))
    counts = [quantize(float(t), CFG32) for t in ts]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_quantize_overflow_boundary():
    # The instant the counter wraps is already out of range; one tick less
    # (well, two, to stay clear of rounding) is representable.
    with pytest.raises(CounterOverflowError):
        quantize(overflow_time(CFG32), CFG32)
    assert quantize(overflow_time(CFG32) - 2 * CFG32.period_s, CFG32) < 2**32


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(53)
    ts = rng.uniform(0.0, 170.0, (40, 3))
    counts = quantize(ts, CFG32)
    assert counts.shape == (40, 3) and counts.dtype == np.uint64
    assert counts.tolist() == [[quantize(float(t), CFG32) for t in row] for row in ts]
    assert type(quantize(1.0, CFG32)) is int


def test_quantize_array_checks_range():
    with pytest.raises(CounterOverflowError):
        quantize(np.array([0.0, overflow_time(CFG32)]), CFG32)
    with pytest.raises(ValueError):
        quantize(np.array([1.0, -1e-9]), CFG32)


def test_quantize_64_bit_readings_do_not_wrap():
    # The largest readings a 64-bit counter holds exceed the int64 range.
    cfg = CounterConfig(n_bits=64, period_s=1.0)
    top = float(2**64 - 2**11)  # the largest double below 2^64
    assert quantize(top, cfg) == 2**64 - 2**11
    assert quantize(np.array([top, 0.0]), cfg).tolist() == [2**64 - 2**11, 0]
    with pytest.raises(CounterOverflowError):
        quantize(np.array([float(2**64)]), cfg)


def test_overflow_time_values():
    assert overflow_time(CFG32) == pytest.approx(171.79, abs=0.01)
    assert overflow_time(CounterConfig(n_bits=1, period_s=1.0)) == 2.0
    assert overflow_time(CounterConfig(n_bits=28, period_s=40e-9)) == pytest.approx(10.74, abs=0.01)


def test_overflow_time_doubles_per_bit():
    for n in range(1, 40):
        assert overflow_time(CounterConfig(n_bits=n + 1, period_s=40e-9)) == 2 * overflow_time(
            CounterConfig(n_bits=n, period_s=40e-9)
        )


def test_roundtrip_residue_in_period():
    """Quantize-then-reconstruct never moves an instant by a full tick."""
    rng = np.random.default_rng(52)
    for t in rng.uniform(0.0, 170.0, 1000):
        n = quantize(float(t), CFG32)
        back = n * CFG32.period_s
        assert back <= t
        assert t - back < CFG32.period_s * (1 + 1e-9)


def test_counter_config_validation():
    with pytest.raises(ValueError):
        CounterConfig(n_bits=0, period_s=40e-9)
    with pytest.raises(ValueError):
        CounterConfig(n_bits=65, period_s=40e-9)
    with pytest.raises(ValueError):
        CounterConfig(n_bits=32, period_s=0.0)
    # Whole floats and bools are not integers; an infinite period would
    # quantize every arrival to 0.
    for n_bits in (32.0, 32.5, True):
        with pytest.raises(ValueError, match="n_bits must be an integer"):
            CounterConfig(n_bits, 40e-9)
    with pytest.raises(ValueError, match="period_s must be finite"):
        CounterConfig(32, math.inf)


def test_numpy_integer_bits_match_python_int():
    for n_bits in (8, 32, 64):
        want = CounterConfig(n_bits, 40e-9)
        for cast in (np.int64, np.uint8):
            cfg = CounterConfig(cast(n_bits), 40e-9)
            assert type(overflow_time(cfg)) is float
            assert overflow_time(cfg) == overflow_time(want)
            t = overflow_time(want) * 0.75
            assert quantize(t, cfg) == quantize(t, want)
            with pytest.raises(CounterOverflowError):
                quantize(overflow_time(want), cfg)


class TestRtcDrift:
    def test_reference_value_exact(self):
        # 5 ppm over 200 s of flight time: one millisecond, exactly in
        # floating point (5 * 1e-6 * 200 has no rounding).
        assert rtc_drift_error(5.0, 200.0) == 1e-3

    def test_zero_ppm(self):
        assert rtc_drift_error(0.0, 123.0) == 0.0

    def test_linear_in_both_arguments(self):
        base = rtc_drift_error(5.0, 2.0)
        assert base == pytest.approx(1e-5, rel=1e-12)
        assert rtc_drift_error(10.0, 2.0) == pytest.approx(2 * base, rel=1e-12)
        assert rtc_drift_error(5.0, 4.0) == pytest.approx(2 * base, rel=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            rtc_drift_error(-1.0, 1.0)
        with pytest.raises(ValueError):
            rtc_drift_error(1.0, -1.0)
        for ppm, elapsed_s, name in (
            (math.nan, 1.0, "ppm"), (math.inf, 1.0, "ppm"),
            (1.0, math.nan, "elapsed_s"), (1.0, math.inf, "elapsed_s"),
        ):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                rtc_drift_error(ppm, elapsed_s)
