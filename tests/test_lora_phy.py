import math

import numpy as np
import pytest

from lorafix import (
    CounterConfig,
    RadioParams,
    duty_cycle,
    low_dr_opt_auto,
    payload_symbol_count,
    preamble_duration,
    symbol_duration,
    time_on_air,
)

from _oracles import AIRTIME_ORACLE


def _params(sf, bw, pl, cr, n_pre=8, h=0, de=0):
    return RadioParams(
        sf=sf,
        bw_hz=bw,
        cr=cr,
        payload_len=pl,
        n_preamble=n_pre,
        header_disabled=h,
        low_dr_opt=de,
    )


class TestSymbolDuration:
    def test_sf7_125k(self):
        assert symbol_duration(_params(7, 125000, 10, 1)) == pytest.approx(1.024e-3, rel=1e-12)

    def test_sf12_125k(self):
        assert symbol_duration(_params(12, 125000, 10, 1, de=1)) == pytest.approx(32.768e-3, rel=1e-12)

    def test_sf12_500k(self):
        assert symbol_duration(_params(12, 500000, 10, 1)) == pytest.approx(8.192e-3, rel=1e-12)

    def test_doubles_per_sf_step(self):
        for sf in range(7, 12):
            de_lo = low_dr_opt_auto(sf, 125000)
            de_hi = low_dr_opt_auto(sf + 1, 125000)
            t_lo = symbol_duration(_params(sf, 125000, 10, 1, de=de_lo))
            t_hi = symbol_duration(_params(sf + 1, 125000, 10, 1, de=de_hi))
            assert t_hi == pytest.approx(2 * t_lo, rel=1e-12)


def test_preamble_duration_sf7():
    # 8 programmed symbols plus the fixed 4.25-symbol tail.
    assert preamble_duration(_params(7, 125000, 10, 1)) == pytest.approx(12.544e-3, rel=1e-12)


def test_preamble_duration_sf12():
    assert preamble_duration(_params(12, 125000, 10, 1, de=1)) == pytest.approx(401.408e-3, rel=1e-12)


def test_preamble_duration_offset_structure():
    p1 = _params(7, 125000, 10, 1, n_pre=1)
    p9 = _params(7, 125000, 10, 1, n_pre=9)
    ts = symbol_duration(p1)
    assert preamble_duration(p1) == pytest.approx(5.25 * ts, rel=1e-12)
    assert preamble_duration(p9) - preamble_duration(p1) == pytest.approx(8 * ts, rel=1e-12)


class TestPayloadSymbolCount:
    def test_reference_point(self):
        assert payload_symbol_count(_params(12, 125000, 51, 1, de=1)) == 63

    def test_floor_clamps_to_eight(self):
        # Tiny payload with the header stripped at high SF drives the
        # ceiling term to zero; the count bottoms out at 8 symbols.
        assert payload_symbol_count(_params(12, 125000, 0, 1, h=1, de=1)) == 8

    def test_block_granularity(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            sf = int(rng.integers(7, 13))
            bw = int(rng.choice([125000, 250000, 500000]))
            cr = int(rng.integers(1, 5))
            pl = int(rng.integers(1, 200))
            de = low_dr_opt_auto(sf, bw)
            n = payload_symbol_count(_params(sf, bw, pl, cr, de=de))
            if n > 8:
                assert (n - 8) % (cr + 4) == 0

    def test_monotone_in_payload(self):
        prev = 0
        for pl in range(1, 120):
            n = payload_symbol_count(_params(9, 125000, pl, 2))
            assert n >= prev
            prev = n


class TestTimeOnAir:
    def test_reference_value(self):
        assert time_on_air(_params(12, 125000, 51, 1, de=1)) == pytest.approx(2.465792, rel=1e-12)

    def test_oracle_table(self):
        """Twenty configurations against an independently computed table."""
        for sf, bw, pl, cr, n_pre, h, de, expected in AIRTIME_ORACLE:
            tau = time_on_air(_params(sf, bw, pl, cr, n_pre=n_pre, h=h, de=de))
            assert abs(tau - expected) < 1e-6, (sf, bw, pl, cr, n_pre, h, de)

    def test_decomposition(self):
        p = _params(10, 250000, 51, 2)
        tau = time_on_air(p)
        assert tau == pytest.approx(
            preamble_duration(p) + payload_symbol_count(p) * symbol_duration(p), rel=1e-12
        )

    def test_monotonicity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            sf = int(rng.integers(7, 12))
            bw = int(rng.choice([125000, 250000, 500000]))
            cr = int(rng.integers(1, 5))
            pl = int(rng.integers(1, 100))
            de = low_dr_opt_auto(sf, bw)
            base = time_on_air(_params(sf, bw, pl, cr, de=de))
            assert time_on_air(_params(sf, bw, pl + 1, cr, de=de)) >= base
            assert time_on_air(_params(sf + 1, bw, pl, cr, de=de)) > base
            if bw < 500000:
                assert time_on_air(_params(sf, bw * 2, pl, cr, de=de)) < base


def test_low_dr_opt_auto():
    # Mandated exactly when a symbol lasts longer than 16 ms.
    assert low_dr_opt_auto(12, 125000) == 1
    assert low_dr_opt_auto(11, 125000) == 1
    assert low_dr_opt_auto(12, 250000) == 1
    assert low_dr_opt_auto(12, 500000) == 0
    assert low_dr_opt_auto(10, 125000) == 0
    assert low_dr_opt_auto(7, 125000) == 0


class TestRadioParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sf=6),
            dict(sf=13),
            dict(bw_hz=200000),
            dict(cr=0),
            dict(cr=5),
            dict(payload_len=-1),
            dict(payload_len=256),
            dict(n_preamble=0),
            dict(header_disabled=2),
            dict(low_dr_opt=-1),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        base = dict(sf=7, bw_hz=125000, cr=1, payload_len=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RadioParams(**base)


CFG32 = CounterConfig(n_bits=32, period_s=40e-9)


class TestDutyCycle:
    def test_full_window_is_one(self):
        # Airtime equal to the whole counter span uses it exactly.
        assert duty_cycle(float(2**32) * 40e-9, CFG32) == 1.0

    def test_halves_per_extra_bit(self):
        d = duty_cycle(1.0, CFG32)
        assert duty_cycle(1.0, CounterConfig(33, 40e-9)) == d / 2

    def test_reference_point(self):
        d = duty_cycle(1.0, CFG32)
        assert d == pytest.approx(1.0 / 171.79869184, rel=1e-12)
        assert round(d, 5) == 0.00582

    def test_validation(self):
        # n_bits and the period are checked by CounterConfig itself.
        with pytest.raises(ValueError, match="tau_s must be positive"):
            duty_cycle(-1.0, CFG32)
