"""LoRa packet timing: symbol/preamble durations, time-on-air, duty cycle.

The packet duration model is the standard Semtech formula for LoRa modems:

    T_sym      = 2^SF / BW
    T_preamble = (n_preamble + 4.25) * T_sym
    N_payload  = 8 + max(ceil((8*PL - 4*SF + 28 + 16 - 20*H) / (4*(SF - 2*DE)))
                         * (CR + 4), 0)
    tau        = T_preamble + N_payload * T_sym

H = 0 means the explicit header is present (H = 1 drops it); DE = 1 enables
the low-data-rate optimization; the +16 term is the payload CRC, which is
always on for uplinks and therefore not exposed as a knob.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counter import CounterConfig, overflow_time

VALID_BW_HZ = (125000, 250000, 500000)

# Low-data-rate optimization is mandated by LoRa chipsets once symbols grow
# past ~16 ms; used as the default when a caller does not force DE.
LOW_DR_OPT_SYMBOL_THRESHOLD_S = 16e-3


@dataclass(frozen=True)
class RadioParams:
    """One LoRa transmit configuration.

    Attributes
    ----------
    sf : int
        Spreading factor, 7..12.
    bw_hz : int
        Bandwidth in Hz: 125000, 250000 or 500000.
    cr : int
        Coding rate index 1..4, meaning rate 4/(4+cr).
    payload_len : int
        Payload size in bytes, 0..255.
    n_preamble : int
        Programmed preamble symbols (the radio adds 4.25 on top).
    header_disabled : int
        H flag: 0 = explicit header present, 1 = implicit header.
    low_dr_opt : int
        DE flag: 1 = low-data-rate optimization on.
    """

    sf: int
    bw_hz: int
    cr: int
    payload_len: int
    n_preamble: int = 8
    header_disabled: int = 0
    low_dr_opt: int = 0

    def __post_init__(self):
        if not 7 <= self.sf <= 12:
            raise ValueError(f"sf must be in 7..12, got {self.sf!r}")
        if self.bw_hz not in VALID_BW_HZ:
            raise ValueError(f"bw_hz must be one of {VALID_BW_HZ}, got {self.bw_hz!r}")
        if not 1 <= self.cr <= 4:
            raise ValueError(f"cr must be in 1..4, got {self.cr!r}")
        if not 0 <= self.payload_len <= 255:
            raise ValueError(f"payload_len must be in 0..255, got {self.payload_len!r}")
        if self.n_preamble < 1:
            raise ValueError(f"n_preamble must be >= 1, got {self.n_preamble!r}")
        if self.header_disabled not in (0, 1):
            raise ValueError(f"header_disabled must be 0 or 1, got {self.header_disabled!r}")
        if self.low_dr_opt not in (0, 1):
            raise ValueError(f"low_dr_opt must be 0 or 1, got {self.low_dr_opt!r}")


def low_dr_opt_auto(sf: int, bw_hz: int) -> int:
    """Default DE flag: 1 iff the symbol duration, of validated sf and bw_hz, exceeds 16 ms."""
    validated = RadioParams(sf=sf, bw_hz=bw_hz, cr=1, payload_len=0)
    return 1 if symbol_duration(validated) > LOW_DR_OPT_SYMBOL_THRESHOLD_S else 0


def symbol_duration(params: RadioParams) -> float:
    """Symbol duration T_sym = 2^SF / BW, seconds."""
    return (2**params.sf) / params.bw_hz


def preamble_duration(params: RadioParams) -> float:
    """Preamble duration (n_preamble + 4.25) * T_sym, seconds."""
    return (params.n_preamble + 4.25) * symbol_duration(params)


def payload_symbol_count(params: RadioParams) -> int:
    """Number of payload (plus header) symbols in the packet."""
    return symbol_terms(
        params.sf, params.cr, params.payload_len, params.header_disabled, params.low_dr_opt
    )[0]


def symbol_terms(sf, cr, payload_len, header_disabled, low_dr_opt) -> tuple[int, int, int]:
    """(N_payload, num, den) of the airtime formula, with N_payload = 8 +
    max(ceil(num / den) * (cr + 4), 0), on unvalidated integer fields."""
    num = 8 * payload_len - 4 * sf + 28 + 16 - 20 * header_disabled  # +16: payload CRC
    den = 4 * (sf - 2 * low_dr_opt)
    # Exact integer ceiling division: floating ceil misbehaves at exact
    # multiples, and num may be negative.
    return 8 + max(-(-num // den) * (cr + 4), 0), num, den


def time_on_air(params: RadioParams) -> float:
    """Total packet duration (preamble + payload), seconds."""
    return preamble_duration(params) + payload_symbol_count(params) * symbol_duration(params)


def duty_cycle(tau_s: float, counter: CounterConfig) -> float:
    """Channel occupancy ratio for one transmission per counter rollover.

    A packet of duration ``tau_s`` sent once every counter span 2^n * T
    occupies delta = tau / (2^n * T) of the channel.
    """
    if not (tau_s > 0):
        raise ValueError(f"tau_s must be positive, got {tau_s!r}")
    return tau_s / overflow_time(counter)
