"""The n-bit synchronous counter: quantization, overflow, drift arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CounterOverflowError(ValueError):
    """The arrival time falls past the counter's rollover point."""


@dataclass(frozen=True)
class CounterConfig:
    """An n-bit counter ticking with period T = ``period_s``."""

    n_bits: int
    period_s: float

    def __post_init__(self):
        if not 1 <= self.n_bits <= 64:
            raise ValueError(f"n_bits must be in 1..64, got {self.n_bits!r}")
        if not (self.period_s > 0):
            raise ValueError(f"period_s must be positive, got {self.period_s!r}")


def quantize(t_true_s, cfg: CounterConfig):
    """Counter reading for a true arrival time: floor(t / T).

    ``t_true_s`` is a float, giving an ``int``, or an array, giving uint64
    readings of its shape. Raises CounterOverflowError if a reading would not
    fit in n bits, i.e. the packet arrived after the counter wrapped.
    """
    t = np.asarray(t_true_s, dtype=float)
    if not np.all(t >= 0):
        raise ValueError(f"arrival time must be non-negative, got {float(t.min())!r}")
    n = np.floor(t / cfg.period_s)
    # Compared as floats: a 64-bit reading does not fit a signed integer.
    if np.any(n >= float(1 << cfg.n_bits)):
        raise CounterOverflowError(
            f"t={float(t.max())!r} s exceeds the {cfg.n_bits}-bit counter range "
            f"({overflow_time(cfg)!r} s)"
        )
    return int(n) if n.ndim == 0 else n.astype(np.uint64)


def overflow_time(cfg: CounterConfig) -> float:
    """Time span 2^n * T after which the counter wraps, seconds."""
    return float(1 << cfg.n_bits) * cfg.period_s


def rtc_drift_error(ppm: float, elapsed_s: float) -> float:
    """Accumulated clock error of a crystal with the given ppm drift."""
    if ppm < 0:
        raise ValueError(f"ppm must be non-negative, got {ppm!r}")
    if elapsed_s < 0:
        raise ValueError(f"elapsed_s must be non-negative, got {elapsed_s!r}")
    return ppm * 1e-6 * elapsed_s
