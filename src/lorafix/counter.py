"""The n-bit synchronous counter: quantization, overflow, drift arithmetic."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class CounterOverflowError(ValueError):
    """The arrival time falls past the counter's rollover point."""


def _require_int(**fields):
    """Raise ValueError unless each value is a Python or numpy integer, not a bool."""
    for name, v in fields.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class CounterConfig:
    """An n-bit counter ticking with period T = ``period_s``."""

    n_bits: int
    period_s: float

    def __post_init__(self):
        _require_int(n_bits=self.n_bits)
        if not 1 <= self.n_bits <= 64:
            raise ValueError(f"n_bits must be in 1..64, got {self.n_bits!r}")
        if not (self.period_s > 0):
            raise ValueError(f"period_s must be positive, got {self.period_s!r}")
        if self.period_s == math.inf:
            raise ValueError(f"period_s must be finite, got {self.period_s!r}")


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
    if np.any(n >= 2.0**cfg.n_bits):
        raise CounterOverflowError(
            f"t={float(t.max())!r} s exceeds the {cfg.n_bits}-bit counter range "
            f"({overflow_time(cfg)!r} s)"
        )
    return int(n) if n.ndim == 0 else n.astype(np.uint64)


def overflow_time(cfg: CounterConfig) -> float:
    """Time span 2^n * T after which the counter wraps, seconds."""
    return float(2.0**cfg.n_bits) * cfg.period_s


def rtc_drift_error(ppm: float, elapsed_s: float) -> float:
    """Accumulated clock error of a crystal with the given ppm drift."""
    if not (0 <= ppm < math.inf):
        raise ValueError(f"ppm must be finite and non-negative, got {ppm!r}")
    if not (0 <= elapsed_s < math.inf):
        raise ValueError(f"elapsed_s must be finite and non-negative, got {elapsed_s!r}")
    return ppm * 1e-6 * elapsed_s
