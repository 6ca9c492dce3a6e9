"""Stochastic model of the per-gateway arrival-time error.

For one received packet, a gateway's timestamp error decomposes into

    e_t = N * w1 + U2[0, T) + U1{0..k} * (T_g + w2)

where ``N * w1`` is counter-clock drift accumulated over N ticks
(w1 ~ Normal(0, sigma1^2)), ``U2[0, T)`` is the unavoidable quantization
residue of the free-running counter, and the last term models 0..k whole
processor cycles of latching slippage, each costing T_g plus its own jitter
(w2 ~ Normal(0, sigma2^2), drawn once per packet since all slips belong to
the same reception).

The ideal mode — zero drift and slippage — leaves exactly the quantization
residue, uniform on [0, T).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .counter import CounterConfig

# The 8 sign patterns of a (+/-e, +/-e, +/-e) perturbation, in a fixed order.
# Rows 0 and 7, (+,+,+) and (-,-,-), shift every arrival alike, which only
# moves the emission time; the e_max sweep solves rows 1..6, the error map
# all 8 (see ``experiments._SWEEP_PATTERNS``).
SIGN_PATTERNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


@dataclass(frozen=True)
class ErrorModelParams:
    """Knobs of the timing-error model.

    t_g_s is the gateway processor clock period, the cost of one slippage;
    sigma1_s / sigma2_s are the per-tick counter drift and per-slip jitter
    standard deviations; max_slippages, a whole number, bounds the discrete
    slippage count. Every knob must be finite.
    A zero sigma1_s or max_slippages switches the drift or slippage term off,
    as in the default, ideal mode.
    """

    counter: CounterConfig = CounterConfig(32, 40e-9)
    t_g_s: float = 2.5e-9
    sigma1_s: float = 0.0
    sigma2_s: float = 0.0
    max_slippages: int = 0

    def __post_init__(self):
        if not (0 < self.t_g_s < math.inf):
            raise ValueError(f"t_g_s must be finite and positive, got {self.t_g_s!r}")
        if not (0 <= self.sigma1_s < math.inf and 0 <= self.sigma2_s < math.inf):
            raise ValueError("drift/jitter standard deviations must be finite and >= 0")
        m = self.max_slippages
        if not (0 <= m < math.inf and m % 1 == 0):
            raise ValueError(f"max_slippages must be an integer >= 0, got {m!r}")


@dataclass(frozen=True)
class ToAErrorSample:
    """Realized timestamp errors, with their additive breakdown.

    Each field is a float, or an array of the sampled counts' shape.
    """

    drift_s: float
    rounding_s: float
    slippage_s: float

    @property
    def total_s(self):
        """The full error e_t; by construction the sum of the components."""
        return self.drift_s + self.rounding_s + self.slippage_s


def sample_error(
    params: ErrorModelParams,
    count: int | np.ndarray,
    rng: np.random.Generator,
) -> ToAErrorSample:
    """Draw timestamp errors for packets latched at counter reading ``count``.

    ``count`` is an int, giving one gateway's error as floats, or an integer
    array, giving one error per reading, each term drawn as one array of
    ``count``'s shape. Terms are drawn in a fixed order: drift, quantization,
    slippage jitter, slippage count. The quantization residue is always
    present; drift and slippage only when ``sigma1_s`` and ``max_slippages``
    are positive.
    """
    if np.min(count) < 0 or np.max(count) >= (1 << params.counter.n_bits):
        raise ValueError(f"count out of the {params.counter.n_bits}-bit counter range")
    size = np.shape(count) or None
    drift = slippage = 0.0 if size is None else np.broadcast_to(0.0, size)
    if params.sigma1_s > 0.0:
        drift = count * rng.normal(0.0, params.sigma1_s, size)
    rounding = rng.random(size) * params.counter.period_s
    if params.max_slippages > 0:
        w2 = rng.normal(0.0, params.sigma2_s, size) if params.sigma2_s > 0.0 else 0.0
        slips = rng.integers(0, params.max_slippages + 1, size)
        slippage = slips * (params.t_g_s + w2)
    return ToAErrorSample(drift_s=drift, rounding_s=rounding, slippage_s=slippage)
