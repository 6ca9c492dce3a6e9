"""TDoA localization over a counter-synchronized LoRa gateway triangle.

The package models a three-gateway deployment that timestamps packet
arrivals with free-running n-bit counters reset by a stationary sync
transmitter, and provides:

* exact forward/inverse position solvers (analytic and closed-form routes),
* the stochastic timestamp-error model (quantization, drift, slippage),
* LoRa time-on-air and duty-cycle arithmetic for sizing the sync period,
* reproducible Monte Carlo experiments mapping timing error to position
  error across the triangle.
"""

from .counter import (
    CounterConfig,
    CounterOverflowError,
    overflow_time,
    quantize,
    rtc_drift_error,
)
from .error_model import (
    SIGN_PATTERNS,
    ErrorModelParams,
    ToAErrorSample,
    sample_error,
)
from .experiments import (
    DEFAULT_PL_CAPS,
    AlphaBounds,
    EmaxResult,
    ErrorMapConfig,
    ErrorMapResult,
    SweepConfig,
    alpha_bounds,
    error_map,
    sweep_emax,
)
from .geometry import (
    CollinearGatewaysError,
    GatewayTriple,
    Position,
    barycentric,
    canonical_triangle,
    contains,
    distance,
    sample_points_in_triangle,
)
from .lora_phy import (
    RadioParams,
    duty_cycle,
    low_dr_opt_auto,
    payload_symbol_count,
    preamble_duration,
    symbol_duration,
    time_on_air,
)
from .solver import (
    SPEED_OF_LIGHT,
    BatchSolveResult,
    LocalizationEstimate,
    NoRealRootError,
    ToAObservation,
    forward_toa,
    forward_toa_batch,
    solve_analytic,
    solve_closed_form,
    solve_closed_form_batch,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "CounterConfig",
    "CounterOverflowError",
    "overflow_time",
    "quantize",
    "rtc_drift_error",
    "SIGN_PATTERNS",
    "ErrorModelParams",
    "ToAErrorSample",
    "sample_error",
    "AlphaBounds",
    "DEFAULT_PL_CAPS",
    "EmaxResult",
    "ErrorMapConfig",
    "ErrorMapResult",
    "SweepConfig",
    "alpha_bounds",
    "error_map",
    "sweep_emax",
    "CollinearGatewaysError",
    "GatewayTriple",
    "Position",
    "barycentric",
    "canonical_triangle",
    "contains",
    "distance",
    "sample_points_in_triangle",
    "RadioParams",
    "duty_cycle",
    "low_dr_opt_auto",
    "payload_symbol_count",
    "preamble_duration",
    "symbol_duration",
    "time_on_air",
    "BatchSolveResult",
    "LocalizationEstimate",
    "NoRealRootError",
    "ToAObservation",
    "forward_toa",
    "forward_toa_batch",
    "solve_analytic",
    "solve_closed_form",
    "solve_closed_form_batch",
]
