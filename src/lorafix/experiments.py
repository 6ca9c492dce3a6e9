"""Monte Carlo studies over the gateway triangle.

Two Monte Carlo experiments plus two design sweeps:

* ``sweep_emax`` — worst-case localization error as a function of the counter
  period T: each sampled target's arrival times are shifted by +/-T in the
  6 sign combinations that move the TDoAs, and the per-target worst error is
  averaged. The other two, (+,+,+) and (-,-,-), shift every arrival alike,
  which only moves the emission time t0 and leaves the fix where it was.
* ``error_map`` — spatial error map: per target, many transmissions each
  draw a timing error per gateway from the ideal error model, U[0, T), the
  8 sign patterns are applied on top, and the worst error over all
  estimates is kept.
* ``duty_cycle_grid`` — channel occupancy over a (time-on-air, counter bits)
  grid with feasibility against the 10% and 1% regulatory caps.
* ``alpha_bounds`` — the admissible sync-period interval implied by sweeping
  the slowest spreading factor over bandwidth/payload/coding-rate limits.

Both Monte Carlo experiments share one worst-case kernel: the sweep's shift
magnitudes are its T values, the map's its per-transmission draws; the sweep
passes it its 6 sign patterns, the map all 8. The kernel takes targets in
cache-sized blocks and solves every magnitude set and sign pattern of a
block in one batch call. It builds the block's
observations pattern-major, target index innermost, so the solver reads each
gateway's column contiguously and the worst case and failure count of a
target reduce over the leading axes. Batch rows are solved independently, so
neither the block size nor the row order changes an output bit.

Reproducibility contract: every random draw is made upfront in the parent
process from the master seed; workers receive contiguous index slices of
that pre-drawn state, reduce only within a target, and every reduction
across targets happens in the parent. Results are therefore bit-identical
for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .counter import CounterConfig, quantize
from .error_model import SIGN_PATTERNS, ErrorModelParams, sample_error
from .geometry import GatewayTriple, canonical_triangle, sample_points_in_triangle
from .lora_phy import RadioParams, duty_cycle, low_dr_opt_auto, preamble_duration, symbol_duration
from .lora_phy import symbol_terms, time_on_air
from .solver import forward_toa_batch, solve_closed_form_batch

# The sweep's sign patterns: the 6 that shift the arrivals differently. The
# TDoA unknown t0 absorbs a shift common to all three gateways, so (+,+,+)
# and (-,-,-) give the unperturbed fix with t0 = +/-T, as long as -T stays
# above the solver's t0 floor (T < 1 us). The map keeps all 8: there each
# gateway draws its own magnitude, so no pattern is common-mode.
_SWEEP_PATTERNS = SIGN_PATTERNS[1:7]


def _default_triangle() -> GatewayTriple:
    return canonical_triangle(10000.0)


@dataclass(frozen=True)
class SweepConfig:
    """Protocol of the e_max-vs-T sweep."""

    T_range: tuple[float, float, float] = (2.5e-9, 100e-9, 2.5e-9)
    n_points: int = 100_000
    seed: int = 0
    gws: GatewayTriple = field(default_factory=_default_triangle)

    def __post_init__(self):
        start, stop, step = self.T_range
        if not (step > 0):
            raise ValueError(f"T step must be positive, got {step!r}")
        if not (start > 0):
            raise ValueError(f"T range start must be positive, got {start!r}")
        if not (stop >= start):
            raise ValueError(f"T range stop {stop!r} is below its start {start!r}")
        if not math.isfinite((stop - start) / step):
            raise ValueError(
                f"T range {start!r}..{stop!r} in steps of {step!r} has no finite period count"
            )
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points!r}")


@dataclass(frozen=True)
class EmaxResult:
    """Per-T rows of the sweep: mean worst-case error and its spread."""

    T_s: np.ndarray
    e_max_m: np.ndarray
    sigma_m: np.ndarray
    failed_solves: np.ndarray


@dataclass(frozen=True)
class ErrorMapConfig:
    """Protocol of the spatial error map."""

    counter: CounterConfig = CounterConfig(32, 40e-9)
    n_points: int = 7050
    n_transmissions: int = 23
    seed: int = 0
    gws: GatewayTriple = field(default_factory=_default_triangle)

    def __post_init__(self):
        if self.n_points < 1 or self.n_transmissions < 1:
            raise ValueError("n_points and n_transmissions must be >= 1")


@dataclass(frozen=True)
class ErrorMapResult:
    """Per-target worst-case localization error."""

    points: np.ndarray
    max_error_m: np.ndarray
    failed_solves: np.ndarray


@dataclass(frozen=True)
class DutyCycleCell:
    """One (tau, n) grid cell with its occupancy and 10%/1% cap verdicts."""

    tau_s: float
    n_bits: int
    T_s: float
    delta: float
    feasible_10pct: bool
    feasible_1pct: bool


@dataclass(frozen=True)
class AlphaBounds:
    """Admissible sync-period interval and the configurations attaining it."""

    tau_min_s: float
    tau_max_s: float
    argmin: RadioParams
    argmax: RadioParams


def _t_grid(T_range: tuple[float, float, float]) -> np.ndarray:
    start, stop, step = T_range
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(count)


# Solver rows per kernel call. On a 2-vCPU host, with the pattern-major
# layout, 8192 rows gave 14% more solves/s than 4096 on the default error map
# (2 workers) and 20-32% more on a one-period 100k-target sweep; 16384 gained
# at most 2% and took 3-6% more peak RSS. Peak RSS at 8192: 81.1 MiB on that
# map (81.0 before this layout, at 4096) and 45.5 MiB on that sweep (47.4).
_KERNEL_ROWS = 8192


def _chunk_slices(n: int, workers: int) -> list[slice]:
    """Contiguous non-empty slices of ``range(n)``, one per worker, at most one per CPU."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    k = min(int(workers), n, os.cpu_count() or 1)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _map_chunk(pts, t_clean, mags, signs, gws, per_set=True):
    """Worst-case errors for one slice of targets under K magnitude sets.

    ``mags`` broadcasts to (n, K, 3) and ``signs`` is a (P, 3) array of sign
    patterns; set k shifts the arrival times by ``signs[p] * mags[:, k]`` for
    every p. Returns worst errors (-inf where every solve failed) and
    failed-solve counts, of shape (K, n), or (1, n) pooled over all K sets
    when ``per_set`` is False.

    Targets are taken in blocks of about ``_KERNEL_ROWS / (P K)``. A block of
    nb targets builds its observations as one contiguous (3, K, P, nb) array,
    ``obs[j, k, p, i] = t_clean[i, j] + (signs[p, j] * mags[i, k, j])``, and
    passes the (K P nb, 3) view ``obs.reshape(3, -1).T`` to the solver, so
    each gateway's column is contiguous. The errors, shaped (K, P, nb), take
    the targets by broadcasting; the max and the failure count run over the
    pattern axis, or over all K P rows when pooled. Solver rows are
    independent, so neither the block size nor the layout changes a single
    output bit.
    """
    n = pts.shape[0]
    n_sets = mags.shape[1]
    n_signs = len(signs)
    block = max(1, _KERNEL_ROWS // (n_signs * n_sets))
    worst = np.empty((n_sets if per_set else 1, n))
    fails = np.empty(worst.shape, dtype=np.int64)
    signs = signs.T[:, None, :, None]  # (3, 1, P, 1)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        nb = hi - lo
        # mags[i, k, j] moves to [j, k, 0, i]; a shared (1, K, m) set broadcasts over i.
        m = (mags if len(mags) == 1 else mags[lo:hi]).transpose(2, 1, 0)[:, :, None, :]
        obs = np.empty((3, n_sets, n_signs, nb))
        np.multiply(signs, m, out=obs)
        np.add(t_clean[lo:hi].T[:, None, None, :], obs, out=obs)
        out = solve_closed_form_batch(obs.reshape(3, -1).T, gws)
        shape = (n_sets, n_signs, nb) if per_set else (1, n_signs * n_sets, nb)
        err = np.hypot(out.x.reshape(shape) - pts[lo:hi, 0], out.y.reshape(shape) - pts[lo:hi, 1])
        failed = ~out.ok.reshape(shape)
        err[failed] = -np.inf
        np.max(err, axis=1, out=worst[:, lo:hi])
        np.sum(failed, axis=1, out=fails[:, lo:hi])
    return worst, fails


def _map_chunk_call(args):
    return _map_chunk(*args)


def _worst_case(pts, t_clean, mags, signs, gws, workers, per_set=True):
    """:func:`_map_chunk` over all targets; a (1, K, m) ``mags`` goes whole to each slice."""
    slices = _chunk_slices(pts.shape[0], workers)
    if len(slices) == 1:
        return _map_chunk(pts, t_clean, mags, signs, gws, per_set)
    jobs = [
        (pts[s], t_clean[s], mags if len(mags) == 1 else mags[s], signs, gws, per_set)
        for s in slices
    ]
    with ProcessPoolExecutor(max_workers=len(slices)) as ex:
        parts = list(ex.map(_map_chunk_call, jobs))
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*parts))


def sweep_emax(cfg: SweepConfig, workers: int = 1) -> EmaxResult:
    """Mean worst-case localization error per counter period T.

    One target set is sampled once and reused across every T so the sweep
    varies only the perturbation magnitude. For each target and each T, the
    arrival triple is shifted by +/-T in the 6 sign combinations that move
    the TDoAs (``_SWEEP_PATTERNS``); the target contributes the largest of
    its 6 localization errors. The two common-mode combinations are not
    solved: they move only t0, so their fix is the unperturbed one. ``e_max``
    is the mean of those per-target worst cases, ``sigma`` their sample
    spread. Both skip targets whose 6 solves all failed, and are NaN where
    too few remain. ``failed_solves`` counts failures among the solves made,
    6 per target and period.
    """
    T_values = _t_grid(cfg.T_range)
    rng = np.random.default_rng(cfg.seed)
    pts = sample_points_in_triangle(cfg.gws, cfg.n_points, rng)
    t_clean = forward_toa_batch(pts, cfg.gws, 0.0)
    worst, fails = _worst_case(
        pts, t_clean, T_values[None, :, None], _SWEEP_PATTERNS, cfg.gws, workers
    )

    valid = np.isfinite(worst)  # -inf rows are targets whose solves all failed
    e_max = np.empty(len(T_values))
    sigma = np.empty(len(T_values))
    for i in range(len(T_values)):
        w = worst[i][valid[i]]
        e_max[i] = w.mean() if w.size else math.nan
        sigma[i] = w.std(ddof=1) if w.size > 1 else math.nan
    return EmaxResult(
        T_s=T_values,
        e_max_m=e_max,
        sigma_m=sigma,
        failed_solves=fails.sum(axis=1),
    )


def error_map(cfg: ErrorMapConfig, workers: int = 1) -> ErrorMapResult:
    """Spatial map of worst-case localization error.

    Each sampled target is "transmitted" ``n_transmissions`` times; every
    transmission draws an independent timing error per gateway from the
    ideal error model (:func:`lorafix.error_model.sample_error`), uniform on
    [0, T), and all 8 sign patterns of those magnitudes are solved. The
    target keeps the largest error over its 8 * n_transmissions estimates.
    Raises CounterOverflowError when an arrival, moved one period later,
    would not fit the counter.
    """
    params = ErrorModelParams(counter=cfg.counter)
    rng = np.random.default_rng(cfg.seed)
    pts = sample_points_in_triangle(cfg.gws, cfg.n_points, rng)
    t_clean = forward_toa_batch(pts, cfg.gws, 0.0)
    counts = quantize(t_clean, cfg.counter)
    # Perturbed arrivals reach up to one period later; those must fit too.
    quantize(t_clean.max() + cfg.counter.period_s, cfg.counter)
    shape = (cfg.n_points, cfg.n_transmissions, 3)
    errs = sample_error(params, np.broadcast_to(counts[:, None, :], shape), rng).total_s

    worst, fails = _worst_case(pts, t_clean, errs, SIGN_PATTERNS, cfg.gws, workers, per_set=False)
    worst = np.where(np.isfinite(worst[0]), worst[0], math.nan)
    return ErrorMapResult(points=pts, max_error_m=worst, failed_solves=fails[0])


def duty_cycle_grid(tau_values, n_values, T_s: float) -> list[DutyCycleCell]:
    """Occupancy ratio and cap feasibility over a (tau, n) grid.

    Every cell's delta comes from :func:`lorafix.lora_phy.duty_cycle`, with
    its verdicts against the 10% and 1% regulatory caps.
    """
    cells = []
    for tau in tau_values:
        for n in n_values:
            d = duty_cycle(tau, CounterConfig(n, T_s))
            cells.append(
                DutyCycleCell(
                    tau_s=float(tau),
                    n_bits=int(n),
                    T_s=float(T_s),
                    delta=d,
                    feasible_10pct=d <= 0.10,
                    feasible_1pct=d <= 0.01,
                )
            )
    return cells


# Regulatory payload caps (bytes) per bandwidth for the slow sync packets:
# 51 B at the low-rate bandwidths, 33 B where dwell-time rules bite.
DEFAULT_PL_CAPS = {125000: 51, 250000: 51, 500000: 33}


def alpha_bounds(
    sf: int = 12,
    pl_caps=None,
    cr_range=(1, 2, 3, 4),
    n_preamble: int = 8,
) -> AlphaBounds:
    """Admissible sync-period interval from the airtime cross-product.

    Over payload length 1..cap and coding rate for every bandwidth that
    ``pl_caps`` maps to a cap (the low-data-rate flag follows the
    symbol-duration rule), returns the extreme packet durations together
    with the first configurations, in bandwidth, coding-rate, payload
    order, attaining them. A sync period
    must be at least the longest packet and gains nothing below the
    shortest, so [tau_min, tau_max] brackets the design.
    Raises ValueError when the cross product is empty, and on invalid input
    RadioParams' ValueError for the field the full sweep would name first.
    """
    caps = DEFAULT_PL_CAPS if pl_caps is None else pl_caps

    def params(bw, cr, pl, de):
        return RadioParams(sf, bw, cr, pl, n_preamble, 0, de)

    # Airtime never decreases with the payload length, so per (bw, cr) the
    # sweep's first minimum is at pl = 1 and its first maximum is the first
    # payload on the top plateau: the smallest pl whose ceiling term reaches
    # the cap's, ceil(num / den) = k, i.e. 8 * (cap - pl) < num - (k - 1) * den.
    # Durations are formed as time_on_air forms them, so merging the groups in
    # sweep order with strict comparisons gives the full sweep's result.
    # RadioParams checks each coding rate and each cap once, in sweep order.
    best_min = best_max = None
    for bw in sorted(caps):
        de = low_dr_opt_auto(sf, bw)
        cap = caps[bw]
        if not range(1, cap + 1):  # a non-integer cap raises TypeError here
            continue
        check_crs = best_min is None
        for i, cr in enumerate(cr_range):
            if check_crs:
                params(bw, cr, 1, de)
            if i == 0:
                p = params(bw, cr, cap, de)
                t_sym, t_pre = symbol_duration(p), preamble_duration(p)
            n_1 = symbol_terms(sf, cr, 1, 0, de)[0]
            n_top, num, den = symbol_terms(sf, cr, cap, 0, de)
            tau = t_pre + n_1 * t_sym
            if best_min is None or tau < best_min[0]:
                best_min = (tau, bw, cr, 1, de)
            tau = t_pre + n_top * t_sym
            if best_max is None or tau > best_max[0]:
                best_max = (tau, bw, cr, 1 if n_top == n_1 else cap - (num - 1) % den // 8, de)
    if best_min is None:
        raise ValueError(
            "alpha_bounds: the bandwidth x coding-rate x payload cross product is empty"
        )
    argmin, argmax = params(*best_min[1:]), params(*best_max[1:])
    return AlphaBounds(
        tau_min_s=time_on_air(argmin), tau_max_s=time_on_air(argmax), argmin=argmin, argmax=argmax
    )
