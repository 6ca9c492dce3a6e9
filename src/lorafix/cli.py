"""Command-line front end: config ingestion, dispatch, CSV/JSON emission.

Each command is a function ``cmd_*(cfg) -> (cols, rows, summary)`` of the
merged config alone. ``main`` does the rest in one place: it parses the
flags, loads the config, calls the command, emits its table and maps
errors to exit codes.

Exit codes: 0 success, 1 configuration/parse error, 2 domain error
(collinear gateways, no real root, counter overflow), 3 I/O error, 4 a
command too large for memory.
JSON tables are strict JSON: a non-finite value is written as null.

Output routing: with --out, the data table goes to the file and a short
human summary to stdout; without --out, the table goes to stdout and the
summary to stderr. Progress notes always go to stderr.

Config: DEFAULTS, deep-merged with the --config file, then every flag given;
each override flag's dest is the dotted key it replaces (--points ->
sweep.points), and --diameter-m also clears geometry.gateways. Commands read
values only through ``_get``, which requires every section to be an object
and types the leaf, and ``_nums`` (non-empty number lists); a bad value
exits 1 naming its key.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .counter import CounterConfig, CounterOverflowError
from .experiments import (
    ErrorMapConfig,
    SweepConfig,
    alpha_bounds,
    duty_cycle_grid,
    error_map,
    sweep_emax,
)
from .geometry import CollinearGatewaysError, GatewayTriple, Position, canonical_triangle
from .lora_phy import (
    RadioParams,
    duty_cycle,
    low_dr_opt_auto,
    payload_symbol_count,
    preamble_duration,
    symbol_duration,
    time_on_air,
)
from .solver import NoRealRootError, ToAObservation, solve_analytic

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_MEMORY = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -<digits>[.<digits>] as a negative number, and -4e1 or -inf as a flag.
        self._negative_number_matcher = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

    # argparse exits 2 on bad flags by default; 2 is reserved for domain errors.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


DEFAULTS = {
    "seed": None,
    "workers": 1,
    "geometry": {"diameter_m": 10000.0, "gateways": None},
    "toa": None,
    "counter": {"n_bits": 32, "T_ns": 40.0},
    "radio": {
        "sf": 12,
        "bw_hz": 125000,
        "cr": 1,
        "payload": 51,
        "preamble": 8,
        "header_disabled": 0,
        "low_dr_opt": None,  # null = pick by the symbol-duration rule
    },
    "sweep": {"start_ns": 2.5, "stop_ns": 100.0, "step_ns": 2.5, "points": 100000},
    "map": {"points": 7050, "transmissions": 23},
    "grid": {
        "tau_s": [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.6],
        "n_bits": [24, 26, 28, 30, 32, 34, 36, 38],
    },
    # pl_caps null = experiments.DEFAULT_PL_CAPS; a config map replaces it whole.
    "alpha": {"sf": 12, "pl_caps": None, "cr": [1, 2, 3, 4], "preamble": 8},
}

NOT_CONFIG = ("config", "out", "format", "func", "command")  # parser dests that are not keys


def _merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _put(cfg: dict, path, value) -> dict:
    # Copy-on-write (DEFAULTS stays intact); a non-object section is left for _get to report.
    head, *rest = path
    if rest and not isinstance(cfg[head], dict):
        return cfg
    return {**cfg, head: _put(cfg[head], rest, value) if rest else value}


def _load_config(args) -> dict:
    """DEFAULTS, deep-merged with the --config file, then every flag given."""
    cfg = DEFAULTS
    if args.config:
        with open(args.config, "r") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    for key, value in vars(args).items():
        if key not in NOT_CONFIG and value not in (None, []):
            cfg = _put(cfg, key.split("."), value)
    # --diameter-m beats the config's gateways as well as its diameter.
    if vars(args).get("geometry.diameter_m") is not None:
        cfg = _put(cfg, ["geometry", "gateways"], None)
    return cfg


def _num(value, key: str, kind=float):
    """Config ``value`` at dotted ``key`` as ``kind`` (int or float).

    Finite JSON numbers only: a bool, a string, null, NaN or an infinity is
    a ConfigError, and so is a fractional value where an integer is expected.
    """
    if kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    else:
        ok = isinstance(value, (int, float))
    if not ok or isinstance(value, bool):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")
    # argparse's float() and json.load accept nan and inf, and a JSON integer
    # can lie beyond the float range.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {json.dumps(value)}")
    return kind(value)


def _get(cfg: dict, key: str, kind=None):
    """Value at dotted ``key``, typed by ``_num`` if ``kind``; each section must be an object."""
    *sections, leaf = key.split(".")
    for i, name in enumerate(sections):
        cfg = cfg[name]
        if not isinstance(cfg, dict):
            section = ".".join(sections[: i + 1])
            raise ConfigError(f"{section} must be an object, got {json.dumps(cfg)}")
    return cfg[leaf] if kind is None else _num(cfg[leaf], key, kind)


def _nums(values, key: str, kind=float, n=None) -> list:
    """``values`` as a non-empty list of ``kind``, exactly ``n`` long if given."""
    if not isinstance(values, list) or not values or (n and len(values) != n):
        what = f"a list of {n}" if n else "a non-empty list of"
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{key} must be {what} {noun}, got {json.dumps(values)}")
    return [_num(v, f"{key}[{i}]", kind) for i, v in enumerate(values)]


def _resolve_seed(cfg) -> int:
    if _get(cfg, "seed") is None:
        raise ConfigError("stochastic commands need a seed (--seed or the config seed key)")
    seed = _get(cfg, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _geometry(cfg) -> GatewayTriple:
    gws = _get(cfg, "geometry.gateways")
    if gws is None:
        return canonical_triangle(_get(cfg, "geometry.diameter_m", float))
    if not isinstance(gws, list) or len(gws) != 3:
        raise ConfigError(f"geometry.gateways must be 3 [x, y] pairs, got {json.dumps(gws)}")
    return GatewayTriple(
        *(Position(*_nums(g, f"geometry.gateways[{i}]", n=2)) for i, g in enumerate(gws))
    )


def _counter(cfg) -> CounterConfig:
    return CounterConfig(_get(cfg, "counter.n_bits", int), _get(cfg, "counter.T_ns", float) * 1e-9)


def _radio(cfg) -> RadioParams:
    sf = _get(cfg, "radio.sf", int)
    bw = _get(cfg, "radio.bw_hz", int)
    de = _get(cfg, "radio.low_dr_opt")
    return RadioParams(
        sf=sf,
        bw_hz=bw,
        cr=_get(cfg, "radio.cr", int),
        payload_len=_get(cfg, "radio.payload", int),
        n_preamble=_get(cfg, "radio.preamble", int),
        header_disabled=_get(cfg, "radio.header_disabled", int),
        low_dr_opt=low_dr_opt_auto(sf, bw) if de is None else _num(de, "radio.low_dr_opt", int),
    )


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _json_cell(v):
    # Strict JSON has no NaN or infinity.
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _python_cells(r) -> list:
    # numpy scalars become their Python twins, so each cell is a bool, int, float or str.
    return [v.item() if isinstance(v, np.generic) else v for v in r]


# printf conversions that write a cell of exactly this type as _csv_cell does.
_CSV_CONVERSIONS = {float: "%.17g", int: "%d", str: "%s"}


def _csv_lines(rows):
    # One row template per tuple of cell types; a row with any other cell type
    # (a bool, a numpy scalar) goes through _csv_cell.
    templates = {}
    for r in rows:
        types = tuple(map(type, r))
        if types not in templates:
            conv = [_CSV_CONVERSIONS.get(t) for t in types]
            templates[types] = None if None in conv else ",".join(conv)
        template = templates[types]
        if template is None:
            yield ",".join(_csv_cell(v) for v in _python_cells(r))
        else:
            yield template % tuple(r)


def _render(cols, rows, fmt: str) -> str:
    if fmt == "json":
        cells = [[_json_cell(v) for v in _python_cells(r)] for r in rows]
        doc = {"columns": list(cols), "rows": cells}
        return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
    lines = [",".join(cols)]
    lines.extend(_csv_lines(rows))
    return "\n".join(lines) + "\n"


def _emit(cols, rows, summary: str, fmt: str, out) -> None:
    text = _render(cols, rows, fmt)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def cmd_solve(cfg) -> tuple:
    toa = _nums(_get(cfg, "toa"), "toa", n=3)
    est = solve_analytic(ToAObservation(*toa), _geometry(cfg))
    cols = ["x_m", "y_m", "t0_s", "residual_m", "root_index"]
    rows = [[est.pos.x, est.pos.y, est.t0_s, est.residual_m, est.root_index]]
    summary = (
        f"position ({est.pos.x:.3f}, {est.pos.y:.3f}) m, t0 {est.t0_s:.6e} s, "
        f"residual {est.residual_m:.3e} m, root {est.root_index}"
    )
    return cols, rows, summary


def cmd_airtime(cfg) -> tuple:
    radio = _radio(cfg)
    ctr = _counter(cfg)
    tau = time_on_air(radio)
    delta = duty_cycle(tau, ctr)
    cols = ["T_sym_s", "T_preamble_s", "payload_symbols", "tau_s", "n_bits", "T_s", "delta"]
    rows = [[
        symbol_duration(radio), preamble_duration(radio), payload_symbol_count(radio),
        tau, ctr.n_bits, ctr.period_s, delta,
    ]]  # fmt: skip
    summary = (
        f"sf{radio.sf} bw{radio.bw_hz} cr{radio.cr} pl{radio.payload_len} "
        f"de{radio.low_dr_opt}: tau {tau:.6f} s, duty cycle {delta * 100:.4f}% "
        f"at n={ctr.n_bits}, T={ctr.period_s:.3e} s"
    )
    return cols, rows, summary


def cmd_sweep_emax(cfg) -> tuple:
    seed = _resolve_seed(cfg)
    gws = _geometry(cfg)
    T_ns = [_get(cfg, f"sweep.{k}", float) for k in ("start_ns", "stop_ns", "step_ns")]
    points = _get(cfg, "sweep.points", int)
    scfg = SweepConfig(T_range=tuple(t * 1e-9 for t in T_ns), n_points=points, seed=seed, gws=gws)
    workers = _get(cfg, "workers", int)
    anchor_s = _get(cfg, "counter.T_ns", float) * 1e-9
    print(
        f"sweep-emax: {points} targets, T {T_ns[0]:g}..{T_ns[1]:g} ns, workers={workers}",
        file=sys.stderr,
    )
    res = sweep_emax(scfg, workers=workers)
    cols = ["T_s", "e_max_m", "sigma_m", "failed_solves"]
    rows = zip(*(a.tolist() for a in (res.T_s, res.e_max_m, res.sigma_m, res.failed_solves)))
    idx = int(np.argmin(np.abs(res.T_s - anchor_s)))
    if np.isnan(res.e_max_m[idx]):
        # Every target failed at the anchor period.
        summary = f"no fix over {points} targets ({int(res.failed_solves[idx])} failed solves)"
    else:
        summary = (
            f"e_max(T={res.T_s[idx] * 1e9:g} ns) = {res.e_max_m[idx]:.2f} m "
            f"(sigma {res.sigma_m[idx]:.2f} m) over {points} targets"
        )
    return cols, rows, summary


def cmd_dutycycle_grid(cfg) -> tuple:
    # Only the period: the grid's own n_bits replace counter.n_bits.
    T_s = _get(cfg, "counter.T_ns", float) * 1e-9
    tau_values = _nums(_get(cfg, "grid.tau_s"), "grid.tau_s")
    n_values = _nums(_get(cfg, "grid.n_bits"), "grid.n_bits", int)
    cells = duty_cycle_grid(tau_values, n_values, T_s)
    cols = ["tau_s", "n_bits", "T_s", "delta", "feasible_10pct", "feasible_1pct"]
    rows = [
        [c.tau_s, c.n_bits, c.T_s, c.delta, c.feasible_10pct, c.feasible_1pct] for c in cells
    ]
    k10 = sum(c.feasible_10pct for c in cells)
    k1 = sum(c.feasible_1pct for c in cells)
    summary = f"{len(cells)} cells at T={T_s:.3e} s: {k10} feasible at 10%, {k1} at 1%"
    return cols, rows, summary


def cmd_error_map(cfg) -> tuple:
    seed = _resolve_seed(cfg)
    gws = _geometry(cfg)
    ctr = _counter(cfg)
    points = _get(cfg, "map.points", int)
    transmissions = _get(cfg, "map.transmissions", int)
    mcfg = ErrorMapConfig(
        counter=ctr, n_points=points, n_transmissions=transmissions, seed=seed, gws=gws
    )
    workers = _get(cfg, "workers", int)
    print(
        f"error-map: {points} targets x {transmissions} transmissions, "
        f"T={ctr.period_s:.3e} s, workers={workers}",
        file=sys.stderr,
    )
    res = error_map(mcfg, workers=workers)
    cols = ["x_m", "y_m", "max_error_m", "failed_solves"]
    rows = zip(*res.points.T.tolist(), res.max_error_m.tolist(), res.failed_solves.tolist())
    finite = res.max_error_m[np.isfinite(res.max_error_m)]
    errors = f"max error {finite.max():.2f} m, mean {finite.mean():.2f} m" if finite.size else "no fix"
    summary = f"{errors} over {points} targets ({int(res.failed_solves.sum())} failed solves)"
    return cols, rows, summary


def cmd_alpha_bounds(cfg) -> tuple:
    caps = _get(cfg, "alpha.pl_caps")
    if caps is not None:
        if not isinstance(caps, dict) or not all(bw.isdigit() for bw in caps):
            got = json.dumps(caps)
            raise ConfigError(f"alpha.pl_caps must map integer bandwidths to caps, got {got}")
        caps = {int(bw): _num(cap, f"alpha.pl_caps.{bw}", int) for bw, cap in caps.items()}
    cr = _nums(_get(cfg, "alpha.cr"), "alpha.cr", int)
    bounds = alpha_bounds(
        sf=_get(cfg, "alpha.sf", int),
        pl_caps=caps,
        cr_range=cr,
        n_preamble=_get(cfg, "alpha.preamble", int),
    )

    def _params_str(p: RadioParams) -> str:
        return f"sf={p.sf} bw={p.bw_hz} cr={p.cr} pl={p.payload_len} de={p.low_dr_opt}"

    cols = ["tau_min_s", "tau_max_s", "argmin_params", "argmax_params"]
    rows = [[bounds.tau_min_s, bounds.tau_max_s, _params_str(bounds.argmin), _params_str(bounds.argmax)]]
    summary = (
        f"sync period bounds [{bounds.tau_min_s:.6f}, {bounds.tau_max_s:.6f}] s "
        f"(min: {_params_str(bounds.argmin)}; max: {_params_str(bounds.argmax)})"
    )
    return cols, rows, summary


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lorafix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # Every dest outside NOT_CONFIG is the dotted config key its flag overrides.
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--out", help="write the data table to this file")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    stochastic = _Parser(add_help=False)
    stochastic.add_argument("--seed", type=int, help="master seed")
    stochastic.add_argument("--workers", type=int, help="parallel workers (default 1)")

    p = sub.add_parser("solve", parents=[common], help="solve one ToA observation")
    p.add_argument("toa", nargs="*", type=float, help="t1 t2 t3 in seconds")
    p.add_argument("--diameter-m", type=float, dest="geometry.diameter_m")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("airtime", parents=[common], help="packet timing and duty cycle")
    p.add_argument("--sf", type=int, dest="radio.sf")
    p.add_argument("--bw-hz", type=int, dest="radio.bw_hz")
    p.add_argument("--cr", type=int, dest="radio.cr")
    p.add_argument("--payload", type=int, dest="radio.payload")
    p.add_argument("--n-bits", type=int, dest="counter.n_bits")
    p.add_argument("--T-ns", type=float, dest="counter.T_ns")
    p.set_defaults(func=cmd_airtime)

    p = sub.add_parser("sweep-emax", parents=[common, stochastic], help="worst-case error vs counter period")
    p.add_argument("--points", type=int, dest="sweep.points")
    p.add_argument("--T-ns", type=float, dest="counter.T_ns", help="summary anchor period")
    p.add_argument("--diameter-m", type=float, dest="geometry.diameter_m")
    p.set_defaults(func=cmd_sweep_emax)

    p = sub.add_parser("dutycycle-grid", parents=[common], help="occupancy/feasibility grid")
    p.add_argument("--n-bits", type=int, nargs=1, dest="grid.n_bits")
    p.add_argument("--T-ns", type=float, dest="counter.T_ns")
    p.set_defaults(func=cmd_dutycycle_grid)

    p = sub.add_parser("error-map", parents=[common, stochastic], help="spatial worst-case error map")
    p.add_argument("--points", type=int, dest="map.points")
    p.add_argument("--transmissions", type=int, dest="map.transmissions")
    p.add_argument("--n-bits", type=int, dest="counter.n_bits")
    p.add_argument("--T-ns", type=float, dest="counter.T_ns")
    p.add_argument("--diameter-m", type=float, dest="geometry.diameter_m")
    p.set_defaults(func=cmd_error_map)

    p = sub.add_parser("alpha-bounds", parents=[common], help="sync period interval from airtime")
    p.add_argument("--sf", type=int, dest="alpha.sf")
    p.set_defaults(func=cmd_alpha_bounds)

    return parser


# Exit code and message tag of each error main reports; the first match wins,
# because the domain errors (exit 2) subclass ValueError.
_ERRORS = (
    (CollinearGatewaysError, EXIT_DOMAIN, "singular-geometry: "),
    (NoRealRootError, EXIT_DOMAIN, "no-real-root: "),
    (CounterOverflowError, EXIT_DOMAIN, "counter-overflow: "),
    (ValueError, EXIT_CONFIG, ""),
    (OSError, EXIT_IO, "io: "),
    (MemoryError, EXIT_MEMORY, "out-of-memory: "),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cols, rows, summary = args.func(_load_config(args))
        _emit(cols, rows, summary, args.format, args.out)
    except (ValueError, OSError, MemoryError) as e:
        code, tag = next((code, tag) for kind, code, tag in _ERRORS if isinstance(e, kind))
        print(f"error: {tag}{e}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
