"""The three perfbench workloads.

Each workload makes its inputs from the seed and runs one operation at a
time through lorafix's public entry points: a closed loop with one client.
Outputs are checked in :meth:`check`, outside every timed region.

``sweep-bigbatch``
    ``lorafix sweep-emax`` in-process with ``--workers 1`` and the paper's
    100k targets, so each batch solve has 100k rows: 2.4 MB of input alone,
    and tens of MB of temporaries, against a 2 MiB L2. Each operation is one
    CLI call over one of the paper's 40 counter periods, in grid order from
    40 ns (the warm-up's period) onwards, so operation 0 repeats the warm-up
    call exactly.
``map-pool``
    ``lorafix error-map`` at the paper defaults (7050 targets x 23
    transmissions x 8 sign patterns) with ``--workers 2``. Each worker makes
    184 batch solves of about 3.5k rows, inside the cache, so per-call
    overhead, the process pool and the CSV render are on the critical path.
    Operation k maps seed ``seed + k``.
``interactive``
    Single fixes, one request at a time, from four deployments that are not
    the canonical triangle (other scales, rotations and shapes). Each request
    is one perturbed observation solved by both scalar routes; every 63rd
    request also asks one ``alpha_bounds`` design query.

Every workload reports every end-to-end metric. On the two batch workloads
``fix_*_us`` time the scalar routes solving a sample of the very
observations the batch run solves, and ``alpha_bounds_p50_us`` times the
paper's SF12 design query. Those requests run between the batch calls,
outside their timed region, so that the samples cover the whole run and
not one moment of it.

The ``fix_*_us`` percentiles are taken over distinct requests, of each
request's median latency over its repeats (``request_percentile_us``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from lorafix import cli, experiments, solver
from lorafix.error_model import SIGN_PATTERNS
from lorafix.geometry import GatewayTriple, Position, canonical_triangle, sample_points_in_triangle
from lorafix.solver import NoRealRootError, ToAObservation, forward_toa_batch

# Route agreement and exactness tolerances of the acceptance suite.
PERTURBED_TOL_M = 1e-3
NOISELESS_TOL_M = 1e-6

# Paper targets; a band only gates seed 0 at the paper's sizes, as in the
# paper's figures. Other seeds legitimately leave it (seed 2's map reaches
# 31.86 m).
SWEEP_E40_BAND_M = (18.75 * 0.85, 18.75 * 1.15)
MAP_MAX_BAND_M = (23.0 * 0.8, 23.0 * 1.2)


class OpFailed(RuntimeError):
    pass


def call_cli(argv: list[str]) -> float:
    """Run one ``lorafix`` command line in-process; return its wall time."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    if code != 0:
        raise OpFailed(f"lorafix {argv[0]} exited {code}: {err.getvalue().strip()}")
    return dt


def parse_table(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise OpFailed(f"table header {lines[:1]!r}, expected {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(
        -1, header.count(",") + 1
    )


def timed_fix(route: str, obs: ToAObservation, gws: GatewayTriple):
    """One scalar fix: (seconds, (x, y) or None when rejected as rootless)."""
    fn = solver.solve_analytic if route == "analytic" else solver.solve_closed_form
    t0 = time.perf_counter()
    try:
        est = fn(obs, gws)
    except NoRealRootError:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, (est.pos.x, est.pos.y)


def route_problems(a: np.ndarray, b: np.ndarray, label: str) -> list[str]:
    """Rows where two solutions disagree on the verdict or the position.

    ``a`` and ``b`` are (n, 2) positions with NaN for a rejected row.
    """
    out = []
    split = np.isnan(a[:, 0]) != np.isnan(b[:, 0])
    if split.any():
        out.append(f"{label}: {int(split.sum())} split reject verdicts")
    gap = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
    gap = gap[np.isfinite(gap)]
    if gap.size and gap.max() > PERTURBED_TOL_M:
        out.append(f"{label}: positions {gap.max():.3e} m apart (tolerance {PERTURBED_TOL_M} m)")
    return out


# --- alpha_bounds oracle --------------------------------------------------

# The paper's payload caps per bandwidth, as in the CLI defaults.
PL_CAPS = {125000: 51, 250000: 51, 500000: 33}


def airtime_exact(sf: int, bw: int, cr: int, pl: int, n_preamble: int = 8) -> Fraction:
    """LoRa time on air in exact rationals (explicit header, CRC on)."""
    t_sym = Fraction(2**sf, bw)
    de = 1 if t_sym > Fraction(16, 1000) else 0
    num = 8 * pl - 4 * sf + 28 + 16
    den = 4 * (sf - 2 * de)
    n_payload = 8 + max(-(-num // den) * (cr + 4), 0)
    return (n_preamble + Fraction(17, 4)) * t_sym + n_payload * t_sym


def alpha_oracle(sf: int) -> tuple[float, float]:
    taus = [
        airtime_exact(sf, bw, cr, pl)
        for bw, cap in PL_CAPS.items()
        for cr in (1, 2, 3, 4)
        for pl in range(1, cap + 1)
    ]
    return float(min(taus)), float(max(taus))


def percentile_us(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e6


def request_percentile_us(seconds: list[float], requests: list[int], q: float) -> float:
    """q-th percentile over distinct requests of each one's median latency.

    Every request repeats several times in a run. On a shared host about one
    call in fifty is slowed by something outside the process, by 60 to 80%
    of a fix; how many depends on the host's load of the moment, and a p99
    over calls measures mostly that. A request's median over its repeats
    leaves it out, so the p99 is that of the requests that cost the program
    most.
    """
    lat = np.asarray(seconds)
    req = np.asarray(requests)
    order = np.argsort(req, kind="stable")
    bounds = np.flatnonzero(np.diff(req[order])) + 1
    medians = [np.median(g) for g in np.split(lat[order], bounds)]
    return float(np.percentile(medians, q)) * 1e6


class _Workload:
    """Scalar fix requests, design queries and the metrics built from them.

    ``self.requests`` holds the fix requests as (observation, gateways)
    pairs. Request r's first answers are kept; a repeat of r must give the
    same answers, bit for bit.
    """

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.requests: list[tuple[ToAObservation, GatewayTriple]] = []
        self.answers: dict[int, tuple] = {}
        self.repeat_mismatch = 0
        self.lat_analytic: list[float] = []
        self.lat_closed: list[float] = []
        self.lat_request: list[int] = []  # the request each latency pair timed
        self.lat_alpha: list[float] = []
        self.alpha_problems: list[str] = []
        self._oracles: dict[int, tuple[float, float]] = {}

    def fix_request(self, r: int, record: bool = True):
        """Solve request r by both routes; return (seconds, rejected solves)."""
        obs, gws = self.requests[r]
        ta, a = timed_fix("analytic", obs, gws)
        tc, c = timed_fix("closed", obs, gws)
        if record:
            self.lat_analytic.append(ta)
            self.lat_closed.append(tc)
            self.lat_request.append(r)
        if r not in self.answers:
            self.answers[r] = (a, c)
        elif self.answers[r] != (a, c):
            self.repeat_mismatch += 1
        return ta + tc, (a is None) + (c is None)

    def design_query(self, sf: int) -> None:
        """One ``alpha_bounds`` query, checked against exact rationals."""
        if sf not in self._oracles:
            self._oracles[sf] = alpha_oracle(sf)
        t0 = time.perf_counter()
        b = experiments.alpha_bounds(sf=sf)
        dt = time.perf_counter() - t0
        self.lat_alpha.append(dt)
        got, want = (b.tau_min_s, b.tau_max_s), self._oracles[sf]
        if any(abs(g - w) > 1e-12 * w for g, w in zip(got, want)):
            self.alpha_problems.append(f"alpha_bounds(sf={sf}) = {got}, exact {want}")

    def answer_positions(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(analytic, closed) positions of answered requests, NaN if rejected."""
        nan = (math.nan, math.nan)
        a = np.array([self.answers[r][0] or nan for r in rows]).reshape(-1, 2)
        c = np.array([self.answers[r][1] or nan for r in rows]).reshape(-1, 2)
        return a, c

    def request_problems(self) -> list[str]:
        problems = list(self.alpha_problems)
        if self.repeat_mismatch:
            problems.append(f"{self.repeat_mismatch} repeated fix requests answered differently")
        problems += route_problems(*self.answer_positions(sorted(self.answers)), "analytic vs closed form")
        return problems

    def between(self, i: int) -> None:
        """Untimed work after operation i; the traced copy of i skips it."""

    def solves_per_s(self, ops: list[dict]) -> float:
        # Median over calls of solves attempted / wall time of the call.
        return float(np.median([op["solves"] / op["s"] for op in ops]))

    def metrics(self, ops: list[dict]) -> dict[str, float]:
        return {
            "solves_per_s": self.solves_per_s(ops),
            "fix_analytic_p50_us": request_percentile_us(self.lat_analytic, self.lat_request, 50),
            "fix_analytic_p99_us": request_percentile_us(self.lat_analytic, self.lat_request, 99),
            "fix_closed_p50_us": request_percentile_us(self.lat_closed, self.lat_request, 50),
            "fix_closed_p99_us": request_percentile_us(self.lat_closed, self.lat_request, 99),
            "alpha_bounds_p50_us": percentile_us(self.lat_alpha, 50),
        }


class _BatchWorkload(_Workload):
    """A CLI batch workload with scalar requests between its calls.

    After batch call i, the next ``SIDE_FIXES`` requests of the cross-check
    sample (cycling) and ``SIDE_QUERIES`` SF12 design queries run. The
    latencies of the first ``WARM_FIXES`` requests after a call are not
    recorded: the first fixes after a batch call take 3 to 5 times as long
    while caches refill, a cost no client issuing single fixes pays, and at
    8 in 512 samples they alone would set the p99.
    """

    SIDE_FIXES = 512
    SIDE_QUERIES = 4
    WARM_FIXES = 8

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self._next_request = 0

    def between(self, i: int) -> None:
        for j in range(self.SIDE_FIXES):
            self.fix_request(self._next_request % len(self.requests), record=j >= self.WARM_FIXES)
            self._next_request += 1
        for _ in range(self.SIDE_QUERIES):
            self.design_query(12)

    def finish_requests(self) -> None:
        """Answer any sample request the run was too short to reach."""
        for r in range(len(self.requests)):
            if r not in self.answers:
                self.fix_request(r, record=False)


class SweepBigBatch(_BatchWorkload):
    name = "sweep-bigbatch"
    HEADER = "T_s,e_max_m,sigma_m,failed_solves"
    GRID_NS = 2.5 * np.arange(1, 41)  # the paper's periods, 2.5..100 ns
    FIRST = 15  # 40 ns, the paper's anchor period

    def __init__(self, seed: int, tmp: Path, points: int = 100_000, sample_targets: int = 256):
        super().__init__(seed, tmp)
        self.points = points
        self.gws = canonical_triangle(10000.0)
        self.grid_cfg = []
        for j, t_ns in enumerate(self.GRID_NS):
            path = tmp / f"sweep-T{j}.json"
            path.write_text(json.dumps({"sweep": {"start_ns": t_ns, "stop_ns": t_ns, "step_ns": 2.5}}))
            self.grid_cfg.append(path)
        self.warm_out = tmp / "sweep-warm.csv"
        self.tables: list[tuple[int, str]] = []

        # Cross-check sample: all 8 sign patterns at the warm-up period of
        # random targets, drawn as sweep_emax draws its targets.
        self.T = self.GRID_NS[self.FIRST] * 1e-9  # the CLI's own conversion of start_ns
        pts = sample_points_in_triangle(self.gws, points, np.random.default_rng(seed))
        self.pick = np.random.default_rng([seed, 1]).choice(points, min(sample_targets, points), replace=False)
        toas = forward_toa_batch(pts[self.pick], self.gws, 0.0)[:, None, :] + self.T * SIGN_PATTERNS[None]
        self.requests = [(ToAObservation(*(float(v) for v in row)), self.gws) for row in toas.reshape(-1, 3)]

    def _argv(self, cfg: Path, out: Path) -> list[str]:
        return [
            "sweep-emax", "--seed", str(self.seed), "--workers", "1",
            "--points", str(self.points), "--config", str(cfg), "--out", str(out),
        ]  # fmt: skip

    def warmup_spec(self) -> dict:
        return {"argv": self._argv(self.grid_cfg[self.FIRST], self.warm_out)}

    def op(self, i: int) -> dict:
        j = (self.FIRST + i) % len(self.GRID_NS)
        out = self.tmp / "sweep.csv"
        dt = call_cli(self._argv(self.grid_cfg[j], out))
        text = out.read_text()
        self.tables.append((j, text))
        rejected = int(parse_table(text, self.HEADER)[:, 3].sum())
        return {"s": dt, "solves": self.points * 8, "rejected": rejected}

    def _table_problems(self, j: int, text: str) -> list[str]:
        rows = parse_table(text, self.HEADER)
        T = self.GRID_NS[j] * 1e-9
        if rows.shape != (1, 4) or rows[0, 0] != T:
            return [f"sweep at {self.GRID_NS[j]} ns: periods {rows[:, 0].tolist()}"]
        # e_max is close to linear in T (about 0.52 m/ns on this triangle).
        _, e_max, sigma, failed = rows[0]
        if not (0.4 < e_max / (T * 1e9) < 0.65 and sigma > 0 and failed >= 0):
            return [f"sweep at {self.GRID_NS[j]} ns: (e_max, sigma, failed) {(e_max, sigma, failed)} out of range"]
        return []

    def check(self) -> list[str]:
        problems = []
        for j, text in self.tables:
            problems += self._table_problems(j, text)

        # Operation 0 repeats the warm-up call: same seed, same bytes, so
        # failure counts repeat exactly.
        warm_text = self.warm_out.read_text()
        if self.tables[0][1] != warm_text:
            problems.append("sweep-emax output differs between two runs of one seed")

        # Recompute the warm-up row from the library's primitives, the way the
        # sweep defines it.
        rng = np.random.default_rng(self.seed)
        pts = sample_points_in_triangle(self.gws, self.points, rng)
        clean = forward_toa_batch(pts, self.gws, 0.0)
        worst = np.full(self.points, -np.inf)
        fails = 0
        expected = np.empty((len(self.pick), 8, 2))
        rejected = []
        for j, s in enumerate(SIGN_PATTERNS):
            out = solver.solve_closed_form_batch(clean + self.T * s[None, :], self.gws)
            err = np.where(out.ok, np.hypot(out.x - pts[:, 0], out.y - pts[:, 1]), -np.inf)
            worst = np.maximum(worst, err)
            fails += int((~out.ok).sum())
            expected[:, j] = np.column_stack([out.x, out.y])[self.pick]
            # Every observation the batch solver rejected joins the sample.
            rejected += [clean[i] + self.T * s for i in np.flatnonzero(~out.ok)]
        w = worst[np.isfinite(worst)]
        ref = (w.mean(), w.std(ddof=1), fails)
        T, e_max, sigma, failed = parse_table(warm_text, self.HEADER)[0]
        if T != self.T or any(abs(a - b) > 1e-9 * abs(b) for a, b in zip((e_max, sigma), ref)) or failed != ref[2]:
            problems.append(f"sweep row at T={T:g}: {(e_max, sigma, failed)}, recomputed {ref}")

        self.requests += [(ToAObservation(*(float(v) for v in row)), self.gws) for row in rejected]
        expected = np.concatenate([expected.reshape(-1, 2), np.full((len(rejected), 2), np.nan)])
        self.finish_requests()
        analytic, _ = self.answer_positions(range(len(self.requests)))
        problems += route_problems(analytic, expected, "analytic vs batch")
        problems += self.request_problems()

        if self.seed == 0 and self.points == 100_000 and not SWEEP_E40_BAND_M[0] <= e_max <= SWEEP_E40_BAND_M[1]:
            problems.append(f"seed 0: e_max(40 ns) {e_max:.2f} m outside the paper band")
        return problems


class MapPool(_BatchWorkload):
    name = "map-pool"
    HEADER = "x_m,y_m,max_error_m,failed_solves"
    T_S = 40e-9  # the CLI default counter period
    SAMPLE_MAPS = 4  # maps 0..3 of a run contribute cross-check targets
    WORKERS = 2  # the pool size; one worker per vCPU of a 2-vCPU host

    def __init__(self, seed: int, tmp: Path, points: int = 7050, transmissions: int = 23, sample_targets: int = 3):
        super().__init__(seed, tmp)
        self.points = points
        self.transmissions = transmissions
        self.gws = canonical_triangle(10000.0)
        self.warm_out = tmp / "map-warm.csv"
        self.kept: dict[int, str] = {}
        self.op_problems: list[str] = []

        # Cross-check sample: every perturbed observation of a few targets of
        # each of the first maps, drawn as error_map draws them.
        self.groups = []  # (map index, target index, target position, request rows)
        for k in range(self.SAMPLE_MAPS):
            rng = np.random.default_rng(seed + k)
            pts = sample_points_in_triangle(self.gws, points, rng)
            errs = rng.random((points, transmissions, 3)) * self.T_S
            clean = forward_toa_batch(pts, self.gws, 0.0)
            for i in np.random.default_rng([seed + k, 1]).choice(points, min(sample_targets, points), replace=False):
                toas = (clean[i] + SIGN_PATTERNS[None, :, :] * errs[i][:, None, :]).reshape(-1, 3)
                start = len(self.requests)
                self.requests += [(ToAObservation(*(float(v) for v in row)), self.gws) for row in toas]
                self.groups.append((k, int(i), pts[i], range(start, len(self.requests))))

    def _argv(self, seed: int, out: Path) -> list[str]:
        return [
            "error-map", "--seed", str(seed), "--workers", str(self.WORKERS),
            "--points", str(self.points), "--transmissions", str(self.transmissions),
            "--out", str(out),
        ]  # fmt: skip

    def warmup_spec(self) -> dict:
        return {"argv": self._argv(self.seed, self.warm_out)}

    def op(self, i: int) -> dict:
        out = self.tmp / "map.csv"
        dt = call_cli(self._argv(self.seed + i, out))
        text = out.read_text()
        rows = parse_table(text, self.HEADER)
        if rows.shape[0] != self.points:
            self.op_problems.append(f"map seed {self.seed + i}: {rows.shape[0]} rows")
        elif not (np.all(rows[:, 2] > 0) and np.all((rows[:, 3] >= 0) & (rows[:, 3] <= 8 * self.transmissions))):
            self.op_problems.append(f"map seed {self.seed + i}: error or failure column out of range")
        if i < self.SAMPLE_MAPS:
            self.kept[i] = text
        return {
            "s": dt,
            "solves": self.points * self.transmissions * 8,
            "rejected": int(rows[:, 3].sum()),
        }

    def check(self) -> list[str]:
        problems = list(self.op_problems)
        # The first timed map repeats the warm-up's seed: same bytes.
        if self.kept.get(0) != self.warm_out.read_text():
            problems.append("error-map output differs between two runs of one seed")
        self.finish_requests()
        tables = {k: parse_table(text, self.HEADER) for k, text in self.kept.items()}
        for k, i, target, rows in self.groups:
            if k not in tables:
                continue
            seed = self.seed + k
            if not np.array_equal(tables[k][i, :2], target):
                problems.append(f"map seed {seed} target {i}: position differs from the seeded draw")
            analytic, _ = self.answer_positions(rows)
            err = np.hypot(analytic[:, 0] - target[0], analytic[:, 1] - target[1])
            rejects = int(np.isnan(err).sum())
            worst = np.nanmax(err) if rejects < err.size else math.nan
            max_err, failed = tables[k][i, 2:]
            if abs(worst - max_err) > PERTURBED_TOL_M or rejects != failed:
                problems.append(
                    f"map seed {seed} target {i}: (max error, failed) = {(max_err, failed)}, "
                    f"analytic route {(worst, rejects)}"
                )
        problems += self.request_problems()
        if self.seed == 0 and (self.points, self.transmissions) == (7050, 23):
            mx = tables[0][:, 2].max()
            if not MAP_MAX_BAND_M[0] <= mx <= MAP_MAX_BAND_M[1]:
                problems.append(f"seed 0: map max error {mx:.2f} m outside the paper band")
        return problems


def _deployment(diameter_m, rotation_deg, center, vertex_deg) -> GatewayTriple:
    r = diameter_m / 2.0
    return GatewayTriple(
        *(
            Position(
                center[0] + r * math.cos(math.radians(rotation_deg + a)),
                center[1] + r * math.sin(math.radians(rotation_deg + a)),
            )
            for a in vertex_deg
        )
    )


# Four fixed deployments: 2 to 30 km across, rotated, off-origin, none
# equilateral.
DEPLOYMENTS = (
    _deployment(2000.0, 17.0, (3000.0, -1200.0), (0.0, 115.0, 250.0)),
    _deployment(5000.0, 73.0, (-800.0, 400.0), (0.0, 130.0, 235.0)),
    _deployment(15000.0, 140.0, (0.0, 0.0), (0.0, 100.0, 220.0)),
    _deployment(30000.0, 250.0, (12000.0, 5000.0), (0.0, 125.0, 240.0)),
)


class Interactive(_Workload):
    name = "interactive"
    T_S = 40e-9  # timing error per gateway, uniform on (-T, T)
    EMIT_S = 1e-3  # emission times uniform on [0, EMIT_S) after the sync reset
    # Odd, so prime to the pool size: the request after a design query,
    # which runs slower while caches refill, changes from cycle to cycle.
    ALPHA_EVERY = 63

    def __init__(self, seed: int, tmp: Path, pool: int = 4096, noiseless_checks: int = 256):
        super().__init__(seed, tmp)
        rng = np.random.default_rng(seed)
        per = -(-pool // len(DEPLOYMENTS))
        truth, clean, noisy = [], [], []
        for gws in DEPLOYMENTS:
            pts = sample_points_in_triangle(gws, per, rng)
            t = forward_toa_batch(pts, gws, rng.uniform(0.0, self.EMIT_S, per))
            truth.append(pts)
            clean.append(t)
            noisy.append(t + rng.uniform(-self.T_S, self.T_S, (per, 3)))
        # Request r comes from deployment r % 4, so the mix is interleaved.
        self.truth = np.stack(truth, axis=1).reshape(-1, 2)[:pool]
        self.clean = np.stack(clean, axis=1).reshape(-1, 3)[:pool]
        self.requests = [
            (ToAObservation(*(float(v) for v in row)), DEPLOYMENTS[r % len(DEPLOYMENTS)])
            for r, row in enumerate(np.stack(noisy, axis=1).reshape(-1, 3)[:pool])
        ]
        self.noiseless_checks = noiseless_checks

    def warmup_spec(self) -> dict:
        obs, g = self.requests[0]
        return {
            "gws": [[p.x, p.y] for p in (g.g1, g.g2, g.g3)],
            "toa": [obs.t1, obs.t2, obs.t3],
            "sf": 12,
        }

    def op(self, i: int) -> dict:
        dt, rejected = self.fix_request(i % len(self.requests))
        if i % self.ALPHA_EVERY == 0:
            self.design_query(7 + (i // self.ALPHA_EVERY) % 6)
        return {"s": dt, "solves": 2, "rejected": rejected}

    def solves_per_s(self, ops: list[dict]) -> float:
        # Scalar solves / time spent in them, over the whole loop.
        return sum(op["solves"] for op in ops) / sum(op["s"] for op in ops)

    def check(self) -> list[str]:
        problems = self.request_problems()
        for r in range(min(self.noiseless_checks, len(self.requests))):
            obs = ToAObservation(*(float(v) for v in self.clean[r]))
            for route in ("analytic", "closed"):
                _, p = timed_fix(route, obs, self.requests[r][1])
                miss = math.inf if p is None else math.dist(p, self.truth[r])
                if miss > NOISELESS_TOL_M:
                    problems.append(f"noiseless request {r}: {route} fix {miss:.3e} m off")
        return problems


WORKLOADS = {w.name: w for w in (SweepBigBatch, MapPool, Interactive)}
