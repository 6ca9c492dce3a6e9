"""Forward arrival-time model and the two TDoA position solvers.

A target at position p emits at the unknown time t0; gateway j at (a_j, b_j)
timestamps the arrival at

    t_j = t0 + d_j / c,        d_j = ||p - gw_j||.

Three gateways give three equations in the three unknowns (x, y, t0). Two
independent solution routes are implemented and cross-validated:

``solve_analytic``
    Squares each arrival equation and writes the system as a single linear
    solve plus a scalar quadratic. With the augmented vectors
    w_j = (a_j, b_j, i*c*t_j) and p = (x, y, i*c*t0), each equation becomes
    2 w_j . p = m_j + l where m_j = w_j . w_j and l = p . p. The cofactors
    of W, a few products in Python floats, give p = (l*u + v)/2 with
    u = W^-1 1 and v = W^-1 m, and substituting back into l = p . p gives

        (u.u) l^2 + (2 u.v - 4) l + (v.v) = 0.

    The imaginary third coordinate only ever appears squared, so the whole
    computation runs in real arithmetic with the indefinite inner product
    x1*y1 + x2*y2 - x3*y3.

``solve_closed_form``
    Subtracts the first squared equation from the other two, eliminating the
    quadratic terms and leaving a 2x2 linear system that expresses (x, y) as
    an affine function of the first-gateway range d1; the circle constraint
    (x-a1)^2 + (y-b1)^2 = d1^2 then closes a scalar quadratic in d1. This is
    the classic two-hyperbola intersection (Chan & Ho 1994), fully
    elementwise, so it also ships as a vectorized batch variant for Monte
    Carlo work. Both variants take the coefficients from one helper
    (``_closing_quadratic``), which the batch calls on its columns and the
    scalar route on Python floats, so a single fix costs a few dozen float
    operations and no numpy call, and equals its batch row bit for bit. The
    batch variant keeps its two candidates candidate-major, as (2, n) arrays;
    both take candidate ranges as sqrt(dx^2 + dy^2) rather than a hypot.

Both routes work about the gateway centroid, so a triangle far from the
coordinate origin loses no precision, and both produce two algebraic
candidates. One residual, ``_rms_residual``, scores them as generated, and
one rule keeps the physical one: ``_pick`` (t0 floor, then the smaller range
residual, NaN losing like inf, and the tie window) and, on a tie, ``_prefer``
(inside the triangle, then nearer its centroid). All three are written once
for floats and arrays: the scalar routes reach them through ``_select``, the
batch on all its rows at once; only the kept t0 is snapped to 0 below 1 ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GatewayTriple, Position, contains

SPEED_OF_LIGHT = 299792458.0  # m/s, exact by SI definition

# Emission times earlier than this are rejected as ghost roots (unless that
# would reject every candidate). Slightly negative values must survive: the
# solver does not know the counter period, whose physical floor is t0 > -T.
DEFAULT_T0_FLOOR_S = -1e-6

# A kept |t0| below this is numerical noise and is reported as exactly 0.
_T0_CLAMP_S = 1e-12

# A negative discriminant within this relative tolerance of the coefficient
# scale is treated as an exact double root (grazing hyperbolas).
_NEG_DISC_RTOL = 1e-9

# Residuals closer than the tie tolerance trigger the inside-the-triangle
# rule. Both algebraic roots solve the squared system exactly whenever the
# hyperbolas truly intersect twice, so their residuals are pure rounding
# noise. Both routes form ranges relative to the arrivals, so the noise comes
# from the rounding of the timestamps and grows linearly with c * t_max (on
# 20k noisy rows of the 10 km triangle the largest true-root residual was
# 3.3e-8 m at t_max = 1 s and 4.3e-6 m at 171 s), while a root that fails the
# sign conditions is off by meters to kilometers. The window adds 1024 * eps
# relative to c * t_max, 6.8e-5 m at 1 s and 1.2e-2 m at 171 s; 64 * eps would
# change the 20k-point sweep digests.
_RES_TIE_M = 1e-9
_RES_TIE_REL = 1024 * 2.0**-52


class NoRealRootError(ValueError):
    """The observation is inconsistent: the solution hyperbolas do not meet."""


@dataclass(frozen=True)
class ToAObservation:
    """Three gateway timestamps, seconds since the last sync reset.

    Values produced by the physical measurement chain are non-negative and
    below the counter overflow time; perturbed or synthetic observations may
    step outside that range, so only finiteness is enforced here.
    """

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for t in (self.t1, self.t2, self.t3):
            if not math.isfinite(t):
                raise ValueError(f"timestamps must be finite, got {t!r}")


@dataclass(frozen=True)
class LocalizationEstimate:
    """A solved fix: position, emission time, and the selection diagnostics.

    ``root_index`` records which algebraic root of the closing quadratic was
    kept (0 or 1), and ``residual_m`` its root-mean-square range consistency.
    """

    pos: Position
    t0_s: float
    residual_m: float
    root_index: int

    def __post_init__(self):
        if not (self.residual_m >= 0):
            raise ValueError(f"residual must be >= 0, got {self.residual_m!r}")


def forward_toa(target: Position, gws: GatewayTriple, t0_s: float = 0.0) -> ToAObservation:
    """Noise-free arrival times t_j = t0 + d_j / c for a target emission: the
    row :func:`forward_toa_batch` gives, bit for bit, and its ValueError on t0."""
    row = forward_toa_batch(np.array([[target.x, target.y]]), gws, t0_s)[0]
    return ToAObservation(*row.tolist())


def forward_toa_batch(points: np.ndarray, gws: GatewayTriple, t0_s=0.0) -> np.ndarray:
    """Vectorized forward model: (n, 2) positions -> (n, 3) arrival times.

    ``t0_s`` may be a scalar or an (n,) array of per-point emission times.
    """
    pts = np.asarray(points, dtype=float)
    t0 = np.asarray(t0_s, dtype=float)
    if not np.all(t0 >= 0):  # NaN fails it too
        raise ValueError("emission times must be non-negative")
    x, y = pts[:, 0], pts[:, 1]
    out = np.empty((pts.shape[0], 3))
    for j, (a, b) in enumerate(gws.as_array()):  # one gateway column at a time
        out[:, j] = t0 + np.hypot(x - a, y - b) / SPEED_OF_LIGHT
    return out


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Both roots of a*x^2 + b*x + c = 0 via the cancellation-safe form.

    Returns (q/a, c/q) with q = -(b + sign(b)*sqrt(disc))/2; a vanishing
    leading coefficient sends the first root to infinity while the second
    smoothly becomes the linear solution -c/b, so callers simply drop
    non-finite roots. Raises NoRealRootError for a discriminant negative
    beyond the grazing tolerance.
    """
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if -disc > _NEG_DISC_RTOL * max(b * b, abs(4.0 * a * c)):
            raise NoRealRootError(f"negative discriminant {float(disc)!r}")
        disc = 0.0
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1 = q / a if a != 0.0 else math.inf
    r2 = c / q if q != 0.0 else math.inf
    return (r1, r2)


def _pick(res0, res1, t00, t01, t_max):
    """(pick1, tie) for two candidates' raw residuals and t0s, on floats or arrays.

    A candidate with t0 above the floor and a finite residual beats one
    without; else the smaller residual wins, an exact tie going to root 0 and
    a NaN residual losing like inf. ``tie`` marks residuals within 1 nm plus
    1024 * eps of c * ``t_max``, the latest arrival: linear, so that a late
    emission does not widen it into a tie on every row. A NaN or inf residual
    never ties. Operators only, so floats need no numpy call.
    """
    p0 = (t00 >= DEFAULT_T0_FLOOR_S) & (res0 < math.inf)
    p1 = (t01 >= DEFAULT_T0_FLOOR_S) & (res1 < math.inf)
    same = p0 == p1
    less = (res1 < res0) | ((res0 != res0) & (res1 < math.inf))
    tol = _RES_TIE_M + _RES_TIE_REL * (SPEED_OF_LIGHT * t_max)
    return (p1 > p0) | (same & less), same & (abs(res1 - res0) < tol)


def _prefer(x0, y0, x1, y1, pick, gws, cx, cy):
    """Settle a tie by the deployment prior, on floats or arrays, in the centroid frame.

    Tied candidates both solve the system, so inside the triangle wins, then nearer
    its centroid (for near-edge fixes noise pushed just outside); equal keys keep ``pick``.
    """
    in0 = contains(gws, (x0 + cx, y0 + cy))
    in1 = contains(gws, (x1 + cx, y1 + cy))
    sq0 = x0 * x0 + y0 * y0
    sq1 = x1 * x1 + y1 * y1
    better0 = (in0 > in1) | ((in0 == in1) & (sq0 < sq1))
    better1 = (in1 > in0) | ((in0 == in1) & (sq1 < sq0))
    return better1 | (pick & (better0 == better1))


def _rms_residual(x, y, t0, t, ga, gb, sqrt):
    """RMS range residual of candidates (x, y, t0) about the centroid frame ``ga``, ``gb``.

    ``t`` holds the arrival times. Only operators and augmented assignments, so
    it gives the same bits on one candidate's floats with ``math.sqrt`` and on
    the batch's (2, n) arrays with ``np.sqrt``. Not finite where x, y or t0 is
    not, so it alone marks a bad candidate.
    """
    s = 0.0
    for aj, bj, tj in zip(ga, gb, t):
        r = x - aj
        r *= r
        d = y - bj
        d *= d
        r += d
        r = sqrt(r)
        d = tj - t0  # rebinding d frees its buffer for the next array
        d *= SPEED_OF_LIGHT
        r -= d
        r *= r
        s += r
    s /= 3.0
    return sqrt(s)


def _select(cands, t, gws, frame):
    """Score a scalar route's two candidates and pick the fix.

    ``cands`` holds two (x, y, t0) in root order, about the centroid of
    ``frame`` (from :func:`_centred_frame`); ``t`` holds the arrival times.
    ``_rms_residual`` scores the raw candidates and ``_pick`` decides, as in
    the batch; only the kept t0 is snapped to 0 below 1 ps. Raises
    NoRealRootError if neither residual is finite.
    """
    cx, cy, ga, gb = frame
    (x0, y0, t00), (x1, y1, t01) = cands
    res0 = _rms_residual(x0, y0, t00, t, ga, gb, math.sqrt)
    res1 = _rms_residual(x1, y1, t01, t, ga, gb, math.sqrt)
    if not (res0 < math.inf or res1 < math.inf):
        raise NoRealRootError("observation admits no real range solution")
    pick, tie = _pick(res0, res1, t00, t01, max(map(abs, t)))
    if tie:
        pick = _prefer(x0, y0, x1, y1, pick, gws, cx, cy)
    x, y, t0, res = (x1, y1, t01, res1) if pick else (x0, y0, t00, res0)
    if abs(t0) < _T0_CLAMP_S:
        t0 = 0.0
    # contains() gives numpy bools on numpy-float gateways.
    return LocalizationEstimate(Position(x + cx, y + cy), t0, res, int(pick))


def _centred_frame(gws: GatewayTriple):
    """The gateway centroid (cx, cy) and the gateway coordinates about it,
    as ((a1, a2, a3), (b1, b2, b3)), all Python floats."""
    g1, g2, g3 = gws.g1, gws.g2, gws.g3
    x1, x2, x3 = float(g1.x), float(g2.x), float(g3.x)
    y1, y2, y3 = float(g1.y), float(g2.y), float(g3.y)
    cx = (x1 + x2 + x3) / 3.0
    cy = (y1 + y2 + y3) / 3.0
    return cx, cy, (x1 - cx, x2 - cx, x3 - cx), (y1 - cy, y2 - cy, y3 - cy)


def _closing_quadratic(t1, t2, t3, ga, gb):
    """Closed-form coefficients in the centroid frame ``ga``, ``gb``.

    Returns (xc, xl, yc, yl, qa, qb, qc): the position x = xc + xl*d1,
    y = yc + yl*d1 as an affine function of the first gateway's range d1,
    and the closing quadratic qa*d1^2 + qb*d1 + qc = 0. The arithmetic runs
    unchanged on floats (one observation) and on arrays (one value per
    row), so the scalar and batch closed forms share every bit of it.
    """
    c = SPEED_OF_LIGHT
    a1, a2, a3 = ga
    b1, b2, b3 = gb
    A21, B21 = 2.0 * (a2 - a1), 2.0 * (b2 - b1)
    A31, B31 = 2.0 * (a3 - a1), 2.0 * (b3 - b1)
    D = A21 * B31 - A31 * B21  # 8x the signed area, which GatewayTriple keeps from 0

    d21 = c * (t2 - t1)
    d31 = c * (t3 - t1)
    k2 = (a2 * a2 + b2 * b2) - (a1 * a1 + b1 * b1)
    k3 = (a3 * a3 + b3 * b3) - (a1 * a1 + b1 * b1)
    p2 = k2 - d21 * d21
    p3 = k3 - d31 * d31

    # (x, y) = (xc, yc) + (xl, yl) * d1 by Cramer's rule.
    xc = (p2 * B31 - p3 * B21) / D
    xl = (-2.0 * d21 * B31 + 2.0 * d31 * B21) / D
    yc = (A21 * p3 - A31 * p2) / D
    yl = (-2.0 * d31 * A21 + 2.0 * d21 * A31) / D

    fx = xc - a1
    fy = yc - b1
    qa = xl * xl + yl * yl - 1.0
    qb = 2.0 * (fx * xl + fy * yl)
    qc = fx * fx + fy * fy
    return xc, xl, yc, yl, qa, qb, qc


def _augmented_solve(ga, gb, t):
    """(u, v, t_min, radius) with A u = 1 and A v = m, by the adjugate of A, in
    Python floats; A and m as in :func:`solve_analytic`. Cofactor row j is the
    cross product of A's other two rows. Raises NoRealRootError if det A is 0."""
    c = SPEED_OF_LIGHT
    radius = max(map(math.hypot, ga, gb))
    t_min = min(t)
    (a1, a2, a3), (b1, b2, b3) = ga, gb
    z1, z2, z3 = [c * (tj - t_min) + radius for tj in t]
    c11, c12, c13 = b2 * z3 - z2 * b3, z2 * a3 - a2 * z3, a2 * b3 - b2 * a3
    c21, c22, c23 = b3 * z1 - z3 * b1, z3 * a1 - a3 * z1, a3 * b1 - b3 * a1
    c31, c32, c33 = b1 * z2 - z1 * b2, z1 * a2 - a1 * z2, a1 * b2 - b1 * a2
    det = z1 * c13 + z2 * c23 + z3 * c33
    if det == 0.0:
        raise NoRealRootError("triangle area underflows")
    m1, m2 = a1 * a1 + b1 * b1 - z1 * z1, a2 * a2 + b2 * b2 - z2 * z2
    m3 = a3 * a3 + b3 * b3 - z3 * z3
    u = ((c11 + c21 + c31) / det, (c12 + c22 + c32) / det, (c13 + c23 + c33) / det)
    v = ((m1 * c11 + m2 * c21 + m3 * c31) / det, (m1 * c12 + m2 * c22 + m3 * c32) / det,
         (m1 * c13 + m2 * c23 + m3 * c33) / det)
    return u, v, t_min, radius


def solve_analytic(obs: ToAObservation, gws: GatewayTriple) -> LocalizationEstimate:
    """Solve the three-gateway system by the cofactors of the augmented matrix.

    Works about the gateway centroid (cx, cy) and a time origin s, because
    absolute coordinates and times lose precision when the origin lies far
    from the triangle or the emission is late. With a_j, b_j the gateway
    coordinates relative to the centroid, s puts the earliest arrival one
    triangle radius R = max_j sqrt(a_j^2 + b_j^2) after it:
    s = min_j t_j - R/c. Builds the 3x3 matrix A with rows
    (a_j, b_j, c*(t_j - s)), solves A u = 1 and A v = m (m_j = a_j^2 + b_j^2
    - c^2 (t_j - s)^2) by its adjugate, and closes with the scalar
    quadratic in l = (x-cx)^2 + (y-cy)^2 - c^2 (t0 - s)^2 using the
    indefinite inner product (see module docstring). The time column is
    formed as c*(t_j - min_j t_j) + R, so R survives however late the
    arrivals are. The candidates, in the centroid frame, are

        x - cx = (l*u1 + v1) / 2,  y - cy = (l*u2 + v2) / 2,
        t0 = s - (l*u3 + v3) / (2c),

    and ``_select`` scores them and picks the fix, as it does for
    :func:`solve_closed_form`. No step calls numpy: on huge geometries the
    floats overflow to non-finite candidates, which ``_select`` drops.

    The time column is then at least R in every row while the first two sum
    to zero, so in exact arithmetic its cofactors all equal a third of twice
    the triangle's signed area, and det A is that times the column's sum: A
    is singular only when the triangle, which ``GatewayTriple`` checks, has
    no area.

    Raises
    ------
    NoRealRootError
        If det A underflows to 0, the closing quadratic has no real root
        beyond tolerance, or no candidate has a finite residual.
    """
    c = SPEED_OF_LIGHT
    t = (float(obs.t1), float(obs.t2), float(obs.t3))
    frame = _centred_frame(gws)
    u, v, t_min, radius = _augmented_solve(*frame[2:], t)
    # Indefinite inner products: the third coordinate carries the imaginary
    # unit, so its square enters with a minus sign.
    uu = u[0] * u[0] + u[1] * u[1] - u[2] * u[2]
    uvp = u[0] * v[0] + u[1] * v[1] - u[2] * v[2]
    vv = v[0] * v[0] + v[1] * v[1] - v[2] * v[2]
    cands = [
        (
            0.5 * (l * u[0] + v[0]),
            0.5 * (l * u[1] + v[1]),
            t_min - (l * u[2] + v[2] + 2.0 * radius) / (2.0 * c),
        )
        for l in _quadratic_roots(uu, 2.0 * uvp - 4.0, vv)
    ]
    return _select(cands, t, gws, frame)


@dataclass(frozen=True)
class BatchSolveResult:
    """Vectorized solve output; rows with ``ok`` False carry NaN values."""

    x: np.ndarray
    y: np.ndarray
    t0_s: np.ndarray
    residual_m: np.ndarray
    root_index: np.ndarray
    ok: np.ndarray


def solve_closed_form_batch(toas: np.ndarray, gws: GatewayTriple) -> BatchSolveResult:
    """Closed-form TDoA solve of many observations at once.

    Works about the gateway centroid (cx, cy), like :func:`solve_analytic`,
    so a triangle far from the coordinate origin keeps its precision. With
    a_j, b_j the gateway coordinates relative to it and D_j1 = c*(t_j - t1),
    subtracting the first gateway's squared range equation from the other
    two gives

        2(a_j - a1) x + 2(b_j - b1) y = K_j - D_j1^2 - 2 D_j1 d1,

    a linear 2x2 system whose solution is affine in the unknown range d1:
    x = xc + xl*d1, y = yc + yl*d1. The circle constraint around gateway 1
    then yields

        (xl^2 + yl^2 - 1) d1^2 + 2[(xc-a1) xl + (yc-b1) yl] d1
            + (xc-a1)^2 + (yc-b1)^2 = 0,

    solved with the same stable quadratic used by the analytic route. The
    coefficients come from ``_closing_quadratic``, the raw candidates' scores
    from ``_rms_residual`` and the pick from ``_pick`` and ``_prefer``, all
    shared with :func:`solve_closed_form`, as is the 1 ps snap of the kept t0.

    The two candidates are stored candidate-major, as (2, n) arrays whose
    row k holds root k of every observation, so each elementwise pass runs
    over n contiguous values. The rows may come in any layout; the ``.T``
    view of a (3, n) array, which the worst-case kernel passes, makes each
    gateway's column contiguous too, and gives the same bits. Candidate
    ranges are sqrt(dx^2 + dy^2), which is several times cheaper than
    ``np.hypot``; it can only overflow beyond 1e154 m, and it is non-finite
    exactly where the candidate is.

    Parameters
    ----------
    toas : ndarray, shape (n, 3)
        Arrival-time rows.
    gws : GatewayTriple
        Gateway geometry shared by every row.

    Returns
    -------
    BatchSolveResult
        Per-row solution arrays; ``ok`` is False where no real root exists.
    """
    c = SPEED_OF_LIGHT
    t = np.asarray(toas, dtype=float)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"toas must have shape (n, 3), got {t.shape}")
    cx, cy, ga, gb = _centred_frame(gws)
    # Rows with no real root, or huge geometries, overflow or divide by zero
    # into non-finite values, which the verdicts below handle. The root passes
    # reuse buffers (out=, in-place operators) but give every element the
    # operations of the plain expressions, in their order: 4*qa*qc,
    # -(rtol*max(qb^2, |4*qa*qc|)) and -0.5*(qb + copysign(sqrt(disc), qb)).
    with np.errstate(all="ignore"):
        xc, xl, yc, yl, qa, qb, qc = _closing_quadratic(t[:, 0], t[:, 1], t[:, 2], ga, gb)
        qb2 = qb * qb
        qac4 = np.multiply(4.0, qa)
        qac4 *= qc
        disc = qb2 - qac4
        neg_tol = np.abs(qac4, out=qac4)
        np.maximum(qb2, neg_tol, out=neg_tol)
        neg_tol *= _NEG_DISC_RTOL
        no_root = disc < np.negative(neg_tol, out=neg_tol)
        disc[disc < 0.0] = 0.0
        q = np.sqrt(disc, out=disc)
        np.copysign(q, qb, out=q)
        np.add(qb, q, out=q)
        q *= -0.5
        d1 = np.empty((2, t.shape[0]))
        np.divide(q, qa, out=d1[0])
        np.divide(qc, q, out=d1[1])

        x = xc + xl * d1
        y = yc + yl * d1
        t0 = t[:, 0] - d1 / c
        res = _rms_residual(x, y, t0, t.T, ga, gb, np.sqrt)

        t_max = np.abs(t[:, 0])
        np.maximum(t_max, np.abs(t[:, 1]), out=t_max)
        np.maximum(t_max, np.abs(t[:, 2]), out=t_max)
        pick, tie = _pick(res[0], res[1], t0[0], t0[1], t_max)
        rows = np.flatnonzero(tie)
        if rows.size:
            xt, yt = x[:, rows], y[:, rows]
            pick[rows] = _prefer(xt[0], yt[0], xt[1], yt[1], pick[rows], gws, cx, cy)
        sel_res = np.where(pick, res[1], res[0])
        ok = np.isfinite(sel_res) & ~no_root
        sel_res = np.where(ok, sel_res, np.nan)  # the default NaN, not a signed one
        nan = np.where(ok, 0.0, np.nan)
        out_x, out_y, out_t0 = (np.where(pick, a[1], a[0]) for a in (x, y, t0))
        out_t0[np.abs(out_t0) < _T0_CLAMP_S] = 0.0
        out_x += cx
        out_y += cy
        for a in (out_x, out_y, out_t0):
            a += nan
        root_index = pick.astype(np.int8)
        return BatchSolveResult(out_x, out_y, out_t0, sel_res, root_index, ok)


def solve_closed_form(obs: ToAObservation, gws: GatewayTriple) -> LocalizationEstimate:
    """Closed-form TDoA solve of a single observation, in Python floats.

    Gives bit for bit the row :func:`solve_closed_form_batch` gives: it
    shares the batch's coefficient helper, residual and selection rule, and
    forms its candidates with the batch's expression in the batch's frame.

    Raises
    ------
    NoRealRootError
        If the range quadratic has no real root (the measured hyperbolas
        fail to intersect), or no candidate has a finite residual.
    """
    c = SPEED_OF_LIGHT
    t = (float(obs.t1), float(obs.t2), float(obs.t3))
    frame = _centred_frame(gws)
    try:
        xc, xl, yc, yl, qa, qb, qc = _closing_quadratic(*t, *frame[2:])
    except ZeroDivisionError:
        # Eight times the area underflowed to 0; the batch gets NaN rows.
        raise NoRealRootError("triangle area underflows") from None
    cands = [(xc + xl * d1, yc + yl * d1, t[0] - d1 / c) for d1 in _quadratic_roots(qa, qb, qc)]
    return _select(cands, t, gws, frame)
