"""Planar geometry: positions, the gateway triangle, and point sampling.

All coordinates live in a local flat 2-D frame measured in meters. There is
deliberately no geodetic machinery here: deployments of a few kilometers are
well served by a tangent-plane approximation, and every downstream formula
(hyperbola intersection, barycentric containment) is planar.

Whether gateways are degenerate is decided here alone, by one scale-free rule
checked when a ``GatewayTriple`` is built; the solvers trust every triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Twice the signed area over the squared span (the longest side) at or below
# which three gateways count as collinear. An equilateral triangle scores
# sin(60 deg) = 0.87 at any size; at 1e-9 the solvers' 2x2 difference system
# still keeps about 7 significant digits.
DEGENERATE_AREA_RATIO = 1e-9


class CollinearGatewaysError(ValueError):
    """The three gateways (nearly) lie on one line; no usable triangle."""


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Position:
    """A 2-D point in meters."""

    x: float
    y: float

    def __post_init__(self):
        _require_finite("coordinate", self.x, self.y)


@dataclass(frozen=True)
class GatewayTriple:
    """The three gateway positions, required to span a triangle.

    Raises CollinearGatewaysError unless twice the signed area exceeds
    ``DEGENERATE_AREA_RATIO`` times the squared longest side.
    """

    g1: Position
    g2: Position
    g3: Position

    def __post_init__(self):
        # Scaling by a power of two into [-1, 1] is exact, and no difference
        # or product can then overflow. Dividing by the span twice cannot
        # underflow to a zero divisor as its square could.
        gs = (self.g1, self.g2, self.g3)
        k = math.frexp(max(abs(v) for g in gs for v in (g.x, g.y)))[1]
        p, q, r = (Position(math.ldexp(g.x, -k), math.ldexp(g.y, -k)) for g in gs)
        span = max(distance(p, q), distance(q, r), distance(r, p))
        ratio = _twice_signed_area(p, q, r) / span / span if span > 0.0 else 0.0
        if not abs(ratio) > DEGENERATE_AREA_RATIO:
            raise CollinearGatewaysError(
                f"gateways are collinear (twice signed area {abs(ratio):.3e} "
                "of the squared span)"
            )

    def as_array(self) -> np.ndarray:
        """Gateway coordinates as a (3, 2) float array."""
        return np.array(
            [[self.g1.x, self.g1.y], [self.g2.x, self.g2.y], [self.g3.x, self.g3.y]],
            dtype=float,
        )


def _twice_signed_area(p: Position, q: Position, r: Position) -> float:
    return (q.x - p.x) * (r.y - p.y) - (r.x - p.x) * (q.y - p.y)


def distance(p: Position, q: Position) -> float:
    """Euclidean distance between two positions, meters."""
    return math.hypot(p.x - q.x, p.y - q.y)


def canonical_triangle(circumdiameter: float) -> GatewayTriple:
    """Equilateral gateway triangle inscribed in a circle of the given diameter.

    The circumcenter sits at the origin and the first vertex points down the
    negative y-axis; the other two follow counterclockwise.

    Parameters
    ----------
    circumdiameter : float
        Diameter of the circumscribed circle, meters. Must be positive.
    """
    if not (circumdiameter > 0):
        raise ValueError(f"circumdiameter must be positive, got {circumdiameter!r}")
    r = circumdiameter / 2.0
    h = r * math.sqrt(3.0) / 2.0
    return GatewayTriple(
        Position(0.0, -r),
        Position(h, r / 2.0),
        Position(-h, r / 2.0),
    )


def barycentric(triple: GatewayTriple, p) -> tuple:
    """Barycentric coordinates of ``p`` with respect to the gateway triangle.

    ``p`` is a Position, or an (x, y) pair of coordinate arrays for which
    the three weights come back as arrays.
    """
    x, y = (p.x, p.y) if isinstance(p, Position) else p
    g1, g2, g3 = triple.g1, triple.g2, triple.g3
    area2 = _twice_signed_area(g1, g2, g3)
    w1 = ((g2.x - x) * (g3.y - y) - (g3.x - x) * (g2.y - y)) / area2
    w2 = ((x - g1.x) * (g3.y - g1.y) - (g3.x - g1.x) * (y - g1.y)) / area2
    return (w1, w2, 1.0 - w1 - w2)


def contains(triple: GatewayTriple, p):
    """Whether ``p`` (a Position or an (x, y) array pair) lies in the closed triangle."""
    w1, w2, w3 = barycentric(triple, p)
    return (w1 >= 0.0) & (w2 >= 0.0) & (w3 >= 0.0)


def sample_points_in_triangle(
    triple: GatewayTriple, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` points uniformly from the triangle interior, shape (n, 2).

    Uses the standard barycentric fold: draw (u, v) on the unit square and
    reflect the upper triangle back, giving exact uniformity in area with no
    rejection loop. Draws landing exactly on the boundary (a measure-zero
    event in double precision) are redrawn so every output is strictly
    interior.
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n!r}")
    u = np.empty(n)
    v = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        uu = rng.random(todo.size)
        vv = rng.random(todo.size)
        fold = uu + vv > 1.0
        uu[fold] = 1.0 - uu[fold]
        vv[fold] = 1.0 - vv[fold]
        u[todo] = uu
        v[todo] = vv
        # Strict interiority: u, v and 1-u-v must all be positive.
        todo = todo[(uu <= 0.0) | (vv <= 0.0) | (uu + vv >= 1.0)]
    g = triple.as_array()
    e1, e2 = g[1] - g[0], g[2] - g[0]
    # One coordinate at a time: g0 + u*e1 + v*e2 per element, without the
    # (n, 2) broadcasts.
    out = np.empty((n, 2))
    for j in (0, 1):
        out[:, j] = g[0, j] + u * e1[j] + v * e2[j]
    return out
