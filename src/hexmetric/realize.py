"""Explicit hexagon construction in the hyperboloid model.

Independent geometric oracle: `realize_hexagons` builds a stack of
right-angled hexagons, given as (n, 3) x-side triples, vertex-by-vertex
on the sheet x0 > 0 of <p,p> = -1 in Minkowski 3-space, by walking
their boundaries with a carried Lorentz frame (translate along a side,
turn a right angle) into a ring of vertices whose end slots repeat the
wrap-around vertices, and measuring everything back, the closure from
the walk's end projected onto the sheet.  A stack of points has shape
(3, ...), so each coordinate is one contiguous row.  It shares no code
with the energy: of `hexgeom` only the cosine law is used, to get the
y-sides to walk.  `verify_metric` audits a solved metric with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hexgeom
from .solver import HyperbolicMetric
from .surface import HexComplex

# The point functions act on the first axis: one point has shape (3,),
# a stack of them (3, ...), so each coordinate is one contiguous row.


def minkowski_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return -p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def normalize_point(p: np.ndarray) -> np.ndarray:
    return p / np.sqrt(-minkowski_dot(p, p))


def _unit(v: np.ndarray) -> np.ndarray:
    """A spacelike vector scaled to Minkowski norm 1."""
    return v / np.sqrt(minkowski_dot(v, v))


def distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Chord form 2 asinh(|p - q| / 2): unlike arccosh(-<p,q>), it does
    not round distances below ~1e-8 to zero."""
    d = p - q
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(minkowski_dot(d, d), 0.0)))


def realize_hexagons(x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Construct the right-angled hexagons with x-side triples x, (n, 3).

    Each hexagon's sides run in the cyclic order x1, y3, x2, y1, x3, y2
    (so that y_i is opposite x_i), turning a quarter turn at every
    corner.  Each walk starts at (1,0,0) half-way along its hexagon's
    longest side and ends back there: coordinates grow like e^distance
    from the start, and so does their rounding error.  The walk carries
    a frame (p, u, w), point, tangent and left normal: a side of length
    l and a left quarter turn map it to (ch l p + sh l u, w, -(sh l p +
    ch l u)), a Lorentz map, so nothing is renormalised.  Sides and
    corners are measured back from the vertices alone; the closure
    residual is the walk end's distance, on the sheet, from its start.

    Returns the vertices (n, 6, 3), reported from the start of side x1,
    the measured side lengths (n, 6), and the angle and closure
    residuals (n,).  A walk that rounding pushes off the hyperboloid
    gives NaN, not a warning or an exception; x must be positive.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    y = hexgeom.cosine_law_y(x)
    sides = np.stack([x[:, 0], y[:, 2], x[:, 1], y[:, 0], x[:, 2], y[:, 1]])
    k = np.argmax(sides, axis=0)
    # side k + j for j = 0..6; the walk covers side k in two halves
    steps = np.take_along_axis(sides, (k + np.arange(7)[:, None]) % 6, axis=0)
    steps[[0, 6]] *= 0.5
    with np.errstate(all="ignore"):
        ch, sh = np.cosh(steps), np.sinh(steps)
        # ring[:, 1 + j] starts side k + 1 + j; slots 0 and 7 hold the ends
        ring = np.empty((3, 8, n))
        ring[:, 0], u, w = np.repeat(np.eye(3)[:, :, None], n, axis=2)
        for i in range(7):  # the last step ends mid-side; its turn is unused
            p = ring[:, i]
            ring[:, i + 1] = ch[i] * p + sh[i] * u
            u, w = w, -(sh[i] * p + ch[i] * u)
        # project the end onto the sheet: the chord form clamps drift to 0
        closure = distance(normalize_point(ring[:, 7]), ring[:, 0])
        ring[:, 0], ring[:, 7] = ring[:, 6], ring[:, 1]
        vertices, after, before = ring[:, 1:7], ring[:, 2:], ring[:, :6]
        measured = distance(vertices, after)
        # unit tangents at each vertex toward its two neighbours
        dots = minkowski_dot(ring[:, 1:], ring[:, :-1])
        t_prev = _unit(before + dots[:-1] * vertices)
        t_next = _unit(after + dots[1:] * vertices)
        angle = np.max(np.abs(minkowski_dot(t_prev, t_next)), axis=0)
        # walk order to x1-first order: side s is walk side (s - k - 1) % 6
        order = (np.arange(6)[:, None] - k - 1) % 6
        measured = np.take_along_axis(measured, order, axis=0)
        vertices = np.take_along_axis(vertices, order[None], axis=1)
    return vertices.transpose(2, 1, 0), measured.T, angle, closure


@dataclass
class VerificationReport:
    ok: bool
    max_closure_residual: float
    max_angle_residual: float
    max_side_error: float
    max_edge_mismatch: float
    max_boundary_error: float
    failures: list[str] = field(default_factory=list)


def verify_metric(cx: HexComplex, metric: HyperbolicMetric, tol: float = 1e-8) -> VerificationReport:
    """Geometric audit of a solved metric: all hexagons walked at once,
    still sharing no code with the energy.

    Realizes every hexagon from its x-lengths, compares the measured
    y-sides against the metric's edge lengths on both sides of every
    edge, and re-sums the boundary components.  Never raises on a bad
    metric: a residual that is not finite or an x-triple outside the
    domain (not positive and below 1e300) fails its hexagon, and a
    field of the wrong shape fails the audit with NaN residuals.
    """
    num_boundary = len(cx.boundary_components())
    expected = {"x_arcs": (3 * cx.n,), "edge_lengths": (cx.num_edges,), "boundary_lengths": (num_boundary,)}
    failures = [
        f"{name}: shape {np.shape(getattr(metric, name))}, expected {shape}"
        for name, shape in expected.items()
        if np.shape(getattr(metric, name)) != shape
    ]
    if failures:
        nan = float("nan")
        return VerificationReport(False, nan, nan, nan, nan, nan, failures)
    hex_x = np.reshape(metric.x_arcs, (cx.n, 3))
    # walk (1, 1, 1) in place of a triple outside the domain, or with an
    # entry from 1e300 on, where the cosine law's arithmetic overflows: it
    # fails the side check, as |1 - v| is NaN, inf or at least 1 there
    valid = np.all((hex_x > 0.0) & (hex_x < 1e300), axis=1, keepdims=True)
    _, measured, angle, closure = realize_hexagons(np.where(valid, hex_x, 1.0))
    side_err = np.max(np.abs(measured[:, 0::2] - hex_x), axis=1)
    for h in np.flatnonzero(~((closure <= tol) & (angle <= tol) & (side_err <= tol))):
        failures.append(f"hexagon {h}: realization residual above {tol:g}")
    # (m, 2): each edge's y-side as measured in the hexagon on either
    # side; arc 3h + i is opposite y-side i of hexagon h
    sides = measured[:, [3, 5, 1]].ravel()[cx.edge_arcs]
    err = np.abs(sides[:, 0] - sides[:, 1])
    mean_err = np.max(np.abs(sides - metric.edge_lengths[:, None]), axis=1)
    max_edge = float(np.maximum(err.max(), mean_err.max()))
    checks = (("side lengths disagree by", err), ("side lengths off the edge length by", mean_err))
    for e in np.flatnonzero(~((err <= tol) & (mean_err <= tol))):
        off = "; ".join(f"{what} {r[e]:.3e}" for what, r in checks if not r[e] <= tol)
        failures.append(f"edge {cx.labels[e]}: {off}")
    totals = np.bincount(cx.arc_boundary, weights=metric.x_arcs, minlength=num_boundary)
    boundary_err = np.abs(totals - metric.boundary_lengths)
    max_boundary = float(boundary_err.max())
    for i in np.flatnonzero(~(boundary_err <= tol)):
        failures.append(f"boundary {i}: length sum off by {boundary_err[i]:.3e}")
    return VerificationReport(
        ok=not failures,
        max_closure_residual=float(closure.max()),
        max_angle_residual=float(angle.max()),
        max_side_error=float(side_err.max()),
        max_edge_mismatch=max_edge,
        max_boundary_error=max_boundary,
        failures=failures,
    )
