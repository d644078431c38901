"""Explicit hexagon construction in the hyperboloid model.

Independent geometric oracle: `realize_hexagons` builds a stack of
right-angled hexagons, given as (n, 3) x-side triples, vertex-by-vertex
on the sheet x0 > 0 of <p,p> = -1 in Minkowski 3-space, by walking
their boundaries (translate along a side, turn a right angle) and
measuring everything back.  It shares no code with the energy: of
`hexgeom` only the cosine law is used, to get the y-sides to walk.
`verify_metric` audits a solved metric with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hexgeom
from .solver import HyperbolicMetric
from .surface import HexComplex

# The point functions act on the last axis: one point has shape (3,),
# a stack of them (..., 3).


def minkowski_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return -p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]


def normalize_point(p: np.ndarray) -> np.ndarray:
    return p / np.sqrt(-minkowski_dot(p, p))[..., None]


def _unit(v: np.ndarray) -> np.ndarray:
    """A spacelike vector scaled to Minkowski norm 1."""
    return v / np.sqrt(minkowski_dot(v, v))[..., None]


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
    from the start, and so does their rounding error.  Side lengths and
    corner angles are then measured back from the vertices alone; the
    distance between the walk's two ends is the construction residual.

    Returns the vertices (n, 6, 3), reported from the start of side x1,
    the measured side lengths (n, 6), and the angle and closure
    residuals (n,).  A walk that rounding pushes off the hyperboloid
    gives NaN, not a warning or an exception; x itself must lie in the
    domain of `hexgeom.cosine_law_y`.
    """
    x = np.asarray(x, dtype=float)
    y = hexgeom.cosine_law_y(x)
    sides = np.stack([x[:, 0], y[:, 2], x[:, 1], y[:, 0], x[:, 2], y[:, 1]], axis=1)
    k = np.argmax(sides, axis=1)
    # side k + j for j = 0..6; the walk covers side k in two halves
    steps = np.take_along_axis(sides, (k[:, None] + np.arange(7)) % 6, axis=1)
    steps[:, [0, 6]] *= 0.5
    with np.errstate(all="ignore"):
        p = np.tile([1.0, 0.0, 0.0], (len(x), 1))
        u = np.tile([0.0, 1.0, 0.0], (len(x), 1))
        walk = [p]
        for i in range(7):
            # move along the geodesic with unit tangent u, carrying u along
            ch, sh = np.cosh(steps[:, i, None]), np.sinh(steps[:, i, None])
            p, u = normalize_point(ch * p + sh * u), sh * p + ch * u
            walk.append(p)
            if i < 6:  # a corner; the last step ends mid-side
                # re-orthonormalize the frame to stop drift from
                # accumulating, then turn a quarter turn: diag(-1, 1, 1)
                # applied to p x u completes (p, u) to an oriented frame
                u = _unit(u + minkowski_dot(p, u)[:, None] * p)
                u = _unit(np.cross(p, u) * [-1.0, 1.0, 1.0])
        walk = np.stack(walk, axis=1)
        closure = distance(walk[:, 7], walk[:, 0])
        # walk[1 + j] is the vertex that starts side k + 1 + j
        order = 1 + (np.arange(6) - k[:, None] - 1) % 6
        vertices = np.take_along_axis(walk, order[:, :, None], axis=1)
        after, before = np.roll(vertices, -1, axis=1), np.roll(vertices, 1, axis=1)
        measured = distance(vertices, after)
        # unit tangents at each vertex toward its two neighbours
        t_prev = _unit(before + minkowski_dot(vertices, before)[..., None] * vertices)
        t_next = _unit(after + minkowski_dot(vertices, after)[..., None] * vertices)
        angle = np.max(np.abs(minkowski_dot(t_prev, t_next)), axis=1)
    return vertices, measured, angle, closure


def _law_defined(x: np.ndarray) -> bool:
    """Whether hexgeom.cosine_law_y gives a finite y for the triple x."""
    try:
        hexgeom.cosine_law_y(x)
    except ArithmeticError:
        return False
    return True


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
    metric: a residual that is not finite, an x-triple outside the
    domain (not positive and finite), or one whose cosine law overflows
    fails its hexagon.
    """
    failures: list[str] = []
    hex_x = np.reshape(metric.x_arcs, (cx.n, 3))
    valid = np.all((hex_x > 0.0) & np.isfinite(hex_x), axis=1, keepdims=True)
    # walk (1, 1, 1) in place of a triple outside the domain: it fails the
    # side check, as |1 - v| is NaN, inf or at least 1 there
    x = np.where(valid, hex_x, 1.0)
    try:
        _, measured, angle, closure = realize_hexagons(x)
    except ArithmeticError:
        # a positive finite triple whose cosine law overflows, such as
        # (400, 400, 400): find which, one hexagon at a time, and walk
        # (1, 1, 1) in its place as well
        valid[:, 0] &= [_law_defined(row) for row in x]
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
    for e in np.flatnonzero(~((err <= tol) & (mean_err <= tol))):
        failures.append(f"edge {cx.labels[e]}: side lengths disagree by {err[e]:.3e}")
    totals = [metric.x_arcs[list(bc.arcs)].sum() for bc in cx.boundary_components()]
    boundary_err = np.abs(np.array(totals) - metric.boundary_lengths)
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
