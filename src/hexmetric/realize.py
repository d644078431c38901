"""Explicit hexagon construction in the hyperboloid model.

Independent geometric oracle: each right-angled hexagon is built
vertex-by-vertex on the sheet x0 > 0 of <p,p> = -1 in Minkowski
3-space, by walking its boundary (translate along a side, turn a right
angle) and measuring everything back.  This validates the cosine-law
arithmetic and the solved metrics without sharing any code path with
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hexgeom
from .solver import HyperbolicMetric
from .surface import HexComplex


def minkowski_dot(p: np.ndarray, q: np.ndarray) -> float:
    return float(-p[0] * q[0] + p[1] * q[1] + p[2] * q[2])


def normalize_point(p: np.ndarray) -> np.ndarray:
    return p / math.sqrt(-minkowski_dot(p, p))


def distance(p: np.ndarray, q: np.ndarray) -> float:
    """Chord form 2 asinh(|p - q| / 2): unlike arccosh(-<p,q>), it does
    not round distances below ~1e-8 to zero."""
    d = p - q
    return 2.0 * math.asinh(0.5 * math.sqrt(max(minkowski_dot(d, d), 0.0)))


def _translate(p: np.ndarray, u: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Move distance d along the geodesic with unit tangent u at p;
    returns the new point and the transported tangent."""
    ch, sh = math.cosh(d), math.sinh(d)
    return ch * p + sh * u, sh * p + ch * u


def _left_normal(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The unit spacelike vector completing (p, u) to an oriented
    Lorentz frame; rotating u to it is a quarter turn at p."""
    # diag(-1, 1, 1) applied to the cross product p x u, written out:
    # np.cross costs more than the rest of the walk
    v = np.array(
        [p[2] * u[1] - p[1] * u[2], p[2] * u[0] - p[0] * u[2], p[0] * u[1] - p[1] * u[0]]
    )
    return v / math.sqrt(minkowski_dot(v, v))


@dataclass
class HexRealization:
    vertices: list[np.ndarray]  # 6 points, cyclic
    side_lengths: list[float]  # measured, alternating x1,y3,x2,y1,x3,y2
    angle_residual: float  # max |<t_in, t_out>| over the corners
    closure_residual: float  # distance between the two ends of the walk


def _direction(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit tangent at a along the geodesic toward b."""
    u = b + minkowski_dot(a, b) * a
    return u / math.sqrt(minkowski_dot(u, u))


def realize_hexagon(x: tuple[float, float, float]) -> HexRealization:
    """Construct the right-angled hexagon with x-side lengths x.

    The sides run in the cyclic order x1, y3, x2, y1, x3, y2 (so that
    y_i is opposite x_i), turning a quarter turn at every corner.  The
    walk starts at (1,0,0) half-way along the longest side and ends back
    there: coordinates grow like e^distance from the start, and so does
    their rounding error.  Vertices are reported from the start of side
    x1.  Side lengths and corner angles are then measured back from the
    vertices alone; the distance between the walk's two ends is the
    construction residual.
    """
    return _realize(x, hexgeom.cosine_law_y(x).tolist())


def _realize(x, y) -> HexRealization:
    """realize_hexagon with the y-sides y = cosine_law_y(x) given."""
    sides = [x[0], y[2], x[1], y[0], x[2], y[1]]
    k = max(range(6), key=sides.__getitem__)
    steps = [0.5 * sides[k]] + [sides[(k + j) % 6] for j in range(1, 6)] + [0.5 * sides[k]]
    p = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    walk = [p]
    for i, d in enumerate(steps):
        p, u_in = _translate(p, u, d)
        # re-orthonormalize the frame to stop drift from accumulating
        p = normalize_point(p)
        walk.append(p)
        if i < 6:  # a corner; the last step ends mid-side
            u_in = u_in + minkowski_dot(p, u_in) * p
            u_in = u_in / math.sqrt(minkowski_dot(u_in, u_in))
            u = _left_normal(p, u_in)
    closure = distance(walk[7], walk[0])
    # walk[1 + j] is the vertex that starts side k + 1 + j
    vertices = [walk[1 + (i - k - 1) % 6] for i in range(6)]
    measured = [distance(vertices[i], vertices[(i + 1) % 6]) for i in range(6)]
    angle_res = 0.0
    for i in range(6):
        t_prev = _direction(vertices[i], vertices[(i - 1) % 6])
        t_next = _direction(vertices[i], vertices[(i + 1) % 6])
        angle_res = max(angle_res, abs(minkowski_dot(t_prev, t_next)))
    return HexRealization(
        vertices=vertices,
        side_lengths=measured,
        angle_residual=angle_res,
        closure_residual=closure,
    )


def measured_xy(r: HexRealization) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """(x-triple, y-triple) read off a realization's side lengths."""
    s = r.side_lengths
    return (s[0], s[2], s[4]), (s[3], s[5], s[1])


def random_isometry(rng: np.random.Generator) -> np.ndarray:
    """A random orientation-preserving Minkowski isometry (rotation
    composed with a boost), for invariance tests."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(phi), -math.sin(phi)],
            [0.0, math.sin(phi), math.cos(phi)],
        ]
    )
    d = rng.uniform(-1.0, 1.0)
    boost = np.array(
        [
            [math.cosh(d), math.sinh(d), 0.0],
            [math.sinh(d), math.cosh(d), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return rot @ boost


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
    """Hexagon-by-hexagon geometric audit of a solved metric.

    Realizes every hexagon from its x-lengths, compares the measured
    y-sides against the metric's edge lengths on both sides of every
    edge, and re-sums the boundary components.
    """
    failures: list[str] = []
    max_closure = 0.0
    max_angle = 0.0
    max_side = 0.0
    hex_y_measured = []
    hex_y = hexgeom.cosine_law_y(metric.hex_x).tolist()
    for h in range(cx.n):
        r = _realize(metric.hex_x[h], hex_y[h])
        max_closure = max(max_closure, r.closure_residual)
        max_angle = max(max_angle, r.angle_residual)
        mx, my = measured_xy(r)
        err = max(abs(a - b) for a, b in zip(mx, metric.hex_x[h]))
        max_side = max(max_side, err)
        hex_y_measured.append(my)
        if r.closure_residual > tol or r.angle_residual > tol or err > tol:
            failures.append(f"hexagon {h}: realization residual above {tol:g}")
    # (m, 2): each edge's y-side as measured in the hexagon on either side
    sides = np.ravel(hex_y_measured)[cx.edge_arcs]
    err = np.abs(sides[:, 0] - sides[:, 1])
    mean_err = np.max(np.abs(sides - metric.edge_lengths[:, None]), axis=1)
    max_edge = float(max(err.max(), mean_err.max()))
    for e in np.flatnonzero(~((err <= tol) & (mean_err <= tol))):
        failures.append(f"edge {cx.labels[e]}: side lengths disagree by {err[e]:.3e}")
    totals = [metric.x_arcs[list(bc.arcs)].sum() for bc in cx.boundary_components()]
    boundary_err = np.abs(np.array(totals) - metric.boundary_lengths)
    max_boundary = float(boundary_err.max())
    for i in np.flatnonzero(~(boundary_err <= tol)):
        failures.append(f"boundary {i}: length sum off by {boundary_err[i]:.3e}")
    return VerificationReport(
        ok=not failures,
        max_closure_residual=max_closure,
        max_angle_residual=max_angle,
        max_side_error=max_side,
        max_edge_mismatch=max_edge,
        max_boundary_error=max_boundary,
        failures=failures,
    )
