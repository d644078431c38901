"""Explicit hexagon closure in the hyperboloid's spin group, SL(2,R).

Independent geometric oracle: `closure_residuals` walks a stack of
right-angled hexagons, given as (n, 3) x-side and y-side triples, in
SL(2,R), the double cover of the hyperboloid's isometry group SO+(2,1).
A side of length l is diag(e^{l/2}, e^{-l/2}), a right-angle turn is
the rotation by pi/4, and a hexagon's six sides and six turns multiply
to -I exactly when it closes, which tests position, direction and right
angles at once.  Entries grow like e^{d/2} with the distance d from the
walk's start, so rounding grows like e^d.  It shares no code with the
energy: of `hexgeom` only the cosine law is used, to get the y-sides to
walk.  `verify_metric` audits a solved metric with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hexgeom
from .solver import HyperbolicMetric
from .surface import HexComplex


def closure_residuals(x, y) -> np.ndarray:
    """max|M + I| of each hexagon's walk M, for (n, 3) x and y triples.

    Each hexagon's sides run in the cyclic order x1, y3, x2, y1, x3, y2
    (so that y_i is opposite x_i), turning a quarter turn at every
    corner.  Each walk starts half-way along its hexagon's longest side
    and ends back there.  The product is carried as its two columns,
    (2, n) each, and the turns as sqrt(2) times the rotation, which
    leaves -8I at the end of a closed walk: a side of length l and a
    turn map the columns (a, b) to (e^{l/2} a + e^{-l/2} b,
    e^{-l/2} b - e^{l/2} a), four array operations per step.  A walk
    that overflows gives NaN or inf, not a warning or an exception.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sides = np.stack([x[:, 0], y[:, 2], x[:, 1], y[:, 0], x[:, 2], y[:, 1]])
    k = np.argmax(sides, axis=0)
    # side k + j for j = 0..6; the walk covers side k in two halves
    steps = np.take_along_axis(sides, (k + np.arange(7)[:, None]) % 6, axis=0)
    steps[[0, 6]] *= 0.5
    with np.errstate(all="ignore"):
        up = np.exp(0.5 * steps)
        down = 1.0 / up
        a, b = np.repeat(np.eye(2)[:, :, None], len(x), axis=2)
        for i in range(6):
            a, b = a * up[i], b * down[i]
            a, b = a + b, b - a
        # the last step ends mid-side, with no turn after it
        a, b = a * up[6], b * down[6]
        a[0] += 8.0
        b[1] += 8.0
        return np.maximum(np.abs(a), np.abs(b)).max(axis=0) / 8.0


@dataclass
class VerificationReport:
    ok: bool
    max_closure_residual: float
    max_edge_mismatch: float
    max_boundary_error: float
    failures: list[str] = field(default_factory=list)


def verify_metric(cx: HexComplex, metric: HyperbolicMetric, tol: float = 1e-8) -> VerificationReport:
    """Geometric audit of a solved metric: all hexagons walked at once,
    still sharing no code with the energy.

    Walks every hexagon from its x-lengths and the cosine law's y-sides,
    compares those y-sides against the metric's edge lengths on both
    sides of every edge, and re-sums the boundary components.  Never
    raises on a bad metric: a closure residual that is not finite or an
    x-triple outside the domain (not positive and below 1e300) fails its
    hexagon, and a field of the wrong shape fails the audit with NaN
    residuals.
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
        return VerificationReport(False, nan, nan, nan, failures)
    hex_x = np.reshape(metric.x_arcs, (cx.n, 3))
    # the cosine law refuses a triple outside the domain and overflows
    # from 1e300 on: such a triple fails its hexagon, and (1, 1, 1) is
    # walked in its place, so every triple is positive and finite and
    # the law's unchecked form applies
    valid = np.all((hex_x > 0.0) & (hex_x < 1e300), axis=1)
    x = np.where(valid[:, None], hex_x, 1.0)
    y = hexgeom._cosine_law(x)
    closure = closure_residuals(x, y)
    for h in np.flatnonzero(~(valid & (closure <= tol))):
        failures.append(f"hexagon {h}: realization residual above {tol:g}")
    # (m, 2): each edge's y-side in the hexagon on either side; arc
    # 3h + i is opposite y-side i of hexagon h
    sides = y.ravel()[cx.edge_arcs]
    err = np.abs(sides[:, 0] - sides[:, 1])
    mean_err = np.max(np.abs(sides - np.asarray(metric.edge_lengths, dtype=float)[:, None]), axis=1)
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
        max_edge_mismatch=max_edge,
        max_boundary_error=max_boundary,
        failures=failures,
    )
