"""Coordinate layer over a hexagon complex.

Length structures, t-coordinates and per-edge invariants are stored as
numpy arrays indexed by arc index (0..3n-1) or edge index (0..m-1) of a
HexComplex.  An arc array reshaped to (n, 3) holds one triple per
hexagon, and every map here is a gather or scatter through the
complex's incidence arrays.  The slice with invariant z is mapped both
ways here: `slice_point` takes free coordinates s to a t-coordinate,
and `slice_coords` takes a t-coordinate back to its (z, s).  A
t-coordinate's x-arcs are hexgeom.pair_sums in arc order.  No
feasibility decisions are made.
"""

from __future__ import annotations

import numpy as np

from . import hexgeom
from .surface import EdgeCycle, HexComplex


class CoordinateError(ValueError):
    pass


def _as_arc_array(cx: HexComplex, values: np.ndarray | list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (cx.num_arcs,):
        raise CoordinateError(f"expected {cx.num_arcs} arc values, got shape {arr.shape}")
    return arr


def edge_array(cx: HexComplex, values) -> np.ndarray:
    """`values` as a float array of one finite entry per edge of cx; any
    other length, or a NaN or infinite entry, raises CoordinateError."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (cx.num_edges,):
        raise CoordinateError(f"expected {cx.num_edges} edge values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise CoordinateError("edge values must be finite")
    return arr


def slice_point(cx: HexComplex, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The t-coordinate on the slice with invariant z whose free
    coordinates are s: the facing pair of edge e is z[e]/2 + s[e] and
    z[e]/2 - s[e]."""
    return 0.5 * z[cx.arc_edge] + cx.arc_sign * s[cx.arc_edge]


def slice_coords(cx: HexComplex, t) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of slice_point: the invariant z of the t-coordinate t,
    each facing pair's sum, and its free coordinates s, half of each
    facing pair's difference.  A t of the wrong length raises
    CoordinateError."""
    pair = _as_arc_array(cx, t)[cx.edge_arcs]
    return pair.sum(axis=1), 0.5 * (pair[:, 0] - pair[:, 1])


def t_of(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """t(w) = (x(w') + x(w'') - x(w)) / 2 within each 2-cell."""
    x = _as_arc_array(cx, x)
    if not np.all((x > 0.0) & (x < np.inf)):
        raise CoordinateError("length structure must be positive and finite")
    xs = x.reshape(cx.n, 3)
    return (0.5 * (xs.sum(axis=1, keepdims=True) - 2.0 * xs)).ravel()


def x_of(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """Inverse of t_of: x(w) = t(w') + t(w''), hexgeom.interior_sums
    put into arc order; rejects t outside the open cone, as that test
    does."""
    x = hexgeom.interior_sums(_as_arc_array(cx, t).reshape(cx.n, 3))
    if x is None:
        raise CoordinateError("t-coordinate violates pairwise-sum positivity")
    return x[:, [1, 2, 0]].ravel()


def e_invariant(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Per-edge invariant z(e) = t(w) + t(w') over the two facing arcs."""
    return slice_coords(cx, t_of(cx, x))[0]


def cycle_sum(cx: HexComplex, x: np.ndarray, cyc: EdgeCycle) -> tuple[float, float]:
    """The two sides of the edge-cycle identity: (sum of z over the
    cycle's edges, sum of x over its corner arcs).  They agree for every
    length structure."""
    z = e_invariant(cx, x)
    x = _as_arc_array(cx, x)
    return float(z[list(cyc.edges)].sum()), float(x[list(cyc.corner_arcs)].sum())


def boundary_lengths(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Total x-arc length of each boundary component, in the order of
    boundary_components()."""
    return np.bincount(cx.arc_boundary, weights=_as_arc_array(cx, x))


def boundary_z_sums(cx: HexComplex, z: np.ndarray) -> np.ndarray:
    """Per boundary component, the z-sum of its boundary edge cycle (the
    boundary length any compatible metric must have)."""
    z = edge_array(cx, z)
    return np.bincount(cx.arc_boundary, weights=z[cx.arc_boundary_edge])
