"""Coordinate layer over a hexagon complex.

Length structures, t-coordinates and per-edge invariants are stored as
numpy arrays indexed by arc index (0..3n-1) or edge index (0..m-1) of a
HexComplex.  An arc array reshaped to (n, 3) holds one triple per
hexagon, and every map here is a gather or scatter through the
complex's incidence arrays.  No feasibility decisions are made.
"""

from __future__ import annotations

import numpy as np

from .surface import OPPOSITE_ARC, EdgeCycle, HexComplex


class CoordinateError(ValueError):
    pass


def _as_arc_array(cx: HexComplex, values: np.ndarray | list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (cx.num_arcs,):
        raise CoordinateError(f"expected {cx.num_arcs} arc values, got shape {arr.shape}")
    return arr


def edge_maps(cx: HexComplex) -> tuple[np.ndarray, np.ndarray]:
    """Per arc, the edge it faces and the sign of its side: +1 for side 0,
    -1 for side 1 (see slice_point)."""
    return cx.arc_edge, cx.arc_sign


def slice_point(cx: HexComplex, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The t-coordinate on the slice with invariant z whose free
    coordinates are s: the facing pair of edge e is z[e]/2 + s[e] and
    z[e]/2 - s[e]."""
    return 0.5 * z[cx.arc_edge] + cx.arc_sign * s[cx.arc_edge]


def t_of(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """t(w) = (x(w') + x(w'') - x(w)) / 2 within each 2-cell."""
    x = _as_arc_array(cx, x)
    if not np.all(x > 0.0):
        raise CoordinateError("length structure must be strictly positive")
    xs = x.reshape(cx.n, 3)
    return (0.5 * (xs.sum(axis=1, keepdims=True) - 2.0 * xs)).ravel()


def x_of(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """Inverse of t_of: x(w) = t(w') + t(w''); rejects t with a
    non-positive pairwise sum."""
    ts = _as_arc_array(cx, t).reshape(cx.n, 3)
    x = (ts[:, [1, 2, 0]] + ts[:, [2, 0, 1]]).ravel()
    if not np.all(x > 0.0):
        raise CoordinateError("t-coordinate violates pairwise-sum positivity")
    return x


def e_invariant(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Per-edge invariant z(e) = t(w) + t(w') over the two facing arcs."""
    return t_of(cx, x)[cx.edge_arcs].sum(axis=1)


def e_invariant_direct(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Same invariant via the adjacent-minus-facing form
    z(e) = (sum of adjacent arcs - sum of facing arcs) / 2, where the arcs
    adjacent to a seam are the other two of its hexagon; kept as an
    independent code path for cross-checking."""
    x = _as_arc_array(cx, x)
    facing = x[cx.edge_arcs]
    adjacent = x.reshape(cx.n, 3).sum(axis=1)[cx.edge_arcs // 3] - facing
    return 0.5 * (adjacent.sum(axis=1) - facing.sum(axis=1))


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
    z = np.asarray(z, dtype=float)
    if z.shape != (cx.num_edges,):
        raise CoordinateError(f"expected {cx.num_edges} edge values, got shape {z.shape}")
    return np.bincount(cx.arc_boundary, weights=z[cx.arc_boundary_edge])


def hexagon_x_triples(cx: HexComplex, x: np.ndarray) -> list[tuple[float, float, float]]:
    """Per hexagon, its x-lengths ordered so that entry i is opposite
    the y-slot at position 2i+1 (arc positions 4, 0, 2)."""
    xs = _as_arc_array(cx, x).reshape(cx.n, 3)
    return list(map(tuple, xs[:, OPPOSITE_ARC].tolist()))
