"""Coordinate layer over a hexagon complex.

Length structures, t-coordinates and per-edge invariants are stored as
numpy arrays indexed by arc index (0..3n-1) or edge index (0..m-1) of a
HexComplex.  Everything here is linear algebra on those arrays; no
feasibility decisions are made.
"""

from __future__ import annotations

import numpy as np

from .surface import BoundaryCycle, EdgeCycle, HexComplex


class CoordinateError(ValueError):
    pass


def _as_arc_array(cx: HexComplex, values: np.ndarray | list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (cx.num_arcs,):
        raise CoordinateError(f"expected {cx.num_arcs} arc values, got shape {arr.shape}")
    return arr


def edge_maps(cx: HexComplex) -> tuple[np.ndarray, np.ndarray]:
    """Per arc, the edge it faces and the sign of its side: +1 for side 0,
    -1 for side 1.  On the slice with invariant z the facing pair of edge
    e is t = z[e]/2 + sign * s[e] for one free scalar s[e] per edge."""
    sign = np.zeros(cx.num_arcs)
    edge_of = np.zeros(cx.num_arcs, dtype=int)
    for w in range(cx.num_arcs):
        e, side = cx.arc_to_edge(w)
        edge_of[w] = e
        sign[w] = 1.0 if side == 0 else -1.0
    return edge_of, sign


def t_of(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """t(w) = (x(w') + x(w'') - x(w)) / 2 within each 2-cell."""
    x = _as_arc_array(cx, x)
    if np.any(x <= 0.0):
        raise CoordinateError("length structure must be strictly positive")
    t = np.empty_like(x)
    for h in range(cx.n):
        a, b, c = cx.arcs_of_hexagon(h)
        s = x[a] + x[b] + x[c]
        for w in (a, b, c):
            t[w] = 0.5 * (s - 2.0 * x[w])
    return t


def x_of(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """Inverse of t_of: x(w) = t(w') + t(w''); rejects t with a
    non-positive pairwise sum."""
    t = _as_arc_array(cx, t)
    x = np.empty_like(t)
    for h in range(cx.n):
        a, b, c = cx.arcs_of_hexagon(h)
        for w, u, v in ((a, b, c), (b, c, a), (c, a, b)):
            x[w] = t[u] + t[v]
    if np.any(x <= 0.0):
        raise CoordinateError("t-coordinate violates pairwise-sum positivity")
    return x


def e_invariant(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Per-edge invariant z(e) = t(w) + t(w') over the two facing arcs."""
    t = t_of(cx, x)
    z = np.empty(cx.num_edges)
    for e in range(cx.num_edges):
        a, b = cx.facing_arcs(e)
        z[e] = t[a] + t[b]
    return z


def e_invariant_direct(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Same invariant via the adjacent-minus-facing form
    z(e) = (sum of adjacent arcs - sum of facing arcs) / 2; kept as an
    independent code path for cross-checking."""
    x = _as_arc_array(cx, x)
    z = np.empty(cx.num_edges)
    for e in range(cx.num_edges):
        adj = sum(x[w] for w in cx.adjacent_arcs(e))
        fac = sum(x[w] for w in cx.facing_arcs(e))
        z[e] = 0.5 * (adj - fac)
    return z


def cycle_sum(cx: HexComplex, x: np.ndarray, cyc: EdgeCycle) -> tuple[float, float]:
    """The two sides of the edge-cycle identity: (sum of z over the
    cycle's edges, sum of x over its corner arcs).  They agree for every
    length structure."""
    z = e_invariant(cx, x)
    z_sum = float(sum(z[e] for e in cyc.edges))
    x_sum = float(sum(x[w] for w in cyc.corner_arcs))
    return z_sum, x_sum


def boundary_lengths(cx: HexComplex, x: np.ndarray) -> np.ndarray:
    """Total x-arc length of each boundary component, in the order of
    boundary_components()."""
    x = _as_arc_array(cx, x)
    return np.array([sum(x[w] for w in bc.arcs) for bc in cx.boundary_components()])


def boundary_z_sums(cx: HexComplex, z: np.ndarray) -> np.ndarray:
    """Per boundary component, the z-sum of its boundary edge cycle (the
    boundary length any compatible metric must have)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (cx.num_edges,):
        raise CoordinateError(f"expected {cx.num_edges} edge values, got shape {z.shape}")
    return np.array([sum(z[e] for e in bc.edges) for bc in cx.boundary_components()])


def hexagon_x_triples(cx: HexComplex, x: np.ndarray) -> list[tuple[float, float, float]]:
    """Per hexagon, its x-lengths ordered so that entry i is opposite
    the y-slot at position 2i+1 (arc positions 4, 0, 2)."""
    x = _as_arc_array(cx, x)
    out = []
    for h in range(cx.n):
        out.append(tuple(x[cx.arc_index((h, (q + 3) % 6))] for q in (1, 3, 5)))
    return out
