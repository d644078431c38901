"""Feasibility polytope for per-edge coordinates.

A coordinate vector z is realizable by a hyperbolic metric iff every
edge cycle has positive z-sum.  By LP duality this is equivalent to
min { z . y : y in D, sum y = 1 } > 0 over the cone

    D = { y >= 0 : y_i + y_j >= y_k for each 2-cell's edge triple },

which is the test implemented here, together with the construction of a
max-margin interior starting point for the energy maximizer.  Both come
from one LP, the max-margin LP over the slice, whose dual is the cone
LP above; it is solved by HiGHS (scipy.optimize.linprog) on a sparse
matrix with three nonzeros per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coords
from .surface import EdgeCycle, HexComplex

TAU_FEAS = 1e-9


class LPError(RuntimeError):
    pass


class InfeasibleCoordinateError(ValueError):
    """Raised when a coordinate vector lies outside the open polytope."""

    def __init__(self, report: "PolytopeReport"):
        super().__init__(f"coordinate is not feasible (status={report.status})")
        self.report = report


@dataclass
class PolytopeReport:
    feasible: bool
    status: str  # 'feasible' | 'boundary' | 'infeasible'
    lp_min: float
    boundary_values: np.ndarray
    certificate: np.ndarray | None = None  # cone direction with z.y <= tol
    witness: np.ndarray | None = None  # interior length structure

    def to_json_dict(self, cx: HexComplex) -> dict:
        d = {
            "feasible": self.feasible,
            "status": self.status,
            "lp_min": self.lp_min,
            "boundary_values": {
                f"b{i}": float(v) for i, v in enumerate(self.boundary_values)
            },
        }
        if self.certificate is not None:
            d["certificate"] = {
                cx.labels[e]: float(v) for e, v in enumerate(self.certificate)
            }
        if self.witness is not None:
            d["witness_x_arcs"] = [float(v) for v in self.witness]
        return d


def cone_inequalities(cx: HexComplex) -> np.ndarray:
    """Rows r with r.y >= 0 cutting out the cone D (triangle rows only;
    nonnegativity is implied and appended separately by callers)."""
    # row 3h + i: y(e_i) + y(e_j) - y(e_k) over hexagon h's edges, with
    # j = i + 1 and k = i + 2; an edge twice in a hexagon adds up
    tri = cx.hex_edges
    row = np.arange(cx.num_arcs).reshape(cx.n, 3)
    rows = np.zeros((cx.num_arcs, cx.num_edges))
    np.add.at(rows, (row, tri), 1.0)
    np.add.at(rows, (row, tri[:, [1, 2, 0]]), 1.0)
    np.add.at(rows, (row, tri[:, [2, 0, 1]]), -1.0)
    return rows


def _margin_lp(cx: HexComplex, z: np.ndarray):
    """Max-margin point of the slice with invariant z.

    Maximizes mu over one free s per edge subject to, for every arc w
    with hexagon-mates u, v,  x(w) = t(u) + t(v) >= mu,  where t is the
    slice point coords.slice_point(cx, z, s).  Returns (mu, t, y).  mu is
    also the minimum of z.y over the cone D cut by sum(y) = 1: the cone
    LP is this LP's dual, and y is its minimizer, read off the row
    multipliers lam: y(e) = lam(u) + lam(v) for the mates u, v of a
    facing arc of e.  Dual feasibility makes the two facing arcs agree;
    y takes their mean.  Then y_a + y_b - y_c = 2 lam >= 0 over each
    hexagon's edge triple, sum(y) = sum(lam) = 1 and z.y = mu.
    """
    # imported here: loading scipy.optimize takes about a quarter second,
    # which callers that never solve an LP should not pay
    from scipy import sparse
    from scipy.optimize import linprog

    m = cx.num_edges
    k = cx.num_arcs
    edge_of, sign = cx.arc_edge, cx.arc_sign
    # row w = 0, 1, ... reads x(w) = t(u) + t(v) for the mates u, v of w
    hex_arcs = np.arange(k).reshape(cx.n, 3)
    u = hex_arcs[:, [1, 2, 0]].ravel()
    v = hex_arcs[:, [2, 0, 1]].ravel()
    rows = np.repeat(np.arange(k), 3)
    cols = np.stack([edge_of[u], edge_of[v], np.full(k, m)], axis=1).ravel()
    vals = np.stack([-sign[u], -sign[v], np.ones(k)], axis=1).ravel()
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(k, m + 1))
    b_ub = 0.5 * (z[edge_of[u]] + z[edge_of[v]])
    c = np.zeros(m + 1)
    c[m] = -1.0
    # feasible (s = 0, mu = min b) and bounded (the rows sum to
    # 3n mu <= sum b), so any status but optimal is a solver failure
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if res.status != 0:
        raise LPError(f"HiGHS failed: {res.message}")
    t = coords.slice_point(cx, z, res.x[:m])
    # multipliers of a maximization are >= 0 up to HiGHS's dual tolerance
    lam = np.maximum(-res.ineqlin.marginals, 0.0)
    y = 0.5 * np.bincount(edge_of, weights=lam[u] + lam[v], minlength=m)
    return float(res.x[m]), t, y


def _report(cx: HexComplex, z: np.ndarray, tol: float, mu: float, t, y) -> PolytopeReport:
    boundary_values = coords.boundary_z_sums(cx, z)
    if mu > tol:
        return PolytopeReport(
            feasible=True,
            status="feasible",
            lp_min=mu,
            boundary_values=boundary_values,
            witness=coords.x_of(cx, t),
        )
    return PolytopeReport(
        feasible=False,
        status="boundary" if mu >= -tol else "infeasible",
        lp_min=mu,
        boundary_values=boundary_values,
        certificate=y,
    )


def check_feasibility(cx: HexComplex, z, tol: float = TAU_FEAS) -> PolytopeReport:
    """Decide whether z lies in the open feasibility polytope.

    Feasible iff the normalized cone LP minimum exceeds `tol`; minima in
    [-tol, tol] are reported as 'boundary' and treated as infeasible.
    Infeasible reports carry the minimizing cone direction as a
    certificate; feasible reports carry an interior length structure.
    One margin LP gives both (see _margin_lp).
    """
    z = np.asarray(z, dtype=float)
    return _report(cx, z, tol, *_margin_lp(cx, z))


def check_cycles(cx: HexComplex, z, cycles: list[EdgeCycle]) -> list[tuple[EdgeCycle, float]]:
    """Cycles whose z-sum is nonpositive (violations of the open
    polytope's strict inequalities)."""
    z = np.asarray(z, dtype=float)
    out = []
    for cyc in cycles:
        s = float(z[list(cyc.edges)].sum())
        if s <= 0.0:
            out.append((cyc, s))
    return out


def interior_point(cx: HexComplex, z, tol: float = TAU_FEAS) -> np.ndarray:
    """A t-coordinate in the open slice with invariant z: the max-margin
    point of the facing-pair parametrization.  Raises
    InfeasibleCoordinateError (with the feasibility report) when no
    interior point exists."""
    z = np.asarray(z, dtype=float)
    mu, t, y = _margin_lp(cx, z)
    if mu <= tol:
        raise InfeasibleCoordinateError(_report(cx, z, tol, mu, t, y))
    return t
