"""Feasibility polytope for per-edge coordinates.

A coordinate vector z is realizable by a hyperbolic metric iff every
closed edge cycle has positive z-sum.  By LP duality this is equivalent to
min { z . y : y in D, sum y = 1 } > 0 over the cone

    D = { y >= 0 : y_i + y_j >= y_k for each 2-cell's edge triple },

which is the test implemented here, together with an interior starting
point for the energy maximizer.  Both come from one LP, the max-margin
LP over the slice, whose dual is the cone LP above.  Each of its rows
has two unit-coefficient variables, so its optimum is the minimum cycle
mean of a graph on the x-arcs whose cycles are the closed edge cycles;
the complex holds its steps (``HexComplex.arc_succ``), and each LP
computes only their weights.
Howard's policy iteration, vectorised over the arcs, gives that mean
together with a minimizing edge cycle (the infeasibility certificate)
and potentials (the max-margin witness).  The start moves that witness
toward the symmetric split of z, as far as keeps half its margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coords, hexgeom
from .surface import HexComplex

# absolute band of the verdict: an LP minimum in [-TAU_FEAS, TAU_FEAS] is
# 'boundary'; the acceptance tests bound a certificate's z.y by it too
TAU_FEAS = 1e-9


class LPError(RuntimeError):
    """The minimum-mean-cycle solve behind the margin LP did not settle:
    Howard's policy iteration ran past MAX_POLICIES policies, or its
    final policy's cycles have different means."""


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
    certificate: np.ndarray | None = None  # cone direction with z.y <= TAU_FEAS
    witness: np.ndarray | None = None  # interior length structure
    # edges of a closed edge cycle of least mean z (at most TAU_FEAS), in
    # crossing order; certificate is their multiplicities over its length
    certificate_cycle: np.ndarray | None = None


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


# From its value-iteration start, Howard's iteration has taken at most 21
# policies on seeded complexes up to n = 4096 (means 4.5, 10 and 14 at
# n = 32, 512 and 4096); past this many the solve is reported as failed
MAX_POLICIES = 500


def _evaluate(nxt: np.ndarray, cost: np.ndarray, h_old: np.ndarray, levels: int):
    """Cycle means, values and cycle roots of the policy a -> nxt[a].

    By pointer doubling: after round j, ``jump`` is nxt applied 2**j
    times and ``low[a]`` the least node among a's next 2**j.  With
    2**levels >= len(nxt), jump lands every node on its cycle, where low
    is the cycle's least node, its root.  The value h[a] is the cost of
    the walk from a to its root, less eta per step, plus the root's
    previous value h_old[root], so that a cycle kept from one policy to
    the next keeps its values (Cochet-Terrasson et al.'s rule).
    """
    nodes = np.arange(len(nxt))
    jump, low = nxt, nodes
    for _ in range(levels):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    root = low[jump]
    on_cycle = np.zeros(len(nxt), dtype=bool)
    on_cycle[jump] = True
    length = np.bincount(root[on_cycle], minlength=len(nxt))
    total = np.bincount(root[on_cycle], weights=cost[on_cycle], minlength=len(nxt))
    eta = total[root] / length[root]
    is_root = root == nodes
    jump = np.where(is_root, nodes, nxt)
    h = np.where(is_root, 0.0, cost - eta)
    for _ in range(levels):
        h = h + h[jump]
        jump = jump[jump]
    return eta, h + h_old[root], root


def _min_mean_cycle(succ: np.ndarray, w: np.ndarray):
    """Minimum cycle mean of the graph with steps a -> succ[c, a] of
    weight w[c, a], c = 0, 1, by Howard's policy iteration
    (Cochet-Terrasson et al. 1998).  A policy is one boolean per node,
    True for step 1; the first is greedy after ``levels`` rounds of
    value iteration from 0.

    Returns (mu, d, cycle): the least mean weight of a cycle, potentials
    d with d[succ] <= d + w - mu up to rounding, and a function that
    walks a cycle of mean mu of the final policy and returns its nodes
    in walk order.  The walk is a Python loop over the cycle, so it is
    taken only when a report needs the cycle, which a feasible verdict
    does not.  Raises LPError when the iteration does not settle within
    MAX_POLICIES policies, or when the graph is not strongly connected
    and the final policy keeps cycles of different means.
    """
    size = succ.shape[1]
    levels = (size - 1).bit_length()
    scale = np.abs(w).max()
    tol = 1e-12 * scale
    q = w
    for _ in range(levels):
        q = w + q.min(axis=0)[succ]
    pick = q[1] < q[0]
    h = np.zeros(size)
    for _ in range(MAX_POLICIES):
        nxt = np.where(pick, succ[1], succ[0])
        eta, h, root = _evaluate(nxt, np.where(pick, w[1], w[0]), h, levels)
        # first move toward a cycle of smaller mean; only when no node
        # can, toward a smaller value among steps that keep the mean
        eta_next = eta[succ]
        best = eta_next[1] < eta_next[0]
        better = eta_next.min(axis=0) < eta - tol
        if not better.any():
            value = np.where(eta_next <= eta + tol, w - eta + h[succ], np.inf)
            best = value[1] < value[0]
            better = value.min(axis=0) < h - 1e-12 * (np.abs(h) + scale)
            if not better.any():
                break
        pick = np.where(better, best, pick)
    else:
        raise LPError(f"policy iteration did not settle in {MAX_POLICIES} policies")
    mu = float(eta.min())
    # the arc graph of a connected complex with every slot glued is the
    # non-backtracking graph of a connected cubic graph, so strongly
    # connected, and then the mean stage leaves a single class
    if eta.max() - mu > tol:
        raise LPError("policy iteration ended with cycles of different means")
    start = root[np.argmin(eta)]

    def cycle() -> np.ndarray:
        nodes = [start]
        while (a := nxt[nodes[-1]]) != start:
            nodes.append(a)
        return np.array(nodes)

    return mu, -h, cycle


def _margin_lp(cx: HexComplex, z: np.ndarray):
    """Max-margin point of the slice with invariant z.

    Maximizes mu over one free s per edge subject to, for every arc w
    with hexagon-mates u, v,  x(w) = t(u) + t(v) >= mu,  where t is the
    slice point coords.slice_point(cx, z, s).  Returns (mu, t, cycle).

    In the literals l(a) = sign(a) s(e(a)) a row reads
    l(u) + l(v) >= mu - (z[e(u)] + z[e(v)]) / 2, and l of an arc is
    minus l of the arc facing it: two unit-coefficient variables per row
    (Hochbaum and Naor 1994).  So mu is the minimum cycle mean of the
    arc graph, whose step a -> cx.arc_succ[c, a], to the arc facing a
    hexagon-mate u of a, weighs (z[e(a)] + z[e(u)]) / 2, so a cycle
    weighs its z-sum.  That is also the minimum of z.y over the cone D
    cut by sum(y) = 1, this LP's dual.  cycle() walks a cycle of that
    mean and returns its arcs in crossing order (see _min_mean_cycle);
    their edges' multiplicities over its length are the dual minimizer.
    The witness s(e) = (d(a) - d(a')) / 2, from the
    graph's potentials d at e's facing arcs a, a' (sides 0 and 1), has
    margin mu.

    As in hexgeom, an overflow or invalid operation (|z| near the float
    limit) raises FloatingPointError, here naming the margin LP.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            z_arc = z[cx.arc_edge]
            mu, d, cycle = _min_mean_cycle(cx.arc_succ, 0.5 * (z_arc + z_arc[cx.arc_succ]))
            _, s = coords.slice_coords(cx, d)
            return mu, coords.slice_point(cx, z, s), cycle
    except FloatingPointError as exc:
        raise FloatingPointError(f"margin LP beyond the float range: {exc}") from None


def _report(cx: HexComplex, z: np.ndarray, mu: float, t, cycle) -> PolytopeReport:
    boundary_values = coords.boundary_z_sums(cx, z)
    if mu > TAU_FEAS:
        # a feasible verdict reports no cycle, so the cycle is not walked
        return PolytopeReport(
            feasible=True,
            status="feasible",
            lp_min=mu,
            boundary_values=boundary_values,
            witness=coords.x_of(cx, t),
        )
    edges = cx.arc_edge[cycle()]
    return PolytopeReport(
        feasible=False,
        status="boundary" if mu >= -TAU_FEAS else "infeasible",
        lp_min=mu,
        boundary_values=boundary_values,
        certificate=np.bincount(edges, minlength=cx.num_edges) / len(edges),
        certificate_cycle=edges,
    )


def check_feasibility(cx: HexComplex, z) -> PolytopeReport:
    """Decide whether z lies in the open feasibility polytope.

    Feasible iff the normalized cone LP minimum exceeds TAU_FEAS; minima
    in [-TAU_FEAS, TAU_FEAS] are reported as 'boundary' and treated as
    infeasible.  Infeasible reports carry the minimizing cone direction
    as a certificate; feasible reports carry an interior length
    structure.  One margin LP gives both (see _margin_lp).
    """
    z = coords.edge_array(cx, z)
    return _report(cx, z, *_margin_lp(cx, z))


# share of the max-margin point's margin that interior_point keeps.  On
# 40 seeded n = 32 complexes (lengths U[0.3, 3]) Newton took 4.90 steps
# on average from this start, 4.90, 4.75, 4.97 and 5.30 with shares 0.3,
# 0.4, 0.6 and 0.75, and 6.30 from the max-margin point itself
_START_MARGIN_SHARE = 0.5


def interior_point(cx: HexComplex, z) -> np.ndarray:
    """A t-coordinate in the open slice with invariant z, the default
    start of the energy maximizer: the max-margin point t_m, of margin
    mu, moved toward the symmetric split t_0 (s = 0, both facing t's of
    an edge z/2) by the largest beta <= 1 that keeps every pair sum at
    least mu / 2.  The maximizer lies much nearer t_0 than t_m, but t_0
    is often outside the domain or barely inside it; from the point
    between, Newton starts with a smaller energy gap and takes fewer
    damped steps.  Raises InfeasibleCoordinateError (with the
    feasibility report) when no interior point exists."""
    z = coords.edge_array(cx, z)
    mu, t, cycle = _margin_lp(cx, z)
    if mu <= TAU_FEAS:
        raise InfeasibleCoordinateError(_report(cx, z, mu, t, cycle))
    floor = _START_MARGIN_SHARE * mu
    t0 = coords.slice_point(cx, z, np.zeros(cx.num_edges))
    x_m = hexgeom.pair_sums(t.reshape(cx.n, 3))
    x_0 = hexgeom.pair_sums(t0.reshape(cx.n, 3))
    # the pair sums are affine along the segment, so only a sum that ends
    # below the floor stops it, at a beta below 1
    low = x_0 < floor
    beta = np.min((x_m[low] - floor) / (x_m[low] - x_0[low]), initial=1.0)
    return (1.0 - beta) * t + beta * t0
