"""Concave energy maximization over a coordinate slice.

The total energy is the sum of the per-hexagon energies.  On the affine
slice where the per-edge invariant equals a prescribed z, the facing
pairs (t_a, t_b) of each edge are parametrized as
(z/2 + s_e, z/2 - s_e) with one free scalar per edge, which builds the
equality constraints in and leaves an unconstrained strictly concave
maximization over an open convex domain.  At the maximizer the two
hexagon-side lengths of every edge agree, which is exactly the gluing
condition for a hyperbolic metric; the reduced gradient component of
s_e is ln cosh(y_a/2) - ln cosh(y_b/2).

Each Newton quantity is one hexgeom call on the (n, 3) array of all
hexagons' t-triples, scattered to the edges through the complex's
incidence arrays; the reduced Hessian is sparse, 9 entries per hexagon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import coords, hexgeom, polytope
from .surface import HexComplex


@dataclass
class SolveConfig:
    grad_tol: float = 1e-10
    consistency_tol: float = 1e-10
    max_iter: int = 100
    backtrack: float = 0.5
    armijo: float = 1e-4
    margin_floor: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtracking factor must lie in (0,1)")
        for name in ("grad_tol", "consistency_tol", "armijo", "margin_floor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SolveReport:
    iterations: int
    grad_norm: float
    consistency: float
    energy: float
    achieved_z: np.ndarray
    converged: bool


@dataclass
class HyperbolicMetric:
    """Solved metric: per-edge geodesic lengths plus the hexagon data
    they came from."""

    edge_lengths: np.ndarray  # mean of the two hexagon-side values
    mismatch: float  # max over edges of the two-side disagreement
    x_arcs: np.ndarray
    hex_x: list[tuple[float, float, float]]  # per hexagon, arc order
    hex_y: list[tuple[float, float, float]]
    boundary_lengths: np.ndarray
    z: np.ndarray


# relative residual at which the Newton system's iterative solve stops
_CG_RTOL = 1e-12


class SolveError(RuntimeError):
    def __init__(self, message: str, report: SolveReport | None = None):
        super().__init__(message)
        self.report = report


def _s_of_t(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """Free coordinates of a slice point: half the facing-pair difference."""
    return 0.5 * (t[cx.edge_arcs[:, 0]] - t[cx.edge_arcs[:, 1]])


def _achieved_z(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """The per-edge invariant of t: the sum of each facing pair."""
    return t[cx.edge_arcs].sum(axis=1)


def domain_margin(cx: HexComplex, t: np.ndarray) -> float:
    """Smallest pairwise t-sum over all 2-cells."""
    return float(np.min(hexgeom.pair_sums(np.reshape(t, (cx.n, 3)))))


def energy(cx: HexComplex, t: np.ndarray) -> float:
    """Sum of the hexagon energies; strictly concave, nonnegative."""
    t = np.asarray(t, dtype=float)
    if domain_margin(cx, t) <= 0.0:
        raise hexgeom.DomainError("t-coordinate outside the open domain")
    return float(hexgeom.theta(t.reshape(cx.n, 3)).sum())


def edge_side_lengths(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """(m, 2) array: the y-length each side's hexagon assigns to every
    edge under the realization with x-lengths from t."""
    x = coords.x_of(cx, t)
    return hexgeom.cosine_law_y(x.reshape(cx.n, 3)).ravel()[cx.edge_arcs]


def _grad_hess_s(cx: HexComplex, t: np.ndarray):
    """Gradient and Hessian of the energy in the free coordinates s.

    Each hexagon's gradient 3-vector and Hessian 3x3 block are scattered
    through its arcs' edges and signs; the Hessian is a sparse matrix
    with 9 entries per hexagon (duplicates summed on conversion)."""
    from scipy import sparse

    ts = t.reshape(cx.n, 3)
    g_s = np.bincount(
        cx.arc_edge, weights=cx.arc_sign * hexgeom.theta_grad(ts).ravel(), minlength=cx.num_edges
    )
    edges = cx.arc_edge.reshape(cx.n, 3)
    signs = cx.arc_sign.reshape(cx.n, 3)
    blocks = signs[:, :, None] * signs[:, None, :] * hexgeom.theta_hessian(ts)
    rows = np.broadcast_to(edges[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(edges[:, None, :], blocks.shape).ravel()
    h_s = sparse.coo_array((blocks.ravel(), (rows, cols)), shape=(cx.num_edges,) * 2)
    return g_s, h_s


def maximize(
    cx: HexComplex,
    z,
    cfg: SolveConfig | None = None,
    start_t: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Newton ascent to the unique energy maximizer on the slice with
    invariant z.  `start_t` must already lie on the slice; by default
    the max-margin interior point is used."""
    from scipy.sparse import diags_array
    from scipy.sparse.linalg import cg

    cfg = cfg or SolveConfig()
    z = np.asarray(z, dtype=float)
    if start_t is None:
        t = polytope.interior_point(cx, z)
    else:
        t = np.asarray(start_t, dtype=float)
        if not np.allclose(_achieved_z(cx, t), z, atol=1e-9):
            raise SolveError("start point does not satisfy the slice equalities")
    s = _s_of_t(cx, t)
    t = coords.slice_point(cx, z, s)
    if domain_margin(cx, t) <= cfg.margin_floor:
        raise SolveError("starting point is not interior")
    val = energy(cx, t)
    report = None
    for it in range(1, cfg.max_iter + 1):
        g_s, h_s = _grad_hess_s(cx, t)
        sides = edge_side_lengths(cx, t)
        mismatch = float(np.max(np.abs(sides[:, 0] - sides[:, 1])))
        grad_norm = float(np.max(np.abs(g_s)))
        if grad_norm < cfg.grad_tol and mismatch < cfg.consistency_tol:
            report = SolveReport(
                iterations=it - 1,
                grad_norm=grad_norm,
                consistency=mismatch,
                energy=val,
                achieved_z=_achieved_z(cx, t),
                converged=True,
            )
            return t, report
        neg_h = -h_s.tocsr()
        # -H is symmetric positive definite and diagonally dominant, so
        # diagonally preconditioned CG converges fast (a sparse LU fills
        # in); an inexact step is still an ascent direction.
        step, _ = cg(neg_h, g_s, rtol=_CG_RTOL, M=diags_array(1.0 / neg_h.diagonal()))
        slope = float(g_s @ step)
        if slope < 0.0:
            raise SolveError("Newton direction is not an ascent direction")
        alpha = 1.0
        while True:
            if alpha < 1e-16:
                raise SolveError(
                    "line search stalled at the domain boundary; the "
                    "coordinate is infeasible or numerically near-boundary",
                    SolveReport(it, grad_norm, mismatch, val, z.copy(), False),
                )
            s_try = s + alpha * step
            t_try = coords.slice_point(cx, z, s_try)
            if domain_margin(cx, t_try) <= cfg.margin_floor:
                alpha *= cfg.backtrack
                continue
            val_try = energy(cx, t_try)
            # absolute floor: near the maximizer the predicted increase
            # drops below the rounding noise of the energy itself
            noise = 1e-15 * (1.0 + abs(val))
            if val_try >= val + cfg.armijo * alpha * slope - noise:
                break
            alpha *= cfg.backtrack
        # concave ascent: the accepted energy never decreases
        if val_try < val - 1e-12 * (1.0 + abs(val)):
            raise SolveError("energy decreased on an accepted step")
        s, t, val = s_try, t_try, val_try
    raise SolveError(
        f"no convergence within {cfg.max_iter} Newton iterations",
        SolveReport(cfg.max_iter, grad_norm, mismatch, val, z.copy(), False),
    )


def extract_metric(cx: HexComplex, t: np.ndarray, cfg: SolveConfig | None = None) -> HyperbolicMetric:
    """Assemble the metric from a converged maximizer: per-edge length
    is the mean of the two hexagon-side values, whose residual mismatch
    must be below the consistency tolerance."""
    cfg = cfg or SolveConfig()
    t = np.asarray(t, dtype=float)
    x = coords.x_of(cx, t)
    sides = edge_side_lengths(cx, t)
    mismatch = float(np.max(np.abs(sides[:, 0] - sides[:, 1])))
    if mismatch > cfg.consistency_tol:
        raise SolveError(
            f"per-edge length mismatch {mismatch:.3e} exceeds tolerance "
            f"{cfg.consistency_tol:.3e}; maximizer not converged"
        )
    xs = x.reshape(cx.n, 3)
    hex_x = list(map(tuple, xs.tolist()))
    hex_y = list(map(tuple, hexgeom.cosine_law_y(xs).tolist()))
    return HyperbolicMetric(
        edge_lengths=sides.mean(axis=1),
        mismatch=mismatch,
        x_arcs=x,
        hex_x=hex_x,
        hex_y=hex_y,
        boundary_lengths=coords.boundary_lengths(cx, x),
        z=coords.e_invariant(cx, x),
    )


def forward_map(cx: HexComplex, edge_lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge coordinate of the metric with the given edge lengths.

    Each hexagon is realized from its three edge lengths through the
    inverse cosine law; returns (z, boundary lengths, x-arc lengths).
    The returned z always satisfies the polytope conditions.
    """
    lengths = np.asarray(edge_lengths, dtype=float)
    if lengths.shape != (cx.num_edges,):
        raise ValueError(f"expected {cx.num_edges} edge lengths")
    if np.any(lengths <= 0.0) or not np.all(np.isfinite(lengths)):
        raise ValueError("edge lengths must be strictly positive and finite")
    # each arc's opposite y-side is the edge it faces
    x = hexgeom.cosine_law_x(lengths[cx.arc_edge].reshape(cx.n, 3)).ravel()
    z = coords.e_invariant(cx, x)
    return z, coords.boundary_lengths(cx, x), x


def perturbed_interior_start(
    cx: HexComplex,
    z,
    rng: np.random.Generator,
    spread: float = 0.5,
    t0: np.ndarray | None = None,
) -> np.ndarray:
    """A random interior point of the slice, for multi-start tests: a
    perturbation of the interior point t0 of the slice, by default the
    max-margin one."""
    z = np.asarray(z, dtype=float)
    if t0 is None:
        t0 = polytope.interior_point(cx, z)
    mu = domain_margin(cx, t0)
    s0 = _s_of_t(cx, t0)
    scale = spread * mu
    while True:
        s = s0 + rng.uniform(-scale, scale, cx.num_edges)
        t = coords.slice_point(cx, z, s)
        if domain_margin(cx, t) > 0.05 * mu:
            return t
        scale *= 0.5
