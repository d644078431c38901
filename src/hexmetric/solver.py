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


class SolveError(RuntimeError):
    def __init__(self, message: str, report: SolveReport | None = None):
        super().__init__(message)
        self.report = report


_edge_maps = coords.edge_maps  # kept under its old name for existing callers


def _hex_t(cx: HexComplex, t: np.ndarray, h: int) -> tuple[float, float, float]:
    a, b, c = cx.arcs_of_hexagon(h)
    return (t[a], t[b], t[c])


def domain_margin(cx: HexComplex, t: np.ndarray) -> float:
    """Smallest pairwise t-sum over all 2-cells."""
    margin = np.inf
    for h in range(cx.n):
        th = _hex_t(cx, t, h)
        margin = min(margin, min(hexgeom.pair_sums(th)))
    return float(margin)


def energy(cx: HexComplex, t: np.ndarray) -> float:
    """Sum of the hexagon energies; strictly concave, nonnegative."""
    t = np.asarray(t, dtype=float)
    if domain_margin(cx, t) <= 0.0:
        raise hexgeom.DomainError("t-coordinate outside the open domain")
    return sum(hexgeom.theta(_hex_t(cx, t, h)) for h in range(cx.n))


def edge_side_lengths(cx: HexComplex, t: np.ndarray) -> np.ndarray:
    """(m, 2) array: the y-length each side's hexagon assigns to every
    edge under the realization with x-lengths from t."""
    x = coords.x_of(cx, t)
    hex_y = [
        hexgeom.cosine_law_y(tuple(x[w] for w in cx.arcs_of_hexagon(h)))
        for h in range(cx.n)
    ]
    out = np.empty((cx.num_edges, 2))
    for e in range(cx.num_edges):
        for side, (h, q) in enumerate(cx.edge_slots(e)):
            out[e, side] = hex_y[h][((q + 3) % 6) // 2]
    return out


def _grad_hess_s(cx: HexComplex, t, edge_of, sign):
    m = cx.num_edges
    g_t = np.empty(cx.num_arcs)
    h_s = np.zeros((m, m))
    for h in range(cx.n):
        arcs = cx.arcs_of_hexagon(h)
        th = _hex_t(cx, t, h)
        gh = hexgeom.theta_grad(th)
        hh = hexgeom.theta_hessian(th)
        for i, w in enumerate(arcs):
            g_t[w] = gh[i]
        for i, wi in enumerate(arcs):
            for j, wj in enumerate(arcs):
                h_s[edge_of[wi], edge_of[wj]] += sign[wi] * sign[wj] * hh[i, j]
    g_s = np.zeros(m)
    for w in range(cx.num_arcs):
        g_s[edge_of[w]] += sign[w] * g_t[w]
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
    cfg = cfg or SolveConfig()
    z = np.asarray(z, dtype=float)
    edge_of, sign = coords.edge_maps(cx)
    if start_t is None:
        t = polytope.interior_point(cx, z)
    else:
        t = np.asarray(start_t, dtype=float)
        achieved = np.array([t[a] + t[b] for a, b in map(cx.facing_arcs, range(cx.num_edges))])
        if not np.allclose(achieved, z, atol=1e-9):
            raise SolveError("start point does not satisfy the slice equalities")
    s = np.array([0.5 * (t[cx.facing_arcs(e)[0]] - t[cx.facing_arcs(e)[1]]) for e in range(cx.num_edges)])

    def t_of_s(sv: np.ndarray) -> np.ndarray:
        return 0.5 * z[edge_of] + sign * sv[edge_of]

    t = t_of_s(s)
    if domain_margin(cx, t) <= cfg.margin_floor:
        raise SolveError("starting point is not interior")
    val = energy(cx, t)
    report = None
    for it in range(1, cfg.max_iter + 1):
        g_s, h_s = _grad_hess_s(cx, t, edge_of, sign)
        sides = edge_side_lengths(cx, t)
        mismatch = float(np.max(np.abs(sides[:, 0] - sides[:, 1])))
        grad_norm = float(np.max(np.abs(g_s)))
        if grad_norm < cfg.grad_tol and mismatch < cfg.consistency_tol:
            report = SolveReport(
                iterations=it - 1,
                grad_norm=grad_norm,
                consistency=mismatch,
                energy=val,
                achieved_z=np.array([t[a] + t[b] for a, b in map(cx.facing_arcs, range(cx.num_edges))]),
                converged=True,
            )
            return t, report
        step = np.linalg.solve(-h_s, g_s)
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
            t_try = t_of_s(s_try)
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
    hex_x = [tuple(x[w] for w in cx.arcs_of_hexagon(h)) for h in range(cx.n)]
    hex_y = [hexgeom.cosine_law_y(xt) for xt in hex_x]
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
    x = np.empty(cx.num_arcs)
    for h in range(cx.n):
        # x-arc i (position 2i) is opposite the y-slot at position 2i+3
        y_triple = tuple(
            lengths[cx.edge_of_yslot((h, (2 * i + 3) % 6))] for i in range(3)
        )
        xt = hexgeom.cosine_law_x(y_triple)
        for i, w in enumerate(cx.arcs_of_hexagon(h)):
            x[w] = xt[i]
    z = coords.e_invariant(cx, x)
    return z, coords.boundary_lengths(cx, x), x


def perturbed_interior_start(
    cx: HexComplex, z, rng: np.random.Generator, spread: float = 0.5
) -> np.ndarray:
    """A random interior point of the slice, for multi-start tests."""
    z = np.asarray(z, dtype=float)
    t0 = polytope.interior_point(cx, z)
    mu = domain_margin(cx, t0)
    edge_of, sign = coords.edge_maps(cx)
    s0 = np.array([0.5 * (t0[cx.facing_arcs(e)[0]] - t0[cx.facing_arcs(e)[1]]) for e in range(cx.num_edges)])
    scale = spread * mu
    while True:
        s = s0 + rng.uniform(-scale, scale, cx.num_edges)
        t = 0.5 * z[edge_of] + sign * s[edge_of]
        if domain_margin(cx, t) > 0.05 * mu:
            return t
        scale *= 0.5
