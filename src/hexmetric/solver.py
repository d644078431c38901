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

The gradient component of hexagon side i is ln cosh(y_i/2), so one
gradient call holds every seam length too:
y = 2 ln(1 + u + sqrt(u (2 + u))) with u = e^g - 1, exact to the last
digit or two.  Each point the solve visits (the start and every trial
point) has one domain test, hexgeom.interior_sums, which forms its
pair sums once.  A point that passes costs one derivative call, which
takes those sums and gives the gradient and the Hessian there from the
terms they share; a point that fails costs none.  The accepted trial point's pair is the next
step's gradient and Hessian.  The stop
test reads the seam lengths and their two-sided mismatch from the
gradient only at a point whose reduced gradient already passes, and a
failure report reads them at the point it reports.  The line search
never evaluates the energy.  It
accepts a step when the directional derivative there is at least
-(1 - 2c) times the one at the start, with c = `_ARMIJO`: the trapezoid
form of the sufficient-increase test (Hager and Zhang's approximate
Wolfe condition), which carries no rounding noise of the energy's
size.  The energy itself is computed once per solve, for the report.

Each Newton quantity is one hexgeom call on the (n, 3) array of all
hexagons' t-triples, scattered to the edges through the complex's
incidence arrays.  The reduced Hessian has 9 block entries per hexagon,
scattered by one bincount onto the stored entries of a pattern fixed
once per complex (`HexComplex.hessian_pattern`).  One function,
`_newton_solver`, picks how the Newton steps of a solve are solved,
from the complex's edge count: on at most `_DIRECT_MAX_EDGES` edges
that data is placed at its positions in a dense (m, m) array, solved
with LAPACK; above that size it is the data of a CSR matrix, solved by
a short diagonally preconditioned conjugate-gradient loop stopped at
the inexact-Newton forcing term.  Either matrix is made once per solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import coords, hexgeom, polytope
from .surface import HexComplex


@dataclass
class SolveConfig:
    """Stopping rule: converged when both the reduced gradient and the
    per-edge length mismatch are below `tol`; at most `max_iter` Newton
    steps."""

    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self) -> None:
        # an infinite tol would stop at the start, unsolved
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


# line search: step shrink factor and sufficient-increase constant of
# the trapezoid test
_BACKTRACK = 0.5
_ARMIJO = 1e-4


@dataclass
class SolveReport:
    iterations: int
    grad_norm: float
    consistency: float
    energy: float
    converged: bool
    # conjugate-gradient iterations over all Newton steps; 0 when every
    # step was a dense solve (complexes of at most _DIRECT_MAX_EDGES edges)
    cg_iterations: int = 0


@dataclass
class HyperbolicMetric:
    """Solved metric: per-edge geodesic lengths plus the hexagon data
    they came from."""

    edge_lengths: np.ndarray  # mean of the two hexagon-side values
    mismatch: float  # max over edges of the two-side disagreement
    x_arcs: np.ndarray  # arc 3h + i; reshaped to (n, 3), one row per hexagon
    boundary_lengths: np.ndarray
    z: np.ndarray


# smallest relative residual at which the Newton system's iterative
# solve stops; a step stops at the forcing term min(0.1, max|g_s|) if
# larger
_CG_RTOL = 1e-12

# most edges at which a Newton step is a dense solve rather than CG: the
# largest edge count at which a dense maximize was no slower than CG,
# measured from interior_point on seeded complexes, one BLAS thread
# (mean over 20 of the best of 7: 0.95 against 0.97 ms at 99 edges,
# 1.00 against 0.98 ms at 102 and 2.4 against 1.2 ms at 192)
_DIRECT_MAX_EDGES = 99


class SolveError(RuntimeError):
    def __init__(self, message: str, report: SolveReport | None = None):
        super().__init__(message)
        self.report = report


def domain_margin(cx: HexComplex, t: np.ndarray) -> float:
    """Smallest pairwise t-sum over all 2-cells."""
    return float(np.min(hexgeom.pair_sums(coords._as_arc_array(cx, t).reshape(cx.n, 3))))


def energy(cx: HexComplex, t: np.ndarray) -> float:
    """Sum of the hexagon energies; strictly concave, nonnegative."""
    t = coords._as_arc_array(cx, t).reshape(cx.n, 3)
    # the one test of these sums: theta takes them as tested
    x = hexgeom.interior_sums(t)
    if x is None:
        raise hexgeom.DomainError("t-coordinate outside the open domain")
    return float(hexgeom.theta(t, x).sum())


def _side_lengths(cx: HexComplex, grad: np.ndarray) -> np.ndarray:
    """(m, 2) array: the y-length each side's hexagon assigns to every
    edge, from the hexagons' (n, 3) energy gradients."""
    return hexgeom.y_of_grad(grad).ravel()[cx.edge_arcs]


def _mismatch(sides: np.ndarray) -> float:
    """Largest disagreement over the edges between the two y-lengths of
    an edge, from their (m, 2) array (see _side_lengths)."""
    return float(np.max(np.abs(sides[:, 0] - sides[:, 1])))


def _reduced_gradient(cx: HexComplex, grad: np.ndarray) -> np.ndarray:
    """Gradient g_s in the free coordinates s: each hexagon's gradient
    3-vector scattered through its arcs' edges and signs."""
    return np.bincount(cx.arc_edge, weights=cx.arc_sign * grad.ravel(), minlength=cx.num_edges)


def _neg_hessian_data(cx: HexComplex, hess: np.ndarray) -> np.ndarray:
    """The data of -H on the complex's fixed pattern, for the dense and
    the CSR Newton matrix alike: each hexagon's 3x3 block scattered by
    one bincount, duplicate slots summed."""
    pattern = cx.hessian_pattern
    return np.bincount(pattern.slot, weights=pattern.neg_sign * hess.ravel(), minlength=len(pattern.indices))


def _pcg(a, b: np.ndarray, inv_diag: np.ndarray, rtol: float = _CG_RTOL) -> tuple[np.ndarray, int]:
    """Diagonally preconditioned conjugate gradients for a x = b, a
    symmetric positive definite: stops when ||r|| <= rtol ||b|| or
    after 10 len(b) iterations.  Returns x and the iteration count."""
    x = np.zeros_like(b)
    r = b.copy()
    atol = rtol * math.sqrt(b @ b)
    p = None
    for k in range(10 * len(b)):
        if math.sqrt(r @ r) <= atol:
            return x, k
        z = inv_diag * r
        rz = r @ z
        p = z if p is None else z + (rz / rz_prev) * p
        q = a @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        rz_prev = rz
    return x, 10 * len(b)


def _newton_solver(cx: HexComplex):
    """The Newton step of one solve on cx: a function of the hexagons'
    Hessian blocks hess, the reduced gradient g_s and its max norm
    grad_norm that returns the solution of -H step = g_s and the CG
    iterations it took.

    -H is symmetric positive definite.  On at most _DIRECT_MAX_EDGES
    edges it is solved dense with LAPACK, cheaper there than the two
    dozen or so Python-level iterations an iterative solve takes.  Above
    that the dense solve's cubic cost overtakes; -H is diagonally
    dominant, so diagonally preconditioned CG converges fast where a
    sparse LU would fill in.  The matrix is made once per solve, on the
    complex's fixed pattern, and each step overwrites its entries.  CG
    stops at the relative residual min(0.1, grad_norm), the
    inexact-Newton forcing term (Dembo, Eisenstat and Steihaug 1982):
    loose far from the maximizer, tight near it, so the local
    convergence stays superlinear; an inexact step is still an ascent
    direction.
    """
    m = cx.num_edges
    pattern = cx.hessian_pattern
    if m <= _DIRECT_MAX_EDGES:
        dense = np.zeros(m * m)

        def dense_step(hess: np.ndarray, g_s: np.ndarray, grad_norm: float) -> tuple[np.ndarray, int]:
            dense[pattern.entries] = _neg_hessian_data(cx, hess)
            try:
                return np.linalg.solve(dense.reshape(m, m), g_s), 0
            except np.linalg.LinAlgError as exc:
                raise SolveError(f"Newton system is singular: {exc}") from exc

        return dense_step

    from scipy.sparse import csr_array

    # one matrix per solve, on the fixed pattern; each step overwrites its data
    neg_h = csr_array((np.zeros(len(pattern.indices)), pattern.indices, pattern.indptr), shape=(m, m))

    def cg_step(hess: np.ndarray, g_s: np.ndarray, grad_norm: float) -> tuple[np.ndarray, int]:
        neg_h.data[:] = _neg_hessian_data(cx, hess)
        rtol = max(_CG_RTOL, min(0.1, grad_norm))
        return _pcg(neg_h, g_s, 1.0 / neg_h.data[pattern.diagonal], rtol)

    return cg_step


def _slice_start(cx: HexComplex, z, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """z as a finite per-edge array, and the start t (by default
    polytope.interior_point) put exactly onto its slice: z, the point,
    its free coordinates s and its (n, 3) pair sums from
    hexgeom.interior_sums.  Raises SolveError when t is off the slice or
    outside the open domain."""
    if t is None:
        # interior_point checks z with coords.edge_array, so once is enough
        t = polytope.interior_point(cx, z)
        z = np.asarray(z, dtype=float)
    else:
        z = coords.edge_array(cx, z)
    start_z, s = coords.slice_coords(cx, t)
    # the test of np.allclose(start_z, z, atol=1e-9), which a NaN fails,
    # without its ~25 us of overhead (4% of maximize at n = 32, 2-vCPU Xeon)
    if not np.all(np.abs(start_z - z) <= 1e-9 + 1e-5 * np.abs(z)):
        raise SolveError("start point does not satisfy the slice equalities")
    t = coords.slice_point(cx, z, s)
    x = hexgeom.interior_sums(t.reshape(cx.n, 3))
    if x is None:
        raise SolveError("starting point is not interior")
    return z, t, s, x


def maximize(
    cx: HexComplex,
    z,
    cfg: SolveConfig | None = None,
    start_t: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Newton ascent to the unique energy maximizer on the slice with
    invariant z.  `start_t` must already lie on the slice; by default
    Newton starts at polytope.interior_point, the LP's max-margin point
    moved toward the symmetric split of z."""
    cfg = cfg or SolveConfig()
    z, t, s, x = _slice_start(cx, z, start_t)

    def report(iterations: int, converged: bool, consistency: float) -> SolveReport:
        return SolveReport(iterations, grad_norm, consistency, energy(cx, t), converged, cg_iterations)

    # the hexagons' energy gradients and Hessians at t and the reduced
    # gradient, from which the stopping rule and the next step are read
    grad, hess = hexgeom.theta_derivatives(t.reshape(cx.n, 3), x)
    g_s = _reduced_gradient(cx, grad)
    newton_step = _newton_solver(cx)
    cg_iterations = 0
    for it in range(cfg.max_iter + 1):
        grad_norm = float(np.max(np.abs(g_s)))
        # the seam lengths are read only once the gradient test passes
        if grad_norm < cfg.tol:
            mismatch = _mismatch(_side_lengths(cx, grad))
            if mismatch < cfg.tol:
                return t, report(it, True, mismatch)
        if it == cfg.max_iter:
            raise SolveError(
                f"no convergence within {cfg.max_iter} Newton iterations",
                report(it, False, _mismatch(_side_lengths(cx, grad))),
            )
        step, k = newton_step(hess, g_s, grad_norm)
        cg_iterations += k
        slope = float(g_s @ step)
        if slope < 0.0:
            raise SolveError("Newton direction is not an ascent direction")
        # backtrack until the trial point passes hexgeom.interior_sums, so
        # the kernel may take its pair sums, and its trapezoid estimate of
        # the gain, alpha (phi'(0) + phi'(alpha)) / 2, is at least
        # _ARMIJO alpha phi'(0), with phi' the slope along the step
        alpha = 1.0
        while True:
            if alpha < 1e-16:
                raise SolveError(
                    f"line search stalled at a point of domain margin {domain_margin(cx, t):.3e}",
                    report(it, False, _mismatch(_side_lengths(cx, grad))),
                )
            s_try = s + alpha * step
            t_try = coords.slice_point(cx, z, s_try)
            x_try = hexgeom.interior_sums(t_try.reshape(cx.n, 3))
            if x_try is not None:
                grad_try, hess_try = hexgeom.theta_derivatives(t_try.reshape(cx.n, 3), x_try)
                g_try = _reduced_gradient(cx, grad_try)
                if g_try @ step >= -(1.0 - 2.0 * _ARMIJO) * slope:
                    break
            alpha *= _BACKTRACK
        s, t, grad, hess, g_s = s_try, t_try, grad_try, hess_try, g_try


def extract_metric(cx: HexComplex, t: np.ndarray, cfg: SolveConfig | None = None) -> HyperbolicMetric:
    """Assemble the metric from a converged maximizer: per-edge length
    is the mean of the two hexagon-side values, whose residual mismatch
    must be below the consistency tolerance."""
    cfg = cfg or SolveConfig()
    t = np.asarray(t, dtype=float)
    x = coords.x_of(cx, t)
    sides = _side_lengths(cx, hexgeom.theta_grad(t.reshape(cx.n, 3)))
    mismatch = _mismatch(sides)
    if mismatch > cfg.tol:
        raise SolveError(
            f"per-edge length mismatch {mismatch:.3e} exceeds tolerance "
            f"{cfg.tol:.3e}; maximizer not converged"
        )
    return HyperbolicMetric(
        edge_lengths=sides.mean(axis=1),
        mismatch=mismatch,
        x_arcs=x,
        boundary_lengths=coords.boundary_lengths(cx, x),
        z=coords.e_invariant(cx, x),
    )


def forward_map(cx: HexComplex, edge_lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge coordinate of the metric with the given edge lengths.

    Each hexagon is realized from its three edge lengths through the
    inverse cosine law; returns (z, boundary lengths, x-arc lengths).
    The returned z always satisfies the polytope conditions.
    """
    lengths = coords.edge_array(cx, edge_lengths)
    # each arc's opposite y-side is the edge it faces; the law refuses a
    # length that is not positive
    x = hexgeom.cosine_law(lengths[cx.arc_edge].reshape(cx.n, 3)).ravel()
    try:
        z = coords.e_invariant(cx, x)
    except coords.CoordinateError:
        # e_invariant's one test of x > 0 fails only where x_i ~
        # 2 e^((y_i - y_j - y_k)/2) underflows: equal seams above ~1490
        h = np.argmin(x > 0.0) // 3
        y = lengths[cx.hex_edges[h]].tolist()
        raise coords.CoordinateError(f"hexagon {h}: x-arcs underflow to 0 at edge lengths {y}") from None
    return z, coords.boundary_lengths(cx, x), x


def perturbed_interior_start(
    cx: HexComplex,
    z,
    rng: np.random.Generator,
    spread: float = 0.5,
    t0: np.ndarray | None = None,
) -> np.ndarray:
    """A random start on the slice that `maximize` accepts, for
    multi-start tests: a perturbation of the interior point t0 of the
    slice, by default polytope.interior_point, the start of `maximize`.
    A t0 off the slice or not interior raises SolveError, as a start of
    `maximize` does."""
    z, _, s0, x0 = _slice_start(cx, z, t0)
    mu = float(x0.min())
    scale = spread * mu
    while True:
        s = s0 + rng.uniform(-scale, scale, cx.num_edges)
        t = coords.slice_point(cx, z, s)
        x = hexgeom.interior_sums(t.reshape(cx.n, 3))
        if x is not None and x.min() > 0.05 * mu:
            return t
        scale *= 0.5
