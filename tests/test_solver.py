"""Energy maximization: convergence, uniqueness, round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hexmetric import coords, hexgeom, polytope, solver
from hexmetric.solver import (
    SolveConfig,
    SolveError,
    extract_metric,
    forward_map,
    maximize,
    perturbed_interior_start,
)
from conftest import random_lengths, seeded_complex, self_glued_complex

RNG = np.random.default_rng(20240814)

ACOSH2 = float(np.arccosh(2.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            SolveConfig(tol=tol)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", True])
def test_config_rejects_non_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolveConfig(max_iter=max_iter)


@pytest.mark.parametrize("extra", [-1, 1])
def test_z_of_the_wrong_length_is_a_coordinate_error(four, extra):
    z = np.array([0.3, 1.7, 0.9, 1.1, 0.6, 1.4])
    t0 = polytope.interior_point(four, z)
    bad = np.resize(z, four.num_edges + extra)
    for call in (
        lambda: polytope.check_feasibility(four, bad),
        lambda: polytope.interior_point(four, bad),
        lambda: maximize(four, bad),
        lambda: maximize(four, bad, start_t=t0),
        lambda: perturbed_interior_start(four, bad, RNG, t0=t0),
    ):
        with pytest.raises(coords.CoordinateError, match="expected 6 edge values"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_z_is_a_coordinate_error(pants, bad):
    # a z of (1, inf, 1) once passed the slice test of an on-slice start
    # (|1 - inf| <= 1e-5 inf) and gave a start with infinite entries
    t0 = polytope.interior_point(pants, np.ones(3))
    z = np.array([1.0, bad, 1.0])
    for call in (
        lambda: maximize(pants, z),
        lambda: maximize(pants, z, start_t=t0),
        lambda: perturbed_interior_start(pants, z, RNG),
        lambda: perturbed_interior_start(pants, z, RNG, t0=t0),
    ):
        with pytest.raises(coords.CoordinateError, match="edge values must be finite"):
            call()


@pytest.mark.parametrize("shape", [7, 5, (2, 3)])
def test_start_of_the_wrong_length_is_a_coordinate_error(pants, shape):
    # a 7-entry start holds the 6 entries of an on-slice start first
    z = np.array([0.9, 1.2, 1.05])
    t0 = polytope.interior_point(pants, z)
    bad = np.resize(t0, shape)
    for call in (
        lambda: maximize(pants, z, start_t=bad),
        lambda: perturbed_interior_start(pants, z, RNG, t0=bad),
    ):
        with pytest.raises(coords.CoordinateError, match="expected 6 arc values"):
            call()


def test_energy_is_sum_of_hexagon_energies(pants):
    from hexmetric import hexgeom

    t = polytope.interior_point(pants, np.array([1.0, 1.0, 1.0]))
    v = solver.energy(pants, t)
    manual = sum(
        hexgeom.theta(tuple(t[3 * h : 3 * h + 3]))
        for h in range(2)
    )
    assert v == pytest.approx(manual, abs=1e-14)


def test_symmetric_pants_closed_form(pants):
    z = np.full(3, ACOSH2)
    t, rep = maximize(pants, z)
    metric = extract_metric(pants, t)
    assert rep.converged
    assert np.max(np.abs(metric.edge_lengths - ACOSH2)) < 1e-8
    assert np.max(np.abs(metric.boundary_lengths - 2.0 * ACOSH2)) < 1e-8
    assert metric.mismatch < 1e-10


def test_achieved_z_matches_prescription(all_fixtures):
    for cx in all_fixtures.values():
        z = RNG.uniform(0.4, 1.6, cx.num_edges)
        t, _ = maximize(cx, z)
        metric = extract_metric(cx, t)
        assert np.max(np.abs(metric.z - z)) < 1e-9


def test_uniqueness_multistart(all_fixtures):
    # 20 random feasible z per fixture, 3 random interior starts each:
    # all runs land on the same maximizer
    for cx in all_fixtures.values():
        for _ in range(20):
            z = RNG.uniform(0.3, 1.8, cx.num_edges)
            t_ref, _ = maximize(cx, z)
            x_ref = coords.x_of(cx, t_ref)
            for _ in range(3):
                t0 = perturbed_interior_start(cx, z, RNG)
                t, _ = maximize(cx, z, start_t=t0)
                assert np.max(np.abs(coords.x_of(cx, t) - x_ref)) < 1e-8


def test_energy_monotone_along_iterates(pants):
    # the maximizer's value dominates every interior sample on the slice
    z = np.array([0.9, 1.1, 0.7])
    t_star, rep = maximize(pants, z)
    v_star = solver.energy(pants, t_star)
    assert v_star == pytest.approx(rep.energy, abs=1e-12)
    for _ in range(50):
        t = perturbed_interior_start(pants, z, RNG)
        assert solver.energy(pants, t) <= v_star + 1e-12


def test_energy_concave_along_segments(pants):
    # second differences of the energy along slice segments are <= 0
    z = np.array([1.0, 1.0, 1.0])
    a = perturbed_interior_start(pants, z, RNG)
    b = perturbed_interior_start(pants, z, RNG)
    svals = np.linspace(0.0, 1.0, 21)
    vals = [solver.energy(pants, (1 - s) * a + s * b) for s in svals]
    second = np.diff(vals, 2)
    assert np.all(second <= 1e-10)


def test_reduced_gradient_matches_finite_differences(pants):
    z = np.array([0.8, 1.2, 1.0])
    t = polytope.interior_point(pants, z)
    edge_of, sign = pants.arc_edge, pants.arc_sign
    s = np.array(
        [0.5 * (t[pants.facing_arcs(e)[0]] - t[pants.facing_arcs(e)[1]]) for e in range(3)]
    )
    g_s, neg_h = _newton_system(pants, t)
    h_s = -neg_h.toarray()
    h = 1e-6
    for e in range(3):
        sp, sm = s.copy(), s.copy()
        sp[e] += h
        sm[e] -= h
        vp = solver.energy(pants, 0.5 * z[edge_of] + sign * sp[edge_of])
        vm = solver.energy(pants, 0.5 * z[edge_of] + sign * sm[edge_of])
        assert g_s[e] == pytest.approx((vp - vm) / (2.0 * h), abs=1e-6)
    # reduced Hessian is symmetric negative definite
    assert np.allclose(h_s, h_s.T)
    assert np.max(np.linalg.eigvalsh(h_s)) < 0.0


def test_gradient_vanishes_iff_sides_match(pants):
    z = np.array([0.8, 1.2, 1.0])
    t_star, _ = maximize(pants, z)
    sides = solver._side_lengths(pants, hexgeom.theta_grad(t_star.reshape(pants.n, 3)))
    assert np.max(np.abs(sides[:, 0] - sides[:, 1])) < 1e-10


def test_round_trip_lengths(all_fixtures):
    # forward map then maximization recovers prescribed edge lengths
    for cx in all_fixtures.values():
        for _ in range(50):
            lengths = random_lengths(RNG, cx.num_edges)
            z, bl, x = forward_map(cx, lengths)
            t, _ = maximize(cx, z)
            metric = extract_metric(cx, t)
            assert np.max(np.abs(metric.edge_lengths - lengths)) < 1e-8
            assert np.max(np.abs(metric.boundary_lengths - bl)) < 1e-8
            assert np.max(np.abs(metric.x_arcs - x)) < 1e-8


def test_forward_map_always_feasible(all_fixtures):
    for cx in all_fixtures.values():
        for _ in range(50):
            lengths = random_lengths(RNG, cx.num_edges, lo=0.1, hi=4.0)
            z, _, _ = forward_map(cx, lengths)
            rep = polytope.check_feasibility(cx, z)
            assert rep.feasible, (lengths, z, rep.lp_min)


def test_infeasible_z_raises(pants):
    with pytest.raises(polytope.InfeasibleCoordinateError):
        maximize(pants, np.array([-3.0, 1.0, 1.0]))


def test_non_convergence_reported(four, monkeypatch):
    # on pants every z's max-margin start is already the maximizer; on
    # four this one takes several Newton steps
    cfg = SolveConfig(max_iter=1, tol=1e-14)
    z = np.array([0.3, 1.7, 0.9, 1.1, 0.6, 1.4])
    reported = []
    energy = solver.energy
    monkeypatch.setattr(solver, "energy", lambda cx, t: reported.append(t.copy()) or energy(cx, t))
    with pytest.raises(SolveError) as exc:
        maximize(four, z, cfg)
    report = exc.value.report
    assert report is not None
    assert not report.converged
    # every field describes the point whose energy is reported: the one
    # after the single step taken
    (t,) = reported
    grad = hexgeom.theta_grad(t.reshape(four.n, 3))
    sides = solver._side_lengths(four, grad)
    assert report.iterations == 1
    assert report.grad_norm == np.max(np.abs(solver._reduced_gradient(four, grad)))
    assert report.consistency == np.max(np.abs(sides[:, 0] - sides[:, 1]))


def test_line_search_stall_reported(four, monkeypatch):
    # with a sufficient-increase constant of 1 the trapezoid test asks the
    # slope at the trial point to be at least the slope at the start,
    # which a strictly concave energy gives only where the two round
    # equal: one tiny step is taken, then the line search stalls far from
    # the maximizer.  The gradient test has not passed there, and the
    # report must still give the length mismatch at its own point.
    monkeypatch.setattr(solver, "_ARMIJO", 1.0)
    reported = []
    energy = solver.energy
    monkeypatch.setattr(solver, "energy", lambda cx, t: reported.append(t.copy()) or energy(cx, t))
    with pytest.raises(SolveError, match="line search stalled") as exc:
        maximize(four, np.array([0.3, 1.7, 0.9, 1.1, 0.6, 1.4]))
    report = exc.value.report
    assert report is not None and not report.converged
    (t,) = reported
    grad = hexgeom.theta_grad(t.reshape(four.n, 3))
    sides = solver._side_lengths(four, grad)
    assert report.iterations == 1
    assert report.grad_norm == np.max(np.abs(solver._reduced_gradient(four, grad)))
    assert report.consistency == np.max(np.abs(sides[:, 0] - sides[:, 1]))
    assert report.consistency == 0.5417334494576198
    # the message gives the reported point's domain margin
    assert f"domain margin {solver.domain_margin(four, t):.3e}" in str(exc.value)
    assert "domain margin 8.0" in str(exc.value)


def test_singular_newton_system_is_a_solve_error(four, monkeypatch):
    # np.linalg.solve's LinAlgError is a ValueError, which the CLI would
    # report as bad input; maximize reports it as a failed solve
    nnz = len(four.hessian_pattern.indices)
    monkeypatch.setattr(solver, "_neg_hessian_data", lambda cx, hess: np.zeros(nnz))
    with pytest.raises(SolveError, match="singular"):
        maximize(four, np.array([0.3, 1.7, 0.9, 1.1, 0.6, 1.4]))


def test_bad_start_rejected(pants):
    z = np.array([1.0, 1.0, 1.0])
    with pytest.raises(SolveError):
        maximize(pants, z, start_t=np.zeros(6) + 5.0)  # not on the slice


def test_perturbed_start_rejects_a_t0_off_the_slice(pants):
    # t0 is interior to the slice of (1, 1, 9), not to that of z
    t0 = polytope.interior_point(pants, np.array([1.0, 1.0, 9.0]))
    with pytest.raises(SolveError, match="slice equalities"):
        perturbed_interior_start(pants, np.full(3, 0.01), RNG, t0=t0)


def test_perturbed_start_rejects_a_t0_outside_the_domain(pants):
    z = np.array([0.9, 1.2, 1.05])
    t0 = coords.slice_point(pants, z, np.full(3, 5.0))  # on the slice, a pair sum below 0
    assert solver.domain_margin(pants, t0) < 0.0
    for call in (
        lambda: maximize(pants, z, start_t=t0),
        lambda: perturbed_interior_start(pants, z, RNG, t0=t0),
    ):
        with pytest.raises(SolveError, match="not interior"):
            call()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_start_with_an_overflowing_pair_sum_raises(pants):
    # an interior start on the slice whose pair sum 0.95e308 + 0.95e308
    # overflows: the domain test raises where the sum is formed, as the
    # kernel's own sums did, rather than pass inf to the kernel, whose
    # total 1.3e308 does not overflow
    t0 = np.array([-0.6e308, 0.95e308, 0.95e308, 0.7e308, 0.25e308, 0.25e308])
    z, _ = coords.slice_coords(pants, t0)
    with pytest.raises(FloatingPointError, match="overflow encountered in add"):
        maximize(pants, z, start_t=t0)


def test_start_margin_floor_is_the_kernels(pants):
    # a start is interior when its domain margin is above H3_MARGIN, the
    # bound theta_derivatives enforces; on pants with z = 1, s = (l, l, 0)
    # puts two pair sums at 1 - 2 l
    z = np.ones(3)
    rng = np.random.default_rng(5)
    for margin in (1e-12, 1e-13, 2e-14):
        lam = 0.5 - margin / 2
        t0 = coords.slice_point(pants, z, np.array([lam, lam, 0.0]))
        assert hexgeom.H3_MARGIN < solver.domain_margin(pants, t0) < 1.01 * margin
        assert maximize(pants, z, start_t=t0)[1].converged
        for _ in range(20):
            t = perturbed_interior_start(pants, z, rng, t0=t0)
            assert solver.domain_margin(pants, t) > hexgeom.H3_MARGIN
            hexgeom.theta_derivatives(t.reshape(pants.n, 3))
    lam = 0.5 - 5e-15 / 2
    t0 = coords.slice_point(pants, z, np.array([lam, lam, 0.0]))
    with pytest.raises(SolveError, match="not interior"):
        maximize(pants, z, start_t=t0)


def test_forward_map_validation(pants):
    with pytest.raises(ValueError):
        forward_map(pants, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        forward_map(pants, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_map_rejects_non_finite_lengths(pants, bad):
    with pytest.raises(ValueError, match="finite"):
        forward_map(pants, np.array([1.0, bad, 1.0]))


# Reference iteration counts on these inputs, from the minimum-mean-cycle
# witness; they must match exactly.  The file's edge lengths were
# recorded from a per-hexagon scalar implementation of the Newton loop
# started at the earlier LP witness, and at n = 32 they lie 1.02e-12
# from the exact answer, so the solved lengths are checked against the
# lengths the coordinates were made from.
NEWTON_PIN = json.loads((Path(__file__).parent / "data" / "newton_pin.json").read_text())


@pytest.mark.parametrize("n", [2, 32, 512])
def test_newton_pinned_on_seeded_complexes(n):
    cx = seeded_complex(n, 20241003 + n)
    lengths = np.random.default_rng([n, 11]).uniform(0.3, 3.0, cx.num_edges)
    z, _, _ = forward_map(cx, lengths)
    t, rep = maximize(cx, z)
    pin = NEWTON_PIN[str(n)]
    assert rep.iterations == pin["iterations"]
    edge_lengths = extract_metric(cx, t).edge_lengths
    assert np.max(np.abs(edge_lengths - lengths)) < 1e-12


# The fixed Hessian pattern and the conjugate-gradient step, on the
# fixture complexes, a seeded one, and a complex with a self-glued
# hexagon (its edge e0 bounds hexagon 0 twice, so two block entries of
# that hexagon land on each of e0's pattern slots and are summed).
def _pattern_cases(pants, torus, four):
    return [pants, torus, four, seeded_complex(32, 20241107), self_glued_complex()]


def _interior_t(cx, seed):
    lengths = random_lengths(np.random.default_rng(seed), cx.num_edges)
    z, _, _ = forward_map(cx, lengths)
    return z, perturbed_interior_start(cx, z, np.random.default_rng(seed))


def _dense_hessian(cx, t):
    edges = cx.arc_edge.reshape(cx.n, 3)
    signs = cx.arc_sign.reshape(cx.n, 3)
    blocks = signs[:, :, None] * signs[:, None, :] * hexgeom.theta_hessian(t.reshape(cx.n, 3))
    h = np.zeros((cx.num_edges, cx.num_edges))
    np.add.at(h, (edges[:, :, None], edges[:, None, :]), blocks)
    return h


def _neg_hessian_csr(cx, hess):
    """-H as a new CSR matrix on the complex's fixed pattern."""
    from scipy.sparse import csr_array

    pattern = cx.hessian_pattern
    data = solver._neg_hessian_data(cx, hess)
    return csr_array((data, pattern.indices, pattern.indptr), shape=(cx.num_edges,) * 2)


def _newton_system(cx, t):
    """Gradient g_s and negated Hessian -H (as CSR) in the free coordinates s at t."""
    grad, hess = hexgeom.theta_derivatives(t.reshape(cx.n, 3))
    return solver._reduced_gradient(cx, grad), _neg_hessian_csr(cx, hess)


def _cg_step(cx, t):
    g_s, neg_h = _newton_system(cx, t)
    step, _ = solver._pcg(neg_h, g_s, 1.0 / neg_h.diagonal())
    return g_s, neg_h, step


def test_hessian_pattern_matches_dense_assembly(pants, torus, four):
    for i, cx in enumerate(_pattern_cases(pants, torus, four)):
        _, t = _interior_t(cx, i)
        _, neg_h = _newton_system(cx, t)
        dense = _dense_hessian(cx, t)
        assert np.max(np.abs(-neg_h.toarray() - dense)) <= 1e-15
        assert neg_h.nnz == np.count_nonzero(dense)


def test_cg_step_matches_dense_solve(pants, torus, four):
    for i, cx in enumerate(_pattern_cases(pants, torus, four)):
        _, t = _interior_t(cx, 100 + i)
        g_s, neg_h, step = _cg_step(cx, t)
        exact = np.linalg.solve(neg_h.toarray(), g_s)
        assert np.linalg.norm(step - exact) <= 1e-10 * np.linalg.norm(exact)


def test_dense_newton_system_matches_csr(pants, torus, four):
    # the dense step places the CSR data at the pattern's dense positions,
    # so it is LAPACK's solve of the CSR matrix to the bit, self-glued
    # hexagon included; two steps through one solver leave no stale entry
    for i, cx in enumerate(_pattern_cases(pants, torus, four)):
        assert cx.num_edges <= solver._DIRECT_MAX_EDGES
        newton_step = solver._newton_solver(cx)
        for seed in (500 + i, 510 + i):
            _, t = _interior_t(cx, seed)
            grad, hess = hexgeom.theta_derivatives(t.reshape(cx.n, 3))
            g_s = solver._reduced_gradient(cx, grad)
            step, k = newton_step(hess, g_s, float(np.max(np.abs(g_s))))
            assert k == 0
            exact = np.linalg.solve(_neg_hessian_csr(cx, hess).toarray(), g_s)
            np.testing.assert_array_equal(step, exact)


def test_dense_round_trip_does_not_import_scipy_sparse():
    code = (
        "import sys\n"
        "from conftest import seeded_complex\n"
        "import numpy as np\n"
        "from hexmetric import polytope, realize, solver\n"
        "cx = seeded_complex(32, 20261019)\n"
        "lengths = np.random.default_rng(7).uniform(0.3, 3.0, cx.num_edges)\n"
        "z, _, _ = solver.forward_map(cx, lengths)\n"
        "assert polytope.check_feasibility(cx, z).feasible\n"
        "t, rep = solver.maximize(cx, z)\n"
        "assert rep.converged and rep.iterations >= 1\n"
        "assert realize.verify_metric(cx, solver.extract_metric(cx, t)).ok\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_hessian_pattern_is_read_only_and_reused(pants, torus, four):
    for i, cx in enumerate(_pattern_cases(pants, torus, four)):
        _, t = _interior_t(cx, 200 + i)
        _newton_system(cx, t)
        pattern = cx.hessian_pattern
        for a in pattern:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        _newton_system(cx, t)
        assert cx.hessian_pattern is pattern
        assert len(pattern.diagonal) == cx.num_edges


def test_cg_step_near_the_maximizer(pants, torus, four):
    # a gradient of about 1e-11, and a zero one, give finite steps with
    # no RuntimeWarning (which the test configuration makes an error)
    for i, cx in enumerate(_pattern_cases(pants, torus, four)):
        z, t0 = _interior_t(cx, 300 + i)
        t_star, _ = maximize(cx, z, start_t=t0)
        u = np.random.default_rng(i).standard_normal(cx.num_edges)
        t = coords.slice_point(cx, z, coords.slice_coords(cx, t_star)[1] + 1e-11 * u)
        g_s, neg_h, step = _cg_step(cx, t)
        assert 1e-13 < np.linalg.norm(g_s) < 1e-9
        assert np.all(np.isfinite(step))
        exact = np.linalg.solve(neg_h.toarray(), g_s)
        assert np.linalg.norm(step - exact) <= 1e-10 * np.linalg.norm(exact)
        zero, k = solver._pcg(neg_h, np.zeros(cx.num_edges), 1.0 / neg_h.diagonal())
        assert k == 0 and not np.any(zero)


# Seeded complexes on both sides of the dense-solve cut-off: a closed
# complex of n hexagons has 3n/2 edges, so 128 hexagons (192 edges) is
# the largest one solved dense and 130 (195 edges) is solved by CG.
N_AT_CUTOFF = 128
N_ABOVE_CUTOFF = 130


def test_report_counts_cg_iterations(all_fixtures):
    # the fixtures are below the cut-off: every step is a dense solve
    for cx in all_fixtures.values():
        z, t0 = _interior_t(cx, 400)
        _, rep = maximize(cx, z, start_t=t0)
        assert rep.iterations >= 1
        assert rep.cg_iterations == 0
    # above it, every step takes at least one CG iteration
    cx = seeded_complex(N_ABOVE_CUTOFF, 400)
    z, t0 = _interior_t(cx, 400)
    _, rep = maximize(cx, z, start_t=t0)
    assert rep.iterations >= 1
    assert rep.iterations <= rep.cg_iterations <= rep.iterations * 10 * cx.num_edges


@pytest.mark.parametrize("n", [N_AT_CUTOFF, N_ABOVE_CUTOFF])
def test_round_trip_on_both_sides_of_the_dense_cutoff(n):
    cx = seeded_complex(n, 20261018 + n)
    assert (cx.num_edges <= solver._DIRECT_MAX_EDGES) == (n == N_AT_CUTOFF)
    lengths = np.random.default_rng([n, 12]).uniform(0.3, 3.0, cx.num_edges)
    z, _, _ = forward_map(cx, lengths)
    # at the default tol of 1e-10 either path may stop one quadratic step
    # short, with length errors of a few 1e-12; at 1e-12 both reach 1e-13
    cfg = SolveConfig(tol=1e-12)
    t, _ = maximize(cx, z, cfg)
    assert np.max(np.abs(extract_metric(cx, t, cfg).edge_lengths - lengths)) < 1e-12


# pants with z = c on every edge is the symmetric metric with x = c, whose
# seams have cosh y = cosh c / (cosh c - 1): y is about 4 e^{-c/2}, which
# the solve reads from the gradient, as far as c = 700
@pytest.mark.parametrize("c", [50.0, 400.0, 700.0])
def test_short_seams_from_the_gradient(pants, c):
    import mpmath

    with mpmath.workdps(int(40 + c / math.log(10.0))):
        w = mpmath.cosh(c)
        exact = float(mpmath.acosh(w / (w - 1)))
    t, rep = maximize(pants, np.full(3, c))
    lengths = extract_metric(pants, t).edge_lengths
    assert rep.converged and np.all(lengths > 0.0)
    assert np.max(np.abs(lengths / exact - 1.0)) < 1e-12
    if c == 50.0:
        assert exact == pytest.approx(2.7775887729928041e-11, rel=1e-15)


# from c = 710 on the Hessian's p(t) terms are subnormal; every
# derivative call must still succeed where the gradient does
@pytest.mark.parametrize("c", [720.0, 744.0])
def test_long_arcs_with_subnormal_hessian(pants, c):
    t, rep = maximize(pants, np.full(3, c))
    assert rep.converged and rep.iterations == 0
    assert np.all(extract_metric(pants, t).edge_lengths > 0.0)


# lengths log-uniform in a wide range, on which an energy-based Armijo
# test stalled: near the maximizer its acceptance hung on rounding noise
# of the energy.  The audit is not asked, since these metrics have long
# boundary arcs that its float walk cannot resolve.
@pytest.mark.parametrize("k, lo, hi", [(1, 0.01, 10.0), (4, 0.01, 10.0), (25, 0.02, 8.0)])
def test_wide_range_instances_converge(k, lo, hi):
    cx = seeded_complex(8, 5000 + k)
    lengths = np.exp(np.random.default_rng(k).uniform(math.log(lo), math.log(hi), cx.num_edges))
    z, _, _ = forward_map(cx, lengths)
    t, rep = maximize(cx, z, start_t=polytope.interior_point(cx, z))
    assert rep.converged
    assert np.max(np.abs(extract_metric(cx, t).edge_lengths - lengths)) < 1e-12


def test_kernel_calls_per_solve(monkeypatch):
    # one derivative call per interior point the solve visits (the start
    # and the trial points inside the domain), no separate gradient or
    # Hessian call, and one energy per solve.  From this far start the
    # line search rejects a trial point by its sufficient-increase test
    # and another for leaving the domain, which costs no kernel call.
    names = ["theta", "theta_grad", "theta_hessian", "theta_derivatives"]
    calls = dict.fromkeys(names + ["slice_point", "interior"], 0)

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args):
            out = f(*args)
            calls[name] += 1
            if name == "slice_point":
                calls["interior"] += solver.domain_margin(args[0], out) > hexgeom.H3_MARGIN
            return out

        monkeypatch.setattr(module, name, wrapper)

    cx = seeded_complex(2, 7042)
    rng = np.random.default_rng(42)
    lengths = np.exp(rng.uniform(0.0, math.log(30.0), cx.num_edges))
    z, _, _ = forward_map(cx, lengths)
    t0 = perturbed_interior_start(cx, z, rng, spread=0.95)
    for name in names:
        counted(hexgeom, name)
    counted(coords, "slice_point")
    _, rep = maximize(cx, z, start_t=t0)
    assert calls["theta"] == 1
    assert calls["theta_grad"] == calls["theta_hessian"] == 0
    assert calls["theta_derivatives"] == calls["interior"] > rep.iterations + 1
    assert calls["slice_point"] > calls["interior"]


def test_pair_sums_formed_once_per_point(monkeypatch):
    # each point maximize visits (the start and every trial point, inside
    # the domain or not) has its pair sums formed once, by the domain
    # test, and the kernel takes them from there; the report's energy
    # forms those of its point once more.  From this far start the line
    # search rejects a trial point for leaving the domain.
    pair_sums, slice_point = hexgeom.pair_sums, coords.slice_point
    calls = {"pair_sums": 0, "points": 0, "outside": 0}

    def counted_pair_sums(*args):
        calls["pair_sums"] += 1
        return pair_sums(*args)

    def counted_slice_point(*args):
        t = slice_point(*args)
        calls["points"] += 1
        calls["outside"] += pair_sums(t.reshape(-1, 3)).min() <= hexgeom.H3_MARGIN
        return t

    cx = seeded_complex(2, 7042)
    rng = np.random.default_rng(42)
    lengths = np.exp(rng.uniform(0.0, math.log(30.0), cx.num_edges))
    z, _, _ = forward_map(cx, lengths)
    t0 = perturbed_interior_start(cx, z, rng, spread=0.95)
    monkeypatch.setattr(hexgeom, "pair_sums", counted_pair_sums)
    monkeypatch.setattr(coords, "slice_point", counted_slice_point)
    _, rep = maximize(cx, z, start_t=t0)
    assert rep.converged and calls["outside"] > 0
    assert calls["pair_sums"] == calls["points"] + 1


@pytest.mark.parametrize("n", [32, 512])
def test_seam_lengths_read_once_per_solve(n, monkeypatch):
    # the stop test reads the seam lengths only where the gradient test
    # passes, which on the pinned solves is the maximizer alone
    calls = []
    y_of_grad = hexgeom.y_of_grad
    monkeypatch.setattr(hexgeom, "y_of_grad", lambda g: calls.append(1) or y_of_grad(g))
    cx = seeded_complex(n, 20241003 + n)
    lengths = np.random.default_rng([n, 11]).uniform(0.3, 3.0, cx.num_edges)
    z, _, _ = forward_map(cx, lengths)
    _, rep = maximize(cx, z)
    assert rep.converged and rep.iterations == NEWTON_PIN[str(n)]["iterations"]
    assert len(calls) == 1


def test_cg_matrix_reused_across_steps():
    # one CG matrix serves a whole solve: two steps with different
    # Hessians through it equal, to the bit, CG on a new matrix for each.
    # The complex has a self-glued hexagon, whose duplicate slots the
    # bincount sums, so a stale entry would show.
    cx = seeded_complex(N_ABOVE_CUTOFF, 20261022)
    assert cx.num_edges > solver._DIRECT_MAX_EDGES
    assert any(a[0] == b[0] for a, b, _ in cx.gluings)
    newton_step = solver._newton_solver(cx)
    for seed in (600, 601):
        _, t = _interior_t(cx, seed)
        grad, hess = hexgeom.theta_derivatives(t.reshape(cx.n, 3))
        g_s = solver._reduced_gradient(cx, grad)
        grad_norm = float(np.max(np.abs(g_s)))
        step, k = newton_step(hess, g_s, grad_norm)
        neg_h = _neg_hessian_csr(cx, hess)
        rtol = max(solver._CG_RTOL, min(0.1, grad_norm))
        fresh, fresh_k = solver._pcg(neg_h, g_s, 1.0 / neg_h.diagonal(), rtol)
        assert k == fresh_k > 0
        np.testing.assert_array_equal(step, fresh)


def test_inexact_cg_steps():
    # above the cut-off, CG stops at the forcing term min(0.1, |g|); the
    # pinned n = 512 solve keeps its step count and accuracy
    n = 512
    cx = seeded_complex(n, 20241003 + n)
    lengths = np.random.default_rng([n, 11]).uniform(0.3, 3.0, cx.num_edges)
    z, _, _ = forward_map(cx, lengths)
    t, rep = maximize(cx, z)
    assert rep.iterations == NEWTON_PIN[str(n)]["iterations"]
    assert rep.cg_iterations <= 100
    assert np.max(np.abs(extract_metric(cx, t).edge_lengths - lengths)) < 1e-12


def test_inexact_cg_matches_tight_cg(monkeypatch):
    n = N_ABOVE_CUTOFF
    cx = seeded_complex(n, 20261018 + n)
    lengths = np.random.default_rng([n, 12]).uniform(0.3, 3.0, cx.num_edges)
    z, _, _ = forward_map(cx, lengths)
    t, rep = maximize(cx, z)
    inexact = extract_metric(cx, t).edge_lengths
    pcg = solver._pcg
    monkeypatch.setattr(solver, "_pcg", lambda a, b, inv_diag, rtol: pcg(a, b, inv_diag))
    t, tight_rep = maximize(cx, z)
    assert tight_rep.cg_iterations > rep.cg_iterations
    assert np.max(np.abs(extract_metric(cx, t).edge_lengths - inexact)) < 1e-12
