"""Energy maximization: convergence, uniqueness, round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from hexmetric import coords, polytope, solver
from hexmetric.solver import (
    SolveConfig,
    SolveError,
    extract_metric,
    forward_map,
    maximize,
    perturbed_interior_start,
)

from conftest import random_lengths, seeded_complex

RNG = np.random.default_rng(20240814)

ACOSH2 = float(np.arccosh(2.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(backtrack=1.5)
    with pytest.raises(ValueError):
        SolveConfig(grad_tol=0.0)


def test_energy_is_sum_of_hexagon_energies(pants):
    from hexmetric import hexgeom

    t = polytope.interior_point(pants, np.array([1.0, 1.0, 1.0]))
    v = solver.energy(pants, t)
    manual = sum(
        hexgeom.theta(tuple(t[w] for w in pants.arcs_of_hexagon(h)))
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
        t, rep = maximize(cx, z)
        assert np.max(np.abs(rep.achieved_z - z)) < 1e-10
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
    edge_of, sign = coords.edge_maps(pants)
    s = np.array(
        [0.5 * (t[pants.facing_arcs(e)[0]] - t[pants.facing_arcs(e)[1]]) for e in range(3)]
    )
    g_s, h_s = solver._grad_hess_s(pants, t)
    h_s = h_s.toarray()
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
    sides = solver.edge_side_lengths(pants, t_star)
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


def test_non_convergence_reported(pants):
    cfg = SolveConfig(max_iter=1, grad_tol=1e-14, consistency_tol=1e-14)
    z = np.array([0.3, 1.7, 0.9])
    with pytest.raises(SolveError) as exc:
        maximize(pants, z, cfg)
    assert exc.value.report is not None
    assert not exc.value.report.converged


def test_bad_start_rejected(pants):
    z = np.array([1.0, 1.0, 1.0])
    with pytest.raises(SolveError):
        maximize(pants, z, start_t=np.zeros(6) + 5.0)  # not on the slice


def test_forward_map_validation(pants):
    with pytest.raises(ValueError):
        forward_map(pants, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        forward_map(pants, np.array([1.0, 1.0]))


# Reference iteration counts and solved edge lengths on these inputs,
# recorded from a per-hexagon scalar implementation of the Newton loop;
# the array implementation must match the counts exactly.
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
    assert np.max(np.abs(edge_lengths - pin["edge_lengths"])) < 1e-12
