"""LP solver, feasibility polytope, duality cross-check, interior points."""

import numpy as np
import pytest

from hexmetric import coords, polytope, solver
from hexmetric.polytope import (
    InfeasibleCoordinateError,
    check_cycles,
    check_feasibility,
    interior_point,
    lp_solve,
)
from hexmetric.surface import HexComplex, InvalidComplexError

RNG = np.random.default_rng(20240813)


# --- lp_solve on known problems --------------------------------------------


def test_lp_basic_optimum():
    # min -x - y  s.t. x + y <= 1 -> value -1 on the segment x + y = 1
    status, value, x = lp_solve([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert status == "optimal"
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-12)


def test_lp_equality_constraint():
    # min x1 s.t. x1 + x2 = 2, x1 - x2 <= 0 -> x1 = 0? no: x >= 0, so
    # minimum is x1 = 0, x2 = 2
    status, value, x = lp_solve(
        [1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], a_eq=[[1.0, 1.0]], b_eq=[2.0]
    )
    assert status == "optimal"
    assert value == pytest.approx(0.0, abs=1e-12)
    assert x[1] == pytest.approx(2.0, abs=1e-12)


def test_lp_unbounded():
    status, _, _ = lp_solve([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert status == "unbounded"


def test_lp_infeasible():
    status, _, _ = lp_solve(
        [1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[3.0]
    )
    assert status == "infeasible"


def test_lp_degenerate_does_not_cycle():
    # classic degenerate vertex: several redundant rows through origin
    status, value, _ = lp_solve(
        [-0.75, 150.0, -0.02, 6.0],
        a_ub=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
    )
    assert status == "optimal"
    assert value == pytest.approx(-0.05, abs=1e-9)


def test_lp_random_against_vertex_enumeration():
    # 2-variable LPs checked against brute-force vertex enumeration
    for _ in range(100):
        a = RNG.uniform(-1.0, 1.0, (4, 2))
        b = RNG.uniform(0.5, 2.0, 4)  # origin always feasible
        c = RNG.uniform(-1.0, 1.0, 2)
        status, value, _ = lp_solve(c, a_ub=a, b_ub=b)
        # enumerate candidate vertices of {x >= 0, a x <= b}
        rows = np.vstack([a, -np.eye(2)])
        rhs = np.concatenate([b, np.zeros(2)])
        best = np.inf
        for i in range(rows.shape[0]):
            for j in range(i + 1, rows.shape[0]):
                m = rows[[i, j]]
                if abs(np.linalg.det(m)) < 1e-9:
                    continue
                v = np.linalg.solve(m, rhs[[i, j]])
                if np.all(v >= -1e-9) and np.all(rows @ v <= rhs + 1e-9):
                    best = min(best, float(c @ v))
        if status == "optimal":
            assert value == pytest.approx(best, abs=1e-8)
        else:
            assert status == "unbounded"


# --- feasibility of per-edge coordinates ------------------------------------


def test_pants_symmetric_feasible(pants):
    rep = check_feasibility(pants, np.array([1.0, 1.0, 1.0]))
    assert rep.feasible and rep.status == "feasible"
    assert rep.lp_min == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rep.boundary_values, 2.0)
    assert rep.witness is not None
    # witness is an actual interior length structure realizing z
    z_back = coords.e_invariant(pants, rep.witness)
    assert np.max(np.abs(z_back - 1.0)) < 1e-9


def test_pants_infeasible_with_certificate(pants):
    z = np.array([-3.0, 1.0, 1.0])
    rep = check_feasibility(pants, z)
    assert not rep.feasible and rep.status == "infeasible"
    assert rep.certificate is not None
    # certificate independently evaluates to a nonpositive value and
    # lies in the cone
    y = rep.certificate
    assert float(z @ y) <= polytope.TAU_FEAS
    assert np.all(y >= -1e-9)
    tri = polytope.cone_inequalities(pants)
    assert np.all(tri @ y >= -1e-9)


def test_pants_near_boundary_feasible(pants):
    rep = check_feasibility(pants, np.array([-0.4, 1.0, 1.0]))
    assert rep.feasible
    assert rep.lp_min == pytest.approx(0.3, abs=1e-9)


def test_pants_exact_boundary(pants):
    rep = check_feasibility(pants, np.array([-1.0, 1.0, 1.0]))
    assert not rep.feasible
    assert rep.status == "boundary"


def test_duality_against_enumeration(all_fixtures):
    # LP verdict == exhaustive cycle-enumeration verdict, 1000 random z
    # split over the fixtures; strict margin keeps us off the boundary
    for cx in all_fixtures.values():
        cycles = list(cx.enumerate_fundamental_cycles().cycles)
        assert cycles
        for _ in range(334):
            z = RNG.uniform(-1.0, 1.5, cx.num_edges)
            rep = check_feasibility(cx, z)
            violations = check_cycles(cx, z, cycles)
            margin = min(
                sum(z[e] for e in cyc.edges) for cyc in cycles
            )
            if abs(margin) < 1e-7:
                continue  # too close to the boundary to compare verdicts
            assert rep.feasible == (not violations), (z, margin, rep.lp_min)
            if not rep.feasible:
                y = rep.certificate
                assert float(z @ y) <= polytope.TAU_FEAS


def test_interior_point_posts(all_fixtures):
    from hexmetric import solver

    for cx in all_fixtures.values():
        for _ in range(25):
            z = RNG.uniform(0.2, 2.0, cx.num_edges)
            rep = check_feasibility(cx, z)
            if not rep.feasible:
                continue
            t = interior_point(cx, z)
            assert solver.domain_margin(cx, t) > polytope.TAU_FEAS
            x = coords.x_of(cx, t)
            z_back = coords.e_invariant(cx, x)
            assert np.max(np.abs(z_back - z)) < 1e-10


def test_interior_point_infeasible_raises(pants):
    with pytest.raises(InfeasibleCoordinateError) as exc:
        interior_point(pants, np.array([-3.0, 1.0, 1.0]))
    assert exc.value.report.status == "infeasible"


def test_boundedness_of_feasible_region_slice(pants):
    # on a fixed coordinate slice the set of length structures is
    # bounded: each boundary length equals the fixed boundary z-sum, and
    # each arc length is below its boundary component's length
    z = np.array([1.0, 0.8, 1.2])
    t = interior_point(pants, z)
    x = coords.x_of(pants, t)
    bl = coords.boundary_lengths(pants, x)
    bz = coords.boundary_z_sums(pants, z)
    assert np.max(np.abs(bl - bz)) < 1e-9
    for i, bc in enumerate(pants.boundary_components()):
        for w in bc.arcs:
            assert x[w] < bz[i] + 1e-9


def test_report_json(pants):
    rep = check_feasibility(pants, np.array([1.0, 1.0, 1.0]))
    d = rep.to_json_dict(pants)
    assert d["feasible"] is True
    assert set(d["boundary_values"]) == {"b0", "b1", "b2"}
    assert len(d["witness_x_arcs"]) == 6


def seeded_complex(n: int, seed: int) -> HexComplex:
    """Connected complex of n hexagons: the 3n seams paired uniformly at
    random with random orientation, redrawn while disconnected."""
    rng = np.random.default_rng(seed)
    slots = [(h, q) for h in range(n) for q in (1, 3, 5)]
    while True:
        pairs = rng.permutation(len(slots)).reshape(-1, 2)
        flips = rng.integers(0, 2, len(pairs))
        gluings = [(slots[a], slots[b], bool(f)) for (a, b), f in zip(pairs, flips)]
        try:
            return HexComplex(n=n, gluings=gluings)
        except InvalidComplexError:
            continue


def test_large_complex_witness_and_certificate():
    cx = seeded_complex(256, 20240901)
    rng = np.random.default_rng(7)
    z, _, _ = solver.forward_map(cx, rng.uniform(0.3, 3.0, cx.num_edges))
    rep = check_feasibility(cx, z)
    assert rep.feasible
    assert np.max(np.abs(coords.e_invariant(cx, rep.witness) - z)) < 1e-10
    # push one boundary cycle's z-sum below zero through one of its edges
    cycle = cx.boundary_components()[0]
    z_bad = z.copy()
    z_bad[cycle.edges[0]] -= coords.boundary_z_sums(cx, z)[0] + 1.0
    assert coords.boundary_z_sums(cx, z_bad)[0] < 0.0
    rep = check_feasibility(cx, z_bad)
    assert not rep.feasible and rep.status == "infeasible"
    y = rep.certificate
    assert np.all(y >= -1e-9)
    assert np.all(polytope.cone_inequalities(cx) @ y >= -1e-9)
    assert float(z_bad @ y) <= polytope.TAU_FEAS
