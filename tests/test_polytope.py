"""Feasibility polytope, duality cross-check, interior points."""

import numpy as np
import pytest

from hexmetric import coords, polytope, solver
from hexmetric.polytope import (
    InfeasibleCoordinateError,
    check_cycles,
    check_feasibility,
    interior_point,
)

from conftest import seeded_complex

RNG = np.random.default_rng(20240813)


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
