"""Feasibility polytope, duality cross-check, interior points."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmetric import coords, polytope, solver
from hexmetric.polytope import (
    InfeasibleCoordinateError,
    check_feasibility,
    interior_point,
)

from conftest import seeded_complex, self_glued_complex

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
            margin = min(
                sum(z[e] for e in cyc.edges) for cyc in cycles
            )
            if abs(margin) < 1e-7:
                continue  # too close to the boundary to compare verdicts
            assert rep.feasible == (margin > 0), (z, margin, rep.lp_min)
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


def _interior_point_cases(all_fixtures):
    rng = np.random.default_rng(20261026)
    for cx in all_fixtures.values():
        for _ in range(25):
            yield cx, rng.uniform(0.2, 2.0, cx.num_edges)
    for n in (8, 32, 512):
        cx = seeded_complex(n, 20261126 + n)
        yield cx, solver.forward_map(cx, np.random.default_rng(n).uniform(0.3, 3.0, cx.num_edges))[0]


def test_interior_point_keeps_half_the_margin(all_fixtures):
    # the start is the max-margin point moved toward the symmetric split
    # t0 = z/2 on each arc: all the way when t0 keeps half the LP margin,
    # otherwise until the least pair sum meets that floor
    splits = moved = 0
    for cx, z in _interior_point_cases(all_fixtures):
        rep = check_feasibility(cx, z)
        if not rep.feasible:
            continue
        t = interior_point(cx, z)
        t0 = 0.5 * z[cx.arc_edge]
        floor = 0.5 * rep.lp_min
        rounding = 1e-14 * np.abs(t).max()
        assert solver.domain_margin(cx, t) >= floor - rounding
        assert np.max(np.abs(coords.slice_coords(cx, t)[0] - z)) < 1e-12
        if solver.domain_margin(cx, t0) >= floor:
            splits += 1
            np.testing.assert_array_equal(t, t0)
        else:
            moved += 1
            assert solver.domain_margin(cx, t) == pytest.approx(floor, abs=rounding)
    assert splits > 0 and moved > 0


def test_interior_point_near_the_float_limit(pants):
    # pants' start is the symmetric split; the seeded complex's is moved
    # toward it, and neither overflows nor divides by zero
    cx = seeded_complex(32, 20261158)
    z, _, _ = solver.forward_map(cx, np.random.default_rng(1).uniform(0.3, 3.0, cx.num_edges))
    z *= 1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(interior_point(pants, np.full(3, 1e307)), np.full(6, 5e306))
        t = interior_point(cx, z)
    assert np.all(np.isfinite(t))
    assert solver.domain_margin(cx, t) > 0.49 * check_feasibility(cx, z).lp_min


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


# --- the margin LP as a minimum cycle mean -----------------------------------

# lp_min and status of the margin LP, recorded with scipy's HiGHS LP solver
# (the solver this module used before the minimum-mean-cycle form) on
# feasible, infeasible and exact-boundary z; "seeded" entries name
# seeded_complex(n, seed)
MARGIN_PIN = json.loads((Path(__file__).parent / "data" / "margin_pin.json").read_text())


def test_margin_lp_matches_pinned_highs_optimum(all_fixtures):
    assert {c["status"] for c in MARGIN_PIN} == {"feasible", "infeasible", "boundary"}
    for case in MARGIN_PIN:
        if case["complex"] == "seeded":
            cx = seeded_complex(case["n"], case["seed"])
        else:
            cx = all_fixtures[case["complex"]]
        rep = check_feasibility(cx, np.array(case["z"]))
        assert abs(rep.lp_min - case["lp_min"]) < 1e-12, case
        assert rep.status == case["status"]


def karp_min_mean(cx, z):
    """Minimum cycle mean of the margin LP's constraint graph (Karp 1978).

    Row w, with hexagon-mates u and v, reads l(u') <= l(v) + b - mu and
    l(v') <= l(u) + b - mu over the literals of the facing arcs u', v',
    with b = (z(e(u)) + z(e(v))) / 2: steps v -> u' and u -> v' of weight
    b.  d[j, a] is the least weight of a j-step walk ending at a, and the
    minimum mean is min_a max_j (d[N, a] - d[j, a]) / (N - j).
    """
    mate = {a: b for e in range(cx.num_edges) for a, b in (cx.facing_arcs(e), cx.facing_arcs(e)[::-1])}
    steps = []
    for h in range(cx.n):
        for u, v in ((3 * h, 3 * h + 1), (3 * h + 1, 3 * h + 2), (3 * h + 2, 3 * h)):
            b = 0.5 * (z[cx.arc_edge[u]] + z[cx.arc_edge[v]])
            steps += [(v, mate[u], b), (u, mate[v], b)]
    src, dst, wt = (np.array(c) for c in zip(*steps))
    k = cx.num_arcs
    d = np.zeros((k + 1, k))
    for j in range(1, k + 1):
        d[j] = np.inf
        np.minimum.at(d[j], dst, d[j - 1][src] + wt)
    return float(np.min(np.max((d[k] - d[:k]) / (k - np.arange(k))[:, None], axis=0)))


@given(
    n=st.sampled_from([2, 4, 6, 8]),
    seed=st.integers(0, 2**16),
    z_seed=st.integers(0, 2**16),
    near_ties=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_margin_lp_matches_karp(n, seed, z_seed, near_ties):
    cx = seeded_complex(n, seed)
    rng = np.random.default_rng(z_seed)
    if near_ties:
        # small integers make many cycles tie; 1e-9 splits the ties by
        # far less than the values but far more than the tolerance
        z = rng.integers(-1, 3, cx.num_edges) + 1e-9 * rng.uniform(size=cx.num_edges)
    else:
        z = rng.uniform(-1.0, 1.5, cx.num_edges)
    assert check_feasibility(cx, z).lp_min == pytest.approx(karp_min_mean(cx, z), abs=1e-12)


@pytest.mark.parametrize("kind", ["forward", "shifted", "random"])
@pytest.mark.parametrize("seed", [3, 41])
def test_margin_lp_matches_karp_at_n32(seed, kind):
    # 96 arc-graph nodes, as in the benchmark's mid-size solves: there a
    # few rounds of value iteration no longer solve the graph outright
    cx = seeded_complex(32, 20250000 + seed)
    rng = np.random.default_rng(seed)
    if kind == "random":
        z = rng.uniform(-1.0, 1.5, cx.num_edges)
    else:
        z, _, _ = solver.forward_map(cx, rng.uniform(0.3, 3.0, cx.num_edges))
        if kind == "shifted":
            z = z - 1.5 * check_feasibility(cx, z).lp_min
    exact = karp_min_mean(cx, z)
    assert check_feasibility(cx, z).lp_min == pytest.approx(exact, abs=1e-12)
    # the max-margin witness attains the mean on its shortest x-arc
    mu, t, _ = polytope._margin_lp(cx, z)
    ts = t.reshape(cx.n, 3)
    x = ts[:, [1, 2, 0]] + ts[:, [2, 0, 1]]
    assert x.min() == pytest.approx(exact, abs=1e-12)


def _assert_certificate_cycle(cx, z):
    rep = check_feasibility(cx, z)
    assert not rep.feasible
    cycle = rep.certificate_cycle
    # consecutive edges, the last and the first too, bound a common hexagon
    hexagons = [set(np.flatnonzero((cx.hex_edges == e).any(axis=1))) for e in cycle]
    for i in range(len(cycle)):
        assert hexagons[i] & hexagons[i - 1], (i, cycle)
    assert z[cycle].sum() <= 0.0
    counts = np.bincount(cycle, minlength=cx.num_edges)
    assert np.max(np.abs(rep.certificate - counts / len(cycle))) <= 1e-15
    assert rep.lp_min == pytest.approx(z[cycle].sum() / len(cycle), abs=1e-12)


def test_certificate_is_an_edge_cycle(pants):
    _assert_certificate_cycle(pants, np.array([-3.0, 1.0, 1.0]))
    _assert_certificate_cycle(pants, np.array([-1.0, 1.0, 1.0]))
    cx = seeded_complex(32, 20251032)
    z, _, _ = solver.forward_map(cx, np.random.default_rng(4).uniform(0.3, 3.0, cx.num_edges))
    _assert_certificate_cycle(cx, z - 1.5 * check_feasibility(cx, z).lp_min)
    _assert_certificate_cycle(cx, np.random.default_rng(5).uniform(-1.0, 1.5, cx.num_edges))


def test_certificate_cycle_walked_only_when_reported(monkeypatch):
    # the walk of the certificate cycle is a Python loop: a feasible
    # verdict and an interior point do not report a cycle, so they do
    # not walk it; an infeasible verdict walks it once
    walks = []
    min_mean_cycle = polytope._min_mean_cycle

    def counted(*args):
        mu, d, cycle = min_mean_cycle(*args)
        return mu, d, lambda: walks.append(1) or cycle()

    monkeypatch.setattr(polytope, "_min_mean_cycle", counted)
    cx = seeded_complex(32, 20251032)
    z, _, _ = solver.forward_map(cx, np.random.default_rng(4).uniform(0.3, 3.0, cx.num_edges))
    assert check_feasibility(cx, z).feasible
    interior_point(cx, z)
    solver.maximize(cx, z)
    assert walks == []
    rep = check_feasibility(cx, z - 1.5 * check_feasibility(cx, z).lp_min)
    assert not rep.feasible and len(rep.certificate_cycle) > 0
    assert walks == [1]


def test_non_finite_coordinate_rejected(pants):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            check_feasibility(pants, np.array([bad, 1.0, 1.0]))


@pytest.mark.parametrize("value", [8e307, 1.7e308])
def test_margin_lp_beyond_the_float_range_raises(pants, value):
    # the arc weights (z_a + z_b) / 2 overflow; 1e307 stays in range
    z = np.full(3, value)
    for call in (check_feasibility, polytope.interior_point):
        with pytest.raises(ArithmeticError, match="margin LP"):
            call(pants, z)
    assert check_feasibility(pants, np.full(3, 1e307)).feasible


def test_two_classes_raise_lp_error():
    # nodes 0 <-> 1 form a cycle of mean 1 and nodes 2 <-> 3 one of mean
    # 3; node 0 may step into {2, 3}, but nothing leaves it, so the final
    # policy keeps both means (an arc graph is strongly connected, so
    # this cannot happen there)
    succ = np.array([[1, 0, 3, 2], [2, 0, 2, 2]])
    w = np.array([[0.5, 1.5, 3.0, 3.0], [0.5, 1.5, 4.0, 3.0]])
    with pytest.raises(polytope.LPError, match="different means"):
        polytope._min_mean_cycle(succ, w)


def _arc_cases(pants, torus, four):
    return [pants, torus, four, seeded_complex(32, 20241107), self_glued_complex()]


def test_arc_succ_steps_to_the_arcs_facing_the_hexagon_mates(pants, torus, four):
    for cx in _arc_cases(pants, torus, four):
        mate = {}
        for e in range(cx.num_edges):
            a, b = cx.facing_arcs(e)
            mate[a], mate[b] = b, a
        expected = [
            [mate[3 * (a // 3) + (a + c + 1) % 3] for a in range(cx.num_arcs)]
            for c in (0, 1)
        ]
        assert cx.arc_succ.dtype == np.intp
        np.testing.assert_array_equal(cx.arc_succ, expected)


def test_arc_succ_is_read_only_and_reused(pants, torus, four):
    for cx in _arc_cases(pants, torus, four):
        z = np.ones(cx.num_edges)
        check_feasibility(cx, z)
        succ = cx.arc_succ
        assert not succ.flags.writeable
        with pytest.raises(ValueError):
            succ[0, 0] = 0
        check_feasibility(cx, z)
        assert cx.arc_succ is succ


def test_feasibility_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hexmetric import polytope, realize, solver\n"
        "from hexmetric.surface import HexComplex\n"
        "cx = HexComplex(n=2, gluings=[((0, 1), (1, 1), False), ((0, 3), (1, 3), False),"
        " ((0, 5), (1, 5), False)])\n"
        "z, _, _ = solver.forward_map(cx, np.array([0.9, 1.1, 1.3]))\n"
        "assert polytope.check_feasibility(cx, z).feasible\n"
        "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
        "t, _ = solver.maximize(cx, z)\n"
        "assert realize.verify_metric(cx, solver.extract_metric(cx, t)).ok\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(polytope.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # no scipy module before the first energy evaluation; no
    # scipy.optimize at all
    assert out.stdout.split() == ["False", "False"]


def test_policy_iteration_cap_raises(monkeypatch):
    # a seeded n = 32 complex takes about 4.5 policies on average; one is
    # not enough here
    cx = seeded_complex(32, 0)
    z, _, _ = solver.forward_map(cx, np.random.default_rng(0).uniform(0.3, 3.0, cx.num_edges))
    assert check_feasibility(cx, z).feasible
    monkeypatch.setattr(polytope, "MAX_POLICIES", 1)
    with pytest.raises(polytope.LPError, match="did not settle in 1 policies"):
        check_feasibility(cx, z)
