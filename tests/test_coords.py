"""Coordinate layer: t/x conversions, per-edge invariant, cycle identity."""

import numpy as np
import pytest

from hexmetric import coords
from hexmetric.coords import CoordinateError

from conftest import random_lengths, seeded_complex

RNG = np.random.default_rng(20240812)


def test_t_x_round_trip(all_fixtures):
    for cx in all_fixtures.values():
        for _ in range(50):
            x = random_lengths(RNG, cx.num_arcs)
            t = coords.t_of(cx, x)
            back = coords.x_of(cx, t)
            assert np.max(np.abs(back - x)) < 1e-12


@pytest.mark.parametrize("n, seed", [(2, 3), (8, 11), (32, 20241107)])
def test_x_of_is_each_arcs_pair_sum(n, seed):
    # the x of arc 3h + i is the sum of the t of its hexagon's other two arcs
    cx = seeded_complex(n, seed)
    t = coords.t_of(cx, random_lengths(RNG, cx.num_arcs))
    explicit = [t[3 * h + (i + 1) % 3] + t[3 * h + (i + 2) % 3] for h in range(n) for i in range(3)]
    assert coords.x_of(cx, t).tobytes() == np.array(explicit).tobytes()


def e_invariant_direct(cx, x):
    """The invariant via the adjacent-minus-facing form
    z(e) = (sum of adjacent arcs - sum of facing arcs) / 2, where the arcs
    adjacent to a seam are the other two of its hexagon: a code path
    independent of coords.e_invariant, for cross-checking it."""
    facing = x[cx.edge_arcs]
    adjacent = x.reshape(cx.n, 3).sum(axis=1)[cx.edge_arcs // 3] - facing
    return 0.5 * (adjacent.sum(axis=1) - facing.sum(axis=1))


def test_e_invariant_two_code_paths_agree(all_fixtures):
    for cx in all_fixtures.values():
        for _ in range(50):
            x = random_lengths(RNG, cx.num_arcs)
            z1 = coords.e_invariant(cx, x)
            z2 = e_invariant_direct(cx, x)
            assert np.max(np.abs(z1 - z2)) < 1e-12


def test_symmetric_pants_invariant(pants):
    # all arcs arccosh 2: each t is u/2 so every z equals u
    u = np.arccosh(2.0)
    x = np.full(6, u)
    z = coords.e_invariant(pants, x)
    assert np.max(np.abs(z - u)) < 1e-14


def test_cycle_identity_all_fixtures(all_fixtures):
    # the z-sum over any enumerated cycle equals the x-sum over its
    # corner arcs, exactly (to rounding) for every length structure
    for cx in all_fixtures.values():
        cycles = list(cx.enumerate_fundamental_cycles().cycles)
        cycles += cx.boundary_edge_cycles()
        for _ in range(100):
            x = random_lengths(RNG, cx.num_arcs)
            for cyc in cycles:
                z_sum, x_sum = coords.cycle_sum(cx, x, cyc)
                assert z_sum == pytest.approx(x_sum, abs=1e-12)


def test_boundary_lengths_and_z_sums_agree(all_fixtures):
    # boundary z-sum equals the boundary length of the same structure
    for cx in all_fixtures.values():
        for _ in range(50):
            x = random_lengths(RNG, cx.num_arcs)
            z = coords.e_invariant(cx, x)
            bl = coords.boundary_lengths(cx, x)
            bz = coords.boundary_z_sums(cx, z)
            assert np.max(np.abs(bl - bz)) < 1e-12


def test_facing_arc_opposite_convention(all_fixtures):
    # the arc facing edge e across y-slot (h, q) is the x-slot (h, q + 3)
    for cx in all_fixtures.values():
        for e, (a, b, _) in enumerate(cx.gluings):
            for side, (h, q) in enumerate((a, b)):
                assert cx.arc_slot(cx.edge_arcs[e, side]) == (h, (q + 3) % 6)


def test_input_validation(pants):
    with pytest.raises(CoordinateError):
        coords.t_of(pants, np.ones(5))
    with pytest.raises(CoordinateError):
        coords.t_of(pants, np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(CoordinateError):
        coords.x_of(pants, np.array([1.0, 1.0, 1.0, 5.0, -3.0, -3.0]))
    with pytest.raises(CoordinateError):
        coords.boundary_z_sums(pants, np.ones(2))


def test_infinite_x_arcs_are_a_coordinate_error(pants):
    # inf - inf once made every t NaN, with a RuntimeWarning
    x = np.full(6, np.inf)
    cyc = pants.boundary_edge_cycles()[0]
    for call in (
        lambda: coords.t_of(pants, x),
        lambda: coords.e_invariant(pants, x),
        lambda: coords.cycle_sum(pants, x, cyc),
    ):
        with pytest.raises(CoordinateError, match="positive and finite"):
            call()


def test_x_of_refuses_what_interior_sums_refuses(pants):
    # an infinite entry makes infinite x-arcs, outside the open cone; so
    # does a positive subnormal pair sum, where the kernel overflows
    for t in ([1.0, np.inf, 1.0, 1.0, 1.0, 1.0], [1e-310, 0.0, 1.0, 1.0, 1.0, 1.0]):
        with pytest.raises(CoordinateError, match="pairwise-sum positivity"):
            coords.x_of(pants, np.array(t))
    # a sum of finite entries that overflows raises, as in the domain test
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="overflow"):
        coords.x_of(pants, np.array([1e308, 1e308, 1.0, 1.0, 1.0, 1.0]))
