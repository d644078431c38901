"""Hyperboloid-model realization: the independent geometric oracle."""

import math

import numpy as np
import pytest

from hexmetric import hexgeom, realize, solver
from hexmetric.realize import (
    distance,
    minkowski_dot,
    normalize_point,
    realize_hexagons,
    verify_metric,
)

from conftest import seeded_complex

RNG = np.random.default_rng(20240815)


def random_point(rng):
    v = rng.uniform(-1.5, 1.5, 2)
    return normalize_point(np.array([math.sqrt(1.0 + v @ v), v[0], v[1]]))


def random_isometry(rng: np.random.Generator) -> np.ndarray:
    """A random orientation-preserving Minkowski isometry (rotation
    composed with a boost)."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(phi), -math.sin(phi)],
            [0.0, math.sin(phi), math.cos(phi)],
        ]
    )
    d = rng.uniform(-1.0, 1.0)
    boost = np.array(
        [
            [math.cosh(d), math.sinh(d), 0.0],
            [math.sinh(d), math.cosh(d), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return rot @ boost


def test_distance_properties():
    for _ in range(200):
        p, q, r = (random_point(RNG) for _ in range(3))
        assert distance(p, p) == pytest.approx(0.0, abs=1e-7)
        assert distance(p, q) == pytest.approx(distance(q, p), abs=1e-12)
        assert distance(p, q) >= 0.0
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-10


def test_distance_resolves_small_separations():
    # arccosh(-<p,q>) rounds these to 0, which hid closure residuals
    for d in (1e-12, 1e-10, 1e-8):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([math.cosh(d), math.sinh(d), 0.0])
        assert distance(p, q) == pytest.approx(d, rel=1e-6)


def test_distance_isometry_invariant():
    for _ in range(200):
        p, q = random_point(RNG), random_point(RNG)
        g = random_isometry(RNG)
        assert distance(g @ p, g @ q) == pytest.approx(distance(p, q), abs=1e-9)


def test_points_stay_on_hyperboloid():
    for _ in range(100):
        p = random_point(RNG)
        assert minkowski_dot(p, p) == pytest.approx(-1.0, abs=1e-12)
        g = random_isometry(RNG)
        assert minkowski_dot(g @ p, g @ p) == pytest.approx(-1.0, abs=1e-9)


def test_realization_matches_cosine_law_random_triples():
    # 1000 random x-triples: the measured hexagons agree with the
    # arithmetic cosine law to 1e-9; sides run x1, y3, x2, y1, x3, y2
    x = RNG.uniform(0.3, 3.0, (1000, 3))
    _, measured, angle, closure = realize_hexagons(x)
    y = hexgeom.cosine_law_y(x)
    worst = max(
        closure.max(),
        angle.max(),
        np.abs(measured[:, 0::2] - x).max(),
        np.abs(measured[:, [3, 5, 1]] - y).max(),
    )
    assert worst < 1e-9, worst


def test_realization_long_sided_hexagons():
    # short x-sides give long y-sides; coordinates grow like
    # e^distance, and the residuals must still stay below the audit's
    # 1e-8 gate
    x = np.exp(RNG.uniform(math.log(0.1), math.log(4.0), (300, 3)))
    _, measured, angle, closure = realize_hexagons(x)
    worst = max(closure.max(), angle.max(), np.abs(measured[:, 0::2] - x).max())
    assert worst < 1e-8, worst


def test_realization_symmetric_hexagon():
    u = math.acosh(2.0)
    _, measured, angle, closure = realize_hexagons([(u, u, u)])
    assert np.abs(measured - u).max() < 1e-12
    assert closure[0] < 1e-12
    assert angle[0] < 1e-12


def test_verify_metric_accepts_converged_solution(pants):
    z = np.full(3, math.acosh(2.0))
    t, _ = solver.maximize(pants, z)
    metric = solver.extract_metric(pants, t)
    report = verify_metric(pants, metric)
    assert report.ok
    assert report.max_closure_residual < 1e-10
    assert report.max_edge_mismatch < 1e-10
    assert report.max_boundary_error < 1e-10


def test_verify_metric_detects_injected_fault(pants):
    z = np.full(3, math.acosh(2.0))
    t, _ = solver.maximize(pants, z)
    metric = solver.extract_metric(pants, t)
    # corrupt one edge length by 1e-3: must fail at the 1e-8 gate
    metric.edge_lengths = metric.edge_lengths.copy()
    metric.edge_lengths[0] += 1e-3
    report = verify_metric(pants, metric)
    assert not report.ok
    assert any("edge" in f for f in report.failures)


def test_verify_metric_detects_boundary_fault(four):
    lengths = RNG.uniform(0.5, 2.0, four.num_edges)
    z, _, _ = solver.forward_map(four, lengths)
    t, _ = solver.maximize(four, z)
    metric = solver.extract_metric(four, t)
    metric.boundary_lengths[1] += 1e-3
    report = verify_metric(four, metric)
    assert not report.ok
    assert report.failures == ["boundary 1: length sum off by 1.000e-03"]


def test_verify_metric_detects_corrupt_hexagon(four):
    lengths = RNG.uniform(0.5, 2.0, four.num_edges)
    z, _, _ = solver.forward_map(four, lengths)
    t, _ = solver.maximize(four, z)
    metric = solver.extract_metric(four, t)
    metric.x_arcs[1] += 1e-3  # hexagon 0, column 1
    report = verify_metric(four, metric)
    assert not report.ok


def test_stacked_walk_matches_single_hexagons():
    # each of the six sides is the longest in one of the fixed rows, so
    # every shift from walk order to x1-first order is exercised
    fixed = np.array(
        [
            (3.0, 2.0, 2.0), (2.0, 3.0, 2.0), (2.0, 2.0, 3.0),  # sides 0, 2, 4
            (3.0, 0.5, 0.5), (0.5, 3.0, 0.5), (0.5, 0.5, 3.0),  # sides 3, 5, 1
            (0.1, 1.0, 1.0), (1.0, 0.1, 1.0), (1.0, 1.0, 0.1),  # two tied y-sides
        ]
    )
    rows = np.vstack([fixed, np.exp(RNG.uniform(math.log(0.1), math.log(4.0), (60, 3)))])
    vertices, measured, angle, closure = realize_hexagons(rows)
    assert set(np.argmax(measured[: len(fixed)], axis=1)) == set(range(6))
    for h, x in enumerate(rows):
        one = realize_hexagons(x[None])
        for stacked, single in zip((vertices, measured, angle, closure), one):
            assert np.max(np.abs(stacked[h] - single[0])) <= 1e-12


def test_verify_metric_at_scale():
    cx = seeded_complex(512, 20241018)
    lengths = np.random.default_rng(5).uniform(0.3, 3.0, cx.num_edges)
    z, _, _ = solver.forward_map(cx, lengths)
    t, _ = solver.maximize(cx, z)
    metric = solver.extract_metric(cx, t)
    assert verify_metric(cx, metric).ok
    hex_x = metric.x_arcs.reshape(cx.n, 3).copy()
    # an x-triple outside the domain fails its own hexagon only
    h = 301
    bad = hex_x.copy()
    bad[h] = np.nan
    metric.x_arcs = bad.ravel()
    report = verify_metric(cx, metric)
    assert not report.ok
    assert [f for f in report.failures if f.startswith("hexagon")] == [
        f"hexagon {h}: realization residual above 1e-08"
    ]
    # a 3e-8 change to one x-side shows in the y-sides it determines
    bad = hex_x.copy()
    bad[77, 2] += 3e-8
    metric.x_arcs = bad.ravel()
    assert not verify_metric(cx, metric).ok


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, 1e308])  # NaN: test_verify_metric_at_scale
def test_verify_metric_reports_out_of_domain_hexagon(four, value):
    lengths = RNG.uniform(0.5, 2.0, four.num_edges)
    z, _, _ = solver.forward_map(four, lengths)
    t, _ = solver.maximize(four, z)
    metric = solver.extract_metric(four, t)
    metric.x_arcs[3:6] = (1.0, value, 1.0)  # hexagon 1
    report = verify_metric(four, metric)
    assert not report.ok
    assert "hexagon 1: realization residual above 1e-08" in report.failures
    assert not any(f.startswith(("hexagon 0", "hexagon 2", "hexagon 3")) for f in report.failures)


def test_verify_metric_reports_walk_off_the_hyperboloid(pants):
    # x = 20 gives y ~ 9e-5: the walk's coordinates reach ~e^20, where
    # rounding alone is far above the tolerance; the audit must say so
    # in its report rather than raise
    t, _ = solver.maximize(pants, np.full(3, 20.0))
    metric = solver.extract_metric(pants, t)
    assert np.allclose(metric.x_arcs, 20.0)
    report = verify_metric(pants, metric)
    assert not report.ok
    assert "hexagon 0: realization residual above 1e-08" in report.failures


def test_verify_metric_reports_overflowing_hexagon(pants):
    # (400, 400, 400) is positive and finite, and its cosine law gives
    # y = 2.8e-87, but the walk's coordinates reach e^400 and leave the
    # hyperboloid: that hexagon fails, the other is still walked, and
    # nothing raises
    t, _ = solver.maximize(pants, np.full(3, math.acosh(2.0)))
    metric = solver.extract_metric(pants, t)
    metric.x_arcs[3:6] = 400.0  # hexagon 1
    report = verify_metric(pants, metric)
    assert not report.ok
    assert "hexagon 1: realization residual above 1e-08" in report.failures
    assert not any(f.startswith("hexagon 0") for f in report.failures)


def test_helpers_on_stacks_match_single_points():
    # a (3, k) stack holds one point per column; each helper must give
    # the bits it gives on the points one at a time
    p = np.stack([random_point(RNG) for _ in range(40)], axis=1)
    q = np.stack([random_point(RNG) for _ in range(40)], axis=1)
    raw = 1.5 * q
    dot, unit, dist = minkowski_dot(p, q), normalize_point(raw), distance(p, q)
    assert p.shape == (3, 40) and dot.shape == dist.shape == (40,)
    for j in range(40):
        assert np.array_equal(dot[j], minkowski_dot(p[:, j], q[:, j]))
        assert np.array_equal(unit[:, j], normalize_point(raw[:, j]))
        assert np.array_equal(dist[j], distance(p[:, j], q[:, j]))


@pytest.mark.parametrize("name", ["x_arcs", "edge_lengths", "boundary_lengths"])
def test_verify_metric_rejects_wrong_length_field(pants, name):
    # a too-short array must fail the audit by name, not broadcast
    # against the re-summed totals or raise from numpy
    t, _ = solver.maximize(pants, np.full(3, math.acosh(2.0)))
    metric = solver.extract_metric(pants, t)
    setattr(metric, name, getattr(metric, name)[:1])
    report = verify_metric(pants, metric)
    assert not report.ok
    assert [f.split(":")[0] for f in report.failures] == [name]


def test_verify_metric_edge_failure_reports_its_size(pants):
    # an edge length off by 1e-3 leaves its two sides in agreement: the
    # message must name the check that failed, with its size
    t, _ = solver.maximize(pants, np.full(3, math.acosh(2.0)))
    metric = solver.extract_metric(pants, t)
    metric.edge_lengths = metric.edge_lengths.copy()
    metric.edge_lengths[0] += 1e-3
    (failure,) = verify_metric(pants, metric).failures
    assert failure.startswith("edge e0: side lengths off the edge length by")
    assert float(failure.split()[-1]) == pytest.approx(1e-3, rel=1e-6)
