"""SL(2,R) closure walk: the independent geometric oracle."""

import math

import mpmath
import numpy as np
import pytest

from hexmetric import hexgeom, realize, solver
from hexmetric.realize import closure_residuals, verify_metric

from conftest import seeded_complex

RNG = np.random.default_rng(20240815)


def law_closure(x):
    """Closure residuals of x-triples walked with the cosine law's y-sides."""
    x = np.asarray(x, dtype=float)
    return closure_residuals(x, hexgeom.cosine_law(x))


def test_realization_matches_cosine_law_random_triples():
    # 1000 random x-triples walked with the arithmetic cosine law's
    # y-sides close to 1e-9
    x = RNG.uniform(0.3, 3.0, (1000, 3))
    worst = law_closure(x).max()
    assert worst < 1e-9, worst


def test_realization_long_sided_hexagons():
    # short x-sides give long y-sides; entries grow like e^(distance/2),
    # and the residuals must still stay below the audit's 1e-8 gate
    x = np.exp(RNG.uniform(math.log(0.1), math.log(4.0), (300, 3)))
    worst = law_closure(x).max()
    assert worst < 1e-8, worst


def test_realization_symmetric_hexagon():
    # the regular right-angled hexagon has every side arccosh 2
    u = math.acosh(2.0)
    assert closure_residuals([(u, u, u)], [(u, u, u)])[0] < 1e-12
    assert law_closure([(u, u, u)])[0] < 1e-12


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
    # every start of the walk is exercised
    fixed = np.array(
        [
            (3.0, 2.0, 2.0), (2.0, 3.0, 2.0), (2.0, 2.0, 3.0),  # sides 0, 2, 4
            (3.0, 0.5, 0.5), (0.5, 3.0, 0.5), (0.5, 0.5, 3.0),  # sides 3, 5, 1
            (0.1, 1.0, 1.0), (1.0, 0.1, 1.0), (1.0, 1.0, 0.1),  # two tied y-sides
        ]
    )
    rows = np.vstack([fixed, np.exp(RNG.uniform(math.log(0.1), math.log(4.0), (60, 3)))])
    y = hexgeom.cosine_law(rows)
    ring = np.stack([rows[:, 0], y[:, 2], rows[:, 1], y[:, 0], rows[:, 2], y[:, 1]], axis=1)
    assert set(np.argmax(ring[: len(fixed)], axis=1)) == set(range(6))
    stacked = closure_residuals(rows, y)
    assert stacked.max() < 1e-9
    for h in range(len(rows)):
        assert abs(stacked[h] - closure_residuals(rows[h][None], y[h][None])[0]) <= 1e-12


def _mp_closure(x) -> mpmath.mpf:
    """max|M + I| of a hexagon's SL(2,R) walk in mpmath, its y-sides from
    the law cosh y_i = (cosh x_i + cosh x_j cosh x_k) / (sinh x_j sinh x_k),
    taken as cosh y_i - 1 = (cosh x_i + cosh(x_j - x_k)) / (sinh x_j sinh x_k)
    so that a short y-side keeps its digits; the walk starts half-way
    along the longest side."""
    x = [mpmath.mpf(float(v)) for v in x]
    y = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        u = (mpmath.cosh(x[i]) + mpmath.cosh(x[j] - x[k])) / (mpmath.sinh(x[j]) * mpmath.sinh(x[k]))
        y.append(2 * mpmath.asinh(mpmath.sqrt(u / 2)))
    sides = [x[0], y[2], x[1], y[0], x[2], y[1]]
    k = max(range(6), key=lambda i: sides[i])
    steps = [sides[(k + j) % 6] for j in range(7)]
    steps[0] /= 2
    steps[6] /= 2
    r = 1 / mpmath.sqrt(2)
    turn = mpmath.matrix([[r, -r], [r, r]])
    m = mpmath.eye(2)
    for j, length in enumerate(steps):
        m = m * mpmath.diag([mpmath.exp(length / 2), mpmath.exp(-length / 2)])
        if j < 6:
            m = m * turn
    return max(abs(v) for v in m + mpmath.eye(2))


def test_closure_matches_mpmath_walk():
    # at 50 digits the walk of a hexagon with the law's y-sides is -I to
    # 1e-40; the float walk stays below the audit's 1e-8 wherever the
    # perimeter is below 60, where its rounding eps e^(P/2) is
    x = np.exp(RNG.uniform(math.log(1e-3), math.log(30.0), (200, 3)))
    with mpmath.workdps(50):
        worst = max(_mp_closure(row) for row in x)
    assert worst < mpmath.mpf("1e-40"), worst
    y = hexgeom.cosine_law(x)
    short = x.sum(axis=1) + y.sum(axis=1) < 60.0
    assert short.sum() > 150
    assert closure_residuals(x, y)[short].max() < 1e-8


def test_verify_metric_fails_hexagon_with_perturbed_law_y(four, monkeypatch):
    # y-sides 1e-7 relative off the law leave one hexagon open: that
    # hexagon, and no other, fails its closure
    lengths = RNG.uniform(0.5, 2.0, four.num_edges)
    z, _, _ = solver.forward_map(four, lengths)
    t, _ = solver.maximize(four, z)
    metric = solver.extract_metric(four, t)
    assert verify_metric(four, metric).ok
    # the audit's law: its triples are already tested, so it calls the
    # cosine law's unchecked form
    law = hexgeom._cosine_law

    def perturbed(x):
        y = law(x)
        y[2] *= 1.0 + 1e-7
        return y

    monkeypatch.setattr(realize.hexgeom, "_cosine_law", perturbed)
    report = verify_metric(four, metric)
    assert [f for f in report.failures if f.startswith("hexagon")] == [
        "hexagon 2: realization residual above 1e-08"
    ]
    assert report.max_closure_residual > 1e-8


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


def test_verify_metric_accepts_long_sided_pants(pants):
    # x = z on the symmetric pants, with y from 0.037 down to 1e-6:
    # correct metrics, whose closure rounding grows like e^(z/2) and
    # stays below 1e-9 here (5e-15 at z = 8, 1.6e-10 at z = 29)
    for value in (8.0, 12.0, 20.0, 29.0):
        t, _ = solver.maximize(pants, np.full(3, value))
        metric = solver.extract_metric(pants, t)
        assert np.allclose(metric.x_arcs, value)
        report = verify_metric(pants, metric)
        assert report.ok, (value, report.failures)
        assert report.max_closure_residual < 1e-9


def test_verify_metric_reports_overflowing_hexagon(pants):
    # (400, 400, 400) is positive and finite, and its cosine law gives
    # y = 2.8e-87, but the SL(2,R) walk's rounding, which grows like
    # e^(x/2), swamps it and leaves a closure residual of 1.0: that
    # hexagon fails, the other is still walked, and nothing raises
    t, _ = solver.maximize(pants, np.full(3, math.acosh(2.0)))
    metric = solver.extract_metric(pants, t)
    metric.x_arcs[3:6] = 400.0  # hexagon 1
    report = verify_metric(pants, metric)
    assert not report.ok
    assert "hexagon 1: realization residual above 1e-08" in report.failures
    assert not any(f.startswith("hexagon 0") for f in report.failures)


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


def test_verify_metric_reads_list_fields_as_arrays(pants):
    # indexing a list edge_lengths with [:, None] once raised TypeError
    fields = ([1.0] * 3, 0.0, [1.0] * 6, [2.0] * 3, np.ones(3))
    as_lists = verify_metric(pants, solver.HyperbolicMetric(*fields))
    as_arrays = verify_metric(pants, solver.HyperbolicMetric(*(np.asarray(f) for f in fields)))
    assert as_lists == as_arrays
    assert not as_lists.ok and len(as_lists.failures) == 3
