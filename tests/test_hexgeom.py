"""Single-hexagon laws, energy, derivatives, bounds and blow-up."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmetric import hexgeom

RNG = np.random.default_rng(20240811)


def random_t(rng, low=0.05, high=2.5):
    # rejection-sample an interior point of the cone
    while True:
        t = tuple(rng.uniform(-high, high, 3))
        if min(hexgeom.pair_sums(t)) > low:
            return t


positive_triple = st.tuples(
    *(st.floats(min_value=0.05, max_value=5.0) for _ in range(3))
)


def test_cosine_law_frozen_value():
    # frozen from quadrature-independent evaluation of
    # arccosh((cosh 1 + cosh^2 1)/sinh^2 1)
    y = hexgeom.cosine_law_y((1.0, 1.0, 1.0))
    assert y[0] == y[1] == y[2]
    assert y[0] == pytest.approx(1.7049128323580138, abs=1e-12)


def test_symmetric_fixed_point():
    # arccosh 2 is the unique length with y = x in the symmetric hexagon
    u = math.acosh(2.0)
    y = hexgeom.cosine_law_y((u, u, u))
    assert max(abs(v - u) for v in y) < 1e-12


@given(positive_triple)
@settings(max_examples=300, deadline=None)
def test_cosine_law_round_trip(x):
    y = hexgeom.cosine_law_y(x)
    back = hexgeom.cosine_law_x(y)
    assert max(abs(a - b) for a, b in zip(back, x)) < 1e-9 * (1.0 + max(x))


@given(positive_triple)
@settings(max_examples=300, deadline=None)
def test_sine_law(x):
    y = hexgeom.cosine_law_y(x)
    ratios = [math.sinh(x[i]) / math.sinh(y[i]) for i in range(3)]
    assert max(ratios) - min(ratios) < 1e-12 * max(ratios)


def test_x_t_round_trip():
    for _ in range(200):
        x = tuple(RNG.uniform(0.05, 5.0, 3))
        t = hexgeom.x_to_t(x)
        back = hexgeom.t_to_x(t)
        assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12


def test_theta_frozen_values():
    # frozen from the quadrature oracle for the antiderivatives
    assert hexgeom.theta((1.0, 1.0, 1.0)) == pytest.approx(
        1.9434887698064078, abs=1e-12
    )
    assert hexgeom.theta((0.3, 0.8, 1.7)) == pytest.approx(
        1.8421267517920441, abs=1e-12
    )
    assert hexgeom.theta((0.0, 0.0, 0.0)) == 0.0


def test_theta_nonnegative_and_bounded_on_positive_octant():
    # on {t >= 0} theta lies in [0, 5 pi^2 / 24]
    bound = 5.0 * math.pi ** 2 / 24.0
    for _ in range(500):
        t = tuple(RNG.uniform(0.0, 4.0, 3))
        v = hexgeom.theta(t)
        assert -1e-12 <= v <= bound + 1e-12


def test_theta_can_be_negative_off_the_positive_octant():
    # with one strongly negative coordinate the energy goes negative;
    # the independent line-integral oracle confirms the sign
    t = (-2.0, 4.0, 4.0)
    v = hexgeom.theta(t)
    assert v < -0.3
    assert v == pytest.approx(hexgeom.theta_by_path_integral(t, 30), abs=1e-8)


def test_theta_path_integral_identity():
    # closed form vs independent line-integral evaluation
    for _ in range(200):
        t = random_t(RNG)
        a = hexgeom.theta(t)
        b = hexgeom.theta_by_path_integral(t, segments=24)
        assert a == pytest.approx(b, abs=1e-8)


def test_path_integral_is_path_independent():
    t = (0.4, 0.9, 1.3)
    mid = (1.5, 1.5, 1.5)
    direct = hexgeom.theta_by_path_integral(t, segments=24)
    detour = hexgeom.path_integral([(0.0, 0.0, 0.0), mid, t], segments=24)
    assert direct == pytest.approx(detour, abs=1e-9)


def test_grad_matches_finite_differences():
    h = 1e-6
    for _ in range(200):
        t = random_t(RNG, low=0.1)
        g = hexgeom.theta_grad(t)
        for i in range(3):
            e = [0.0, 0.0, 0.0]
            e[i] = h
            tp = tuple(a + b for a, b in zip(t, e))
            tm = tuple(a - b for a, b in zip(t, e))
            fd = (hexgeom.theta(tp) - hexgeom.theta(tm)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)


def test_grad_components_are_lncosh_half_y():
    for _ in range(200):
        t = random_t(RNG, low=0.05)
        g = hexgeom.theta_grad(t)
        y = hexgeom.cosine_law_y(hexgeom.t_to_x(t))
        for i in range(3):
            assert g[i] == pytest.approx(math.log(math.cosh(y[i] / 2.0)), abs=1e-12)
            assert g[i] > 0.0


def test_hessian_matches_finite_differences():
    h = 1e-4
    for _ in range(100):
        t = random_t(RNG, low=0.2)
        hess = hexgeom.theta_hessian(t)
        for i in range(3):
            e = [0.0, 0.0, 0.0]
            e[i] = h
            gp = hexgeom.theta_grad(tuple(a + b for a, b in zip(t, e)))
            gm = hexgeom.theta_grad(tuple(a - b for a, b in zip(t, e)))
            for j in range(3):
                fd = (gp[j] - gm[j]) / (2.0 * h)
                assert hess[i, j] == pytest.approx(fd, abs=1e-5)


def test_hessian_negative_definite_and_diagonally_dominant():
    for _ in range(1000):
        t = random_t(RNG, low=0.02, high=3.0)
        hess = hexgeom.theta_hessian(t)
        assert np.allclose(hess, hess.T)
        eig = np.linalg.eigvalsh(hess)
        assert np.max(eig) < 0.0
        neg = -hess
        for i in range(3):
            off = sum(abs(neg[i, j]) for j in range(3) if j != i)
            assert neg[i, i] > off


def test_energy_blows_up_near_boundary():
    # inward derivative along the segment from a boundary point a to an
    # interior point p grows without bound approaching the boundary:
    # strictly increasing as s decreases, above 10 by s = 1e-6
    a = np.array([1.0, -1.0, 2.0])  # on the face t1 + t2 = 0
    p = np.array([1.0, 1.0, 1.0])
    prev = -np.inf
    slopes = []
    for s in (1e-2, 1e-4, 1e-6):
        t = tuple((1.0 - s) * a + s * p)
        g = hexgeom.theta_grad(t)
        slopes.append(float(np.dot(g, p - a)))
    assert slopes[0] < slopes[1] < slopes[2]
    assert slopes[2] > 10.0


def test_slice_bounds():
    for u in (0.5, 1.0, 2.0, 5.0):
        lo = hexgeom.theta_min_on_slice(u)
        hi = hexgeom.theta_max_on_slice(u)
        assert lo <= hi
        for _ in range(100):
            # random point of the open simplex slice sum t = u
            w = RNG.dirichlet((1.0, 1.0, 1.0))
            t = tuple(u * w)
            if min(hexgeom.pair_sums(t)) <= 0.0:
                continue
            v = 2.0 * hexgeom.theta(t)
            assert lo - 1e-9 <= v <= hi + 1e-9
        # extremes are attained: vertex and barycenter
        vertex = 2.0 * hexgeom.theta((u, 0.0, 0.0))
        center = 2.0 * hexgeom.theta((u / 3.0, u / 3.0, u / 3.0))
        assert vertex == pytest.approx(lo, abs=1e-10)
        assert center == pytest.approx(hi, abs=1e-10)


def test_domain_errors():
    with pytest.raises(hexgeom.DomainError):
        hexgeom.cosine_law_y((1.0, -1.0, 1.0))
    with pytest.raises(hexgeom.DomainError):
        hexgeom.t_to_x((1.0, 1.0, -3.0))
    with pytest.raises(hexgeom.DomainError):
        hexgeom.theta_grad((1.0, -1.0, 2.0))  # on the closed face t1+t2=0
    with pytest.raises(hexgeom.DomainError):
        hexgeom.theta((5.0, -3.0, -3.0))


def test_stacked_triples_match_per_row_calls():
    ts = np.array([random_t(RNG) for _ in range(40)])
    xs = RNG.uniform(0.05, 5.0, (40, 3))
    for f, rows in (
        (hexgeom.theta, ts),
        (hexgeom.theta_grad, ts),
        (hexgeom.theta_hessian, ts),
        (hexgeom.cosine_law_y, xs),
    ):
        stacked = f(rows)
        assert stacked.shape == (40,) + np.shape(f(rows[0]))
        np.testing.assert_array_equal(stacked, [f(r) for r in rows])


@pytest.mark.parametrize(
    "f, row",
    [
        (hexgeom.theta, (5.0, -3.0, -3.0)),  # outside the closed cone
        (hexgeom.theta, (np.nan, 1.0, 1.0)),
        (hexgeom.theta_grad, (1.0, -1.0, 2.0)),  # on the face t1 + t2 = 0
        (hexgeom.theta_grad, (400.0, 400.0, 400.0)),  # sinh overflows
        (hexgeom.theta_hessian, (400.0, 400.0, 400.0)),
        (hexgeom.theta_hessian, (1.0, np.inf, 1.0)),
        (hexgeom.cosine_law_y, (800.0, 1.0, 1.0)),  # cosh overflows
        (hexgeom.cosine_law_y, (1.0, 0.0, 1.0)),
    ],
)
def test_one_bad_row_raises(f, row):
    rows = np.array([random_t(RNG) for _ in range(8)])
    rows[5] = row
    with pytest.raises((hexgeom.DomainError, ArithmeticError)):
        f(rows)
