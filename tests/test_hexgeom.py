"""Single-hexagon laws, energy, derivatives, bounds and blow-up."""

import math
import re

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


def _cosine_law_mp(v):
    """The cosine law in mpmath, in its textbook form: acosh(1 + w) with w
    as small as e^{-2 max(v)} needs about 0.9 max(v) digits beyond 60."""
    import mpmath

    with mpmath.workdps(60 + int(0.9 * max(v))):
        c = [mpmath.cosh(mpmath.mpf(u)) for u in v]
        s = [mpmath.sinh(mpmath.mpf(u)) for u in v]
        pairs = ((1, 2), (2, 0), (0, 1))
        return [float(mpmath.acosh((c[i] + c[j] * c[k]) / (s[j] * s[k]))) for i, (j, k) in enumerate(pairs)]


@pytest.mark.parametrize("law", [hexgeom.cosine_law_y, hexgeom.cosine_law_x])
def test_cosine_law_matches_mpmath(law):
    # log-uniform triples over ten and a half decades, whose opposite
    # sides run from about 1e-217 up to about 38
    v = np.exp(np.random.default_rng(20261019).uniform(math.log(1e-8), math.log(500.0), (300, 3)))
    exact = np.array([_cosine_law_mp(row) for row in v])
    assert np.max(np.abs(law(v) / exact - 1.0)) <= 1e-12
    assert law((50.0, 50.0, 50.0)) == pytest.approx([2.7775887729928041e-11] * 3, rel=1e-14)


@given(st.tuples(*(st.floats(min_value=5e-324, max_value=1e300) for _ in range(3))))
@settings(max_examples=300, deadline=None)
def test_cosine_law_is_total(v):
    for law in (hexgeom.cosine_law_y, hexgeom.cosine_law_x):
        out = law(v)
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)


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
        y = hexgeom.cosine_law_y([sum(t) - ti for ti in t])  # x_i = t_j + t_k
        for i in range(3):
            assert g[i] == pytest.approx(math.log(math.cosh(y[i] / 2.0)), abs=1e-12)
            assert g[i] > 0.0


def test_y_of_grad_matches_high_precision_reference():
    # g = ln cosh(y/2) rounded once to a float, for y log-uniform over
    # [1e-150, 700]: the short sides the cosine law rounds to 0 included.
    # cosh(y/2) - 1 is about y^2/8, so the reference carries 2 * 150 + 40
    # digits.
    import mpmath

    rng = np.random.default_rng(20261019)
    y = 10.0 ** rng.uniform(-150.0, math.log10(700.0), 200)
    with mpmath.workdps(340):
        g = np.array([float(mpmath.log(mpmath.cosh(mpmath.mpf(float(v)) / 2))) for v in y])
    assert np.max(np.abs(hexgeom.y_of_grad(g) / y - 1.0)) < 1e-14


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


def wide_t(rng):
    # |t_i| log-uniform in [1e-6, 300], each negative with probability
    # 0.2, rejection-sampled into the open cone
    while True:
        t = 10.0 ** rng.uniform(-6.0, math.log10(300.0), 3)
        t[rng.random(3) < 0.2] *= -1.0
        if min(hexgeom.pair_sums(t)) > hexgeom.H3_MARGIN:
            return t


def test_derivatives_match_high_precision_reference():
    # The reference differentiates theta's closed form term by term:
    # 2 dtheta/dt_i = ln cosh T + ln cosh t_i - ln sinh x_j - ln sinh x_k
    # and 2H = tanh(T) 11^T + diag tanh(t) - sum_k coth(x_k) v_k v_k^T with
    # v_k = e_i + e_j, x_k = t_i + t_j.  Its terms cancel down to entries
    # as small as e^{-4 max|t|}, so the working precision grows with max|t|.
    # Entries below the smallest normal float are compared absolutely.
    import mpmath

    rng = np.random.default_rng(20261018)
    tiny = np.finfo(float).tiny
    for _ in range(48):
        t = wide_t(rng)
        g, h = hexgeom.theta_grad(t), hexgeom.theta_hessian(t)
        with mpmath.workdps(int(30 + 4.0 * np.max(np.abs(t)) / math.log(10.0))):
            tm = [mpmath.mpf(float(v)) for v in t]
            total = sum(tm)
            pairs = [(i, (i + 1) % 3) for i in range(3)]
            x = {p: tm[p[0]] + tm[p[1]] for p in pairs}
            g_ref = [
                (mpmath.log(mpmath.cosh(total)) + mpmath.log(mpmath.cosh(tm[i]))
                 - sum(mpmath.log(mpmath.sinh(x[p])) for p in pairs if i in p)) / 2
                for i in range(3)
            ]
            h_ref = [
                [
                    (mpmath.tanh(total) + (mpmath.tanh(tm[i]) if i == j else 0)
                     - sum(mpmath.coth(x[p]) for p in pairs if i in p and j in p)) / 2
                    for j in range(3)
                ]
                for i in range(3)
            ]
            g_ref = np.array([float(v) for v in g_ref])
            h_ref = np.array([[float(v) for v in row] for row in h_ref])
        np.testing.assert_array_less(np.abs(g - g_ref), 1e-12 * np.abs(g_ref), err_msg=str(t))
        np.testing.assert_array_less(
            np.abs(h - h_ref), 1e-12 * np.abs(h_ref) + tiny, err_msg=str(t)
        )


def test_derivatives_in_one_call_match_the_separate_calls():
    # theta_derivatives shares its terms between the gradient and the
    # Hessian; each must come out exactly as from its own call
    rng = np.random.default_rng(20261019)
    t = np.array([wide_t(rng) for _ in range(200)])
    g, h = hexgeom.theta_derivatives(t)
    np.testing.assert_array_equal(g, hexgeom.theta_grad(t))
    np.testing.assert_array_equal(h, hexgeom.theta_hessian(t))
    g0, h0 = hexgeom.theta_derivatives(t[0])
    np.testing.assert_array_equal(g0, hexgeom.theta_grad(t[0]))
    np.testing.assert_array_equal(h0, hexgeom.theta_hessian(t[0]))


@pytest.mark.parametrize("v", [355.0, 360.0, 372.0])
def test_hessian_underflows_no_sooner_than_the_gradient(v):
    # at t = (v, v, v) the diagonal of -H is p(v) + p(3v) + 2q(2v), about
    # e^{-2v}; expit alone flushes p(v) to 0 from v = 354.9 on, though the
    # gradient, about e^{-2v}/2 per entry, stays positive to v = 372.5
    g, h = hexgeom.theta_derivatives((v, v, v))
    assert np.all(g > 0.0)
    assert np.all(np.diag(h) == -math.exp(-2.0 * v))
    with pytest.raises(hexgeom.DomainError, match="gradient underflows"):
        hexgeom.theta_derivatives((372.5, 372.5, 372.5))


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


_BAD_ROWS = [
    (hexgeom.theta, (5.0, -3.0, -3.0), hexgeom.DomainError),  # outside the closed cone
    (hexgeom.theta, (np.nan, 1.0, 1.0), hexgeom.DomainError),
    (hexgeom.theta_grad, (1.0, -1.0, 2.0), hexgeom.DomainError),  # on the face t1 + t2 = 0
    (hexgeom.theta_grad, (400.0, 400.0, 400.0), hexgeom.DomainError),  # sinh overflows
    (hexgeom.theta_hessian, (400.0, 400.0, 400.0), hexgeom.DomainError),
    (hexgeom.theta_hessian, (1.0, np.inf, 1.0), hexgeom.DomainError),
    (hexgeom.cosine_law_y, (1e308, 1.0, 1.0), FloatingPointError),  # 2x overflows
    (hexgeom.cosine_law_y, (1.0, 0.0, 1.0), hexgeom.DomainError),
    (hexgeom.theta, (1.0, np.inf, 1.0), hexgeom.DomainError),
    (hexgeom.theta, (1e308, 1e308, 1.0), hexgeom.DomainError),  # t1 + t2 overflows
    (hexgeom.theta, (-1e308, 1e308, 1e308), FloatingPointError),  # t2 + t3 does; T^2 too
]


@pytest.mark.parametrize(
    "f, row, error",
    _BAD_ROWS,
    ids=[f"{f.__name__}-row{i}" for i, (f, _, _) in enumerate(_BAD_ROWS)],
)
def test_one_bad_row_raises(f, row, error):
    # the other rows lie in f's domain, so row 5 is the one that raises,
    # with the exception type each row has always raised
    if f is hexgeom.cosine_law_y:
        rows = RNG.uniform(0.05, 5.0, (8, 3))
    else:
        rows = np.array([random_t(RNG) for _ in range(8)])
    rows[5] = row
    with pytest.raises((hexgeom.DomainError, ArithmeticError)) as exc:
        f(rows)
    assert exc.type is error
    if exc.type is hexgeom.DomainError:
        assert str(tuple(rows[5].tolist())) in str(exc.value)


def test_theta_evaluates_on_the_faces_of_the_closed_cone():
    # a pair sum of exactly 0 is in theta's domain, though not in its
    # gradient's; lambda2(0) = 0 there
    faces = np.array([(1.0, -1.0, 2.0), (0.0, 0.0, 0.0), (3.0, 0.5, -0.5)])
    values = hexgeom.theta(faces)
    assert np.all(np.isfinite(values)) and values[1] == 0.0
    np.testing.assert_array_equal(values, [hexgeom.theta(r) for r in faces])


def test_interior_sums_are_the_pair_sums_inside_the_cone():
    ts = np.array([random_t(RNG) for _ in range(200)] + [wide_t(RNG) for _ in range(200)])
    assert hexgeom.interior_sums(ts).tobytes() == hexgeom.pair_sums(ts).tobytes()
    for t in ts[:20]:
        assert hexgeom.interior_sums(t).tobytes() == hexgeom.pair_sums(t).tobytes()


@pytest.mark.parametrize(
    "row",
    [(hexgeom.H3_MARGIN, 0.0, 1.0), (1.0, np.inf, 1.0), (np.nan, 1.0, 1.0), (1.0, -1.0, 2.0)],
    ids=["margin", "inf", "nan", "face"],
)
def test_interior_sums_refuse_a_row_outside_the_open_cone(row):
    # the least sum of (H3_MARGIN, 0, 1) is H3_MARGIN exactly, not above it
    rows = np.array([random_t(RNG) for _ in range(8)])
    rows[5] = row
    assert hexgeom.interior_sums(row) is None
    assert hexgeom.interior_sums(rows) is None
    # the kernel's own DomainError names that row
    with pytest.raises(hexgeom.DomainError, match=re.escape(f"strictly inside H3: {row}")):
        hexgeom.theta_derivatives(rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_interior_sums_raise_on_finite_entries_that_overflow():
    rows = np.array([random_t(RNG) for _ in range(8)])
    rows[3] = (1e308, 1e308, 1.0)
    with pytest.raises(FloatingPointError, match="overflow encountered in add"):
        hexgeom.interior_sums(rows)


def test_theta_takes_the_callers_sums_as_its_own():
    ts = np.array([random_t(RNG) for _ in range(200)])
    faces = np.array([(1.0, -1.0, 2.0), (0.0, 0.0, 0.0), (3.0, 0.5, -0.5), (-2.0, 2.0, 2.0)])
    for t in (ts, faces, *faces):
        assert hexgeom.theta(t, hexgeom.pair_sums(t)).tobytes() == hexgeom.theta(t).tobytes()


# the theta_grad and theta_hessian rows of test_one_bad_row_raises
@pytest.mark.parametrize(
    "f, row",
    [
        (hexgeom.theta_grad, (1.0, -1.0, 2.0)),
        (hexgeom.theta_grad, (400.0, 400.0, 400.0)),
        (hexgeom.theta_hessian, (400.0, 400.0, 400.0)),
        (hexgeom.theta_hessian, (1.0, np.inf, 1.0)),
    ],
)
def test_derivatives_raise_as_the_separate_calls(f, row):
    rows = np.array([random_t(RNG) for _ in range(8)])
    rows[5] = row
    with pytest.raises((hexgeom.DomainError, ArithmeticError)) as separate:
        f(rows)
    with pytest.raises((hexgeom.DomainError, ArithmeticError)) as together:
        hexgeom.theta_derivatives(rows)
    assert type(together.value) is type(separate.value)
