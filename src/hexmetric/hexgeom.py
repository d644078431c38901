"""Single right-angled hexagon geometry.

A colored right-angled hyperbolic hexagon has alternating x-sides and
y-sides, with y_i opposite x_i.  Everything here is a pure function of
the three x-lengths (or of the half-difference coordinates t_i), namely:

* the cosine law in both directions, in a log-sum form that neither
  cancels nor overflows, and the y-sides from the gradient,
* the antiderivatives of ln cosh and ln sinh (via the dilogarithm),
* the concave per-hexagon energy, its exact gradient and Hessian (one
  at a time, or both from one call that shares their terms),
* a line-integral evaluation of the energy used as an independent check.

The t-domain is the open cone H3 = {t in R^3 : t_i + t_j > 0 for i != j};
x_i = t_j + t_k maps it onto the positive octant of x-space.

With T = sum t and x_k = t_i + t_j, theta's gradient and Hessian are sums
of one-signed terms, which neither cancel nor overflow at any float t:

    d(theta)/dt_i = max(-t_i, 0) + (c(T) + c(t_i) + d(x_j) + d(x_k)) / 2,
    H = -[p(T) 11^T + diag p(t) + sum_k q(x_k) (e_i + e_j)(e_i + e_j)^T],
    c(u) = ln(1 + e^{-2|u|}),  d(x) = -ln(1 - e^{-2x}),
    p(u) = 1/(e^{2u} + 1),     q(x) = e^{-2x}/(1 - e^{-2x}).

p is taken from E = e^{-2|u|}, the exponential that c(u) uses:
p(u) = E/(1 + E) for u >= 0 and 1/(1 + E) for u < 0, positive up to
2u = 745, where E underflows.

The triple functions also take a stack of triples, shape (..., 3), and
work along the last axis, so a whole complex is evaluated in one call.
Inputs outside the domain (non-finite t included) raise DomainError, as
does a gradient or Hessian row that underflows to 0; an overflow or a
division by zero raises FloatingPointError rather than return inf or NaN.

A hexagon's pair sums have one home here: pair_sums forms them, in the
order (x_3, x_1, x_2), and interior_sums is the one test of the open
cone, exactly where the kernel is finite: every sum at least the least
normal float and none infinite.  theta and theta_derivatives also take
the caller's tested sums next to t, so a point's sums are formed and
tested once: theta takes sums tested for the closed cone,
theta_derivatives the sums interior_sums returned.
"""

from __future__ import annotations

import math
import sys

import numpy as np

Triple = tuple[float, float, float]

_PI2_24 = math.pi ** 2 / 24.0
_PI2_12 = math.pi ** 2 / 12.0
_LN2 = math.log(2.0)


class DomainError(ValueError):
    """Input outside the hexagon parameter domain."""


# Entry i of a triple is paired with entries _J[i] = i+1 and _K[i] = i+2.
_I = np.array([0, 1, 2])
_J = np.array([1, 2, 0])
_K = np.array([2, 0, 1])


def _raising() -> np.errstate:
    # overflow, division by zero and invalid operations raise
    # FloatingPointError rather than return inf or NaN
    return np.errstate(over="raise", divide="raise", invalid="raise")


def _require(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise DomainError naming the first triple of `values` with an entry
    of `ok`, shape (..., 3), false (a NaN comparison counts as false)."""
    if not ok.all():
        bad = np.reshape(values, (-1, 3))[~np.reshape(ok, (-1, 3)).all(axis=1)][0]
        raise DomainError(f"{message}: {tuple(bad.tolist())}")


def lambda1(u):
    """Antiderivative of ln cosh:  integral of ln cosh(s) over [0, u].

    Odd in u.  Closed form uses ln cosh s = s - ln 2 + ln(1 + e^{-2s}).
    Elementwise on arrays.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError(f"lambda1 requires finite u, got {u}")
    return np.sign(u) * _closed_form(np.abs(u), 1.0, _PI2_24)


def lambda2(u):
    """Antiderivative of ln sinh:  integral of ln sinh(s) over [0, u], u >= 0.

    The integrand has an integrable log singularity at 0; the closed form
    below is finite on [0, inf) with lambda2(0) = 0.  Elementwise on arrays.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & np.isfinite(u)):
        raise DomainError(f"lambda2 requires u >= 0, got {u}")
    return np.where(u > 0.0, _closed_form(u, -1.0, -_PI2_12), 0.0)[()]


def _closed_form(a, sign, const):
    """0.5 a^2 - a ln 2 + 0.5 Li_2(-sign e^{-2a}) + const at finite a >= 0,
    unchecked: lambda1(a) for sign = 1 and const = pi^2/24, lambda2(a)
    for sign = -1 and const = -pi^2/12; sign and const may be arrays
    that pick one or the other per entry."""
    from scipy.special import spence

    with _raising():
        # Li_2(x) is spence(1 - x)
        return 0.5 * a * a - a * _LN2 + 0.5 * spence(1.0 + sign * np.exp(-2.0 * a)) + const


def _c(u):
    return np.log1p(np.exp(-2.0 * np.abs(u)))


def cosine_law(v):
    """The cosine law, in either direction: y-side lengths from x-side
    lengths, cosh y_i = (cosh x_i + cosh x_j cosh x_k) / (sinh x_j sinh x_k),
    and x-sides from y-sides, the same law with the colours swapped.

    As cosh x_j cosh x_k - sinh x_j sinh x_k = cosh(x_j - x_k), the log
    of 2 sinh^2(y_i/2) = cosh y_i - 1 is a log-sum in which, with c and
    d of the module docstring, the terms linear in x cancel exactly:
    sinh(y_i/2) = e^h with 2h = d(x_j) + d(x_k) + logaddexp(x_i - x_j - x_k
    + c(x_i), c(x_j - x_k) - 2 min(x_j, x_k)).  Nothing cancels or
    overflows, so the law is total and accurate from subnormal sides up
    to about 9e307, where 2x overflows and FloatingPointError is raised.
    A triple with a side not positive and finite raises DomainError.
    """
    v = np.asarray(v, dtype=float)
    _require((v > 0.0) & np.isfinite(v), v, "side lengths must be strictly positive and finite")
    return _cosine_law(v)


def _cosine_law(x):
    # cosine_law at sides already checked positive and finite
    with _raising():
        xj, xk = x[..., _J], x[..., _K]
        d = -np.log(-np.expm1(-2.0 * x))
        lse = np.logaddexp(x - xj - xk + _c(x), _c(xj - xk) - 2.0 * np.minimum(xj, xk))
        h = 0.5 * (d[..., _J] + d[..., _K] + lse)
        # y = 2 asinh(e^h), which is 2h + 2 ln 2 to within an ulp from h = 20
        return np.where(h > 20.0, 2.0 * (h + _LN2), 2.0 * np.arcsinh(np.exp(np.minimum(h, 20.0))))


def y_of_grad(g):
    """y-side lengths from theta's gradient g_i = ln cosh(y_i/2):
    y = 2 ln(1 + u + sqrt(u (2 + u))) with u = e^g - 1, which keeps every
    digit of a short side and reuses the gradient at no cost."""
    g = np.asarray(g, dtype=float)
    with _raising():
        u = np.expm1(g)
        return 2.0 * np.log1p(u + np.sqrt(u * (2.0 + u)))


def pair_sums(t):
    """(t1 + t2, t2 + t3, t3 + t1), which is (x_3, x_1, x_2) with
    x_k = t_i + t_j: not arc order (x_1, x_2, x_3), which coords.x_of
    puts it in."""
    t = np.asarray(t, dtype=float)
    return t + t[..., _J]


def interior_sums(t):
    """pair_sums(t) when t lies in the open cone, else None: the one
    test of the open domain, which theta_derivatives takes as done for
    the sums it is given.  The sums are formed once, and t is inside
    when every sum is at least the least normal float and none is
    infinite, which is exactly where the kernel is finite: q(x) ~ 1/(2x)
    overflows only at subnormal x.  A sum of finite entries that
    overflowed raises FloatingPointError."""
    x = pair_sums(t)
    if x.min() >= sys.float_info.min and x.max() < math.inf:
        return x
    if x.min() >= sys.float_info.min:
        # formed again to raise on this cold path only; an infinite
        # entry of t makes infinite sums without an overflow
        with np.errstate(over="raise"):
            pair_sums(t)
    return None


def theta(t, x=None):
    """Concave hexagon energy on the closed cone H3.

    2*theta(t) = lambda1(t1+t2+t3) + sum_i lambda1(t_i)
                 - lambda2(t1+t2) - lambda2(t2+t3) - lambda2(t3+t1).
    theta(0) = 0; on the positive octant {t >= 0} the value lies in
    [m(u)/2, M(u)/2] with u = sum(t) (see theta_min_on_slice /
    theta_max_on_slice), hence is nonnegative and bounded there.  With a
    sufficiently negative coordinate the value can be negative.

    x, when given, is the caller's pair_sums(t), already tested
    nonnegative; theta tests only sums it forms itself.  A row outside
    the closed cone, or with an entry or total that is not finite,
    raises DomainError.
    """
    t = np.asarray(t, dtype=float)
    # a sum that overflows, or one of infinite entries, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        total = t.sum(axis=-1)
        if x is None:
            x = pair_sums(t)
            _require(x >= 0.0, t, "t outside closed H3")
    # in the closed cone a finite total makes t finite; a pair sum that
    # overflowed makes the total at least 9e307, whose square below
    # raises FloatingPointError
    _require(np.broadcast_to((total < math.inf)[..., None], x.shape), t, "t or its total not finite")
    # lambda1 at T and the t_i, and lambda2 at the pair sums, in one pass
    # of their shared closed form; sign(u) makes lambda1 odd and lambda2
    # vanish at 0
    u = np.concatenate([total[..., None], t, x], axis=-1)
    v = _closed_form(np.abs(u), _THETA_SIGN, _THETA_CONST)
    return 0.5 * (np.sign(u) * _THETA_SIGN * v).sum(axis=-1)


# per entry of theta's (T, t_1, t_2, t_3, x_1, x_2, x_3): +1 and pi^2/24
# for lambda1, -1 and -pi^2/12 for lambda2 (see _closed_form)
_THETA_SIGN = np.array([1.0] * 4 + [-1.0] * 3)
_THETA_CONST = np.array([_PI2_24] * 4 + [-_PI2_12] * 3)


def _derivatives(t, x=None, hessian: bool = True):
    """theta's gradient and Hessian at interior t, the Hessian None when
    not asked for.  Both are built from the same terms: E = e^{-2|u|}
    for u = t_i and u = T, and e^{-a} and 1 - e^{-a} = -expm1(-a) for
    a = 2x, with x from interior_sums unless the caller gives it (see
    theta_derivatives)."""
    t = np.asarray(t, dtype=float)
    h = None
    with _raising():
        x = interior_sums(t) if x is None else x
        if x is None:
            bad = next(row for row in np.reshape(t, (-1, 3)) if interior_sums(row) is None)
            raise DomainError(f"t not finite and strictly inside H3: {tuple(bad.tolist())}")
        a = 2.0 * x  # entry i: 2(t_i + t_j)
        total = t.sum(axis=-1)[..., None]  # T > 0 in H3
        e_t, e_total = np.exp(-2.0 * np.abs(t)), np.exp(-2.0 * total)
        e, one_minus_e = np.exp(-a), -np.expm1(-a)
        g = _gradient_terms(t, a, e_t, e_total, e, one_minus_e)
        if hessian:
            h = _hessian_terms(t, e_t, e_total, e, one_minus_e)
    _require(g > 0.0, t, "theta gradient underflows to 0")
    if hessian:
        _require(h[..., _I, _I] < 0.0, t, "theta Hessian underflows to 0")
    return g, h


def _gradient_terms(t, a, e_t, e_total, e, one_minus_e):
    # d split at 2x = ln 2, as in Maechler's log1mexp, keeps every digit;
    # each log is taken only on its side of the split
    small = a <= _LN2
    d = np.log(one_minus_e, out=np.empty_like(a), where=small)
    d = -np.log1p(-e, out=d, where=~small)
    return np.maximum(-t, 0.0) + 0.5 * (np.log1p(e_total) + np.log1p(e_t) + d + d[..., _K])


def _hessian_terms(t, e_t, e_total, e, one_minus_e):
    # p from E = e^{-2|u|} (module docstring) is positive while E is, so
    # the Hessian's diagonal underflows no sooner than the gradient does
    p_total = e_total / (1.0 + e_total)
    p_t = np.where(t >= 0.0, e_t, 1.0) / (1.0 + e_t)
    q = e / one_minus_e
    h = np.empty(t.shape + (3,))
    h[..., _I, _J] = h[..., _J, _I] = -(p_total + q)
    h[..., _I, _I] = -(p_total + p_t + q + q[..., _K])
    return h


def theta_grad(t):
    """Exact gradient of theta, components ln cosh(y_i/2) > 0, in the form
    max(-t_i, 0) + (c(T) + c(t_i) + d(x_j) + d(x_k))/2: x_j + x_k = T + t_i
    cancels the linear growth of ln cosh T + ln cosh t_i - ln sinh x_j -
    ln sinh x_k exactly.  A row that underflows to 0 raises DomainError."""
    return _derivatives(t, hessian=False)[0]


def theta_hessian(t):
    """Hessian of theta at an interior point, shape (..., 3, 3), in the
    form -[p(T) 11^T + diag p(t) + sum_k q(x_k) (e_i + e_j)(e_i + e_j)^T]
    (tanh = 1 - 2p, coth = 1 + 2q); -H is strictly diagonally dominant, as
    p(t_i) > p(T).  A row whose gradient or diagonal underflows to 0
    raises DomainError."""
    return _derivatives(t)[1]


def theta_derivatives(t, x=None):
    """(theta_grad(t), theta_hessian(t)), equal to them bit for bit, from
    one domain check and the terms the two share; raises as either
    would.

    x, when given, is the caller's interior_sums(t); the kernel then
    forms and tests no sums of its own.  Without x, a t outside the open
    cone raises DomainError naming its first such row."""
    return _derivatives(t, x)


# 16-point Gauss-Legendre nodes/weights on [0, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def path_integral(points: list[Triple], segments: int) -> float:
    """Line integral of the closed 1-form sum_i ln cosh(y_i/2) dt_i
    along the polygonal path through `points`.

    Each leg is split into `segments` Gauss-Legendre panels.  A leg
    starting at the origin is graded geometrically toward 0 to absorb
    the logarithmic singularity of the form there.
    """
    if segments < 1:
        raise ValueError("segments must be positive")
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        a_arr = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a_arr
        if np.all(a_arr == 0.0):
            # breakpoints 0 < r^(n-1) < ... < r < 1 with ratio 1/2
            cuts = np.array([0.0] + [0.5 ** (segments - 1 - i) for i in range(segments)])
        else:
            cuts = np.linspace(0.0, 1.0, segments + 1)
        width = np.diff(cuts)[:, None]
        s = (cuts[:-1, None] + width * _GL_NODES).ravel()
        weights = (width * _GL_WEIGHTS).ravel()
        total += float(weights @ (theta_grad(a_arr + s[:, None] * d) @ d))
    return total


def theta_by_path_integral(t: Triple, segments: int) -> float:
    """theta(t) as a line integral from the origin; independent of the
    closed-form evaluation, used as its oracle."""
    _require(pair_sums(t) >= 0.0, t, "t outside closed H3")
    if all(v == 0.0 for v in t):
        return 0.0
    return path_integral([(0.0, 0.0, 0.0), t], segments)


def theta_min_on_slice(u: float) -> float:
    """Minimum of 2*theta on the nonnegative slice
    {t >= 0, sum t = u}: attained at a vertex such as (u, 0, 0),
    value 2 lambda1(u) - 2 lambda2(u), positive for u > 0."""
    return 2.0 * lambda1(u) - 2.0 * lambda2(u)


def theta_max_on_slice(u: float) -> float:
    """Maximum of 2*theta on the full slice {sum t = u} of the closed
    cone, at the barycenter: lambda1(u) + 3 lambda1(u/3) - 3 lambda2(2u/3),
    bounded over all u."""
    return lambda1(u) + 3.0 * lambda1(u / 3.0) - 3.0 * lambda2(2.0 * u / 3.0)
