"""Single right-angled hexagon geometry.

A colored right-angled hyperbolic hexagon has alternating x-sides and
y-sides, with y_i opposite x_i.  Everything here is a pure function of
the three x-lengths (or of the half-difference coordinates t_i), namely:

* the cosine law in both directions,
* the antiderivatives of ln cosh and ln sinh (via the dilogarithm),
* the concave per-hexagon energy, its exact gradient and Hessian,
* a line-integral evaluation of the energy used as an independent check.

The t-domain is the open cone H3 = {t in R^3 : t_i + t_j > 0 for i != j};
x_i = t_j + t_k maps it onto the positive octant of x-space.

The triple functions also take a stack of triples, shape (..., 3), and
work along the last axis, so a whole complex is evaluated in one call.
Inputs outside the domain raise DomainError; an overflow or a division
by zero raises FloatingPointError rather than return inf or NaN.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import spence

Triple = tuple[float, float, float]

# Points with min(t_i + t_j) below this are treated as outside the open
# domain: the energy gradient diverges there.
H3_MARGIN = 1e-14

_PI2_24 = math.pi ** 2 / 24.0
_PI2_12 = math.pi ** 2 / 12.0
_LN2 = math.log(2.0)


class DomainError(ValueError):
    """Input outside the hexagon parameter domain."""


# Entry i of a triple is paired with entries _J[i] = i+1 and _K[i] = i+2.
_J = [1, 2, 0]
_K = [2, 0, 1]


def _raising() -> np.errstate:
    # overflow, division by zero and invalid operations raise
    # FloatingPointError rather than return inf or NaN
    return np.errstate(over="raise", divide="raise", invalid="raise")


def _require(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise DomainError naming the first triple whose entry of `ok` is
    false (a NaN comparison counts as false)."""
    if not np.all(ok):
        bad = np.reshape(values, (-1, 3))[~np.reshape(ok, -1)][0]
        raise DomainError(f"{message}: {tuple(bad.tolist())}")


def lambda1(u):
    """Antiderivative of ln cosh:  integral of ln cosh(s) over [0, u].

    Odd in u.  Closed form uses ln cosh s = s - ln 2 + ln(1 + e^{-2s}).
    Elementwise on arrays.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError(f"lambda1 requires finite u, got {u}")
    a = np.abs(u)
    with _raising():
        # Li_2(x) is spence(1 - x)
        v = 0.5 * a * a - a * _LN2 + 0.5 * spence(1.0 + np.exp(-2.0 * a)) + _PI2_24
    return np.sign(u) * v


def lambda2(u):
    """Antiderivative of ln sinh:  integral of ln sinh(s) over [0, u], u >= 0.

    The integrand has an integrable log singularity at 0; the closed form
    below is finite on [0, inf) with lambda2(0) = 0.  Elementwise on arrays.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & np.isfinite(u)):
        raise DomainError(f"lambda2 requires u >= 0, got {u}")
    with _raising():
        v = 0.5 * u * u - u * _LN2 + 0.5 * spence(1.0 - np.exp(-2.0 * u)) - _PI2_12
    return np.where(u > 0.0, v, 0.0)[()]


def _check_positive(v: np.ndarray, name: str) -> None:
    ok = np.all((v > 0.0) & np.isfinite(v), axis=-1)
    _require(ok, v, f"{name} must be strictly positive and finite")


def arccosh(w):
    """arccosh(w) = ln(w + sqrt((w-1)(w+1))), stable for w near 1;
    arguments within 1e-12 below 1 are rounded up to 1."""
    w = np.asarray(w, dtype=float)
    if not np.all(w >= 1.0 - 1e-12):
        raise DomainError(f"arccosh argument below 1: {np.min(w)}")
    w = np.maximum(w, 1.0)
    return np.log(w + np.sqrt((w - 1.0) * (w + 1.0)))


def cosine_law_y(x):
    """y-side lengths from x-side lengths.

    cosh y_i = (cosh x_i + cosh x_j cosh x_k) / (sinh x_j sinh x_k); the
    argument exceeds 1 for every positive x, so the law is total.
    """
    x = np.asarray(x, dtype=float)
    _check_positive(x, "x")
    with _raising():
        c, s = np.cosh(x), np.sinh(x)
        return arccosh((c + c[..., _J] * c[..., _K]) / (s[..., _J] * s[..., _K]))


def cosine_law_x(y):
    """Inverse law: x-side lengths from y-side lengths.

    Same formula with the colors swapped; total on positive triples.
    """
    y = np.asarray(y, dtype=float)
    _check_positive(y, "y")
    return cosine_law_y(y)


def x_to_t(x):
    """Half-difference coordinates t_i = (x_j + x_k - x_i)/2."""
    x = np.asarray(x, dtype=float)
    _check_positive(x, "x")
    return 0.5 * (x[..., _J] + x[..., _K] - x)


def t_to_x(t):
    """Inverse of x_to_t: x_i = t_j + t_k.  Requires t in closed H3."""
    t = np.asarray(t, dtype=float)
    _require_closed_h3(t)
    return t[..., _J] + t[..., _K]


def pair_sums(t):
    """(t1 + t2, t2 + t3, t3 + t1)."""
    t = np.asarray(t, dtype=float)
    return t + t[..., _J]


def _require_closed_h3(t: np.ndarray) -> None:
    _require(np.min(pair_sums(t), axis=-1) >= 0.0, t, "t outside closed H3")


def _require_open_h3(t: np.ndarray) -> None:
    _require(np.min(pair_sums(t), axis=-1) > H3_MARGIN, t, "t not strictly inside H3")


def theta(t):
    """Concave hexagon energy on the closed cone H3.

    2*theta(t) = lambda1(t1+t2+t3) + sum_i lambda1(t_i)
                 - lambda2(t1+t2) - lambda2(t2+t3) - lambda2(t3+t1).
    theta(0) = 0; on the positive octant {t >= 0} the value lies in
    [m(u)/2, M(u)/2] with u = sum(t) (see theta_min_on_slice /
    theta_max_on_slice), hence is nonnegative and bounded there.  With a
    sufficiently negative coordinate the value can be negative.
    """
    t = np.asarray(t, dtype=float)
    _require_closed_h3(t)
    total = (
        lambda1(t.sum(axis=-1))
        + lambda1(t).sum(axis=-1)
        - lambda2(np.maximum(pair_sums(t), 0.0)).sum(axis=-1)
    )
    return 0.5 * total


def theta_grad(t):
    """Exact gradient of theta, components ln cosh(y_i/2).

    Evaluated without the cosine law as
    2 d(theta)/dt_i = ln cosh(sum t) + ln cosh(t_i)
                      - ln sinh(t_i+t_j) - ln sinh(t_i+t_k);
    strictly positive, divergent on the boundary of H3.
    """
    t = np.asarray(t, dtype=float)
    _require_open_h3(t)
    with _raising():
        ln_sinh = np.log(np.sinh(pair_sums(t)))  # entry i: ln sinh(t_i + t_j)
        return 0.5 * (
            _lncosh(t.sum(axis=-1))[..., None] + _lncosh(t) - ln_sinh - ln_sinh[..., _K]
        )


def _lncosh(u):
    # ln cosh u = |u| - ln 2 + ln(1 + e^{-2|u|}), overflow safe.
    a = np.abs(u)
    return a - _LN2 + np.log1p(np.exp(-2.0 * a))


def theta_hessian(t):
    """Hessian of theta at an interior point: shape (3, 3) for one
    triple, (..., 3, 3) for a stack.

    Off-diagonal (i, j):  -2A sinh^2(y_i/2) sinh^2(y_j/2)
    Diagonal   (i, i):    -2A sinh^2(y_i/2) (sinh^2(y_j/2)+sinh^2(y_k/2)+1)
    with the sine-law constant A = sinh(x_i) / (sinh^2(y_i) sinh(x_j) sinh(x_k)).
    Negative definite; -H is strictly diagonally dominant.
    """
    t = np.asarray(t, dtype=float)
    _require_open_h3(t)
    x = t_to_x(t)
    y = cosine_law_y(x)
    with _raising():
        sx = np.sinh(x)
        minus_2a = -2.0 * sx[..., 0] / (np.sinh(y[..., 0]) ** 2 * sx[..., 1] * sx[..., 2])
        sh2 = np.sinh(y / 2.0) ** 2
        h = minus_2a[..., None, None] * (sh2[..., :, None] * sh2[..., None, :])
        h[..., [0, 1, 2], [0, 1, 2]] = (
            minus_2a[..., None] * sh2 * (sh2[..., _J] + sh2[..., _K] + 1.0)
        )
    return h


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
    _require_closed_h3(t)
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
