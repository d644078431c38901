"""Answer checks that do not trust the library.

A round trip must give back the prescribed edge lengths; an infeasible
verdict must come with a certificate that proves it.  The cone rows are
rebuilt here from the triangulation document, not taken from
hexmetric.polytope.
"""

from __future__ import annotations

import numpy as np

ROUND_TRIP_TOL = 1e-8
CERTIFICATE_TOL = 1e-9


def round_trip_error(edge_lengths, prescribed) -> float:
    """Largest |solved - prescribed| over the edges."""
    return float(np.max(np.abs(np.asarray(edge_lengths) - np.asarray(prescribed))))


def cone_rows(hex_edges: np.ndarray, num_edges: int) -> np.ndarray:
    """Rows r with r.y >= 0 on the cone D: y_i + y_j - y_k for every
    hexagon's edge triple (i, j, k) and each choice of k."""
    rows = np.zeros((3 * len(hex_edges), num_edges))
    for h, tri in enumerate(hex_edges):
        for k in range(3):
            row = rows[3 * h + k]
            row[tri[(k + 1) % 3]] += 1.0
            row[tri[(k + 2) % 3]] += 1.0
            row[tri[k]] -= 1.0
    return rows


def certificate_ok(rows: np.ndarray, z, y, tol: float = CERTIFICATE_TOL) -> bool:
    """True when y proves z infeasible: y is a nonzero direction of the
    cone D along which z is not positive.  y is scaled to sum 1 first, so
    any positive multiple of a certificate passes; then y >= 0,
    rows @ y >= 0 and z . y <= 0 must hold up to `tol`."""
    if y is None:
        return False
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape or not np.all(np.isfinite(y)):
        return False
    total = y.sum()
    if not total > 0.0:
        return False
    y = y / total
    return bool(np.all(y >= -tol) and np.all(rows @ y >= -tol) and z @ y <= tol)
