"""Seeded inputs for the benchmark.

Every function here is a pure function of its arguments and a numpy
Generator, and none imports hexmetric: the library only ever sees the
inputs made here.  Conventions follow the triangulation-file format:
slots 0..5 run counterclockwise around a hexagon, odd slots are seams,
edge e is the e-th gluing, and the x-arc at even slot p of hexagon h
has index 3h + p // 2.
"""

from __future__ import annotations

import numpy as np

LENGTH_RANGE = (0.3, 3.0)  # prescribed edge lengths, as in tests/conftest.py
SEAMS = (1, 3, 5)


def random_complex(n: int, seed) -> dict:
    """Triangulation document of a connected complex of n hexagons.

    The 3n seams are paired uniformly at random, each pair with a random
    ``reversed`` flag; the draw is repeated while the result is
    disconnected.  `seed` is anything numpy.random.default_rng accepts.
    """
    if n <= 0 or n % 2:
        raise ValueError(f"hexagon count must be positive and even, got {n}")
    rng = np.random.default_rng(seed)
    slots = [(h, q) for h in range(n) for q in SEAMS]
    while True:
        pairs = rng.permutation(len(slots)).reshape(-1, 2)
        flips = rng.integers(0, 2, len(pairs))
        if _connected(n, [(slots[a][0], slots[b][0]) for a, b in pairs]):
            break
    return {
        "hexagons": n,
        "gluings": [
            {"a": list(slots[a]), "b": list(slots[b]), "reversed": bool(f)}
            for (a, b), f in zip(pairs, flips)
        ],
    }


def _connected(n: int, links: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def root(h: int) -> int:
        while parent[h] != h:
            parent[h] = parent[parent[h]]
            h = parent[h]
        return h

    for g, h in links:
        parent[root(g)] = root(h)
    return len({root(h) for h in range(n)}) == 1


def _edge_of_seam(doc: dict) -> dict[tuple[int, int], int]:
    return {
        tuple(g[side]): e for e, g in enumerate(doc["gluings"]) for side in ("a", "b")
    }


def hexagon_edges(doc: dict) -> np.ndarray:
    """(n, 3) array: the edges at seams 1, 3, 5 of every hexagon."""
    edge_of = _edge_of_seam(doc)
    return np.array(
        [[edge_of[(h, q)] for q in SEAMS] for h in range(doc["hexagons"])], dtype=int
    )


def facing_arcs(doc: dict) -> np.ndarray:
    """(m, 2) array: for every edge, the x-arcs opposite its two seams."""
    return np.array(
        [
            [3 * h + ((q + 3) % 6) // 2 for h, q in (g["a"], g["b"])]
            for g in doc["gluings"]
        ],
        dtype=int,
    )


def draw_lengths(rng: np.random.Generator, num_edges: int) -> np.ndarray:
    return rng.uniform(*LENGTH_RANGE, num_edges)


def infeasible_z(z: np.ndarray, boundary_cycles, rng: np.random.Generator) -> np.ndarray:
    """A copy of the feasible coordinate z in which one boundary cycle's
    z-sum is pushed from s > 0 to -s/2 by lowering a single edge.

    `boundary_cycles` holds the edge sequence of every boundary cycle.
    The cycle and edge are picked from a canonical order, so the result
    does not depend on the order the cycles come in.
    """
    cycles = sorted(tuple(sorted(c)) for c in boundary_cycles)
    cycle = cycles[rng.integers(len(cycles))]
    edge = cycle[rng.integers(len(cycle))]
    out = np.array(z, dtype=float)
    total = out[list(cycle)].sum()
    out[edge] -= 1.5 * total / cycle.count(edge)
    return out


def on_slice_start(x: np.ndarray, facing: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A t-coordinate on the slice of the metric with x-arc lengths x,
    moved away from that metric's own t.

    Each hexagon's t is t_w = (x_u + x_v - x_w) / 2, so its pairwise sums
    are the x-lengths and the domain margin there is mu = min(x).  Every
    edge's facing pair moves by +d and -d with |d| <= mu/4, which keeps
    each pair's sum (the coordinate z) and moves every pairwise sum by at
    most half the margin.
    """
    xs = np.asarray(x, dtype=float).reshape(-1, 3)
    t = (0.5 * (xs.sum(axis=1, keepdims=True) - 2.0 * xs)).ravel()
    mu = float(xs.min())
    d = rng.uniform(-mu / 4, mu / 4, len(facing))
    t[facing[:, 0]] += d
    t[facing[:, 1]] -= d
    return t
