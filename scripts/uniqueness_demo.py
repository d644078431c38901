#!/usr/bin/env python3
"""Uniqueness demonstration: for random feasible coordinates, run the
maximizer from several random interior starting points and show that
all runs land on the same metric.

Usage: python3 scripts/uniqueness_demo.py [triangulation.json] [trials]
"""

import json
import pathlib
import sys

import numpy as np

from hexmetric import coords, polytope, solver, surface

HERE = pathlib.Path(__file__).parent


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else str(HERE / "data" / "torus.json")
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    with open(path) as fh:
        cx = surface.build(json.load(fh))
    rng = np.random.default_rng(1)
    worst_spread = 0.0
    for k in range(trials):
        z = rng.uniform(0.3, 1.8, cx.num_edges)
        # one margin LP per z: every start perturbs the same interior point
        t0 = polytope.interior_point(cx, z)
        solutions = []
        for _ in range(4):
            start = solver.perturbed_interior_start(cx, z, rng, t0=t0)
            t, _ = solver.maximize(cx, z, start_t=start)
            solutions.append(coords.x_of(cx, t))
        spread = float(
            max(np.max(np.abs(a - b)) for a in solutions for b in solutions)
        )
        worst_spread = max(worst_spread, spread)
        print(f"trial {k:3d}: z={np.round(z, 3)}  solution spread {spread:.2e}")
    print(f"\nworst spread across starts: {worst_spread:.3e}")
    return 0 if worst_spread < 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
