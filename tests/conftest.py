import numpy as np
import pytest

from hexmetric import solver
from hexmetric.surface import HexComplex, InvalidComplexError

# Three fixture complexes:
# * pants: two hexagons glued front-to-back along all three seams
#   (3-holed sphere, chi = -1, 3 boundary circles)
# * torus: the same two hexagons with rotated, orientation-reversed
#   seams (1-holed torus, chi = -1, 1 boundary circle)
# * four: four hexagons, chi = -2, 4 boundary circles


@pytest.fixture
def pants() -> HexComplex:
    return HexComplex(
        n=2,
        gluings=[
            ((0, 1), (1, 1), False),
            ((0, 3), (1, 3), False),
            ((0, 5), (1, 5), False),
        ],
    )


@pytest.fixture
def torus() -> HexComplex:
    return HexComplex(
        n=2,
        gluings=[
            ((0, 1), (1, 3), True),
            ((0, 3), (1, 5), True),
            ((0, 5), (1, 1), True),
        ],
    )


@pytest.fixture
def four() -> HexComplex:
    return HexComplex(
        n=4,
        gluings=[
            ((0, 1), (1, 1), False),
            ((0, 3), (1, 3), False),
            ((2, 1), (3, 1), False),
            ((2, 3), (3, 3), False),
            ((0, 5), (2, 5), False),
            ((1, 5), (3, 5), False),
        ],
    )


@pytest.fixture
def all_fixtures(pants, torus, four):
    return {"pants": pants, "torus": torus, "four": four}


def random_lengths(rng: np.random.Generator, size: int, lo=0.3, hi=3.0) -> np.ndarray:
    return rng.uniform(lo, hi, size)


def seeded_complex(n: int, seed: int) -> HexComplex:
    """Connected complex of n hexagons: the 3n seams paired uniformly at
    random with random orientation, redrawn while disconnected."""
    rng = np.random.default_rng(seed)
    slots = [(h, q) for h in range(n) for q in (1, 3, 5)]
    while True:
        pairs = rng.permutation(len(slots)).reshape(-1, 2)
        flips = rng.integers(0, 2, len(pairs))
        gluings = [(slots[a], slots[b], bool(f)) for (a, b), f in zip(pairs, flips)]
        try:
            return HexComplex(n=n, gluings=gluings)
        except InvalidComplexError:
            continue


def self_glued_complex() -> HexComplex:
    """Two hexagons with hexagon 0's seams 1 and 3 glued to each other,
    so its edge e0 bounds hexagon 0 twice."""
    return HexComplex(
        n=2,
        gluings=[((0, 1), (0, 3), False), ((0, 5), (1, 1), False), ((1, 3), (1, 5), True)],
    )


def reverse_newton_steps(monkeypatch) -> None:
    """Make every Newton step of a solve point downhill."""
    newton_solver = solver._newton_solver

    def downhill(cx):
        step = newton_solver(cx)

        def reversed_step(*args):
            d, k = step(*args)
            return -d, k

        return reversed_step

    monkeypatch.setattr(solver, "_newton_solver", downhill)
