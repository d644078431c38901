"""Hexagon complex combinatorics: counts, boundary, cycle enumeration."""

import json
from pathlib import Path

import numpy as np
import pytest

from hexmetric.surface import BoundaryCycle, HexComplex, InvalidComplexError, build

from conftest import seeded_complex


def test_pants_counts(pants):
    assert pants.n == 2
    assert pants.num_edges == 3
    assert pants.num_arcs == 6
    assert pants.euler_characteristic() == -1
    assert len(pants.boundary_components()) == 3


def test_torus_counts(torus):
    assert torus.num_edges == 3
    assert torus.euler_characteristic() == -1
    assert len(torus.boundary_components()) == 1
    bc = torus.boundary_components()[0]
    assert len(bc.arcs) == 6  # one circle through all six arcs
    assert sorted(bc.edges) == [0, 0, 1, 1, 2, 2]


def test_four_counts(four):
    assert four.n == 4
    assert four.num_edges == 6
    assert four.num_arcs == 12
    assert four.euler_characteristic() == -2
    assert len(four.boundary_components()) == 4


def test_pants_boundary_edge_cycles(pants):
    cycles = {tuple(sorted(bc.edges)) for bc in pants.boundary_components()}
    assert cycles == {(0, 2), (0, 1), (1, 2)}
    for bc in pants.boundary_components():
        assert len(bc.arcs) == 2


def test_facing_and_adjacent_arcs(pants):
    # edge 0 glues (0,1)-(1,1); facing arcs are opposite x-slots (0,4),(1,4)
    assert {pants.arc_slot(a) for a in pants.facing_arcs(0)} == {(0, 4), (1, 4)}


def test_arc_indexing_round_trip(four):
    # arc 3h + i is x-slot (h, 2i)
    slots = [four.arc_slot(arc) for arc in range(four.num_arcs)]
    assert slots == [(h, p) for h in range(four.n) for p in (0, 2, 4)]


def test_arc_to_edge_inverts_facing(four):
    for e in range(four.num_edges):
        for side, arc in enumerate(four.facing_arcs(e)):
            assert (four.arc_edge[arc], four.arc_sign[arc]) == (e, (1.0, -1.0)[side])


def _multiplicities(cyc, m):
    return tuple(np.bincount(cyc.edges, minlength=m).tolist())


def test_enumeration_pants_exactly_three(pants):
    enum = pants.enumerate_fundamental_cycles()
    assert not enum.truncated
    keys = sorted(_multiplicities(c, 3) for c in enum.cycles)
    assert keys == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # the boundary edge cycles coincide with the enumerated ones
    bkeys = sorted(_multiplicities(c, 3) for c in pants.boundary_edge_cycles())
    assert bkeys == keys


def test_enumeration_contains_boundary(torus, four):
    for cx in (torus, four):
        enum = cx.enumerate_fundamental_cycles()
        keys = {_multiplicities(c, cx.num_edges) for c in enum.cycles}
        for bc in cx.boundary_edge_cycles():
            assert _multiplicities(bc, cx.num_edges) in keys


def test_enumeration_cycles_are_fundamental(four):
    for cyc in four.enumerate_fundamental_cycles().cycles:
        assert np.bincount(cyc.edges).max() <= 2
        assert len(cyc.corner_arcs) == len(cyc.edges)


# Per complex, the enumerated cycles (edges, corner_arcs) and the boundary
# components (arcs, edges), recorded from a per-slot dictionary
# implementation of the normal-curve resolver; the array resolver must
# reproduce them exactly, in order.
CYCLES_PIN = json.loads((Path(__file__).parent / "data" / "cycles_pin.json").read_text())


@pytest.mark.parametrize("name", sorted(CYCLES_PIN))
def test_enumeration_pinned(name, all_fixtures):
    if name in all_fixtures:
        cx = all_fixtures[name]
    else:
        _, n, seed = name.split("-")  # "seeded-<n>-<seed>"
        cx = seeded_complex(int(n), int(seed))
    enum = cx.enumerate_fundamental_cycles(limit=10**6)
    assert not enum.truncated
    assert [[list(c.edges), list(c.corner_arcs)] for c in enum.cycles] == CYCLES_PIN[name]["cycles"]
    boundary = [[list(b.arcs), list(b.edges)] for b in cx.boundary_components()]
    assert boundary == CYCLES_PIN[name]["boundary"]


def test_boundary_orientation_where_the_seams_do_not_fix_it():
    # both seams at arc 0 are edge 2, so the circle crosses edge 2 first
    # whichever way it leaves arc 0: only the direction of the traced
    # curve tells the two ways round apart
    cx = HexComplex(n=2, gluings=[((1, 1), (0, 3), False), ((1, 3), (1, 5), False), ((0, 5), (0, 1), False)])
    assert cx.boundary_components() == [BoundaryCycle(arcs=(0, 2, 4, 5, 3, 1), edges=(2, 0, 1, 1, 0, 2))]


def test_enumeration_truncation(four):
    enum = four.enumerate_fundamental_cycles(limit=2)
    assert enum.truncated
    assert len(enum.cycles) == 2


def test_validation_errors():
    with pytest.raises(InvalidComplexError):
        HexComplex(n=1, gluings=[])  # odd count
    with pytest.raises(InvalidComplexError):
        HexComplex(n=2, gluings=[((0, 1), (1, 1), False)])  # missing pairs
    with pytest.raises(InvalidComplexError):
        HexComplex(
            n=2,
            gluings=[
                ((0, 1), (1, 1), False),
                ((0, 1), (1, 3), False),  # slot reused
                ((0, 5), (1, 5), False),
            ],
        )
    with pytest.raises(InvalidComplexError):
        HexComplex(
            n=2,
            gluings=[
                ((0, 0), (1, 1), False),  # x-slot in a gluing
                ((0, 3), (1, 3), False),
                ((0, 5), (1, 5), False),
            ],
        )
    for a, b in [
        ((2, 1), (1, 1)),  # hexagon index out of range
        ((0, 7), (1, 1)),  # position out of range
        ((0, 1), (0, 1)),  # slot glued to itself
    ]:
        with pytest.raises(InvalidComplexError):
            HexComplex(n=2, gluings=[(a, b, False), ((0, 3), (1, 3), False), ((0, 5), (1, 5), False)])
    with pytest.raises(InvalidComplexError):
        # two disjoint pants pieces: disconnected
        HexComplex(
            n=4,
            gluings=[
                ((0, 1), (1, 1), False),
                ((0, 3), (1, 3), False),
                ((0, 5), (1, 5), False),
                ((2, 1), (3, 1), False),
                ((2, 3), (3, 3), False),
                ((2, 5), (3, 5), False),
            ],
        )


def _necklace(n: int, rng: np.random.Generator, offset: int = 0) -> list:
    """Gluings of a ring of n/2 two-hexagon beads, glued on slots 1 and
    3, each bead's slot 5 glued to the next bead's, with the hexagon
    indices shuffled and shifted by `offset`: a connected complex of
    diameter about n/4."""
    label = (offset + rng.permutation(n)).tolist()
    gluings = []
    for h in range(0, n, 2):
        gluings += [((h, 1), (h + 1, 1)), ((h, 3), (h + 1, 3)), ((h + 1, 5), ((h + 2) % n, 5))]
    return [((label[a], p), (label[b], q), False) for (a, p), (b, q) in gluings]


def _pants(h: int, k: int) -> list:
    return [((h, q), (k, q), False) for q in (1, 3, 5)]


def test_disconnected_with_interleaved_hexagons():
    # hexagons 0 and 2 against 1 and 3
    with pytest.raises(InvalidComplexError, match="disconnected"):
        HexComplex(n=4, gluings=_pants(0, 2) + _pants(1, 3))


def test_disconnected_with_hexagon_0_in_the_larger_piece():
    # a four-hexagon necklace on 0..3 and a pants on 4 and 5
    gluings = _necklace(4, np.random.default_rng(0)) + _pants(4, 5)
    assert HexComplex(n=4, gluings=gluings[:6]).n == 4
    with pytest.raises(InvalidComplexError, match="disconnected"):
        HexComplex(n=6, gluings=gluings)


def test_shuffled_necklace():
    # a long thin complex: a walk from one hexagon reaches the far side
    # of the ring only after n/4 steps
    n = 4096
    rng = np.random.default_rng(20)
    assert HexComplex(n=n, gluings=_necklace(n, rng)).n == n
    with pytest.raises(InvalidComplexError, match="disconnected"):
        HexComplex(n=2 * n, gluings=_necklace(n, rng) + _necklace(n, rng, offset=n))


def _union_find_connected(n: int, gluings: list) -> bool:
    parent = list(range(n))

    def root(h: int) -> int:
        while parent[h] != h:
            parent[h] = parent[parent[h]]
            h = parent[h]
        return h

    for (a, _), (b, _), _ in gluings:
        parent[root(a)] = root(b)
    return len({root(h) for h in range(n)}) == 1


def test_connectivity_matches_union_find():
    # seams paired at random, half the draws within two even-sized
    # groups of randomly chosen hexagons (disconnected unless a group
    # is empty)
    rng = np.random.default_rng(2026)
    outcomes = set()
    for _ in range(200):
        n = 2 * int(rng.integers(1, 33))
        hexagons = rng.permutation(n)
        k = 2 * int(rng.integers(0, n // 2 + 1)) if rng.random() < 0.5 else 0
        gluings = []
        for group in (hexagons[:k], hexagons[k:]):
            slots = [(int(h), q) for h in group for q in (1, 3, 5)]
            pairs = rng.permutation(len(slots)).reshape(-1, 2)
            gluings += [(slots[a], slots[b], bool(rng.integers(2))) for a, b in pairs]
        connected = _union_find_connected(n, gluings)
        outcomes.add(connected)
        if connected:
            assert HexComplex(n=n, gluings=gluings).n == n
        else:
            with pytest.raises(InvalidComplexError, match="disconnected"):
                HexComplex(n=n, gluings=gluings)
    assert outcomes == {True, False}


def test_duplicate_labels_rejected():
    with pytest.raises(InvalidComplexError):
        HexComplex(
            n=2,
            gluings=[
                ((0, 1), (1, 1), False),
                ((0, 3), (1, 3), False),
                ((0, 5), (1, 5), False),
            ],
            labels=["a", "a", "b"],
        )


def test_build_from_dict(pants):
    doc = {
        "hexagons": 2,
        "gluings": [
            {"a": [0, 1], "b": [1, 1], "reversed": False},
            {"a": [0, 3], "b": [1, 3]},
            {"a": [0, 5], "b": [1, 5], "reversed": False},
        ],
    }
    cx = build(doc)
    assert cx.gluings == pants.gluings
    assert cx.labels == ["e0", "e1", "e2"]
    with pytest.raises(InvalidComplexError):
        build({"hexagons": 2})
    with pytest.raises(InvalidComplexError):
        build({"hexagons": 2, "gluings": [{"a": [0, 1]}]})


PANTS_GLUINGS = [((0, 1), (1, 1), False), ((0, 3), (1, 3), False), ((0, 5), (1, 5), False)]


def _pants_with_first(a=(0, 1), rev=False) -> list:
    return [(a, (1, 1), rev), *PANTS_GLUINGS[1:]]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # an intp cast once read slot 1.5 as slot 1, and True as 1
        (dict(n=2, gluings=_pants_with_first(a=(0, 1.5))), "slot indices in gluing entry ((0, 1.5), (1, 1), False)"),
        (dict(n=2, gluings=_pants_with_first(a=(0, True))), "slot indices in gluing entry ((0, True), (1, 1), False)"),
        (dict(n=2, gluings=_pants_with_first(rev="no")), "'reversed' in gluing entry ((0, 1), (1, 1), 'no')"),
        (dict(n=2, gluings=_pants_with_first(rev=0)), "'reversed' in gluing entry ((0, 1), (1, 1), 0)"),
        (dict(n="2", gluings=PANTS_GLUINGS), "'hexagons' must be an integer, got '2'"),
        (dict(n=2, gluings=PANTS_GLUINGS, labels=[1, 2, 3]), "'labels' must be strings, got [1, 2, 3]"),
    ],
    ids=["slot-fraction", "slot-bool", "reversed-str", "reversed-int", "n-str", "labels-int"],
)
def test_constructor_refuses_what_build_refuses(kwargs, message):
    with pytest.raises(InvalidComplexError) as exc:
        HexComplex(**kwargs)
    assert message in str(exc.value)


def test_constructor_takes_integral_floats_as_ints(pants):
    cx = HexComplex(n=2.0, gluings=_pants_with_first(a=(0.0, 1.0)), labels=["a", "b", "c"])
    assert type(cx.n) is int and cx.n == 2
    assert cx.gluings == pants.gluings
    assert all(type(v) is int for a, b, _ in cx.gluings for v in (*a, *b))
    np.testing.assert_array_equal(cx.hex_edges, pants.hex_edges)
    # a numpy flag is a flag
    assert HexComplex(n=2, gluings=_pants_with_first(rev=np.False_)).n == 2


def test_build_reads_integral_float_slots_as_ints(pants):
    doc = {"hexagons": 2, "gluings": [{"a": [0.0, 1.0], "b": [1, 1]}, {"a": [0, 3], "b": [1, 3]}, {"a": [0, 5], "b": [1, 5]}]}
    cx = build(doc)
    assert cx.gluings == pants.gluings
    assert all(type(v) is int for a, b, _ in cx.gluings for v in (*a, *b))
    np.testing.assert_array_equal(cx.hex_edges, pants.hex_edges)
