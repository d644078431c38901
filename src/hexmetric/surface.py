"""Combinatorial hexagon complexes.

A complex is a set of colored hexagons with their y-sides glued in
pairs.  Slots are numbered 0..5 counterclockwise around each hexagon,
even slots being x-sides (boundary arcs) and odd slots y-sides (seams).
Gluing a pair of y-slots identifies their endpoints: with
``reversed=False`` the two sides are matched start-to-start (the
natural identification of two hexagons facing each other), with
``reversed=True`` start-to-end.

A complex is compiled once into read-only incidence arrays (see
HexComplex).  One tracer walks the crossing points of a normal
multicurve over them.  It gives the normal-curve edge cycles used by the
feasibility polytope, and the boundary circles: the components of the
multicurve that crosses every seam twice, each running parallel to one
boundary circle and cutting off its arcs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

Slot = tuple[int, int]  # (hexagon index, position 0..5)

# offset within its hexagon of the x-arc opposite the y-slot at 2k + 1
OPPOSITE_ARC = (2, 0, 1)


class InvalidComplexError(ValueError):
    """Gluing description does not define a valid complex."""


@dataclass(frozen=True)
class BoundaryCycle:
    """One boundary circle: its x-arcs in cyclic order and the induced
    boundary edge cycle, ``edges[i]`` lying between arcs[i] and
    arcs[i+1]."""

    arcs: tuple[int, ...]
    edges: tuple[int, ...]


@dataclass(frozen=True)
class EdgeCycle:
    """Closed edge cycle realized by a normal curve.

    The curve crosses ``edges[i]`` and then runs through one corner of a
    hexagon to ``edges[i+1]``; ``corner_arcs[i]`` is the x-arc that
    corner cuts off, the arc adjacent to both edges.
    """

    edges: tuple[int, ...]
    corner_arcs: tuple[int, ...]


class HessianPattern(NamedTuple):
    """Fixed CSR sparsity pattern of the (m, m) reduced Hessian.

    Entry (i, j) is stored when edges i and j bound a common hexagon.
    Hexagon h's 3x3 block, in the order of its arcs 3h, 3h + 1, 3h + 2,
    lands on the edges those arcs face: block entry 9h + 3a + b goes to
    ``data[slot[9h + 3a + b]]``, weighted by ``neg_sign``, which is
    -arc_sign[3h + a] * arc_sign[3h + b].  A self-glued hexagon has an
    edge twice, so several block entries can share a slot; they are
    summed.  Scattering the energy Hessian's blocks this way gives the
    CSR data of -H.  ``entries[k]`` is stored entry k's position
    row * m + col in the row-major (m, m) matrix, so that data placed at
    ``entries`` of a zero array gives -H as a dense array.
    """

    indptr: np.ndarray  # (m + 1,)
    indices: np.ndarray  # (nnz,), sorted within each row
    diagonal: np.ndarray  # (m,): position in data of entry (e, e)
    slot: np.ndarray  # (9n,)
    neg_sign: np.ndarray  # (9n,)
    entries: np.ndarray  # (nnz,), increasing


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[EdgeCycle, ...]
    truncated: bool


@dataclass
class HexComplex:
    """Immutable (after construction) hexagon complex.

    The x-arc at position 2i of hexagon h has index 3h + i, so an array
    over arcs reshaped to (n, 3) is an array over hexagons; the y-slot at
    position 2k + 1 is numbered 3h + k in the same way.  The other
    incidences are built once, as read-only arrays:

    * ``hex_edges[h, k]``: the edge glued at y-slot (h, 2k + 1);
    * ``edge_arcs[e, side]``: the x-arc facing side `side` of edge e,
      i.e. opposite the y-slot ``gluings[e][side]``;
    * ``arc_edge[w]``, ``arc_sign[w]``: the edge arc w faces, and +1 or
      -1 as it faces side 0 or side 1 of it;
    * ``arc_boundary[w]``: the boundary component containing arc w;
    * ``arc_boundary_edge[w]``: the edge after arc w in the boundary
      edge cycle of that component.

    Connectivity is checked on the hexagon adjacency ``_slot_mate // 3``
    before any tracing.  The boundary components are the components of
    the multicurve of weight 2, traced by ``_trace``, numbered in order
    of their lowest arcs.

    The solvers' fixed structure, ``arc_succ`` (the LP's arc graph) and
    ``hessian_pattern`` (a HessianPattern), is built of read-only arrays
    on first use, by the first LP and the first Newton step, and kept.
    """

    n: int
    gluings: list[tuple[Slot, Slot, bool]]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not _is_integer(self.n):
            raise InvalidComplexError(f"'hexagons' must be an integer, got {self.n!r}")
        self.n = int(self.n)
        if self.n <= 0 or self.n % 2 != 0:
            raise InvalidComplexError(f"hexagon count must be positive even, got {self.n}")
        if len(self.gluings) != self.num_edges:
            raise InvalidComplexError(f"expected {self.num_edges} gluing pairs, got {len(self.gluings)}")
        self.gluings = [_checked_gluing(g) for g in self.gluings]
        # (hexagon, q)[e, side] is the y-slot glued at side `side` of edge
        # e; with 3n/2 pairs and no slot repeated, every y-slot is glued.
        # Flat rows, the reversed flag last, convert in a third of the
        # time nested pairs take.
        rows = np.array([(*a, *b, r) for a, b, r in self.gluings], dtype=np.intp)
        hexagon, q = rows[:, 0:4:2], rows[:, 1:4:2]
        bad = (hexagon < 0) | (hexagon >= self.n) | (q < 0) | (q >= 6) | (q % 2 == 0)
        if bad.any():
            e, side = np.argwhere(bad)[0]
            raise InvalidComplexError(
                f"slot {self.gluings[e][side]} is not a y-slot of hexagons 0..{self.n - 1}"
            )
        slot_id = (6 * hexagon + q).ravel()
        repeated = np.bincount(slot_id, minlength=6 * self.n)[slot_id] > 1
        if repeated.any():
            e, side = divmod(int(np.argmax(repeated)), 2)
            raise InvalidComplexError(f"y-slot {self.gluings[e][side]} glued twice")
        if not all(isinstance(label, str) for label in self.labels):
            raise InvalidComplexError(f"'labels' must be strings, got {self.labels!r}")
        if not self.labels:
            self.labels = [f"e{i}" for i in range(self.num_edges)]
        elif len(self.labels) != self.num_edges:
            raise InvalidComplexError("label list length differs from edge count")
        elif len(set(self.labels)) != self.num_edges:
            raise InvalidComplexError("duplicate edge labels")
        self._build_incidence(hexagon, q, rows[:, 4].astype(bool))

    def _build_incidence(self, hexagon: np.ndarray, q: np.ndarray, rev: np.ndarray) -> None:
        n, m = self.n, self.num_edges
        edge = np.arange(m)[:, None]
        self.hex_edges = np.empty((n, 3), dtype=np.intp)
        self.hex_edges[hexagon, q // 2] = edge
        self.edge_arcs = 3 * hexagon + np.take(OPPOSITE_ARC, q // 2)
        self.arc_edge = np.empty(3 * n, dtype=np.intp)
        self.arc_edge[self.edge_arcs] = edge
        self.arc_sign = np.empty(3 * n)
        self.arc_sign[self.edge_arcs] = (1.0, -1.0)
        # y-slot 3h + k is glued to y-slot _slot_mate[3h + k]
        yslot = 3 * hexagon + q // 2
        self._slot_mate = np.empty(3 * n, dtype=np.intp)
        self._slot_mate[yslot] = yslot[:, ::-1]
        self._reversed = rev
        self._check_connected()

        # The circles parallel to the boundary are the components of the
        # multicurve of weight 2, which crosses every seam twice and cuts
        # one arc off each corner.  Each circle is listed from its lowest
        # arc, leaving that arc through its counterclockwise end: a trace
        # whose cut there runs clockwise (back) went the other way round
        # and is reversed.  The trace crosses edge crossed[j] just before
        # cut j, so the edge after arc cuts[j] is crossed[j + 1] forwards
        # and crossed[j] reversed.
        self._boundary, arcs, edges = [], [], []
        for crossed, cuts, back in sorted(
            self._trace(np.full(3 * n, 2), np.ones(3 * n, dtype=np.intp)), key=lambda comp: min(comp[1])
        ):
            i = cuts.index(min(cuts))
            if back[i]:
                cuts, crossed = cuts[i::-1] + cuts[:i:-1], crossed[i::-1] + crossed[:i:-1]
            else:
                cuts, crossed = cuts[i:] + cuts[:i], crossed[i + 1:] + crossed[:i + 1]
            self._boundary.append(BoundaryCycle(arcs=tuple(cuts), edges=tuple(crossed)))
            arcs += cuts
            edges += crossed
        arcs = np.array(arcs)
        sizes = [len(bc.arcs) for bc in self._boundary]
        self.arc_boundary = np.empty(3 * n, dtype=np.intp)
        self.arc_boundary[arcs] = np.repeat(np.arange(len(sizes)), sizes)
        self.arc_boundary_edge = np.empty(3 * n, dtype=np.intp)
        self.arc_boundary_edge[arcs] = edges
        for a in (self.hex_edges, self.edge_arcs, self.arc_edge, self.arc_sign,
                  self._slot_mate, self._reversed, self.arc_boundary, self.arc_boundary_edge):
            a.flags.writeable = False

    @cached_property
    def arc_succ(self) -> np.ndarray:
        """(2, 3n) successors of the arc graph: ``arc_succ[c, a]`` is the
        arc facing arc a's hexagon-mate u = 3h + (i + c + 1) % 3, for
        a = 3h + i, across edge e(u).  Node a stands for the literal
        sign(a) s(e(a)); a closed walk crosses the edges e(a) of its
        nodes in turn, so the graph's cycles are the closed edge cycles.
        """
        mate = np.empty(self.num_arcs, dtype=np.intp)
        mate[self.edge_arcs] = self.edge_arcs[:, ::-1]
        mate = mate.reshape(self.n, 3)
        succ = np.stack([mate[:, [1, 2, 0]].ravel(), mate[:, [2, 0, 1]].ravel()])
        succ.flags.writeable = False
        return succ

    @cached_property
    def hessian_pattern(self) -> HessianPattern:
        m = self.num_edges
        edges = self.arc_edge.reshape(self.n, 3)
        signs = self.arc_sign.reshape(self.n, 3)
        key = (edges[:, :, None] * m + edges[:, None, :]).ravel()
        entries, slot = np.unique(key, return_inverse=True)
        row, col = np.divmod(entries, m)
        # int32 indices are what scipy.sparse keeps without a copy
        idx = np.int32 if len(entries) < 2**31 else np.int64
        pattern = HessianPattern(
            indptr=np.searchsorted(row, np.arange(m + 1)).astype(idx),
            indices=col.astype(idx),
            diagonal=np.flatnonzero(row == col),
            slot=slot,
            neg_sign=-(signs[:, :, None] * signs[:, None, :]).ravel(),
            entries=entries,
        )
        for a in pattern:
            a.flags.writeable = False
        return pattern

    # -- basic counts ------------------------------------------------

    @property
    def num_edges(self) -> int:
        return 3 * self.n // 2

    @property
    def num_arcs(self) -> int:
        return 3 * self.n

    def euler_characteristic(self) -> int:
        return -self.n // 2

    # -- indexing ----------------------------------------------------

    def arc_slot(self, arc: int) -> Slot:
        return (arc // 3, 2 * (arc % 3))

    def edges_of_hexagon(self, h: int) -> tuple[int, int, int]:
        """Edges at y-positions 1, 3, 5 (with repetition if self-glued)."""
        return tuple(self.hex_edges[h].tolist())

    # -- facing ---------------------------------------------------------

    def facing_arcs(self, e: int) -> tuple[int, int]:
        """The two x-arcs opposite the glued y-slots of edge e; always
        distinct slots, even for a self-glued hexagon."""
        return tuple(self.edge_arcs[e].tolist())

    # -- boundary ------------------------------------------------------

    def boundary_components(self) -> list[BoundaryCycle]:
        return list(self._boundary)

    def boundary_edge_cycles(self) -> list[EdgeCycle]:
        """Boundary components as edge cycles (always fundamental)."""
        return [EdgeCycle(edges=bc.edges, corner_arcs=bc.arcs[1:] + bc.arcs[:1])
                for bc in self._boundary]

    def _check_connected(self) -> None:
        """Depth-first walk over the hexagon adjacency _slot_mate // 3."""
        mates = (self._slot_mate // 3).tolist()
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        while stack:
            h = 3 * stack.pop()
            for g in mates[h], mates[h + 1], mates[h + 2]:
                if not seen[g]:
                    seen[g] = 1
                    stack.append(g)
        if 0 in seen:
            raise InvalidComplexError("complex is disconnected")

    # -- normal-curve edge cycles ---------------------------------------

    def _corner_counts(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Crossing and corner counts of weight vectors w of shape (..., m).

        ``cross[..., h, k]`` is the weight at y-slot (h, 2k + 1) and
        ``corner[..., h, k]`` the number of arcs in the corner between
        y-slots k and k + 1 of hexagon h, half of
        cross(k) + cross(k + 1) - cross(k + 2).  ``ok`` marks the w whose
        corner counts are all nonnegative integers.
        """
        cross = w[..., self.hex_edges]
        twice = cross + cross[..., [1, 2, 0]] - cross[..., [2, 0, 1]]
        ok = np.all((twice >= 0) & (twice % 2 == 0), axis=(-2, -1))
        return cross, twice // 2, ok

    def _trace(self, cross: np.ndarray, corner: np.ndarray) -> list[tuple[list[int], list[int], list[bool]]]:
        """Components of the canonical embedded multicurve with crossing
        and corner counts (cross, corner) per y-slot, as _corner_counts
        gives them, each traced from its lowest crossing point: the edges
        it crosses, the arc it cuts off after each, and whether that cut
        runs clockwise (back).

        Crossing points are numbered slot by slot, y-slot 3h + k first,
        each slot's points by position j counted from the slot's
        counterclockwise start vertex.  Two partner arrays join them.
        Within hexagon h, the first corner(k-1, k) points of slot k bend
        back, clockwise, to position cross(k-1) - 1 - j of slot k - 1,
        cutting off x-arc 3h + k; the rest go on, counterclockwise, to
        position cross(k) - 1 - j of slot k + 1, cutting off x-arc
        3h + (k + 1) % 3.  Across the edge, a point meets the same
        position of the glued slot, or its mirror when the gluing is
        reversed.  A component is a cycle of the two partner maps
        composed.
        """
        c = cross.ravel()
        start = np.cumsum(c) - c  # first point of each y-slot
        slot = np.repeat(np.arange(3 * self.n), c)
        pos = np.arange(len(slot)) - start[slot]
        prev = slot - slot % 3 + (slot + 2) % 3
        succ = slot - slot % 3 + (slot + 1) % 3
        back = pos < corner.ravel()[prev]  # corner (k-1, k) holds the first points
        inner = np.where(back, start[prev] + c[prev], start[succ] + c[slot]) - 1 - pos
        edge = self.hex_edges.ravel()[slot]
        outer = start[self._slot_mate[slot]] + np.where(self._reversed[edge], c[slot] - 1 - pos, pos)
        step, inner = outer[inner].tolist(), inner.tolist()
        seen = bytearray(len(inner))
        walk, ends = [], []
        for first in range(len(inner)):
            if seen[first]:
                continue
            p = first
            while not seen[p]:
                seen[p] = seen[inner[p]] = 1
                walk.append(p)
                p = step[p]
            ends.append(len(walk))
        walk = np.array(walk, dtype=np.intp)
        edge, cut, back = (a[walk].tolist() for a in (edge, np.where(back, slot, succ), back))
        return [(edge[i:j], cut[i:j], back[i:j]) for i, j in zip([0] + ends[:-1], ends)]

    def enumerate_fundamental_cycles(self, limit: int = 200) -> CycleEnumeration:
        """All connected embedded normal curves crossing each edge at
        most twice, one per crossing-weight vector (this quotients by
        rotation and reversal).  Includes every boundary edge cycle.
        Stops after `limit` cycles and flags the truncation."""
        m = self.num_edges
        if 3 ** m > 2_000_000:
            raise ValueError(
                "cycle enumeration is exponential; use the LP feasibility test"
            )
        # every nonzero w in {0, 1, 2}^m, in lexicographic order; int8
        # keeps the corner counts of all 3^m at once small
        weights = np.indices((3,) * m, dtype=np.int8).reshape(m, -1).T[1:]
        cross, corner, ok = self._corner_counts(weights)
        cycles: list[EdgeCycle] = []
        truncated = False
        for comps in map(self._trace, cross[ok], corner[ok]):
            if len(comps) != 1:
                continue
            if len(cycles) >= limit:
                truncated = True
                break
            edges, cuts, _ = comps[0]
            cycles.append(EdgeCycle(edges=tuple(edges), corner_arcs=tuple(cuts)))
        return CycleEnumeration(cycles=tuple(cycles), truncated=truncated)


def _is_integer(value) -> bool:
    """True for a number with no fractional part; false for strings,
    booleans and fractional numbers."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_gluing(g: tuple[Slot, Slot, bool]) -> tuple[Slot, Slot, bool]:
    """Gluing entry g with its slot indices as plain ints; raises
    InvalidComplexError unless they are integral and the flag a bool."""
    (h, p), (k, q), rev = g
    # plain ints skip the per-value test and conversion, which would
    # about double the time a complex takes to build
    plain = type(h) is type(p) is type(k) is type(q) is int
    if not (plain or all(map(_is_integer, (h, p, k, q)))):
        raise InvalidComplexError(f"slot indices in gluing entry {g!r} must be integers")
    if not isinstance(rev, (bool, np.bool_)):
        raise InvalidComplexError(f"'reversed' in gluing entry {g!r} must be true or false, got {rev!r}")
    return g if plain else ((int(h), int(p)), (int(k), int(q)), rev)


def build(doc: dict) -> HexComplex:
    """Build a complex from the triangulation-file dictionary:
    {"hexagons": n, "gluings": [{"a": [h,p], "b": [h,p], "reversed": bool}],
     "labels": [...] optional}.  Only the file's shape is read here; the
    values are checked by HexComplex."""
    try:
        n = doc["hexagons"]
        raw = doc["gluings"]
    except (KeyError, TypeError) as exc:
        raise InvalidComplexError(f"malformed triangulation description: {exc}") from exc
    labels = doc.get("labels", [])
    for key, value in (("gluings", raw), ("labels", labels)):
        if not isinstance(value, (list, tuple)):
            raise InvalidComplexError(f"{key!r} must be a list, got {value!r}")
    gluings = []
    for g in raw:
        try:
            gluings.append(((g["a"][0], g["a"][1]), (g["b"][0], g["b"][1]), g.get("reversed", False)))
        except (KeyError, TypeError, IndexError) as exc:
            raise InvalidComplexError(f"malformed gluing entry {g!r}") from exc
    return HexComplex(n=n, gluings=gluings, labels=list(labels))
