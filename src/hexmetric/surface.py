"""Combinatorial hexagon complexes.

A complex is a set of colored hexagons with their y-sides glued in
pairs.  Slots are numbered 0..5 counterclockwise around each hexagon,
even slots being x-sides (boundary arcs) and odd slots y-sides (seams).
Gluing a pair of y-slots identifies their endpoints: with
``reversed=False`` the two sides are matched start-to-start (the
natural identification of two hexagons facing each other), with
``reversed=True`` start-to-end.

Derived structure: one edge per glued pair, one x-arc per x-slot,
boundary components traced through the identified corners, and the
embedded-normal-curve edge cycles used by the feasibility polytope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

Slot = tuple[int, int]  # (hexagon index, position 0..5)

Y_POSITIONS = (1, 3, 5)
X_POSITIONS = (0, 2, 4)
# offset within its hexagon of the x-arc opposite the y-slot at 2k + 1
OPPOSITE_ARC = (2, 0, 1)


class InvalidComplexError(ValueError):
    """Gluing description does not define a valid complex."""


def opposite_position(p: int) -> int:
    return (p + 3) % 6


@dataclass(frozen=True)
class BoundaryCycle:
    """One boundary circle: its x-arcs in cyclic order and the induced
    boundary edge cycle (edge between consecutive arcs)."""

    arcs: tuple[int, ...]
    edges: tuple[int, ...]
    # step i joins edges[i] and edges[i+1]; steps[i] = (hexagon, y-pos, y-pos)
    steps: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class EdgeCycle:
    """Closed edge cycle realized by a normal curve.

    ``edges[i]`` is crossed between steps i-1 and i; ``steps[i]`` is the
    corner arc (hexagon, y-position entered, y-position left) joining
    edges[i] and edges[i+1].  ``corner_arcs[i]`` is the x-arc cut off by
    that corner, the arc adjacent to both edges of the step.
    """

    edges: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]
    corner_arcs: tuple[int, ...]

    def multiplicities(self, num_edges: int) -> tuple[int, ...]:
        counts = [0] * num_edges
        for e in self.edges:
            counts[e] += 1
        return tuple(counts)

    @property
    def fundamental(self) -> bool:
        counts: dict[int, int] = {}
        for e in self.edges:
            counts[e] = counts.get(e, 0) + 1
        return all(c <= 2 for c in counts.values())


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[EdgeCycle, ...]
    truncated: bool


@dataclass
class HexComplex:
    """Immutable (after construction) hexagon complex.

    The x-arc at position 2i of hexagon h has index 3h + i, so an array
    over arcs reshaped to (n, 3) is an array over hexagons.  The other
    incidences are built once, as read-only arrays:

    * ``hex_edges[h, k]``: the edge glued at y-slot (h, 2k + 1);
    * ``edge_arcs[e, side]``: the x-arc facing side `side` of edge e,
      i.e. opposite the y-slot ``gluings[e][side]``;
    * ``arc_edge[w]``, ``arc_sign[w]``: the edge arc w faces, and +1 or
      -1 as it faces side 0 or side 1 of it;
    * ``arc_boundary[w]``: the boundary component containing arc w;
    * ``arc_boundary_edge[w]``: the edge after arc w in the boundary
      edge cycle of that component.
    """

    n: int
    gluings: list[tuple[Slot, Slot, bool]]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n % 2 != 0:
            raise InvalidComplexError(f"hexagon count must be positive even, got {self.n}")
        if len(self.gluings) != 3 * self.n // 2:
            raise InvalidComplexError(
                f"expected {3 * self.n // 2} gluing pairs, got {len(self.gluings)}"
            )
        self._edge_of_yslot: dict[Slot, int] = {}
        for e, (a, b, rev) in enumerate(self.gluings):
            for s in (a, b):
                h, p = s
                if not (0 <= h < self.n):
                    raise InvalidComplexError(f"hexagon index out of range in slot {s}")
                if p % 2 == 0:
                    raise InvalidComplexError(f"x-slot {s} cannot appear in a gluing")
                if not (0 <= p < 6):
                    raise InvalidComplexError(f"slot position out of range in slot {s}")
                if s in self._edge_of_yslot:
                    raise InvalidComplexError(f"y-slot {s} glued twice")
                self._edge_of_yslot[s] = e
            if a == b:
                raise InvalidComplexError(f"slot {a} glued to itself")
        if len(self._edge_of_yslot) != 3 * self.n:
            raise InvalidComplexError("some y-slot left unglued")
        if not self.labels:
            self.labels = [f"e{i}" for i in range(self.num_edges)]
        elif len(self.labels) != self.num_edges:
            raise InvalidComplexError("label list length differs from edge count")
        elif len(set(self.labels)) != self.num_edges:
            raise InvalidComplexError("duplicate edge labels")
        self._check_connected()
        self._build_incidence()

    def _build_incidence(self) -> None:
        n, m = self.n, self.num_edges
        # slots[e, side] = (hexagon, position) of the glued y-slot
        slots = np.array([(a, b) for a, b, _ in self.gluings], dtype=np.intp)
        hexagon, q = slots[..., 0], slots[..., 1]
        edge = np.arange(m)[:, None]
        self.hex_edges = np.empty((n, 3), dtype=np.intp)
        self.hex_edges[hexagon, q // 2] = edge
        self.edge_arcs = 3 * hexagon + np.take(OPPOSITE_ARC, q // 2)
        self.arc_edge = np.empty(3 * n, dtype=np.intp)
        self.arc_edge[self.edge_arcs] = edge
        self.arc_sign = np.empty(3 * n)
        self.arc_sign[self.edge_arcs] = (1.0, -1.0)

        # Corners: vertex 6h + p starts side p of hexagon h, so seam q
        # runs from vertex 6h + q to 6h + q + 1.  A gluing identifies the
        # ends of its two seams, start-to-start unless reversed.
        rev = np.array([r for _, _, r in self.gluings], dtype=bool)
        first = 6 * hexagon + q
        last = 6 * hexagon + (q + 1) % 6
        partner = np.empty(6 * n, dtype=np.intp)
        for mine, theirs in (
            (first[:, 0], np.where(rev, last[:, 1], first[:, 1])),
            (last[:, 0], np.where(rev, first[:, 1], last[:, 1])),
        ):
            partner[mine] = theirs
            partner[theirs] = mine
        # vertex v ends x-arc v // 2 and the seam at position y_pos[v]
        pos = np.arange(6 * n) % 6
        y_pos = np.where(pos % 2 == 1, pos, (pos - 1) % 6)
        seam_edge = self.hex_edges[np.arange(6 * n) // 6, y_pos // 2]
        walks = self._boundary_walks(partner)
        self._boundary = []
        for v in walks:
            p = partner[v]
            # edges[i] sits between arcs[i] and arcs[i+1]; steps[i] is the
            # corner containing arcs[i+1], joining edges[i] and edges[i+1]
            steps = zip((p // 6).tolist(), y_pos[p].tolist(), y_pos[p ^ 1].tolist())
            self._boundary.append(
                BoundaryCycle(
                    arcs=tuple((v // 2).tolist()),
                    edges=tuple(seam_edge[v].tolist()),
                    steps=tuple(steps),
                )
            )
        v = np.concatenate(walks)
        self.arc_boundary = np.empty(3 * n, dtype=np.intp)
        self.arc_boundary[v // 2] = np.repeat(np.arange(len(walks)), [len(w) for w in walks])
        self.arc_boundary_edge = np.empty(3 * n, dtype=np.intp)
        self.arc_boundary_edge[v // 2] = seam_edge[v]
        for a in (self.hex_edges, self.edge_arcs, self.arc_edge, self.arc_sign,
                  self.arc_boundary, self.arc_boundary_edge):
            a.flags.writeable = False

    def _boundary_walks(self, partner: np.ndarray) -> list[np.ndarray]:
        """Exit vertices of each boundary circle, in order of the
        circle's lowest arc.

        The walk leaves x-arc v // 2 through its end vertex v, crosses
        to the partner corner, enters the next arc there and leaves it
        through that arc's other end, partner[v] ^ 1.  It starts at the
        counterclockwise end 2w + 1 of the lowest arc w.
        """
        leave = (partner ^ 1).tolist()
        seen = bytearray(self.num_arcs)
        walks = []
        for start in range(self.num_arcs):
            if seen[start]:
                continue
            walk = [2 * start + 1]
            seen[start] = 1
            while (v := leave[walk[-1]]) != walk[0]:
                walk.append(v)
                seen[v // 2] = 1
            walks.append(np.array(walk))
        return walks

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

    def arc_index(self, slot: Slot) -> int:
        h, p = slot
        if p % 2 != 0:
            raise InvalidComplexError(f"slot {slot} is not an x-slot")
        return 3 * h + p // 2

    def arc_slot(self, arc: int) -> Slot:
        return (arc // 3, 2 * (arc % 3))

    def arcs_of_hexagon(self, h: int) -> tuple[int, int, int]:
        return (3 * h, 3 * h + 1, 3 * h + 2)

    def edge_slots(self, e: int) -> tuple[Slot, Slot]:
        a, b, _ = self.gluings[e]
        return a, b

    def edges_of_hexagon(self, h: int) -> tuple[int, int, int]:
        """Edges at y-positions 1, 3, 5 (with repetition if self-glued)."""
        return tuple(self.hex_edges[h].tolist())

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    # -- facing / adjacency -------------------------------------------

    def facing_arcs(self, e: int) -> tuple[int, int]:
        """The two x-arcs opposite the glued y-slots of edge e; always
        distinct slots, even for a self-glued hexagon."""
        return tuple(self.edge_arcs[e].tolist())

    def arc_to_edge(self, arc: int) -> tuple[int, int]:
        """Inverse of facing_arcs: the (edge, side) pair an x-arc faces."""
        return int(self.arc_edge[arc]), 0 if self.arc_sign[arc] > 0.0 else 1

    def adjacent_arcs(self, e: int) -> list[int]:
        """The four x-arcs at positions +-1 of the glued y-slots, with
        multiplicity."""
        out = []
        for h, q in self.edge_slots(e):
            out.append(self.arc_index((h, (q - 1) % 6)))
            out.append(self.arc_index((h, (q + 1) % 6)))
        return out

    # -- boundary ------------------------------------------------------

    def boundary_components(self) -> list[BoundaryCycle]:
        return list(self._boundary)

    def boundary_edge_cycles(self) -> list[EdgeCycle]:
        """Boundary components as edge cycles (always fundamental)."""
        out = []
        for bc in self._boundary:
            k = len(bc.edges)
            corner_arcs = tuple(bc.arcs[(i + 1) % k] for i in range(k))
            out.append(EdgeCycle(edges=bc.edges, steps=bc.steps, corner_arcs=corner_arcs))
        return out

    def _check_connected(self) -> None:
        adj: dict[int, set[int]] = {h: set() for h in range(self.n)}
        for (h1, _), (h2, _), _ in self.gluings:
            adj[h1].add(h2)
            adj[h2].add(h1)
        seen = {0}
        stack = [0]
        while stack:
            h = stack.pop()
            for g in adj[h]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        if len(seen) != self.n:
            raise InvalidComplexError("complex is disconnected")

    # -- normal-curve edge cycles ---------------------------------------

    def _resolve_weights(self, w: tuple[int, ...]) -> list[EdgeCycle] | None:
        """Canonical embedded multicurve with edge crossing counts w.

        Returns None when w is not realizable (a corner count would be
        negative or fractional); otherwise the list of components as
        edge cycles.
        """
        # corner counts per hexagon: corner (q, q+2) between y-slots
        corner: dict[tuple[int, int], int] = {}
        for h in range(self.n):
            wq = {q: w[self._edge_of_yslot[(h, q)]] for q in Y_POSITIONS}
            for q in Y_POSITIONS:
                q2 = (q + 2) % 6
                q4 = (q + 4) % 6
                twice = wq[q] + wq[q2] - wq[q4]
                if twice < 0 or twice % 2 != 0:
                    return None
                corner[(h, q)] = twice // 2
        # crossing points: (yslot, position ordered from the slot's ccw
        # start vertex).  Connect them within hexagons (corner arcs) and
        # across edges (the gluing identification).
        def corner_partner(slot: Slot, pos: int) -> tuple[Slot, int, tuple[int, int, int]]:
            h, q = slot
            q_prev = (q - 2) % 6
            a_prev = corner[(h, q_prev)]  # corner (q-2, q)
            a_next = corner[(h, q)]       # corner (q, q+2)
            if pos < a_prev:
                # j-th innermost arc of corner (q-2, q): here at position
                # j counted from vertex q, i.e. pos = j
                j = pos
                other = (h, q_prev)
                wq = corner[(h, (q_prev - 2) % 6)] + a_prev
                return other, wq - 1 - j, (h, q, q_prev)
            j = a_prev + a_next - 1 - pos
            other = (h, (q + 2) % 6)
            return other, j, (h, q, (q + 2) % 6)

        def cross_partner(slot: Slot, pos: int) -> tuple[Slot, int, int]:
            e = self._edge_of_yslot[slot]
            a, b, rev = self.gluings[e]
            other = b if slot == a else a
            we = w[e]
            return other, (we - 1 - pos) if rev else pos, e

        visited: set[tuple[Slot, int]] = set()
        components: list[EdgeCycle] = []
        for h in range(self.n):
            for q in Y_POSITIONS:
                slot = (h, q)
                for pos in range(w[self._edge_of_yslot[slot]]):
                    if (slot, pos) in visited:
                        continue
                    edges: list[int] = []
                    steps: list[tuple[int, int, int]] = []
                    corner_arcs: list[int] = []
                    cur = (slot, pos)
                    while cur not in visited:
                        visited.add(cur)
                        nxt_slot, nxt_pos, step = corner_partner(*cur)
                        sh, q_in, q_out = step
                        steps.append(step)
                        # the x-slot between y-slots q_in and q_out is the
                        # even position strictly between them
                        mid = (q_in + 1) % 6 if (q_in + 2) % 6 == q_out else (q_out + 1) % 6
                        corner_arcs.append(self.arc_index((sh, mid)))
                        visited.add((nxt_slot, nxt_pos))
                        cslot, cpos, e = cross_partner(nxt_slot, nxt_pos)
                        edges.append(e)
                        cur = (cslot, cpos)
                    # edges[i] is crossed after steps[i]; rotate so that
                    # steps[i] joins edges[i] and edges[i+1]
                    k = len(edges)
                    edges_rot = tuple(edges[(i - 1) % k] for i in range(k))
                    components.append(
                        EdgeCycle(
                            edges=edges_rot,
                            steps=tuple(steps),
                            corner_arcs=tuple(corner_arcs),
                        )
                    )
        return components

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
        cycles: list[EdgeCycle] = []
        truncated = False
        for w in itertools.product((0, 1, 2), repeat=m):
            if not any(w):
                continue
            comps = self._resolve_weights(w)
            if comps is None or len(comps) != 1:
                continue
            if len(cycles) >= limit:
                truncated = True
                break
            cycles.append(comps[0])
        return CycleEnumeration(cycles=tuple(cycles), truncated=truncated)


def build(doc: dict) -> HexComplex:
    """Build a complex from the triangulation-file dictionary:
    {"hexagons": n, "gluings": [{"a": [h,p], "b": [h,p], "reversed": bool}],
     "labels": [...] optional}."""
    try:
        n = int(doc["hexagons"])
        raw = doc["gluings"]
    except (KeyError, TypeError) as exc:
        raise InvalidComplexError(f"malformed triangulation description: {exc}") from exc
    gluings = []
    for g in raw:
        try:
            a = (int(g["a"][0]), int(g["a"][1]))
            b = (int(g["b"][0]), int(g["b"][1]))
            rev = bool(g.get("reversed", False))
        except (KeyError, TypeError, IndexError) as exc:
            raise InvalidComplexError(f"malformed gluing entry {g!r}") from exc
        gluings.append((a, b, rev))
    labels = list(doc.get("labels", []))
    return HexComplex(n=n, gluings=gluings, labels=labels)
