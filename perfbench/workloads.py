"""The benchmark's workloads, their seeded instance streams, and the
operations that drive the library.

Operations:

* ``solve`` -- a round trip: forward_map of the prescribed lengths, then
  check_feasibility (must say feasible), maximize(cx, z), extract_metric
  and verify_metric (must report ok); the solved edge lengths must match
  the prescribed ones to ROUND_TRIP_TOL.
* ``newton`` -- the round trip from an on-slice start, with no LP:
  maximize(cx, z, start_t), extract_metric, verify_metric.
* ``verdict`` -- check_feasibility of a z that is infeasible by
  construction; it must say infeasible with a certificate that passes
  checks.certificate_ok.

A traced ``solve`` replaces maximize(cx, z) by interior_point followed by
maximize(start_t=...), which is the same computation, so the LP used for
the start shows as its own span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import checks
import generate
from hexmetric import polytope, realize, solver, surface


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]  # hexagon counts, one drawn uniformly per instance
    pool_per_size: int  # complexes built per size at set-up
    verdict_every: int  # every k-th instance is a verdict; 0 for none
    newton_only: bool  # round trips start on the slice and make no LP call
    batch: int  # instances a run cycles through; a pass takes 5-40 s


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-small", (2, 4, 6, 8), 64, 4, False, 256),
        Workload("solve-mid", (32,), 128, 4, False, 96),
        Workload("newton-large", (512,), 16, 0, True, 72),
    )
}


@dataclass(frozen=True)
class Complex:
    doc: dict
    cx: surface.HexComplex
    facing: np.ndarray
    cone_rows: np.ndarray
    boundary_cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Instance:
    index: int
    kind: str  # 'solve' | 'newton' | 'verdict'
    complex: Complex
    lengths: np.ndarray
    z: np.ndarray | None = None  # newton: feasible z; verdict: infeasible z
    start: np.ndarray | None = None  # newton: on-slice start


@dataclass
class Outcome:
    index: int
    kind: str
    latency: float  # seconds
    traced: bool
    ok: bool = False
    wrong: bool = False  # an answer the library gave as valid is refuted
    reason: str = ""  # why the operation failed
    iterations: int | None = None
    start: np.ndarray | None = None  # where Newton started
    scale: float = 1.0  # machine-speed scale of the latency (harness.SpeedProbe)


def pool_docs(workload: Workload, seed: int) -> dict[int, list[dict]]:
    return {
        n: [generate.random_complex(n, [seed, n, j]) for j in range(workload.pool_per_size)]
        for n in workload.sizes
    }


def build_pools(docs: dict[int, list[dict]], tracer) -> dict[int, list[Complex]]:
    pools = {}
    with tracer.span("setup"):
        for n, group in docs.items():
            pools[n] = []
            for doc in group:
                cx = tracer.call("surface.build", surface.build, doc)
                pools[n].append(
                    Complex(
                        doc=doc,
                        cx=cx,
                        facing=generate.facing_arcs(doc),
                        cone_rows=checks.cone_rows(generate.hexagon_edges(doc), cx.num_edges),
                        boundary_cycles=tuple(bc.edges for bc in cx.boundary_components()),
                    )
                )
    return pools


def instance_stream(workload: Workload, pools: dict[int, list[Complex]], seed, stream: int = 0):
    """Endless, seeded sequence of instances.  Instance i draws a size,
    takes the next complex of that size from the pool, and draws fresh
    edge lengths; every `verdict_every`-th instance is a verdict."""
    rng = np.random.default_rng([seed, stream])
    used = dict.fromkeys(workload.sizes, 0)
    for i in itertools.count():
        n = workload.sizes[rng.integers(len(workload.sizes))]
        entry = pools[n][used[n] % len(pools[n])]
        used[n] += 1
        lengths = generate.draw_lengths(rng, entry.cx.num_edges)
        if workload.verdict_every and i % workload.verdict_every == workload.verdict_every - 1:
            z, _, _ = solver.forward_map(entry.cx, lengths)
            z_bad = generate.infeasible_z(z, entry.boundary_cycles, rng)
            yield Instance(i, "verdict", entry, lengths, z=z_bad)
        elif workload.newton_only:
            z, _, x = solver.forward_map(entry.cx, lengths)
            start = generate.on_slice_start(x, entry.facing, rng)
            yield Instance(i, "newton", entry, lengths, z=z, start=start)
        else:
            yield Instance(i, "solve", entry, lengths)


# -- operations: library calls only; checks happen after the clock stops --


def _solve(inst: Instance, tr):
    cx = inst.complex.cx
    z, _, _ = tr.call("solver.forward_map", solver.forward_map, cx, inst.lengths)
    report = tr.call("polytope.check_feasibility", polytope.check_feasibility, cx, z)
    if report.status != "feasible":
        return report, None, None, None, None
    if tr.enabled:
        start = tr.call("polytope.interior_point", polytope.interior_point, cx, z)
        t, solve_report = tr.call("solver.maximize", solver.maximize, cx, z, start_t=start)
    else:
        start = None
        t, solve_report = solver.maximize(cx, z)
    metric = tr.call("solver.extract_metric", solver.extract_metric, cx, t)
    audit = tr.call("realize.verify_metric", realize.verify_metric, cx, metric)
    return report, solve_report, metric, audit, start


def _newton(inst: Instance, tr):
    cx = inst.complex.cx
    t, solve_report = tr.call("solver.maximize", solver.maximize, cx, inst.z, start_t=inst.start)
    metric = tr.call("solver.extract_metric", solver.extract_metric, cx, t)
    audit = tr.call("realize.verify_metric", realize.verify_metric, cx, metric)
    return None, solve_report, metric, audit, inst.start


def _verdict(inst: Instance, tr):
    return tr.call("polytope.check_feasibility", polytope.check_feasibility, inst.complex.cx, inst.z)


def _check_round_trip(inst: Instance, result, out: Outcome) -> None:
    report, solve_report, metric, audit, out.start = result
    if report is not None and report.status != "feasible":
        out.wrong, out.reason = True, f"feasible z judged {report.status}"
        return
    out.iterations = solve_report.iterations
    err = checks.round_trip_error(metric.edge_lengths, inst.lengths)
    if err > checks.ROUND_TRIP_TOL:
        # a wrong metric that the audit also flags was refused, not returned
        out.wrong = audit.ok
        out.reason = "round-trip error above tolerance"
    elif not audit.ok:
        out.reason = "audit failed"
    else:
        out.ok = True


def _check_verdict(inst: Instance, report, out: Outcome) -> None:
    if report.status != "infeasible":
        out.wrong, out.reason = True, f"infeasible z judged {report.status}"
    elif not checks.certificate_ok(inst.complex.cone_rows, inst.z, report.certificate):
        out.wrong, out.reason = True, "certificate refuted"
    else:
        out.ok = True


OPS = {
    "solve": (_solve, _check_round_trip),
    "newton": (_newton, _check_round_trip),
    "verdict": (_verdict, _check_verdict),
}
