"""Measuring loop and metrics of the benchmark; see run.py for usage."""

from __future__ import annotations

import collections
import itertools
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads
from hexmetric import solver

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3
WARMUP = 1  # instances run before the clock starts, from their own stream
TAIL = 80  # highest percentile with >= 10 samples above it on every workload
NEWTON_ITERS_PREFIX = 8  # solver.newton_iters averages this many instances
PROBE_EVERY_S = 0.25  # at most this long between probe units
REFERENCE_UNIT_S = 0.0165  # median SpeedProbe unit on a shared 2-vCPU Intel Xeon

SETUP_SCRIPT = """
import json, sys, time
docs = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hexmetric
for doc in docs:
    hexmetric.build(doc)
print(repr(time.perf_counter() - start))
"""


def measure_setup(docs: dict[int, list[dict]], src: Path, probe: SpeedProbe) -> list[float]:
    """Set-up times in seconds, each scaled by the probe units around it."""
    payload = json.dumps([doc for group in docs.values() for doc in group])
    times = []
    for _ in range(SETUP_REPS):
        before = probe.unit()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(src)],
            input=payload,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append((float(proc.stdout.split()[-1]), before))
    probe.unit()
    return [t * probe.scale_at(k) for t, k in times]


class SpeedProbe:
    """Fixed reference work run between operations, at least every
    PROBE_EVERY_S.

    On a shared machine the speed of one core drifts by tens of percent
    within a minute, which would swamp the regression bounds.  Each
    operation's time is scaled by REFERENCE_UNIT_S over the median of the
    last unit before it and its two neighbours, i.e. reported at the
    reference machine's speed; the unscaled values are printed with the
    run environment.

    The unit is one dense 600x600 solve and vectorised exp/log1p over
    arrays larger than the L2 cache.  On a shared 2-vCPU Xeon, over 5 s
    windows, the log of its time moved with the log of the pipeline's
    round-trip time with slope 1.0-1.2 on solve-mid and newton-large.
    Loops of tiny numpy calls or of Python math calls swung about twice
    as far as the pipeline did, so the unit has none.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((600, 600)) + 600.0 * np.eye(600)
        self.rhs = rng.standard_normal(600)
        self.values = rng.standard_normal(200_000)
        self.times: list[float] = []

    def unit(self) -> int:
        """Runs one unit; returns its index in `times`."""
        start = time.perf_counter()
        acc = float(np.linalg.solve(self.matrix, self.rhs)[0])
        for _ in range(5):
            acc += float(np.sum(np.exp(self.values) * np.log1p(np.abs(self.values))))
        self.times.append(time.perf_counter() - start)
        return len(self.times) - 1

    def scale_at(self, k: int) -> float:
        """Scale for work done after unit k and before unit k + 1."""
        return REFERENCE_UNIT_S / float(np.median(self.times[max(k - 1, 0) : k + 2]))

    @property
    def scale(self) -> float:
        """Scale for the whole run, used for the per-layer spans."""
        return REFERENCE_UNIT_S / float(np.median(self.times))


class Runner:
    """Runs instances one at a time and records their outcomes."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.null = tracing.NullTracer()
        self.reported: set[str] = set()

    def run(self, inst, traced: bool):
        op, check = workloads.OPS[inst.kind]
        tr = self.tracer if traced else self.null
        out = workloads.Outcome(inst.index, inst.kind, 0.0, traced)
        start = time.perf_counter()
        try:
            with tr.span(inst.kind, inst.index):
                result = op(inst, tr)
            out.latency = time.perf_counter() - start
            check(inst, result, out)
            if tr.enabled and out.start is not None:
                with tr.span("probe", inst.index):
                    tr.call("solver.energy", solver.energy, inst.complex.cx, out.start)
        except Exception as exc:  # the loop keeps running; the failure is counted
            out.latency = out.latency or time.perf_counter() - start
            out.ok, out.reason = False, type(exc).__name__
            if out.reason not in self.reported:
                self.reported.add(out.reason)
                print(f"instance {inst.index} ({inst.kind}):\n{traceback.format_exc()}", file=sys.stderr)
        return out


def measure(workload, pools, seed: int, seconds: float, tracer, probe: SpeedProbe) -> tuple[list, float]:
    """Runs the seeded batch of the workload over and over, in order,
    until `seconds` have passed and the batch has run at least once.

    A run sees the same instances whatever the machine's speed, so which
    instances fail is a function of the seed alone."""
    runner = Runner(tracer)
    warm = workloads.instance_stream(workload, pools, seed, stream=1)
    for _ in range(WARMUP):
        runner.run(next(warm), traced=False)
    batch = list(itertools.islice(workloads.instance_stream(workload, pools, seed), workload.batch))
    outcomes, units = [], []
    first_unit = len(probe.times)
    start = next_unit = time.perf_counter()
    deadline = start + seconds
    for done, inst in enumerate(itertools.cycle(batch)):
        if done >= len(batch) and time.perf_counter() >= deadline:
            break
        if time.perf_counter() >= next_unit:
            k = probe.unit()
            next_unit = time.perf_counter() + PROBE_EVERY_S
        if tracer.enabled:
            # each instance runs traced and untraced, in alternating order
            first = (inst.index + done // len(batch)) % 2 == 0
            pair = [runner.run(inst, traced=first), runner.run(inst, traced=not first)]
        else:
            pair = [runner.run(inst, traced=False)]
        outcomes += pair
        units += [k] * len(pair)
    probe.unit()
    for out, k in zip(outcomes, units):
        out.scale = probe.scale_at(k)
    return outcomes, time.perf_counter() - start - sum(probe.times[first_unit:])


def tally(outcomes) -> tuple[int, int]:
    """Instances attempted and instances failed.  Every run of an instance
    is checked, and an instance fails if any of its runs failed."""
    return len({o.index for o in outcomes}), len({o.index for o in outcomes if not o.ok})


def per_instance(outcomes, kinds, scaled: bool = True) -> list[float]:
    """Median latency in seconds of each instance of the given kinds over
    its runs, so that every instance weighs the same whether or not the
    last pass over the batch reached it."""
    runs = collections.defaultdict(list)
    for o in outcomes:
        if o.kind in kinds:
            runs[o.index].append(o.latency * (o.scale if scaled else 1.0))
    return [float(np.median(v)) for v in runs.values()]


def end_to_end(outcomes, wall: float, setup: list[float]):
    attempted, failed = tally(outcomes)
    metrics, raw = {"setup_s": (float(np.median(setup)), "s")}, {}
    for scaled, out in ((True, metrics), (False, raw)):
        trips = 1e3 * np.array(per_instance(outcomes, TRIPS, scaled))
        ops = per_instance(outcomes, workloads.OPS, scaled)
        tail = float(np.percentile(trips, TAIL))
        out["solve_ms.p50"] = (float(np.median(trips)), "ms")
        out[f"solve_ms.p{TAIL}"] = (tail, "ms")
        out["instances_per_s"] = (len(ops) / sum(ops), "1/s")
    metrics["ok_ratio"] = (1.0 - failed / attempted, "ratio")
    samples = {
        "setup_s": len(setup),
        "solve_ms": len(trips),
        f"solve_ms.p{TAIL}.above": int(np.sum(trips > tail)),
        "instances_per_s": len(ops),
        "ok_ratio": attempted,
        "runs": len(outcomes),
        "wall_s": wall,
        "unscaled": {k: v for k, (v, _) in raw.items()},
    }
    return metrics, samples


TRIPS = ("solve", "newton")
# per-layer metric: (span name, kinds of the root span it runs under)
SPAN_MEDIANS = {
    "polytope.check_feasibility_ms": ("polytope.check_feasibility", ("solve",)),
    "polytope.check_feasibility_infeasible_ms": ("polytope.check_feasibility", ("verdict",)),
    "polytope.interior_point_ms": ("polytope.interior_point", ("solve",)),
    "solver.forward_map_ms": ("solver.forward_map", ("solve",)),
    "solver.maximize_ms": ("solver.maximize", TRIPS),
    "solver.energy_ms": ("solver.energy", ("probe",)),
    "solver.extract_metric_ms": ("solver.extract_metric", TRIPS),
    "realize.verify_metric_ms": ("realize.verify_metric", TRIPS),
    "surface.build_ms": ("surface.build", ("setup",)),
}


def per_layer(spans, outcomes, scale: float):
    own = tracing.self_times(spans)
    top = [spans[r].name for r in tracing.roots(spans)]

    def durations(name, kinds):
        return [1e-6 * scale * (s.end - s.start) for s, k in zip(spans, top) if s.name == name and k in kinds]

    metrics, samples = {}, {}
    for key, (name, kinds) in SPAN_MEDIANS.items():
        values = durations(name, kinds)
        metrics[key] = (float(np.median(values)) if values else 0.0, "ms")
        samples[key] = len(values)

    traced = sorted((o for o in outcomes if o.traced and o.kind in TRIPS), key=lambda o: o.index)
    untraced = [o.latency for o in outcomes if not o.traced and o.kind in TRIPS]
    iters = [o.iterations for o in traced if o.iterations is not None]
    first_iters = [n for n in {o.index: o.iterations for o in traced}.values() if n is not None]
    trip_ns = sum(s.end - s.start for s in spans if s.parent < 0 and s.name in TRIPS)
    for layer in ("polytope", "solver", "realize"):
        layer_ns = sum(t for s, k, t in zip(spans, top, own) if s.name.startswith(layer + ".") and k in TRIPS)
        metrics[f"share.{layer}"] = (layer_ns / trip_ns, "ratio")
    metrics["solver.newton_iters"] = (float(np.mean(first_iters[:NEWTON_ITERS_PREFIX])), "count")
    metrics["solver.newton_iter_ms"] = (sum(durations("solver.maximize", TRIPS)) / max(sum(iters), 1), "ms")
    metrics["realize.audit_fail"] = (len({o.index for o in traced if o.reason == "audit failed"}), "count")
    metrics["trace.overhead"] = (sum(o.latency for o in traced) / sum(untraced), "ratio")
    samples.update(
        {
            "solver.newton_iters": len(first_iters[:NEWTON_ITERS_PREFIX]),
            "solver.newton_iter_ms": sum(iters),
            "traced_round_trips": len(traced),
            "untraced_round_trips": len(untraced),
        }
    )
    return metrics, samples


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_threads": min(int(os.environ["OPENBLAS_NUM_THREADS"]), nproc),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run(args, src: Path) -> int:
    workload = workloads.WORKLOADS[args.workload]
    docs = workloads.pool_docs(workload, args.seed)
    probe = SpeedProbe()
    setup = [] if args.trace else measure_setup(docs, src, probe)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    pools = workloads.build_pools(docs, tracer)
    outcomes, wall = measure(workload, pools, args.seed, args.seconds, tracer, probe)

    if args.trace:
        metrics, samples = per_layer(tracer.spans, outcomes, probe.scale)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        samples["spans"] = len(tracer.spans)
        samples["trace_file"] = str(trace_path.relative_to(src.parent))
    else:
        metrics, samples = end_to_end(outcomes, wall, setup)
    samples["speed_probe"] = {"units": len(probe.times), "median_s": float(np.median(probe.times)), "scale": probe.scale}
    failures = collections.Counter(dict((o.index, o.reason) for o in outcomes if not o.ok).values())
    attempted, failed = tally(outcomes)
    print(json.dumps({"env": environment(args), "samples": samples, "failures": failures}))
    print(
        json.dumps(
            {
                "correct": not any(o.wrong for o in outcomes),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0
