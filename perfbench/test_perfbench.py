"""Tests of the benchmark itself.  Run: python -m pytest -q perfbench"""

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import generate
import harness
import tracing
import workloads
from hexmetric import polytope, solver, surface

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def instances(name, seed):
    wl = workloads.WORKLOADS[name]
    pools = workloads.build_pools(workloads.pool_docs(wl, seed), tracing.NullTracer())
    return workloads.instance_stream(wl, pools, seed)


def first_instances(name, seed, count):
    return list(itertools.islice(instances(name, seed), count))


def as_tuple(inst):
    arrays = (inst.lengths, inst.z, inst.start)
    return inst.kind, inst.complex.doc, [None if a is None else a.tolist() for a in arrays]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a = first_instances(name, 7, 6)
    b = first_instances(name, 7, 6)
    c = first_instances(name, 8, 6)
    assert [as_tuple(i) for i in a] == [as_tuple(i) for i in b]
    assert [as_tuple(i) for i in a] != [as_tuple(i) for i in c]


def test_one_instance_in_four_is_a_verdict():
    kinds = [i.kind for i in first_instances("solve-mid", 3, 8)]
    assert kinds == ["solve", "solve", "solve", "verdict"] * 2
    assert {i.kind for i in first_instances("newton-large", 3, 4)} == {"newton"}


@pytest.mark.parametrize("n", [2, 4, 8, 32])
def test_random_complex_is_valid_and_connected(n):
    for seed in range(20):
        doc = generate.random_complex(n, [seed, n])
        cx = surface.build(doc)  # raises on a disconnected or malformed gluing
        assert cx.n == n
        assert (generate.hexagon_edges(doc) == [cx.edges_of_hexagon(h) for h in range(n)]).all()
        assert (generate.facing_arcs(doc) == [cx.facing_arcs(e) for e in range(cx.num_edges)]).all()


def test_on_slice_start_is_interior_and_on_the_slice():
    (inst,) = first_instances("newton-large", 5, 1)
    cx, t = inst.complex.cx, inst.start
    z, _, x = solver.forward_map(cx, inst.lengths)
    assert np.allclose([t[a] + t[b] for a, b in map(cx.facing_arcs, range(cx.num_edges))], z, atol=1e-12)
    assert solver.domain_margin(cx, t) >= 0.5 * x.min() - 1e-12


def verdict_instance():
    """A verdict on an 8-hexagon complex."""
    return next(i for i in instances("solve-small", 11) if i.kind == "verdict" and i.complex.cx.n == 8)


def test_infeasible_z_breaks_a_boundary_cycle():
    inst = verdict_instance()
    sums = [inst.z[list(c)].sum() for c in inst.complex.boundary_cycles]
    assert min(sums) < 0


def test_certificate_check_accepts_the_library_certificate():
    inst = verdict_instance()
    report = polytope.check_feasibility(inst.complex.cx, inst.z)
    assert report.status == "infeasible"
    rows = inst.complex.cone_rows
    assert checks.certificate_ok(rows, inst.z, report.certificate)
    assert checks.certificate_ok(rows, inst.z, 3.0 * report.certificate)


def test_certificate_check_rejects_corrupted_certificates():
    inst = verdict_instance()
    y = polytope.check_feasibility(inst.complex.cx, inst.z).certificate
    rows, z = inst.complex.cone_rows, inst.z
    z_feasible, _, _ = solver.forward_map(inst.complex.cx, inst.lengths)
    tri = next(t for t in generate.hexagon_edges(inst.complex.doc) if len(set(t)) == 3)
    spike = y.copy()
    spike[tri[0]] += 10.0  # breaks y_i + y_j >= y_k on that hexagon
    dent = y.copy()
    dent[int(np.argmax(y))] = -0.5  # negative entry
    nan = y.copy()
    nan[0] = np.nan
    for bad in (spike, dent, nan, -y, np.zeros_like(y), None, y[:-1]):
        assert not checks.certificate_ok(rows, z, bad)
    # a certificate for one z proves nothing about a feasible one
    assert not checks.certificate_ok(rows, z_feasible, y)


def test_self_times_subtract_children():
    spans = [
        tracing.Span("root", 0, 100, -1, 0),
        tracing.Span("a", 10, 40, 0, 0),
        tracing.Span("b", 50, 90, 0, 0),
        tracing.Span("c", 60, 70, 2, 0),
    ]
    assert tracing.self_times(spans) == [30, 30, 30, 10]
    assert tracing.roots(spans) == [0, 0, 0, 0]


def test_tracer_records_nesting_and_instance():
    tr = tracing.Tracer()
    with tr.span("op", 4):
        assert tr.call("inner", lambda v: v + 1, 1) == 2
    names = [(s.name, s.parent, s.instance) for s in tr.spans]
    assert names == [("op", -1, 4), ("inner", 0, 4)]
    assert all(s.end >= s.start for s in tr.spans)


def test_attempted_and_failed_depend_on_the_seed_alone():
    wl = workloads.WORKLOADS["solve-small"]
    pools = workloads.build_pools(workloads.pool_docs(wl, 2), tracing.NullTracer())
    start = time.perf_counter()
    one_pass, _ = harness.measure(wl, pools, 2, 0.0, tracing.NullTracer(), harness.SpeedProbe())
    elapsed = time.perf_counter() - start
    longer, _ = harness.measure(wl, pools, 2, 1.5 * elapsed, tracing.NullTracer(), harness.SpeedProbe())
    assert len(one_pass) == wl.batch < len(longer)
    assert harness.tally(one_pass) == harness.tally(longer)
    assert harness.tally(one_pass)[0] == wl.batch


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_prints_every_metric(trace, section):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    proc = run_bench(REPO, "--workload", "solve-small", "--seed", "1", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "solve-small", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
