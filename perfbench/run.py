#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the hexmetric pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process with one thread (BLAS is
capped at one thread) drives the library from ../src in a closed loop:
the next instance is sent only when the previous one has finished.  The
workloads and operations are described in workloads.py; BENCHMARK.json
lists the ones whose run-to-run spread fits its regression bounds, and
solve-small can be run by hand.  A run draws a batch of instances from
the seed and runs it over and over, in order, until --seconds have
passed and the whole batch has run, so the instances it sees do not
depend on the machine's speed.  Every answer is checked; failed
operations are counted, never retried or dropped.  `attempted` and
`failed` count instances: an instance fails if any of its runs failed.

--trace 0 prints the end-to-end metrics:
  setup_s          median over SETUP_REPS fresh processes of importing
                   hexmetric and building the workload's complexes
  solve_ms.p50/p80 latency of one round trip (solve or newton), over
                   the round trips of the batch, each taken as the
                   median of its runs
  instances_per_s  operations of the batch divided by the sum of their
                   latencies, each the median of its runs, failed or not
  ok_ratio         1 - failed / attempted
Each latency is scaled to a reference machine speed by the probe units
run next to it (harness.SpeedProbe); the unscaled values are printed too.
--trace 1 prints the per-layer metrics.  Every instance runs twice, once
with spans recorded around each call into the library and once without,
in alternating order; trace.overhead compares the two.  The spans are
written to perfbench/out/ when the run ends.

The second-to-last line of standard output is a JSON record of the run
environment, the sample count behind each metric and the failures by
reason.  The last line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where `correct` is false when the library returned an answer that the
checks refute (a wrong verdict, a refuted certificate, or a metric off
by more than the tolerance that its own audit passed).

Exit codes: 0 after a run, 2 when ../src/hexmetric is missing or cannot
be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("solve-small", "solve-mid", "newton-large")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hexmetric" / "__init__.py").is_file():
        print(f"hexmetric sources not found under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the BLAS thread count when it is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the benchmark or hexmetric: {exc}", file=sys.stderr)
        return 2
    return harness.run(args, SRC)


if __name__ == "__main__":
    sys.exit(main())
