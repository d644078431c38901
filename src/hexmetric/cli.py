"""Command-line interface.

File formats:

* triangulation file (JSON):
  {"hexagons": n,
   "gluings": [{"a": [hex, pos], "b": [hex, pos], "reversed": bool}, ...],
   "labels": ["e0", ...]}          # optional edge names
* coordinate file (JSON): {edge label: number, ...}; used both for
  per-edge coordinates (z) and for edge lengths.

The output documents are shaped here too, the verdict of `feasible`
(also the report of `solve`'s infeasible error) included: every
per-edge map is keyed by edge label, every per-boundary map by b0,
b1, ...  JSON and the energy-profile CSV go to stdout or to the file
given, through one writer.

Exit codes: 0 success, 2 input/validation error (including inputs
beyond the numeric range), 3 infeasible, 4 non-convergence or LP
failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import polytope, realize, solver, surface

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY = 5


class InputError(ValueError):
    pass


def _read_json(path: str, kind: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc


def _load_complex(path: str) -> surface.HexComplex:
    return surface.build(_read_json(path, "triangulation"))


def _load_edge_values(path: str, cx: surface.HexComplex) -> np.ndarray:
    data = _read_json(path, "coordinate")
    if not isinstance(data, dict):
        raise InputError("coordinate file must be a JSON object of edge: value")
    # accept a solve/forward output document directly
    for key in ("edge_lengths", "z"):
        if isinstance(data.get(key), dict):
            data = data[key]
            break
    index = {label: e for e, label in enumerate(cx.labels)}
    values = np.empty(cx.num_edges)
    seen = set()
    for key, v in data.items():
        e = index.get(key)
        if e is None and key.isdecimal() and int(key) < cx.num_edges:
            e = int(key)
        if e is None:
            raise InputError(f"unknown edge key {key!r}")
        if e in seen:
            raise InputError(f"duplicate edge key {key!r}")
        seen.add(e)
        # JSON booleans are ints to Python; strings are not numbers here,
        # numeric or not
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"edge key {key!r}: {v!r} is not a number")
        try:
            values[e] = v
        except OverflowError:
            raise InputError(f"edge key {key!r}: integer beyond the float range") from None
    missing = [label for e, label in enumerate(cx.labels) if e not in seen]
    if missing:
        raise InputError(f"missing edge keys: {', '.join(missing)}")
    return values


def _edge_map(cx: surface.HexComplex, values) -> dict[str, float]:
    return {cx.labels[e]: float(values[e]) for e in range(cx.num_edges)}


def _boundary_map(values) -> dict[str, float]:
    return {f"b{i}": float(v) for i, v in enumerate(values)}


def _verdict_doc(cx: surface.HexComplex, report: polytope.PolytopeReport) -> dict:
    doc = {
        "feasible": report.feasible,
        "status": report.status,
        "lp_min": report.lp_min,
        "boundary_values": _boundary_map(report.boundary_values),
    }
    if report.certificate is not None:
        doc["certificate"] = _edge_map(cx, report.certificate)
    if report.certificate_cycle is not None:
        doc["certificate_cycle"] = [cx.labels[e] for e in report.certificate_cycle]
    if report.witness is not None:
        doc["witness_x_arcs"] = [float(v) for v in report.witness]
    return doc


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(doc: dict, path: str | None) -> None:
    _write(json.dumps(doc, indent=2), path)


def cmd_validate(args) -> int:
    cx = _load_complex(args.file)
    bcs = cx.boundary_components()
    print(
        f"hexagons={cx.n} edges={cx.num_edges} xarcs={cx.num_arcs} "
        f"chi={cx.euler_characteristic()} boundary={len(bcs)}"
    )
    for i, bc in enumerate(bcs):
        arcs = " ".join(f"({h},{p})" for h, p in map(cx.arc_slot, bc.arcs))
        edges = " ".join(cx.labels[e] for e in bc.edges)
        print(f"boundary {i}: arcs [{arcs}] edge cycle [{edges}]")
    return EXIT_OK


def cmd_feasible(args) -> int:
    cx = _load_complex(args.file)
    z = _load_edge_values(args.z, cx)
    report = polytope.check_feasibility(cx, z)
    _emit(_verdict_doc(cx, report), args.json_out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    cx = _load_complex(args.file)
    z = _load_edge_values(args.z, cx)
    cfg = solver.SolveConfig(tol=args.tol, max_iter=args.max_iter)
    try:
        t_star, rep = solver.maximize(cx, z, cfg)
        metric = solver.extract_metric(cx, t_star, cfg)
    except polytope.InfeasibleCoordinateError as exc:
        _emit({"error": "infeasible", "report": _verdict_doc(cx, exc.report)}, args.json_out)
        return EXIT_INFEASIBLE
    except solver.SolveError as exc:
        doc = {"error": "no convergence", "detail": str(exc)}
        if exc.report is not None:
            fields = ("iterations", "cg_iterations", "grad_norm", "consistency", "energy")
            doc["report"] = {k: getattr(exc.report, k) for k in fields}
        _emit(doc, args.json_out)
        return EXIT_NO_CONVERGENCE
    # the audit keeps its own 1e-8 gate: a loose --tol stops the solve
    # early, and must not pass an unsolved metric as verified
    verification = realize.verify_metric(cx, metric)
    doc = {
        "edge_lengths": _edge_map(cx, metric.edge_lengths),
        "boundary_lengths": _boundary_map(metric.boundary_lengths),
        "x_arcs": [float(v) for v in metric.x_arcs],
        "achieved_z": _edge_map(cx, metric.z),
        "mismatch": metric.mismatch,
        "iterations": rep.iterations,
        "cg_iterations": rep.cg_iterations,
        "grad_norm": rep.grad_norm,
        "energy": rep.energy,
        "converged": rep.converged,
        "verified": verification.ok,
        "verification_failures": verification.failures,
    }
    _emit(doc, args.json_out)
    if not verification.ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_forward(args) -> int:
    cx = _load_complex(args.file)
    lengths = _load_edge_values(args.lengths, cx)
    z, bl, x = solver.forward_map(cx, lengths)
    doc = {
        "z": _edge_map(cx, z),
        "boundary_lengths": _boundary_map(bl),
        "x_arcs": [float(v) for v in x],
    }
    _emit(doc, args.json_out)
    return EXIT_OK


def cmd_energy_profile(args) -> int:
    cx = _load_complex(args.file)
    z = _load_edge_values(args.z, cx)
    try:
        t0 = polytope.interior_point(cx, z)
    except polytope.InfeasibleCoordinateError:
        print("infeasible coordinate", file=sys.stderr)
        return EXIT_INFEASIBLE
    rng = np.random.default_rng(args.seed)
    rows = ["segment,s,V"]
    for seg in range(args.samples):
        t1 = solver.perturbed_interior_start(cx, z, rng, t0=t0)
        for s in np.linspace(0.0, 1.0, 21):
            t = (1.0 - s) * t0 + s * t1
            rows.append(f"{seg},{s:.17g},{solver.energy(cx, t):.17g}")
    _write("\n".join(rows), args.csv_out)
    return EXIT_OK


def cmd_polytope(args) -> int:
    cx = _load_complex(args.file)
    enumeration = cx.enumerate_fundamental_cycles(limit=args.enumerate_limit)
    equalities = []
    for i, bc in enumerate(cx.boundary_edge_cycles()):
        equalities.append(
            {"boundary": f"b{i}", "edges": [cx.labels[e] for e in bc.edges]}
        )
    inequalities = [
        {"edges": [cx.labels[e] for e in cyc.edges]} for cyc in enumeration.cycles
    ]
    _emit(
        {
            "equalities": equalities,
            "inequalities": inequalities,
            "truncated": enumeration.truncated,
        },
        args.json_out,
    )
    return EXIT_OK


def _count(text: str) -> int:
    """argparse type of a count option: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexmetric",
        description="hyperbolic metrics on ideally triangulated bordered surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a triangulation file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("feasible", help="decide feasibility of a coordinate vector")
    p.add_argument("file")
    p.add_argument("--z", required=True, help="coordinate file")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("solve", help="compute the metric with a given coordinate")
    p.add_argument("file")
    p.add_argument("--z", required=True, help="coordinate file")
    p.add_argument("--tol", type=float, default=solver.SolveConfig.tol)
    p.add_argument("--max-iter", type=int, default=solver.SolveConfig.max_iter)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("forward", help="coordinate of a metric with given edge lengths")
    p.add_argument("file")
    p.add_argument("--lengths", required=True, help="edge-length file")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("energy-profile", help="sample the energy along feasible segments")
    p.add_argument("file")
    p.add_argument("--z", required=True)
    p.add_argument("--samples", type=_count, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_energy_profile)

    p = sub.add_parser("polytope", help="list the defining equalities and inequalities")
    p.add_argument("file")
    p.add_argument("--enumerate-limit", type=_count, default=200)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_polytope)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # every error of bad input (InputError, InvalidComplexError,
    # CoordinateError, DomainError) is a ValueError; ArithmeticError is
    # overflow or division by zero: input beyond the numeric range
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except polytope.LPError as exc:
        print(f"error: linear program failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
