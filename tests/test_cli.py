"""Command-line interface: formats, exit codes, round trips."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hexmetric import cli, solver

ACOSH2 = math.acosh(2.0)

PANTS_DOC = {
    "hexagons": 2,
    "gluings": [
        {"a": [0, 1], "b": [1, 1], "reversed": False},
        {"a": [0, 3], "b": [1, 3], "reversed": False},
        {"a": [0, 5], "b": [1, 5], "reversed": False},
    ],
}

FOUR_FILE = Path(__file__).parent.parent / "scripts" / "data" / "four.json"


@pytest.fixture
def pants_file(tmp_path):
    p = tmp_path / "pants.json"
    p.write_text(json.dumps(PANTS_DOC))
    return str(p)


def write_coords(tmp_path, name, values):
    p = tmp_path / name
    p.write_text(json.dumps(values))
    return str(p)


def run(argv):
    return cli.main(argv)


def test_validate_output(pants_file, capsys):
    assert run(["validate", pants_file]) == 0
    out = capsys.readouterr().out
    assert "hexagons=2 edges=3 xarcs=6 chi=-1 boundary=3" in out


def test_validate_rejects_odd_count(tmp_path, capsys):
    doc = dict(PANTS_DOC, hexagons=3)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert run(["validate", str(p)]) == cli.EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_validate_rejects_duplicate_slot(tmp_path, capsys):
    doc = json.loads(json.dumps(PANTS_DOC))
    doc["gluings"][1]["a"] = [0, 1]  # reuse slot (0,1)
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(doc))
    assert run(["validate", str(p)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "(0, 1)" in err


def test_feasible_exit_codes(pants_file, tmp_path, capsys):
    good = write_coords(tmp_path, "good.json", {"e0": 1, "e1": 1, "e2": 1})
    bad = write_coords(tmp_path, "bad.json", {"e0": -3, "e1": 1, "e2": 1})
    assert run(["feasible", pants_file, "--z", good]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["boundary_values"] == {"b0": 2.0, "b1": 2.0, "b2": 2.0}
    assert run(["feasible", pants_file, "--z", bad]) == cli.EXIT_INFEASIBLE
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False and "certificate" in doc


def test_missing_edge_key(pants_file, tmp_path, capsys):
    partial = write_coords(tmp_path, "partial.json", {"e0": 1, "e1": 1})
    assert run(["feasible", pants_file, "--z", partial]) == cli.EXIT_INPUT
    assert "missing edge keys" in capsys.readouterr().err


def test_solve_symmetric_pants(pants_file, tmp_path, capsys):
    z = write_coords(tmp_path, "z.json", {"e0": ACOSH2, "e1": ACOSH2, "e2": ACOSH2})
    out = tmp_path / "solved.json"
    assert run(["solve", pants_file, "--z", z, "--json-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for v in doc["edge_lengths"].values():
        assert v == pytest.approx(ACOSH2, abs=1e-8)
    for v in doc["boundary_lengths"].values():
        assert v == pytest.approx(2.0 * ACOSH2, abs=1e-8)
    assert doc["converged"] and doc["verified"]
    # pants has 3 edges, so every Newton step is a dense solve, not CG
    assert doc["cg_iterations"] == 0


def test_solve_infeasible_exit(pants_file, tmp_path):
    z = write_coords(tmp_path, "z.json", {"e0": -3, "e1": 1, "e2": 1})
    assert run(["solve", pants_file, "--z", z]) == cli.EXIT_INFEASIBLE


def test_solve_non_convergence_exit(tmp_path):
    # on pants the max-margin start is already the maximizer, so use four
    z = write_coords(tmp_path, "z.json", dict(zip(
        ["e0", "e1", "e2", "e3", "e4", "e5"], [0.3, 1.7, 0.9, 1.1, 0.6, 1.4])))
    args = ["solve", str(FOUR_FILE), "--z", z, "--max-iter", "1", "--tol", "1e-14"]
    assert run(args) == cli.EXIT_NO_CONVERGENCE


def test_solve_infinite_tol_exits_input(tmp_path, capsys):
    # with tol = inf the start would pass as converged, though on four its
    # seams disagree by 0.54
    z = write_coords(tmp_path, "z.json", dict(zip(
        ["e0", "e1", "e2", "e3", "e4", "e5"], [0.3, 1.7, 0.9, 1.1, 0.6, 1.4])))
    assert run(["solve", str(FOUR_FILE), "--z", z, "--tol", "inf"]) == cli.EXIT_INPUT
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_solve_loose_tol_is_audited_at_1e_8(tmp_path, capsys):
    # --tol 1 stops at the start after 0 iterations, with seams that
    # disagree by 0.54; the audit keeps its own 1e-8 gate and refuses it
    z = write_coords(tmp_path, "z.json", dict(zip(
        ["e0", "e1", "e2", "e3", "e4", "e5"], [0.3, 1.7, 0.9, 1.1, 0.6, 1.4])))
    assert run(["solve", str(FOUR_FILE), "--z", z, "--tol", "1"]) == cli.EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] and doc["iterations"] == 0 and not doc["verified"]
    assert doc["mismatch"] == pytest.approx(0.5417334494576198)
    assert any("side lengths disagree" in f for f in doc["verification_failures"])


def test_solve_non_convergence_emits_the_report(tmp_path, capsys):
    # the error names the point the solve stopped at, as the library's
    # SolveError report does
    values = [0.3, 1.7, 0.9, 1.1, 0.6, 1.4]
    z = write_coords(tmp_path, "z.json", dict(zip(["e0", "e1", "e2", "e3", "e4", "e5"], values)))
    args = ["solve", str(FOUR_FILE), "--z", z, "--max-iter", "1", "--tol", "1e-14"]
    assert run(args) == cli.EXIT_NO_CONVERGENCE
    doc = json.loads(capsys.readouterr().out)
    cx = cli._load_complex(str(FOUR_FILE))
    with pytest.raises(solver.SolveError) as exc:
        solver.maximize(cx, np.array(values), solver.SolveConfig(tol=1e-14, max_iter=1))
    r = exc.value.report
    assert doc["error"] == "no convergence" and doc["detail"] == str(exc.value)
    assert doc["report"] == {
        "iterations": r.iterations,
        "cg_iterations": r.cg_iterations,
        "grad_norm": r.grad_norm,
        "consistency": r.consistency,
        "energy": r.energy,
    }
    assert r.iterations == 1


def test_solve_output_feeds_forward(pants_file, tmp_path, capsys):
    # solve -> forward round trip reproduces z
    z_val = {"e0": 0.9, "e1": 1.2, "e2": 1.05}
    z = write_coords(tmp_path, "z.json", z_val)
    solved = tmp_path / "solved.json"
    assert run(["solve", pants_file, "--z", z, "--json-out", str(solved)]) == 0
    capsys.readouterr()
    assert run(["forward", pants_file, "--lengths", str(solved)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for k, v in z_val.items():
        assert doc["z"][k] == pytest.approx(v, abs=1e-8)


def test_forward_symmetric(pants_file, tmp_path, capsys):
    lengths = write_coords(
        tmp_path, "l.json", {"e0": ACOSH2, "e1": ACOSH2, "e2": ACOSH2}
    )
    assert run(["forward", pants_file, "--lengths", lengths]) == 0
    doc = json.loads(capsys.readouterr().out)
    for v in doc["z"].values():
        assert v == pytest.approx(ACOSH2, abs=1e-10)
    for v in doc["boundary_lengths"].values():
        assert v == pytest.approx(2.0 * ACOSH2, abs=1e-10)


def test_forward_rejects_negative_length(pants_file, tmp_path):
    lengths = write_coords(tmp_path, "l.json", {"e0": -1, "e1": 1, "e2": 1})
    assert run(["forward", pants_file, "--lengths", lengths]) == cli.EXIT_INPUT


def test_energy_profile_concave(pants_file, tmp_path, capsys):
    z = write_coords(tmp_path, "z.json", {"e0": 1, "e1": 1, "e2": 1})
    out = tmp_path / "profile.csv"
    assert run(
        ["energy-profile", pants_file, "--z", z, "--samples", "3", "--csv-out", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "segment,s,V"
    by_segment = {}
    for line in lines[1:]:
        seg, s, v = line.split(",")
        by_segment.setdefault(seg, []).append(float(v))
    assert len(by_segment) == 3
    for vals in by_segment.values():
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)


def test_energy_profile_zero_samples(pants_file, tmp_path, capsys):
    z = write_coords(tmp_path, "z.json", {"e0": 1, "e1": 1, "e2": 1})
    assert run(["energy-profile", pants_file, "--z", z, "--samples", "0"]) == 0
    assert capsys.readouterr().out.strip() == "segment,s,V"


def test_energy_profile_solves_one_lp(pants_file, tmp_path, capsys, monkeypatch):
    # every segment starts at the same interior point, so its LP is solved once
    from hexmetric import polytope

    calls = []
    margin_lp = polytope._margin_lp

    def counting_lp(*args, **kwargs):
        calls.append(1)
        return margin_lp(*args, **kwargs)

    monkeypatch.setattr(polytope, "_margin_lp", counting_lp)
    z = write_coords(tmp_path, "z.json", {"e0": 1, "e1": 1, "e2": 1})
    assert run(["energy-profile", pants_file, "--z", z, "--samples", "3"]) == 0
    assert len(calls) == 1


def test_polytope_listing(pants_file, capsys):
    assert run(["polytope", pants_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["equalities"]) == 3
    assert len(doc["inequalities"]) == 3
    eq_support = {frozenset(e["edges"]) for e in doc["equalities"]}
    ineq_support = {frozenset(e["edges"]) for e in doc["inequalities"]}
    assert eq_support == ineq_support
    assert doc["truncated"] is False


def test_polytope_torus_single_equality(tmp_path, capsys):
    doc = {
        "hexagons": 2,
        "gluings": [
            {"a": [0, 1], "b": [1, 3], "reversed": True},
            {"a": [0, 3], "b": [1, 5], "reversed": True},
            {"a": [0, 5], "b": [1, 1], "reversed": True},
        ],
    }
    p = tmp_path / "torus.json"
    p.write_text(json.dumps(doc))
    assert run(["polytope", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["equalities"]) == 1
    assert len(out["equalities"][0]["edges"]) == 6


def test_polytope_truncation(pants_file, capsys):
    assert run(["polytope", pants_file, "--enumerate-limit", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truncated"] is True


def test_edge_keys_in_another_order_than_the_labels(tmp_path, capsys):
    path = tmp_path / "pants.json"
    path.write_text(json.dumps(dict(PANTS_DOC, labels=["c", "a", "b"])))
    z_val = {"b": 1.2, "a": 1.05, "c": 0.9}
    z = write_coords(tmp_path, "z.json", z_val)
    assert run(["solve", str(path), "--z", z]) == 0
    achieved = json.loads(capsys.readouterr().out)["achieved_z"]
    assert list(achieved) == ["c", "a", "b"]
    for k, v in z_val.items():
        assert achieved[k] == pytest.approx(v, abs=1e-10)


def test_integer_edge_keys_accepted(pants_file, tmp_path, capsys):
    z = write_coords(tmp_path, "z.json", {"0": 1, "1": 1, "2": 1})
    assert run(["feasible", pants_file, "--z", z]) == 0


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("forward", "--lengths", 1e308),  # FloatingPointError: 2x overflows in the cosine law
        ("solve", "--z", 800.0),  # hexgeom.DomainError: the gradient underflows to 0
        ("solve --max-iter 0", "--z", 1.0),  # ValueError from SolveConfig
    ],
)
def test_numeric_range_errors_exit_input(pants_file, tmp_path, capsys, command, key, value):
    values = write_coords(tmp_path, "v.json", {"e0": value, "e1": value, "e2": value})
    assert run([*command.split(), pants_file, key, values]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["feasible", "solve"])
@pytest.mark.parametrize("value", [8e307, 1.7e308])
def test_margin_lp_beyond_the_float_range_exits_input(pants_file, tmp_path, capsys, command, value):
    z = write_coords(tmp_path, "z.json", {"e0": value, "e1": value, "e2": value})
    assert run([command, pants_file, "--z", z]) == cli.EXIT_INPUT
    assert "margin LP" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["polytope", "{pants}", "--enumerate-limit", "-1"],
        ["energy-profile", "{pants}", "--z", "{z}", "--samples", "-2"],
    ],
    ids=["enumerate-limit", "samples"],
)
def test_negative_count_exits_input(pants_file, tmp_path, capsys, args):
    z = write_coords(tmp_path, "z.json", {"e0": 1, "e1": 1, "e2": 1})
    with pytest.raises(SystemExit) as exit_info:
        run([a.format(pants=pants_file, z=z) for a in args])
    assert exit_info.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative integer" in captured.err


def test_forward_with_long_seams_matches_mpmath(pants_file, tmp_path, capsys):
    # the symmetric pants with seams c has x = acosh(cosh c / (cosh c - 1))
    # on every arc, and z = x; at c = 800 that is about 4e-174
    import mpmath

    c = 800.0
    lengths = write_coords(tmp_path, "l.json", {"e0": c, "e1": c, "e2": c})
    assert run(["forward", pants_file, "--lengths", lengths]) == 0
    with mpmath.workdps(int(40 + c / math.log(10.0))):
        w = mpmath.cosh(c)
        exact = float(mpmath.acosh(w / (w - 1)))
    for v in json.loads(capsys.readouterr().out)["z"].values():
        assert v == pytest.approx(exact, rel=1e-12)


def test_forward_with_underflowing_seams_names_the_hexagon(pants_file, tmp_path, capsys):
    # seams of 2000 give x-arcs near e^-2000, below the least double
    lengths = write_coords(tmp_path, "l.json", {"e0": 2000.0, "e1": 2000.0, "e2": 2000.0})
    assert run(["forward", pants_file, "--lengths", lengths]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "hexagon 0: x-arcs underflow to 0 at edge lengths [2000.0, 2000.0, 2000.0]" in err


def test_solve_pants_at_z7_passes_the_audit(pants_file, tmp_path, capsys):
    # the walk reaches e^7 from its start; a renormalised walk's closure
    # drifted to 2e-8 there and failed this correct metric
    z = write_coords(tmp_path, "z.json", {"e0": 7.0, "e1": 7.0, "e2": 7.0})
    assert run(["solve", pants_file, "--z", z]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] and out["verification_failures"] == []


def _with_first_gluing(**update):
    gluings = [dict(PANTS_DOC["gluings"][0], **update), *PANTS_DOC["gluings"][1:]]
    return {"gluings": gluings}


@pytest.mark.parametrize(
    "doc_update, e1, message",
    [
        ({}, None, "'e1'"),
        ({}, {}, "'e1'"),
        ({}, True, "'e1': True is not a number"),
        ({}, "1.2", "'e1': '1.2' is not a number"),
        ({"gluings": 5}, 1.0, "'gluings'"),
        ({"labels": 5}, 1.0, "'labels'"),
        ({"labels": [1, 2, 3]}, 1.0, "'labels'"),
        ({"hexagons": "abc"}, 1.0, "'hexagons'"),
        ({"hexagons": 2.7}, 1.0, "'hexagons'"),
        ({"hexagons": True}, 1.0, "'hexagons'"),
        (_with_first_gluing(a=[0, "x"]), 1.0, "slot indices in gluing entry"),
        (_with_first_gluing(b=[1.5, 1]), 1.0, "slot indices in gluing entry"),
        (_with_first_gluing(reversed="false"), 1.0, "'reversed' in gluing entry"),
    ],
    ids=[
        "null-value",
        "object-value",
        "bool-value",
        "str-value",
        "gluings-not-list",
        "labels-not-list",
        "labels-not-str",
        "hexagons-str",
        "hexagons-fraction",
        "hexagons-bool",
        "slot-str",
        "slot-fraction",
        "reversed-str",
    ],
)
def test_malformed_input_exits_input(tmp_path, capsys, doc_update, e1, message):
    cx_file = write_coords(tmp_path, "cx.json", dict(PANTS_DOC, **doc_update))
    z_file = write_coords(tmp_path, "z.json", {"e0": 1.0, "e1": e1, "e2": 1.0})
    assert run(["feasible", cx_file, "--z", z_file]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _assert_solve_refused_by_audit(pants_file, tmp_path, capsys, value):
    z = write_coords(tmp_path, "z.json", {"e0": value, "e1": value, "e2": value})
    assert run(["solve", pants_file, "--z", z]) == cli.EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] and not doc["verified"]
    assert doc["verification_failures"]


def test_solve_pants_at_z20_passes_the_audit(pants_file, tmp_path, capsys):
    # x = 20, y ~ 9e-5: a correct metric, whose SL(2,R) closure residual
    # is 4e-12, far below the 1e-8 gate
    z = write_coords(tmp_path, "z.json", {"e0": 20.0, "e1": 20.0, "e2": 20.0})
    assert run(["solve", pants_file, "--z", z]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] and out["verification_failures"] == []


def test_solve_large_z_hessian_finite_exits_verify(pants_file, tmp_path, capsys):
    # at z = 50 and z = 400 the Hessian stays finite and the lengths come
    # from the gradient, so the solve converges and the audit, not the
    # input check, refuses it
    _assert_solve_refused_by_audit(pants_file, tmp_path, capsys, 50.0)
    _assert_solve_refused_by_audit(pants_file, tmp_path, capsys, 400.0)


def test_lp_failure_exits_no_convergence(pants_file, tmp_path, capsys, monkeypatch):
    from hexmetric import polytope

    def failing_lp(*args, **kwargs):
        raise polytope.LPError("HiGHS failed: simulated")

    monkeypatch.setattr(polytope, "_margin_lp", failing_lp)
    z = write_coords(tmp_path, "z.json", {"e0": 1, "e1": 1, "e2": 1})
    assert run(["feasible", pants_file, "--z", z]) == cli.EXIT_NO_CONVERGENCE
    assert "linear program failed" in capsys.readouterr().err


def test_feasible_lists_certificate_cycle(pants_file, tmp_path, capsys):
    good = write_coords(tmp_path, "good.json", {"e0": 1, "e1": 1, "e2": 1})
    assert run(["feasible", pants_file, "--z", good]) == 0
    assert "certificate_cycle" not in json.loads(capsys.readouterr().out)
    bad = write_coords(tmp_path, "bad.json", {"e0": -3, "e1": 1, "e2": 1})
    assert run(["feasible", pants_file, "--z", bad]) == cli.EXIT_INFEASIBLE
    doc = json.loads(capsys.readouterr().out)
    # a least-mean cycle crosses e0 and one other edge: mean (-3 + 1) / 2
    cycle = doc["certificate_cycle"]
    assert len(cycle) == 2 and "e0" in cycle
    assert doc["lp_min"] == -1.0
    assert doc["certificate"] == {e: cycle.count(e) / 2 for e in ("e0", "e1", "e2")}
