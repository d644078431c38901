"""Command-line interface: formats, exit codes, round trips."""

import json
import math

import numpy as np
import pytest

from hexmetric import cli

ACOSH2 = math.acosh(2.0)

PANTS_DOC = {
    "hexagons": 2,
    "gluings": [
        {"a": [0, 1], "b": [1, 1], "reversed": False},
        {"a": [0, 3], "b": [1, 3], "reversed": False},
        {"a": [0, 5], "b": [1, 5], "reversed": False},
    ],
}


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


def test_solve_infeasible_exit(pants_file, tmp_path):
    z = write_coords(tmp_path, "z.json", {"e0": -3, "e1": 1, "e2": 1})
    assert run(["solve", pants_file, "--z", z]) == cli.EXIT_INFEASIBLE


def test_solve_non_convergence_exit(pants_file, tmp_path):
    z = write_coords(tmp_path, "z.json", {"e0": 0.3, "e1": 1.7, "e2": 0.9})
    assert run(["solve", pants_file, "--z", z, "--max-iter", "1", "--tol", "1e-14"]) == cli.EXIT_NO_CONVERGENCE


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


def test_integer_edge_keys_accepted(pants_file, tmp_path, capsys):
    z = write_coords(tmp_path, "z.json", {"0": 1, "1": 1, "2": 1})
    assert run(["feasible", pants_file, "--z", z]) == 0


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("forward", "--lengths", 800.0),  # OverflowError in the cosine law
        ("solve", "--z", 400.0),  # hexgeom.DomainError in the energy
        ("solve", "--z", 50.0),  # ZeroDivisionError in the Hessian
    ],
)
def test_numeric_range_errors_exit_input(pants_file, tmp_path, capsys, command, key, value):
    values = write_coords(tmp_path, "v.json", {"e0": value, "e1": value, "e2": value})
    assert run([command, pants_file, key, values]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_lp_failure_exits_no_convergence(pants_file, tmp_path, capsys, monkeypatch):
    from hexmetric import polytope

    def failing_lp(*args, **kwargs):
        raise polytope.LPError("HiGHS failed: simulated")

    monkeypatch.setattr(polytope, "_margin_lp", failing_lp)
    z = write_coords(tmp_path, "z.json", {"e0": 1, "e1": 1, "e2": 1})
    assert run(["feasible", pants_file, "--z", z]) == cli.EXIT_NO_CONVERGENCE
    assert "linear program failed" in capsys.readouterr().err
