import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import random_snarl
from oscint import cli, quadrature, schemas
from oscint.cli import _run_resolve, _run_sweep, main
from oscint.linalg import Subspace, frac_str
from oscint.records import TOOL_VERSION, canonical_json
from oscint.snarl import snarl_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RECORDS = FIXTURES / "records"


@pytest.fixture
def runner():
    return CliRunner()


def read_json(path):
    return json.loads(Path(path).read_text())


def all_output(res):
    try:
        return res.output + res.stderr
    except ValueError:
        return res.output


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2))


# --- resolve ---------------------------------------------------------------

def test_resolve_worked_example(runner, tmp_path):
    res = runner.invoke(main, ["resolve", str(FIXTURES / "cltt-example.json"),
                               "--seed", "5", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["steps"] == 3
    assert summary["terminal_entries"] == 6
    assert summary["verified"] is True
    assert (tmp_path / "resolution.json").exists()
    records = list(tmp_path.glob("record-*.json"))
    assert len(records) == 1
    rec = read_json(records[0])
    assert rec["command"] == "resolve"
    assert rec["run_id"]


def test_resolve_already_one_dimensional(runner, tmp_path):
    snarl = {"m": 2, "subspaces": [
        {"label": "a", "basis": [["1", "0"]]},
        {"label": "b", "basis": [["0", "1"]]},
        {"label": "c", "basis": [["1", "1"]]}]}
    path = tmp_path / "onedim.json"
    write_json(path, snarl)
    res = runner.invoke(main, ["resolve", str(path)])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["steps"] == 0
    assert summary["terminal_general_position"] is True


def test_resolve_hypothesis_failure_exit_2(runner, tmp_path):
    # m=4 with codims (2,2,2,1): 2 + 7 > 8
    snarl = read_json(FIXTURES / "cltt-example.json")
    snarl["subspaces"].append({"label": "extra", "basis": [
        ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]})
    path = tmp_path / "bad.json"
    write_json(path, snarl)
    res = runner.invoke(main, ["resolve", str(path)])
    assert res.exit_code == 2, res.output


def test_resolve_malformed_exit_1(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert runner.invoke(main, ["resolve", str(path)]).exit_code == 1
    path2 = tmp_path / "bad-schema.json"
    write_json(path2, {"m": 4})
    assert runner.invoke(main, ["resolve", str(path2)]).exit_code == 1


def test_resolve_unpartitionable_exit_1(runner, tmp_path):
    # meets the weak hypothesis, but no second label is left to partition
    path = tmp_path / "lonely.json"
    write_json(path, {"m": 3, "subspaces": [{"label": "a", "basis": [[1, 0, 0]]}]})
    res = runner.invoke(main, ["resolve", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1, res.output
    assert "Traceback" not in all_output(res)
    assert "at least 2 labels" in all_output(res)


def test_resolve_deterministic_output(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = runner.invoke(main, ["resolve", str(FIXTURES / "cltt-example.json"),
                                   "--seed", "9", "--out", str(out)])
        assert res.exit_code == 0
    assert (a / "resolution.json").read_text() == (b / "resolution.json").read_text()


def test_resolve_outputs_pinned_on_seeded_snarls():
    # the canonical resolve output (resolution and verification) of 40
    # seeded snarls with m = 3..6, which no committed record covers
    digest = hashlib.sha256()
    for k in range(40):
        snarl = snarl_to_json(random_snarl(3000 + k, m_range=(3, 6)))
        output, _ = _run_resolve({"snarl": snarl, "seed": k})
        digest.update(canonical_json(output).encode())
    assert digest.hexdigest() == (
        "28b0cc4a8af61cdc202e6164e723bde1c9b11556433396003b656547ad391bce")


RATIONAL_SHAPES = [(3, (2, 1, 1)), (4, (2, 2, 1)), (4, (3, 1, 1)), (5, (2, 2, 2)),
                   (5, (4, 1, 1)), (5, (1, 1, 1, 3)), (6, (3, 3, 2, 1))]


def _rational_snarl_json(seed: int) -> dict:
    """A generic snarl whose JSON bases are random rationals p/q, q <= 100,
    in no echelon form: the denominators are cleared on entry and the
    reduced rows come back as p/q on the way out."""
    rng = random.Random(seed)
    m, kappas = RATIONAL_SHAPES[seed % len(RATIONAL_SHAPES)]
    subspaces = []
    for j, kappa in enumerate(kappas):
        while True:
            basis = [[Fraction(rng.randint(-9, 9), rng.randint(1, 100)) for _ in range(m)]
                     for _ in range(m - kappa)]
            if Subspace(m, basis).dim == m - kappa:
                break
        subspaces.append({"label": f"v{j}",
                          "basis": [[frac_str(x) for x in v] for v in basis]})
    return {"m": m, "subspaces": subspaces}


def test_resolve_outputs_pinned_on_rational_bases():
    # the canonical resolve output of 10 snarls given by non-integer bases
    digest = hashlib.sha256()
    for k in range(10):
        snarl = _rational_snarl_json(700 + k)
        assert any("/" in x for e in snarl["subspaces"] for v in e["basis"] for x in v)
        output, _ = _run_resolve({"snarl": snarl, "seed": k})
        assert output["verification"]["passed"]
        digest.update(canonical_json(output).encode())
    assert digest.hexdigest() == (
        "dad3dfd0cd6fd919a49217a2b3b784fd43c28ebd74c6a6c67dcabc2f0c6bf299")


# --- degeneracy ------------------------------------------------------------

def test_degeneracy_nondegenerate_phase(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["degeneracy", str(FIXTURES / "antisym-phase.json"),
                               str(FIXTURES / "cltt-maps.json"),
                               "--degree", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["is_degenerate"] is False
    assert summary["quotient_norm"] > 0.1
    report = read_json(out)
    assert report["certificate"] is None
    assert (tmp_path / "report.record.json").exists()


def test_degeneracy_degenerate_phase(runner):
    res = runner.invoke(main, ["degeneracy", str(FIXTURES / "pullback-phase.json"),
                               str(FIXTURES / "cltt-maps.json"), "--degree", "2"])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["is_degenerate"] is True
    assert summary["quotient_norm"] == 0.0


def test_degeneracy_dimension_mismatch_exit_1(runner, tmp_path):
    poly = tmp_path / "p.json"
    write_json(poly, {"vars": 3, "terms": [{"exps": [1, 1, 1], "coeff": "1"}]})
    res = runner.invoke(main, ["degeneracy", str(poly),
                               str(FIXTURES / "cltt-maps.json")])
    assert res.exit_code == 1


# --- sweep -----------------------------------------------------------------

def test_sweep_demo(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", str(FIXTURES / "demo-sweep.json"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["rows"] == 5
    assert summary["fit"]["rho"] > 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,re,im,abs,nodes"
    assert len(lines) == 6
    assert (tmp_path / "sweep.json").exists()
    assert (tmp_path / "sweep.record.json").exists()


def test_sweep_demo_rows_pinned():
    # one axis group (P = x1*x2 couples both axes): the rows must keep the
    # exact values of a plain full-grid sum, bit for bit
    _, result = _run_sweep({"runspec": read_json(FIXTURES / "demo-sweep.json"),
                            "adversarial": False})
    assert [repr((r.value, r.abs, r.nodes)) for r in result.rows] == [
        "((-0.007206642187797913+0.0060762017738290605j), 0.009426341794101893, 128)",
        "((-0.00047305177363387007-0.00039410211549178445j), 0.0006157064706280502, 128)",
        "((7.377581119807743e-06-1.0186023166851984e-05j), 1.2577112988877415e-05, 256)",
        "((1.8656259881162474e-08+6.427140005541771e-08j), 6.692435205391996e-08, 1024)",
        "((3.822113203173441e-12-3.6992929992877204e-11j), 3.7189856396546984e-11, 2048)",
    ]


def test_sweep_warns_when_domain_box_cuts_the_amplitude(runner, tmp_path):
    # a bump on [0, 1] integrated over [0, 1/2]: the cut at 1/2 adds boundary
    # terms that a fit reads as decay.  The run itself is unchanged.
    spec = {"phase": {"vars": 1, "terms": [{"exps": [2], "coeff": "1"}]},
            "maps": [{"label": "pi1", "rows": [["1"]]}],
            "bumps": [{"box": [["0", "1"]]}],
            "lambdas": [16, 64, 256, 1024],
            "quad": {"nodes_per_axis": 16, "domain_box": [["0", "1/2"]],
                     "refine_tol": 1e-4}}
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "cut.csv")])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [
        "warning: domain_box cuts the amplitude off on x1; its boundary terms "
        "distort the fitted decay"]
    assert json.loads(res.stdout)["rows"] == 4
    assert read_json(tmp_path / "cut.json")["rows"] == _run_sweep(
        {"runspec": spec, "adversarial": False})[0]["rows"]


@pytest.mark.parametrize("fixture, box, adversarial", [
    ("demo-sweep.json", None, False),
    ("adversarial-sweep.json", None, True),
    ("demo-sweep.json", [["-1/4", "9/8"], ["-1/4", "9/8"]], False),
])
def test_sweep_does_not_warn_inside_domain_box(runner, tmp_path, fixture, box, adversarial):
    spec = read_json(FIXTURES / fixture)
    if box is not None:
        spec["quad"]["domain_box"] = box
        # the lambda = 4096 row sits at the float noise floor on the wider box
        spec["lambdas"] = spec["lambdas"][:-1]
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")]
                        + ["--adversarial"] * adversarial)
    assert res.exit_code == 0, res.output
    assert res.stderr == ""


@pytest.mark.parametrize("row", [["1", "0", "5"], ["1"], ["0", "0", "1"]])
def test_sweep_map_column_count_mismatch_exit_1(runner, tmp_path, row):
    spec = read_json(FIXTURES / "demo-sweep.json")
    spec["maps"][0]["rows"] = [row]
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1
    assert f"map has {len(row)} columns" in all_output(res)
    assert not (tmp_path / "x.csv").exists()


def _one_axis_spec(spec):
    """demo-sweep cut to P = x on [0,1] with one bump, 1-d."""
    spec["phase"] = {"vars": 1, "terms": [{"exps": [1], "coeff": "1"}]}
    spec["maps"], spec["bumps"] = [{"rows": [["1"]]}], [{"box": [["0", "1"]]}]
    spec["quad"]["domain_box"] = [["0", "1"]]
    del spec["quad"]["max_nodes_per_axis"]


@pytest.mark.parametrize("edit, message", [
    (lambda s: s["quad"].update(nodes_per_axis=64, max_nodes_per_axis=32), "node cap 32"),
    (lambda s: (_one_axis_spec(s), s["quad"].update(nodes_per_axis=8192)), "node cap 4096"),
    (lambda s: s["quad"].update(refine_tol=0), "refine_tol"),
    (lambda s: s["quad"].update(refine_tol=-1e-4), "refine_tol"),
    (lambda s: s["quad"].update(refine_tol=float("nan")), "refine_tol"),
    (lambda s: s["maps"][0].update(rows=[["1", "0"], ["0", "1"]]), "bump box dimension"),
    (lambda s: s["quad"]["domain_box"].__setitem__(0, ["1", "0"]), "empty box axis"),
    (lambda s: s["quad"]["domain_box"].__setitem__(0, ["1/2", "1/2"]), "empty box axis"),
    (lambda s: s["lambdas"].__setitem__(0, float("nan")), "lambdas must be finite"),
    (lambda s: s.update(tail_from=float("nan")), "tail_from must be finite"),
    (lambda s: s["lambdas"].__setitem__(-1, 10**400), "lambdas is too large for a float"),
    (lambda s: s["quad"]["domain_box"].__setitem__(0, ["1e400", "2e400"]),
     "box bound is too large for a float"),
    (lambda s: s.update(tail_from=10**400), "tail_from is too large for a float"),
    (lambda s: (s.pop("tail_from"), s["lambdas"].__setitem__(0, 10**400)),
     "lambdas is too large for a float"),
    (lambda s: s["quad"]["domain_box"][0].__setitem__(0, "0/0"), "schema violation"),
    (lambda s: s["quad"]["domain_box"].pop(), "phase variable count != domain dimension"),
], ids=["start-above-cap", "start-above-default-cap", "tol-zero", "tol-negative",
        "tol-nan", "bump-box-short", "box-reversed", "box-empty", "lambda-nan",
        "tail-from-nan", "lambda-overflow", "box-overflow", "tail-from-overflow",
        "first-lambda-overflow-no-tail-from", "box-zero-denominator", "box-one-axis"])
def test_sweep_bad_quad_exit_1(runner, tmp_path, edit, message):
    spec = read_json(FIXTURES / "demo-sweep.json")
    edit(spec)
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert message in all_output(res)
    assert not (tmp_path / "x.csv").exists()


def test_sweep_checks_tail_from_before_quadrature(runner, tmp_path, monkeypatch):
    refine = quadrature._refine
    refined = []
    monkeypatch.setattr(quadrature, "_refine",
                        lambda *args: refined.append(args) or refine(*args))
    spec = read_json(FIXTURES / "demo-sweep.json")
    spec["tail_from"] = float("nan")
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1, res.output
    assert "tail_from must be finite" in all_output(res)
    assert not refined


BIG = "1" + "0" * 400  # passes the rational-string schema, overflows a float


@pytest.mark.parametrize("adversarial", [False, True])
@pytest.mark.parametrize("edit, message", [
    (lambda s: s["phase"]["terms"][0].update(coeff=BIG),
     "phase coefficient is too large for a float"),
    (lambda s: s["maps"][0]["rows"][0].__setitem__(0, BIG),
     "map entry is too large for a float"),
], ids=["phase-coeff-overflow", "map-entry-overflow"])
def test_sweep_oversized_number_exit_1_before_any_work(runner, tmp_path, monkeypatch,
                                                       edit, message, adversarial):
    monkeypatch.setattr(cli, "is_degenerate", lambda *args, **kw: pytest.fail("exact work"))
    monkeypatch.setattr(quadrature, "_refine", lambda *args: pytest.fail("quadrature"))
    spec = read_json(FIXTURES / "demo-sweep.json")
    edit(spec)
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")]
                        + ["--adversarial"] * adversarial)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.stderr == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("poly_edit, maps_edit, message", [
    (lambda p: p["terms"][0].update(coeff=BIG), lambda m: None,
     "phase coefficient is too large for a float"),
    (lambda p: None, lambda m: m["maps"][0]["rows"][0].__setitem__(0, BIG),
     "matrix entry is too large for a float"),
], ids=["phase-coeff-overflow", "map-entry-overflow"])
def test_degeneracy_oversized_number_exit_1(runner, tmp_path, poly_edit, maps_edit, message):
    poly, maps = read_json(FIXTURES / "antisym-phase.json"), read_json(FIXTURES / "cltt-maps.json")
    poly_edit(poly)
    maps_edit(maps)
    write_json(tmp_path / "p.json", poly)
    write_json(tmp_path / "m.json", maps)
    res = runner.invoke(main, ["degeneracy", str(tmp_path / "p.json"), str(tmp_path / "m.json")])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.stderr == f"error: {message}\n"


def _zero_denominator_resolve(tmp_path):
    snarl = read_json(FIXTURES / "cltt-example.json")
    snarl["subspaces"][0]["basis"][0][0] = "1/0"
    write_json(tmp_path / "s.json", snarl)
    return ["resolve", str(tmp_path / "s.json")], tmp_path / "s.json"


def _zero_denominator_degeneracy(tmp_path):
    poly = read_json(FIXTURES / "antisym-phase.json")
    poly["terms"][0]["coeff"] = "3/0"
    write_json(tmp_path / "p.json", poly)
    args = ["degeneracy", str(tmp_path / "p.json"), str(FIXTURES / "cltt-maps.json")]
    return args, tmp_path / "p.json"


@pytest.mark.parametrize("make", [_zero_denominator_resolve, _zero_denominator_degeneracy],
                         ids=["resolve", "degeneracy"])
def test_zero_denominator_is_a_schema_violation(runner, tmp_path, make):
    # sweep and replay carry the same case in their own exit-1 tests
    args, where = make(tmp_path)
    res = runner.invoke(main, args)
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.exit_code == 1, all_output(res)
    assert res.stderr.startswith(f"error: {where}: schema violation")


def _zero_denominator_sweep(tmp_path):
    spec = read_json(FIXTURES / "demo-sweep.json")
    spec["quad"]["domain_box"][0][0] = "0/0"
    write_json(tmp_path / "s.json", spec)
    args = ["sweep", str(tmp_path / "s.json"), "--out", str(tmp_path / "x.csv")]
    return args, tmp_path / "s.json"


def _zero_denominator_replay(tmp_path):
    rec = read_json(RECORDS / "cltt-example-seed0.record.json")
    rec["input"]["snarl"]["subspaces"][0]["basis"][0][0] = "1/0"
    write_json(tmp_path / "r.json", rec)
    return ["replay", str(tmp_path / "r.json")], f"{tmp_path / 'r.json'}: input.snarl"


@pytest.mark.parametrize("make, at", [
    (_zero_denominator_resolve, "$.subspaces[0].basis[0][0]"),
    (_zero_denominator_degeneracy, "$.terms[0].coeff"),
    (_zero_denominator_sweep, "$.quad.domain_box[0][0]"),
    (_zero_denominator_replay, "$.subspaces[0].basis[0][0]"),
], ids=["resolve", "degeneracy", "sweep", "replay"])
def test_schema_violation_is_one_line(runner, tmp_path, make, at):
    args, where = make(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 1, all_output(res)
    assert res.stderr.startswith(f"error: {where}: schema violation: ")
    assert res.stderr.endswith(f" at {at}\n")
    assert res.stderr.count("\n") == 1, res.stderr


@pytest.mark.parametrize("bound", ["1e-3", "-2.5E2", ".5", "1.", 0.25, -1, "-3/4"])
def test_sweep_domain_box_bound_forms_pass_the_schema(bound):
    spec = read_json(FIXTURES / "demo-sweep.json")
    spec["quad"]["domain_box"][0][0] = bound
    schemas.validate(spec, schemas.RUNSPEC_SCHEMA)


def test_sweep_adversarial_flat(runner, tmp_path):
    out = tmp_path / "adv.csv"
    res = runner.invoke(main, ["sweep", str(FIXTURES / "adversarial-sweep.json"),
                               "--out", str(out), "--adversarial"])
    assert res.exit_code == 0, res.output
    rows = read_json(tmp_path / "adv.json")["rows"]
    mags = [r["abs"] for r in rows]
    assert max(mags) - min(mags) < 1e-9


def test_sweep_adversarial_requires_degenerate(runner, tmp_path):
    spec = read_json(FIXTURES / "demo-sweep.json")
    spec["phase"] = {"vars": 2, "terms": [{"exps": [1, 1], "coeff": "1"}]}
    spec["maps"] = [{"rows": [["1", "0"]]}, {"rows": [["0", "1"]]}]
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out",
                               str(tmp_path / "x.csv"), "--adversarial"])
    assert res.exit_code == 1


def test_sweep_missing_lambdas_exit_1(runner, tmp_path):
    spec = read_json(FIXTURES / "demo-sweep.json")
    del spec["lambdas"]
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1


def test_sweep_node_cap_exit_3_and_allow_flag(runner, tmp_path):
    spec = read_json(FIXTURES / "demo-sweep.json")
    spec["quad"]["refine_tol"] = 1e-16
    spec["quad"]["max_nodes_per_axis"] = 128
    path = tmp_path / "spec.json"
    write_json(path, spec)
    res = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 3, res.output
    res2 = runner.invoke(main, ["sweep", str(path), "--out", str(tmp_path / "y.csv"),
                                "--allow-unconverged"])
    assert res2.exit_code == 0, res2.output


# --- --out paths -------------------------------------------------------------

SWEEP_ARGS = ["sweep", str(FIXTURES / "demo-sweep.json")]
DEGENERACY_ARGS = ["degeneracy", str(FIXTURES / "antisym-phase.json"),
                   str(FIXTURES / "cltt-maps.json")]


@pytest.mark.parametrize("args, out, written", [
    (SWEEP_ARGS, "missing/dir/x.csv", ["x.csv", "x.json", "x.record.json"]),
    (DEGENERACY_ARGS, "missing/d.json", ["d.json", "d.record.json"]),
], ids=["sweep", "degeneracy"])
def test_out_creates_missing_directories(runner, tmp_path, args, out, written):
    res = runner.invoke(main, args + ["--out", str(tmp_path / out)])
    assert res.exit_code == 0, all_output(res)
    assert sorted(p.name for p in (tmp_path / out).parent.iterdir()) == written


@pytest.mark.parametrize("args, out", [
    (["resolve", str(FIXTURES / "cltt-example.json")], "file/out"),
    (SWEEP_ARGS, "file/x.csv"),
    (DEGENERACY_ARGS, "file/d.json"),
], ids=["resolve", "sweep", "degeneracy"])
def test_out_under_a_regular_file_exit_1(runner, tmp_path, args, out):
    (tmp_path / "file").write_text("")
    res = runner.invoke(main, args + ["--out", str(tmp_path / out)])
    assert res.exit_code == 1, all_output(res)
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


@pytest.mark.parametrize("name, adversarial", [("res.json", False), ("x.record.json", True)])
def test_sweep_out_ending_in_json_exit_1_before_any_work(runner, tmp_path, monkeypatch,
                                                         name, adversarial):
    # the JSON output would be written to the CSV's own path
    monkeypatch.setattr(cli, "is_degenerate", lambda *args, **kw: pytest.fail("exact work"))
    monkeypatch.setattr(quadrature, "_refine", lambda *args: pytest.fail("quadrature"))
    spec = "adversarial-sweep.json" if adversarial else "demo-sweep.json"
    res = runner.invoke(main, ["sweep", str(FIXTURES / spec), "--out", str(tmp_path / name)]
                        + ["--adversarial"] * adversarial)
    assert res.exit_code == 1, all_output(res)
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert not any(tmp_path.iterdir())


# --- replay ----------------------------------------------------------------

def _make_resolve_record(runner, tmp_path):
    out = tmp_path / "res"
    res = runner.invoke(main, ["resolve", str(FIXTURES / "cltt-example.json"),
                               "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0
    return next(out.glob("record-*.json"))


def test_replay_resolve_ok(runner, tmp_path):
    rec = _make_resolve_record(runner, tmp_path)
    res = runner.invoke(main, ["replay", str(rec)])
    assert res.exit_code == 0, res.output
    assert "replay ok" in res.output


def test_replay_sweep_ok(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", str(FIXTURES / "demo-sweep.json"),
                               "--out", str(out)])
    assert res.exit_code == 0
    res2 = runner.invoke(main, ["replay", str(tmp_path / "sweep.record.json")])
    assert res2.exit_code == 0, res2.output
    assert "replay ok" in res2.output


@pytest.mark.parametrize("name", ["demo-sweep", "adversarial-sweep"])
def test_replay_committed_sweep_records_ok(runner, name):
    # records written by an earlier version of the quadrature code
    res = runner.invoke(main, ["replay", str(RECORDS / f"{name}.record.json")])
    assert res.exit_code == 0, res.output
    assert "replay ok" in res.output


@pytest.mark.parametrize("name", ["cltt-example-seed0", "cltt-example-seed3",
                                  "antisym-phase-degree2", "pullback-phase-degree2",
                                  "antisym-phase-degree3", "pullback-phase-degree3"])
def test_replay_committed_exact_records_ok(runner, name):
    # exact outputs written by an earlier version; replay compares them
    # byte for byte, so this pins every splitting draw and certificate
    path = RECORDS / f"{name}.record.json"
    assert read_json(path)["command"] in ("resolve", "degeneracy")
    res = runner.invoke(main, ["replay", str(path)])
    assert res.exit_code == 0, res.output
    assert "replay ok" in res.output


def _replay_mismatch(runner, tmp_path, rec) -> str:
    tampered = tmp_path / "tampered.json"
    write_json(tampered, rec)
    res = runner.invoke(main, ["replay", str(tampered)])
    assert res.exit_code == 4, res.output
    return res.output


def test_replay_tampered_exit_4(runner, tmp_path):
    rec = read_json(_make_resolve_record(runner, tmp_path))
    rec["output"]["resolution"]["terminal_general_position"] = \
        not rec["output"]["resolution"]["terminal_general_position"]
    _replay_mismatch(runner, tmp_path, rec)

    rec = read_json(RECORDS / "adversarial-sweep.record.json")
    rec["output"]["rows"][2]["nodes"] = 128
    assert "row 2: nodes" in _replay_mismatch(runner, tmp_path, rec)

    rec = read_json(RECORDS / "adversarial-sweep.record.json")
    rec["output"]["fit"]["rho"] += 1e-6
    assert "fit.rho" in _replay_mismatch(runner, tmp_path, rec)


def test_replay_sweep_mismatches_exit_4(runner, tmp_path):
    def dropped_row(out):
        del out["rows"][-1]

    def error_flag(out):
        out["rows"][0]["error"] = "node_cap_exceeded"

    def abs_moved(out):
        out["rows"][1]["abs"] *= 1 + 1e-6  # the record's tolerance is 1e-9

    def fit_null(out):
        out["fit"] = None

    for tamper, named in ((dropped_row, "row count 4 != 5"),
                          (error_flag, "row 0: error flag"),
                          (abs_moved, "row 1: |I|"),
                          (fit_null, "fit None != ")):
        rec = read_json(RECORDS / "adversarial-sweep.record.json")
        tamper(rec["output"])
        assert named in _replay_mismatch(runner, tmp_path, rec), tamper.__name__


@pytest.mark.parametrize("edit, named", [
    (lambda out: out["rows"][1].update({"abs": float("nan")}), "row 1: |I| nan vs "),
    (lambda out: out["rows"][1].update({"abs": float("inf")}), "row 1: |I| inf vs "),
    (lambda out: out["fit"].update(rho=float("nan")), "fit.rho nan vs "),
    (lambda out: out["rows"][1].update({"lambda": 99.0}), "row 1: lambda 99.0 != "),
], ids=["abs-nan", "abs-inf", "rho-nan", "lambda-moved"])
def test_replay_non_finite_or_moved_value_exit_4(runner, tmp_path, edit, named):
    # a NaN or infinite recorded value agrees only with the same value, and
    # each row's lambda must come back exactly
    rec = read_json(RECORDS / "adversarial-sweep.record.json")
    edit(rec["output"])
    assert named in _replay_mismatch(runner, tmp_path, rec)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_replay_non_finite_tolerance_exit_1(runner, tmp_path, tolerance):
    # the schema's minimum: 0 lets NaN and infinity through, and either
    # would accept any |I|
    rec = read_json(RECORDS / "adversarial-sweep.record.json")
    rec["tolerance"] = tolerance
    rec["output"]["rows"][1]["abs"] *= 3
    rec["output"]["fit"]["rho"] += 1
    path = tmp_path / "tolerance.json"
    write_json(path, rec)
    res = runner.invoke(main, ["replay", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1, res.output
    assert res.stderr == f"error: {path}: tolerance {tolerance} is not finite\n"


def test_compare_sweeps_same_non_finite_values_agree():
    nan, inf = float("nan"), float("inf")
    out = {"rows": [{"lambda": 1.0, "re": nan, "im": nan, "abs": nan, "nodes": 16, "error": None},
                    {"lambda": 2.0, "re": inf, "im": 0.0, "abs": inf, "nodes": 16, "error": None}],
           "fit": {"rho": nan, "logC": inf, "r2": nan}}
    assert cli._compare_sweeps(out, json.loads(json.dumps(out)), 1e-9) == []
    moved = json.loads(json.dumps(out))
    moved["rows"][0]["abs"] = moved["fit"]["logC"] = 1.0
    assert cli._compare_sweeps(out, moved, 1e-9) == [
        "row 0: |I| nan vs 1.0 (rel tol 1e-09)", "fit.logC inf vs 1.0 (tol 1e-09)"]


def test_replay_invalid_recorded_snarl_exit_1(runner, tmp_path):
    # inputs that pass the schema but are not valid snarls: exit 1 as
    # `oscint resolve` does on the same snarl
    cut, wide = (read_json(RECORDS / "cltt-example-seed0.record.json") for _ in range(2))
    del cut["input"]["snarl"]["subspaces"][0]["basis"][1][-1]
    wide["input"]["snarl"]["m"] = 5
    for name, rec in (("cut", cut), ("wide", wide)):
        path = tmp_path / f"{name}.json"
        write_json(path, rec)
        res = runner.invoke(main, ["replay", str(path)])
        assert isinstance(res.exception, SystemExit), (name, res.exception)
        assert res.exit_code == 1, (name, res.output)
        assert "Traceback" not in all_output(res), name


def test_replay_genericity_failure_exit_4(runner, tmp_path):
    # the extra codimension-3 entry breaks the weak hypothesis on rerun
    rec = read_json(RECORDS / "cltt-example-seed0.record.json")
    rec["input"]["snarl"]["subspaces"].append({"label": "extra", "basis": [["1", "1", "1", "1"]]})
    path = tmp_path / "broken-hypothesis.json"
    write_json(path, rec)
    res = runner.invoke(main, ["replay", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 4, res.output
    assert "replay execution failed: hypothesis violated" in all_output(res)


def test_replay_version_mismatch_warns(runner, tmp_path):
    rec_path = _make_resolve_record(runner, tmp_path)
    rec = read_json(rec_path)
    rec["tool_version"] = "0.0.1"
    stale = tmp_path / "stale.json"
    write_json(stale, rec)
    res = runner.invoke(main, ["replay", str(stale)])
    assert res.exit_code == 0, res.output
    text = all_output(res)
    assert "warning" in text
    assert TOOL_VERSION in text


def test_replay_unknown_command_exit_1(runner, tmp_path):
    rec_path = _make_resolve_record(runner, tmp_path)
    rec = read_json(rec_path)
    rec["command"] = "mystery"
    bad = tmp_path / "bad.json"
    write_json(bad, rec)
    res = runner.invoke(main, ["replay", str(bad)])
    assert res.exit_code == 1


def test_replay_malformed_recorded_input_exit_1(runner, tmp_path):
    # a recorded input is checked with the command's own schemas: each of
    # these exits 1 (malformed input), not 4 and not with a traceback
    cases = [read_json(RECORDS / f"{name}.record.json") for name in
             ("cltt-example-seed0", "cltt-example-seed3",
              "antisym-phase-degree2", "demo-sweep", "cltt-example-seed0")]
    cases[0]["input"]["snarl"]["subspaces"] = "xy"
    cases[1]["input"]["snarl"]["subspaces"][0]["basis"][0][0] = "x"
    del cases[2]["input"]["maps"]["maps"][0]["rows"]
    del cases[3]["input"]["runspec"]["lambdas"]
    cases[4]["input"]["seed"] = "0"
    for i, rec in enumerate(cases):
        path = tmp_path / f"malformed-{i}.json"
        write_json(path, rec)
        res = runner.invoke(main, ["replay", str(path)])
        # CliRunner reports an uncaught exception as exit 1 too
        assert isinstance(res.exception, SystemExit), (i, res.exception)
        assert res.exit_code == 1, (i, res.output)
        assert "schema violation" in all_output(res), i


@pytest.mark.parametrize("edit, where", [
    (lambda r: r["input"].update(seed=True), "input.seed"),
    (lambda r: r["input"]["snarl"]["subspaces"][0].update(label=5), "input.snarl"),
    (lambda r: r["input"]["snarl"]["subspaces"][0]["basis"][0].__setitem__(0, "1/0"),
     "input.snarl"),
], ids=["bool-seed", "integer-label", "zero-denominator"])
def test_replay_recorded_input_schema_edge_values_exit_1(runner, tmp_path, edit, where):
    # jsonschema rejects a bool for "integer" and an integer for "string"
    rec = read_json(RECORDS / "cltt-example-seed0.record.json")
    edit(rec)
    path = tmp_path / "edited.json"
    write_json(path, rec)
    res = runner.invoke(main, ["replay", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1, res.output
    assert f"{where}: schema violation" in res.stderr


@pytest.mark.parametrize("edit, at", [
    (lambda r: r.update(output={}), "$"),
    (lambda r: r.update(output=[1]), "$"),
    (lambda r: r["output"].update(rows=5), "$.rows"),
    (lambda r: r["output"]["rows"][0].pop("nodes"), "$.rows[0]"),
    (lambda r: r["output"]["rows"][0].update({"abs": "0.5"}), "$.rows[0].abs"),
    (lambda r: r["output"]["fit"].pop("rho"), "$.fit"),
], ids=["empty", "list", "rows-int", "row-without-nodes", "abs-string", "fit-without-rho"])
def test_replay_malformed_sweep_output_exit_1(runner, tmp_path, edit, at):
    # the recorded output is checked against SWEEP_SCHEMA before it is compared
    rec = read_json(RECORDS / "demo-sweep.record.json")
    edit(rec)
    path = tmp_path / "edited.json"
    write_json(path, rec)
    res = runner.invoke(main, ["replay", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1, res.output
    assert res.stderr.startswith(f"error: {path}: output: schema violation: ")
    assert res.stderr.endswith(f" at {at}\n")
    assert res.stderr.count("\n") == 1, res.stderr


def test_valid_runs_never_import_jsonschema(tmp_path):
    # jsonschema only explains a rejection: a valid input of each command,
    # and the replay of the records they write, never import it
    runs = [["resolve", str(FIXTURES / "cltt-example.json"), "--out", str(tmp_path)],
            ["degeneracy", str(FIXTURES / "antisym-phase.json"), str(FIXTURES / "cltt-maps.json"),
             "--out", str(tmp_path / "report.json")],
            ["sweep", str(FIXTURES / "adversarial-sweep.json"), "--adversarial",
             "--out", str(tmp_path / "sweep.csv")],
            ["replay", str(tmp_path / "report.record.json")],
            ["replay", str(tmp_path / "sweep.record.json")]]
    script = ("import sys\nfrom oscint.cli import main\n"
              f"for args in {runs!r}:\n"
              "    main(args, standalone_mode=False)\n"
              "    assert 'jsonschema' not in sys.modules, args\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"run_id"') == 3
    assert proc.stdout.count("replay ok") == 2


# --- output schemas ----------------------------------------------------------

OUTPUT_SCHEMAS = {"resolve": schemas.RESOLUTION_SCHEMA,
                  "degeneracy": schemas.REPORT_SCHEMA,
                  "sweep": schemas.SWEEP_SCHEMA}


def _check_output(command, output):
    schemas.validate(output["resolution"] if command == "resolve" else output,
                     OUTPUT_SCHEMAS[command])


def test_outputs_match_their_schemas(runner, tmp_path):
    # the program does not check what it writes; this test does, on every
    # written output and on the output of every written or committed record
    runs = [("resolve", [FIXTURES / "cltt-example.json", "--seed", seed,
                         "--out", tmp_path / f"resolve-{seed}"],
             tmp_path / f"resolve-{seed}" / "resolution.json")
            for seed in range(4)]
    for phase in ("antisym-phase", "pullback-phase"):
        for degree in ([], ["--degree", 2], ["--degree", 3]):
            out = tmp_path / f"{phase}{''.join(map(str, degree))}.json"
            runs.append(("degeneracy", [FIXTURES / f"{phase}.json",
                                        FIXTURES / "cltt-maps.json",
                                        *degree, "--out", out], out))
    for name, flags in (("demo-sweep", []), ("adversarial-sweep", ["--adversarial"])):
        out = tmp_path / f"{name}.csv"
        runs.append(("sweep", [FIXTURES / f"{name}.json", "--out", out, *flags],
                     out.with_suffix(".json")))
    for command, args, written in runs:
        res = runner.invoke(main, [command, *map(str, args)])
        assert res.exit_code == 0, res.output
        _check_output(command, read_json(written))
    recs = sorted(tmp_path.rglob("*record*.json"))
    assert len(recs) == len(runs)
    committed = sorted(RECORDS.glob("*.record.json"))
    assert len(committed) == 8
    for path in recs + committed:
        rec = read_json(path)
        schemas.validate(rec, schemas.RECORD_SCHEMA)
        _check_output(rec["command"], rec["output"])
