"""The benchmark's checkers accept the program's real outputs and reject
corrupted ones.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from client import poly_terms  # noqa: E402
from oscint import cli, poly  # noqa: E402

SEED = 7


def run_cli(args) -> None:
    result = CliRunner().invoke(cli.main, [str(a) for a in args])
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def decide(tmp_path_factory):
    inputs, context = workloads.build_decide(SEED, tmp_path_factory.mktemp("decide"))
    # the 35x38 tuple: one pullback sum and one phase pushed off the span
    t = len(workloads.DECIDE_TUPLES) - 1
    ops = [op for op in inputs["pool"] if op["tuple"] == t][:2]
    maps = tuple(poly.mat_from_json(mp["rows"]) for mp in inputs["tuples"][t]["maps"])
    cases = []
    for op in ops:
        rep = poly.is_degenerate(poly.poly_from_json(op["phase"]), maps,
                                 max_degree=inputs["tuples"][t]["degree"])
        out = {"is_degenerate": rep.is_degenerate, "quotient_norm": rep.quotient_norm,
               "certificate": (None if rep.certificate is None
                               else [poly_terms(q) for _, q in rep.certificate])}
        cases.append((context["tables"][t], oracles.parse_terms(op["phase"]),
                      op["degenerate"], out))
    return cases


def test_decide_accepts_real_outputs(decide):
    assert [c[2] for c in decide] == [True, False]
    for table, terms, degenerate, out in decide:
        assert oracles.check_decision(table, terms, degenerate, out) == []


def test_decide_rejects_flipped_verdict(decide):
    for table, terms, degenerate, out in decide:
        bad = dict(out, is_degenerate=not out["is_degenerate"])
        assert oracles.check_decision(table, terms, degenerate, bad)


def test_decide_rejects_changed_certificate_coefficient(decide):
    table, terms, degenerate, out = decide[0]
    bad = copy.deepcopy(out)
    terms_j = next(t for t in bad["certificate"] if t)
    exps, coeff = terms_j[0]
    terms_j[0] = [exps, str(Fraction(coeff) + 1)]
    assert oracles.check_decision(table, terms, degenerate, bad)


def test_decide_rejects_wrong_quotient_norm(decide):
    table, terms, degenerate, out = decide[1]
    bad = dict(out, quotient_norm=out["quotient_norm"] * (1 + 1e-6))
    assert oracles.check_decision(table, terms, degenerate, bad)


@pytest.fixture(scope="module")
def resolution(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("resolve")
    inputs, context = workloads.build_resolve(SEED, tmp)
    op = inputs["pool"][3]
    run_cli(["resolve", op["snarl"], "--seed", op["seed"], "--out", tmp / "out"])
    written = json.loads((tmp / "out" / "resolution.json").read_text())
    return context["snarls"][3], written


def test_resolution_accepts_real_output(resolution):
    snarl, written = resolution
    assert written["resolution"]["steps"]
    assert oracles.check_resolution(snarl, written) == []


def test_resolution_rejects_nonzero_w_intersection(resolution):
    snarl, written = resolution
    bad = copy.deepcopy(written)
    step = bad["resolution"]["steps"][0]
    step["Wdoubleprime"][0] = list(step["Wprime"][0])
    problems = oracles.check_resolution(snarl, bad)
    assert any("W' meets W''" in p for p in problems)


def corrupt_rows(out: dict, factor: float) -> dict:
    bad = copy.deepcopy(out)
    for row in bad["rows"]:
        row["re"] *= factor
        row["im"] *= factor
        row["abs"] *= factor
    return bad


@pytest.fixture(scope="module")
def decay(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("decay")
    inputs, context = workloads.build_sweep_decay(SEED, tmp)
    k = next(k for k, q in enumerate(context["params"]) if q["c3"] == 0)
    run_cli(["sweep", inputs["pool"][k]["spec"], "--out", tmp / "sweep.csv"])
    return context["params"][k], json.loads((tmp / "sweep.json").read_text())


def test_decay_accepts_real_output(decay):
    q, out = decay
    assert oracles.check_decay(q, out) == []


def test_decay_rejects_value_off_by_1e4(decay):
    q, out = decay
    bad = corrupt_rows(out, 1 + 1e-4)
    assert any("reference" in p for p in oracles.check_decay(q, bad))


def test_decay_rejects_wrong_rate(decay):
    q, out = decay
    bad = copy.deepcopy(out)
    bad["fit"]["rho"] = 0.9
    assert oracles.check_decay(q, bad)


def test_separable_reference_matches_a_direct_2d_rule(decay):
    """The product of 1-d integrals equals a tensor composite rule on the
    bump support for a moderate lambda."""
    q, _ = decay
    lam = 60.0
    x, w = oracles._panel_rule(256)
    X, Y = np.meshgrid(x, x, indexing="ij")
    P = (float(q["c1"]) * (X - float(q["a"])) ** 2
         + q["sign"] * float(q["c2"]) * (Y - float(q["b"])) ** 2)
    direct = np.sum(np.outer(w * oracles.bump(x), w * oracles.bump(x)) * np.exp(1j * lam * P))
    ref = oracles.separable_reference(lam, q)
    assert abs(direct - ref) <= 1e-10 * abs(ref)


@pytest.fixture(scope="module")
def adversarial(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("adversarial")
    inputs, context = workloads.build_sweep_adversarial(SEED, tmp)
    spec_path = inputs["pool"][0]["spec"]
    run_cli(["sweep", spec_path, "--out", tmp / "sweep.csv", "--adversarial"])
    spec = json.loads(Path(spec_path).read_text())
    return spec, context["tol"], json.loads((tmp / "sweep.json").read_text())


def test_adversarial_accepts_real_output(adversarial):
    spec, tol, out = adversarial
    assert oracles.check_adversarial(spec, tol, out) == []


def test_adversarial_rejects_value_off_by_1e4(adversarial):
    spec, tol, out = adversarial
    bad = corrupt_rows(out, 1 + 1e-4)
    assert oracles.check_adversarial(spec, tol, bad)


def test_adversarial_rejects_spread(adversarial):
    spec, tol, out = adversarial
    bad = copy.deepcopy(out)
    bad["rows"][-1]["abs"] *= 1 + 2e-5
    assert any("spread" in p for p in oracles.check_adversarial(spec, tol, bad))


def test_bump_integral_against_the_composite_rule():
    x, w = oracles._panel_rule(2048)
    assert abs(np.sum(w * oracles.bump(x)) - oracles.bump_integral()) <= 1e-13
