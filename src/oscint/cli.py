"""Command-line workbench: resolve snarls, decide phase degeneracy, run
decay sweeps, and replay recorded runs.

Exit codes: 0 success, 1 malformed input, 2 genericity / hypothesis
failure, 3 quadrature non-convergence, 4 replay failure or mismatch.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import click

from . import records, schemas
from .linalg import GenericityFailure, finite_float
from .poly import is_degenerate, mat_from_json, poly_from_json, report_to_json
from .quadrature import (BumpSpec, InsufficientTail, QuadConfig, fit_decay, sweep,
                         sweep_to_csv, sweep_to_json, truncated_axes)
from .resolution import resolution_to_json, resolve, verify_resolution
from .snarl import check_weak_hypothesis, snarl_from_json

EXIT_INPUT = 1
EXIT_GENERICITY = 2
EXIT_CONVERGENCE = 3
EXIT_REPLAY = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT, f"{path}: {exc}")


def _validate(obj, schema, where: str) -> None:
    """Exit 1 on a schema violation; jsonschema is imported only then."""
    try:
        schemas.validate(obj, schema)
    except importlib.import_module("jsonschema").ValidationError as exc:
        _fail(EXIT_INPUT, f"{where}: schema violation: {exc.message} at {exc.json_path}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(files) -> None:
    """Write each (path, text) pair, creating its parent directory; exit 1
    on an OSError."""
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot write output: {exc}")


# ---------------------------------------------------------------------------
# running a command on its input: each returns the JSON output and the
# object it was built from


def _maps_from_json(maps: list):
    return ([mat_from_json(mp["rows"]) for mp in maps],
            [mp.get("label", f"pi{j}") for j, mp in enumerate(maps)])


def _box(pairs) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(str(lo)), Fraction(str(hi))) for lo, hi in pairs]


def _run_resolve(inp: dict):
    s = snarl_from_json(inp["snarl"])
    if not check_weak_hypothesis(s):
        kappas = [sub.codim for _, sub in s.entries]
        raise GenericityFailure(
            f"hypothesis violated: max(codim) + sum(codim) = "
            f"{max(kappas)} + {sum(kappas)} > 2*{s.ambient_dim}")
    r = resolve(s, inp["seed"])
    return {"resolution": resolution_to_json(r),
            "verification": verify_resolution(r)}, r


def _run_degeneracy(inp: dict):
    p = poly_from_json(inp["poly"])
    pis, labels = _maps_from_json(inp["maps"]["maps"])
    report = is_degenerate(p, pis, max_degree=inp.get("degree"), labels=labels)
    return report_to_json(report), report


def _run_sweep(inp: dict):
    spec = inp["runspec"]
    p = poly_from_json(spec["phase"])
    pis, labels = _maps_from_json(spec["maps"])
    for c in p.terms.values():
        finite_float(c, "phase coefficient")
    for pi in pis:
        for row in pi.entries:
            for x in row:
                finite_float(x, "map entry")
    bumps = [BumpSpec(box=_box(b["box"])) for b in spec["bumps"]]
    lambdas = [finite_float(x, "lambdas") for x in spec["lambdas"]]
    tail_from = finite_float(spec.get("tail_from", lambdas[0]), "tail_from")
    q = spec["quad"]
    cfg = QuadConfig(
        domain_box=_box(q["domain_box"]),
        nodes_per_axis=int(q["nodes_per_axis"]),
        rule=q.get("rule", "gauss-legendre"),
        refine_tol=finite_float(q.get("refine_tol", 1e-4), "refine_tol"),
        max_nodes_per_axis=q.get("max_nodes_per_axis"),
    )
    cert = None
    if inp["adversarial"]:
        report = is_degenerate(p, pis, labels=labels)
        if not report.is_degenerate:
            raise ValueError("adversarial mode requires a degenerate phase")
        cert = report.certificate
    result = sweep(p, pis, bumps, lambdas, cfg, adversarial_cert=cert)
    cut = truncated_axes(pis, bumps, cfg.domain_box)
    if cut:
        click.echo(f"warning: domain_box cuts the amplitude off on "
                   f"{', '.join(f'x{i + 1}' for i in cut)}; its boundary terms "
                   f"distort the fitted decay", err=True)
    try:
        fit_decay(result, tail_from)
    except InsufficientTail:
        pass
    return sweep_to_json(result), result


# Each command's runner, and the fields of its input with the schema each
# must match: a recorded input is checked as the command's own files are.
COMMANDS = {
    "resolve": (_run_resolve, {"snarl": schemas.SNARL_SCHEMA,
                               "seed": {"type": "integer"}}),
    "degeneracy": (_run_degeneracy, {"poly": schemas.POLY_SCHEMA,
                                     "maps": schemas.MAPS_SCHEMA,
                                     "degree": {"type": ["integer", "null"]}}),
    "sweep": (_run_sweep, {"runspec": schemas.RUNSPEC_SCHEMA,
                           "adversarial": {"type": "boolean"}}),
}


def _execute(command: str, inp: dict, where: Callable[[str], str],
             replay: bool = False):
    """Check each field of inp against its schema (exit 1, naming the field's
    source where(field)), then run the command.  Invalid input exits 1; a
    genericity failure exits 2, or 4 when replaying a record."""
    run, fields = COMMANDS[command]
    for field, schema in fields.items():
        _validate(inp.get(field), schema, where(field))
    try:
        return run(inp)
    except GenericityFailure as exc:
        if replay:
            _fail(EXIT_REPLAY, f"replay execution failed: {exc}")
        _fail(EXIT_GENERICITY, str(exc))
    except (ValueError, KeyError) as exc:
        _fail(EXIT_INPUT, str(exc))


@click.group()
def main():
    """Subspace-arrangement resolutions, phase nondegeneracy reports, and
    oscillatory decay sweeps."""


@main.command("resolve")
@click.argument("snarl_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for resolution.json and the run record.")
def cmd_resolve(snarl_json, seed, out_dir):
    """Resolve a snarl down to hyperplanes, with exact verification."""
    inp = {"snarl": _load_json(snarl_json), "seed": seed}
    output, _ = _execute("resolve", inp, {"snarl": snarl_json}.get)
    res = output["resolution"]
    seeds = [seed] + [s for st in res["steps"] for s in st["seeds_used"]]
    record = records.make_record("resolve", inp, output, seeds, tolerance=0.0)
    if out_dir:
        out = Path(out_dir)
        _write([(out / "resolution.json", _json_text(output)),
                (out / f"record-{record['run_id'][:12]}.json", _json_text(record))])
    click.echo(json.dumps({
        "steps": len(res["steps"]),
        "terminal_entries": len(res["chain"][-1]["subspaces"]),
        "terminal_general_position": res["terminal_general_position"],
        "verified": output["verification"]["passed"],
        "run_id": record["run_id"],
    }, indent=2))


@main.command("degeneracy")
@click.argument("poly_json", type=click.Path(exists=True, dir_okay=False))
@click.argument("maps_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, default=None,
              help="Degree bound for the pullback certificate (default: deg P).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_degeneracy(poly_json, maps_json, degree, out_path):
    """Decide whether the phase is a sum of pullbacks through the maps."""
    inp = {"poly": _load_json(poly_json), "maps": _load_json(maps_json),
           "degree": degree}
    output, _ = _execute("degeneracy", inp,
                         {"poly": poly_json, "maps": maps_json}.get)
    record = records.make_record("degeneracy", inp, output, seeds=[], tolerance=0.0)
    if out_path:
        out = Path(out_path)
        _write([(out, _json_text(output)),
                (out.with_suffix(".record.json"), _json_text(record))])
    click.echo(json.dumps({"is_degenerate": output["is_degenerate"],
                           "quotient_norm": output["quotient_norm"],
                           "run_id": record["run_id"]}, indent=2))


@main.command("sweep")
@click.argument("runspec_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
@click.option("--adversarial", is_flag=True,
              help="Cancel the (degenerate) phase with modulated bumps.")
@click.option("--allow-unconverged", is_flag=True,
              help="Exit 0 even if some rows hit the node cap.")
def cmd_sweep(runspec_json, out_csv, adversarial, allow_unconverged):
    """Evaluate |I(lambda P)| over a lambda grid and fit the decay rate."""
    out = Path(out_csv)
    if out.suffix == ".json":
        _fail(EXIT_INPUT, f"--out {out_csv}: the sweep's JSON output would "
                          f"overwrite a CSV path ending in .json")
    inp = {"runspec": _load_json(runspec_json), "adversarial": adversarial}
    output, result = _execute("sweep", inp, {"runspec": runspec_json}.get)
    record = records.make_record("sweep", inp, output,
                                 seeds=[int(inp["runspec"].get("seed", 0))],
                                 tolerance=1e-9)
    _write([(out, sweep_to_csv(result)),
            (out.with_suffix(".json"), _json_text(output)),
            (out.with_suffix(".record.json"), _json_text(record))])
    click.echo(json.dumps({"rows": len(result.rows), "fit": output["fit"],
                           "run_id": record["run_id"]}, indent=2))
    failed = [r for r in result.rows if r.error]
    if failed and not allow_unconverged:
        _fail(EXIT_CONVERGENCE,
              f"{len(failed)} rows hit the node cap without converging")


# ---------------------------------------------------------------------------
# replay


def _agree(a: float, b: float, slack: float) -> bool:
    """Equal, both NaN, or both finite and at most slack apart."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= slack


def _compare_sweeps(old: dict, new: dict, tol: float) -> list[str]:
    """Rows must agree in error flag, lambda and node count (exactly) and
    |I| (relative tol); the fit in rho, logC and r2 within tol * max(1,
    |value|), since a flat sweep's rho is rounding noise around 0.  See
    _agree for NaN and infinities."""
    diffs = []
    if len(old["rows"]) != len(new["rows"]):
        return [f"row count {len(old['rows'])} != {len(new['rows'])}"]
    for i, (a, b) in enumerate(zip(old["rows"], new["rows"])):
        if a.get("error") != b.get("error"):
            diffs.append(f"row {i}: error flag {a.get('error')} != {b.get('error')}")
            continue
        if a["lambda"] != b["lambda"]:
            diffs.append(f"row {i}: lambda {a['lambda']} != {b['lambda']}")
        if a["nodes"] != b["nodes"]:
            diffs.append(f"row {i}: nodes {a['nodes']} != {b['nodes']}")
        denom = max(abs(a["abs"]), abs(b["abs"]), 1e-300)
        if not _agree(a["abs"], b["abs"], tol * denom):
            diffs.append(f"row {i}: |I| {a['abs']} vs {b['abs']} (rel tol {tol})")
    fa, fb = old["fit"], new["fit"]
    if (fa is None) != (fb is None):
        diffs.append(f"fit {fa} != {fb}")
    elif fa is not None:
        for key in ("rho", "logC", "r2"):
            if not _agree(fa[key], fb[key], tol * max(1.0, abs(fa[key]))):
                diffs.append(f"fit.{key} {fa[key]} vs {fb[key]} (tol {tol})")
    return diffs


@main.command("replay")
@click.argument("record_json", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(record_json):
    """Re-execute a recorded run and diff it against the stored output."""
    record = _load_json(record_json)
    _validate(record, schemas.RECORD_SCHEMA, record_json)
    if not math.isfinite(record["tolerance"]):
        _fail(EXIT_INPUT, f"{record_json}: tolerance {record['tolerance']} is not finite")
    if record["tool_version"] != records.TOOL_VERSION:
        click.echo(f"warning: record from version {record['tool_version']}, "
                   f"this is {records.TOOL_VERSION}; best-effort replay", err=True)
    command = record["command"]
    if command == "sweep":
        _validate(record["output"], schemas.SWEEP_SCHEMA, f"{record_json}: output")
    new_out, _ = _execute(command, record["input"],
                          lambda field: f"{record_json}: input.{field}", replay=True)
    if command == "sweep":
        diffs = _compare_sweeps(record["output"], new_out, record["tolerance"])
        if diffs:
            click.echo(json.dumps({"mismatches": diffs}, indent=2))
            sys.exit(EXIT_REPLAY)
    elif records.canonical_json(record["output"]) != records.canonical_json(new_out):
        click.echo(json.dumps({"mismatch": {"recorded": record["output"],
                                            "replayed": new_out}}, indent=2))
        sys.exit(EXIT_REPLAY)
    click.echo("replay ok")


if __name__ == "__main__":
    main()
