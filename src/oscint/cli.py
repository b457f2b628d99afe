"""Command-line workbench: resolve snarls, decide phase degeneracy, run
decay sweeps, and replay recorded runs.

Exit codes: 0 success, 1 malformed input, 2 genericity / hypothesis
failure, 3 quadrature non-convergence, 4 replay mismatch.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import records, schemas
from .linalg import GenericityFailure
from .poly import is_degenerate, mat_from_json, poly_from_json, report_to_json
from .quadrature import (BumpSpec, DecaySweep, InsufficientTail, QuadConfig,
                         fit_decay, sweep, sweep_to_csv, sweep_to_json)
from .resolution import resolution_to_json, resolve, verify_resolution
from .snarl import check_weak_hypothesis, snarl_from_json

EXIT_INPUT = 1
EXIT_GENERICITY = 2
EXIT_CONVERGENCE = 3
EXIT_REPLAY = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str, schema=None):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT, f"{path}: {exc}")
    if schema is not None:
        try:
            schemas.validate(obj, schema)
        except Exception as exc:
            _fail(EXIT_INPUT, f"{path}: schema violation: {exc}")
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@click.group()
def main():
    """Subspace-arrangement resolutions, phase nondegeneracy reports, and
    oscillatory decay sweeps."""


# ---------------------------------------------------------------------------
# resolve


def _run_resolve(snarl_obj: dict, seed: int) -> dict:
    s = snarl_from_json(snarl_obj)
    if not check_weak_hypothesis(s):
        kappas = [sub.codim for _, sub in s.entries]
        raise GenericityFailure(
            f"hypothesis violated: max(codim) + sum(codim) = "
            f"{max(kappas)} + {sum(kappas)} > 2*{s.ambient_dim}")
    r = resolve(s, seed)
    return {"resolution": resolution_to_json(r),
            "verification": verify_resolution(r)}


@main.command("resolve")
@click.argument("snarl_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for resolution.json and the run record.")
def cmd_resolve(snarl_json, seed, out_dir):
    """Resolve a snarl down to hyperplanes, with exact verification."""
    snarl_obj = _load_json(snarl_json, schemas.SNARL_SCHEMA)
    try:
        output = _run_resolve(snarl_obj, seed)
    except GenericityFailure as exc:
        _fail(EXIT_GENERICITY, str(exc))
    except (ValueError, KeyError) as exc:
        _fail(EXIT_INPUT, str(exc))
    schemas.validate(output["resolution"], schemas.RESOLUTION_SCHEMA)
    seeds = [seed] + [s for st in output["resolution"]["steps"]
                      for s in st["seeds_used"]]
    record = records.make_record("resolve", {"snarl": snarl_obj, "seed": seed},
                                 output, seeds, tolerance=0.0)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "resolution.json", output)
        _write_json(out / f"record-{record['run_id'][:12]}.json", record)
    res = output["resolution"]
    click.echo(json.dumps({
        "steps": len(res["steps"]),
        "terminal_entries": len(res["chain"][-1]["subspaces"]),
        "terminal_general_position": res["terminal_general_position"],
        "verified": output["verification"]["passed"],
        "run_id": record["run_id"],
    }, indent=2))


# ---------------------------------------------------------------------------
# degeneracy


def _run_degeneracy(poly_obj: dict, maps_obj: dict, degree) -> dict:
    p = poly_from_json(poly_obj)
    pis = [mat_from_json(mp["rows"]) for mp in maps_obj["maps"]]
    labels = [mp.get("label", f"pi{j}") for j, mp in enumerate(maps_obj["maps"])]
    for pi in pis:
        if pi.cols != p.num_vars:
            raise ValueError(f"map has {pi.cols} columns but the polynomial "
                             f"has {p.num_vars} variables")
    report = is_degenerate(p, pis, max_degree=degree, labels=labels)
    return report_to_json(report)


@main.command("degeneracy")
@click.argument("poly_json", type=click.Path(exists=True, dir_okay=False))
@click.argument("maps_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", type=int, default=None,
              help="Degree bound for the pullback certificate (default: deg P).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_degeneracy(poly_json, maps_json, degree, out_path):
    """Decide whether the phase is a sum of pullbacks through the maps."""
    poly_obj = _load_json(poly_json, schemas.POLY_SCHEMA)
    maps_obj = _load_json(maps_json, schemas.MAPS_SCHEMA)
    try:
        output = _run_degeneracy(poly_obj, maps_obj, degree)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    schemas.validate(output, schemas.REPORT_SCHEMA)
    record = records.make_record(
        "degeneracy", {"poly": poly_obj, "maps": maps_obj, "degree": degree},
        output, seeds=[], tolerance=0.0)
    if out_path:
        _write_json(Path(out_path), output)
        _write_json(Path(out_path).with_suffix(".record.json"), record)
    click.echo(json.dumps({"is_degenerate": output["is_degenerate"],
                           "quotient_norm": output["quotient_norm"],
                           "run_id": record["run_id"]}, indent=2))


# ---------------------------------------------------------------------------
# sweep


def _runspec_pieces(spec: dict):
    p = poly_from_json(spec["phase"])
    pis = [mat_from_json(mp["rows"]) for mp in spec["maps"]]
    labels = [mp.get("label", f"pi{j}") for j, mp in enumerate(spec["maps"])]
    bumps = [BumpSpec(box=[(Fraction(str(lo)), Fraction(str(hi)))
                           for lo, hi in b["box"]])
             for b in spec["bumps"]]
    q = spec["quad"]
    cfg = QuadConfig(
        domain_box=[(Fraction(str(lo)), Fraction(str(hi)))
                    for lo, hi in q["domain_box"]],
        nodes_per_axis=int(q["nodes_per_axis"]),
        rule=q.get("rule", "gauss-legendre"),
        refine_tol=float(q.get("refine_tol", 1e-4)),
        max_nodes_per_axis=q.get("max_nodes_per_axis"),
    )
    return p, pis, labels, bumps, cfg


def _run_sweep(spec: dict, adversarial: bool) -> tuple[DecaySweep, dict]:
    p, pis, labels, bumps, cfg = _runspec_pieces(spec)
    cert = None
    if adversarial:
        report = is_degenerate(p, pis, labels=labels)
        if not report.is_degenerate:
            raise ValueError("adversarial mode requires a degenerate phase")
        cert = report.certificate
    result = sweep(p, pis, bumps, spec["lambdas"], cfg, adversarial_cert=cert)
    tail_from = float(spec.get("tail_from", spec["lambdas"][0]))
    try:
        fit_decay(result, tail_from)
    except InsufficientTail:
        pass
    return result, sweep_to_json(result)


@main.command("sweep")
@click.argument("runspec_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_csv", type=click.Path(dir_okay=False), required=True)
@click.option("--adversarial", is_flag=True,
              help="Cancel the (degenerate) phase with modulated bumps.")
@click.option("--allow-unconverged", is_flag=True,
              help="Exit 0 even if some rows hit the node cap.")
def cmd_sweep(runspec_json, out_csv, adversarial, allow_unconverged):
    """Evaluate |I(lambda P)| over a lambda grid and fit the decay rate."""
    spec = _load_json(runspec_json, schemas.RUNSPEC_SCHEMA)
    try:
        result, output = _run_sweep(spec, adversarial)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    schemas.validate(output, schemas.SWEEP_SCHEMA)
    record = records.make_record(
        "sweep", {"runspec": spec, "adversarial": adversarial},
        output, seeds=[int(spec.get("seed", 0))], tolerance=1e-9)
    out = Path(out_csv)
    out.write_text(sweep_to_csv(result))
    _write_json(out.with_suffix(".json"), output)
    _write_json(out.with_suffix(".record.json"), record)
    click.echo(json.dumps({"rows": len(result.rows), "fit": output["fit"],
                           "run_id": record["run_id"]}, indent=2))
    failed = [r for r in result.rows if r.error]
    if failed and not allow_unconverged:
        _fail(EXIT_CONVERGENCE,
              f"{len(failed)} rows hit the node cap without converging")


# ---------------------------------------------------------------------------
# replay


def _compare_sweeps(old: dict, new: dict, tol: float) -> list[str]:
    """Rows must agree in error flag, node count and |I| (relative tol); the
    fit in rho, logC and r2 within tol * max(1, |value|), since a flat
    sweep's rho is rounding noise around 0."""
    diffs = []
    if len(old["rows"]) != len(new["rows"]):
        return [f"row count {len(old['rows'])} != {len(new['rows'])}"]
    for i, (a, b) in enumerate(zip(old["rows"], new["rows"])):
        if a.get("error") != b.get("error"):
            diffs.append(f"row {i}: error flag {a.get('error')} != {b.get('error')}")
            continue
        if a["nodes"] != b["nodes"]:
            diffs.append(f"row {i}: nodes {a['nodes']} != {b['nodes']}")
        denom = max(abs(a["abs"]), abs(b["abs"]), 1e-300)
        if abs(a["abs"] - b["abs"]) > tol * denom:
            diffs.append(f"row {i}: |I| {a['abs']} vs {b['abs']} (rel tol {tol})")
    fa, fb = old["fit"], new["fit"]
    if (fa is None) != (fb is None):
        diffs.append(f"fit {fa} != {fb}")
    elif fa is not None:
        for key in ("rho", "logC", "r2"):
            if abs(fa[key] - fb[key]) > tol * max(1.0, abs(fa[key])):
                diffs.append(f"fit.{key} {fa[key]} vs {fb[key]} (tol {tol})")
    return diffs


@main.command("replay")
@click.argument("record_json", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(record_json):
    """Re-execute a recorded run and diff it against the stored output."""
    record = _load_json(record_json, schemas.RECORD_SCHEMA)
    if record["tool_version"] != records.TOOL_VERSION:
        click.echo(f"warning: record from version {record['tool_version']}, "
                   f"this is {records.TOOL_VERSION}; best-effort replay", err=True)
    command = record["command"]
    inp = record["input"]
    try:
        if command == "resolve":
            new_out = _run_resolve(inp["snarl"], inp["seed"])
        elif command == "degeneracy":
            new_out = _run_degeneracy(inp["poly"], inp["maps"], inp.get("degree"))
        elif command == "sweep":
            _, new_out = _run_sweep(inp["runspec"], inp["adversarial"])
        else:
            _fail(EXIT_INPUT, f"unknown command {command!r}")
    except (GenericityFailure, ValueError, KeyError) as exc:
        _fail(EXIT_REPLAY, f"replay execution failed: {exc}")
    if command == "sweep":
        diffs = _compare_sweeps(record["output"], new_out, record["tolerance"])
        if diffs:
            click.echo(json.dumps({"mismatches": diffs}, indent=2))
            sys.exit(EXIT_REPLAY)
    else:
        old_s = records.canonical_json(record["output"])
        new_s = records.canonical_json(new_out)
        if old_s != new_s:
            click.echo(json.dumps({"mismatch": {"recorded": record["output"],
                                                "replayed": new_out}}, indent=2))
            sys.exit(EXIT_REPLAY)
    click.echo("replay ok")


if __name__ == "__main__":
    main()
