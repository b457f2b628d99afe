"""oscint benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, runs them in a separate
closed-loop client process (client.py) for --seconds, checks every output
against computations made here (oracles.py), and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics from a
traced run (--trace 1).  An operation fails when the program errors or its
output does not pass its check; `correct` is false when any output that
the program did return is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
SETUP_REPS = 7

import oracles  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("peak_rss_mb", "MB")]

CALLS = ["linalg.rref", "linalg.solve", "linalg.intersect", "linalg.subspace_sum",
         "linalg.random_subspace", "snarl.is_transverse_splitting", "poly.compose",
         "poly.evaluate_array", "quadrature.cutoff", "quadrature.leggauss",
         "schemas.validate"]
SECONDS = ["linalg.rref", "linalg.solve", "linalg.intersect", "linalg.subspace_sum",
           "snarl.is_transverse_splitting", "resolution.construct_transverse_splitting",
           "resolution.verify_resolution", "poly.is_degenerate", "poly.compose",
           "poly.evaluate_array", "quadrature.cutoff", "quadrature.leggauss",
           "quadrature.sweep", "records.make_record", "schemas.validate"]
SELF = ["linalg", "snarl", "resolution", "poly", "quadrature", "cli"]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit; counts and seconds are per
    operation of the timed phase."""
    names = [(f"{n}.calls", "count/op") for n in CALLS]
    names += [(f"{n}.s", "s/op") for n in SECONDS]
    names += [(f"{n}.self_s", "s/op") for n in SELF]
    names += [("linalg.rref.cells", "count/op"), ("resolution.split_attempts", "count/op"),
              ("quadrature.kernel_self_s", "s/op"), ("quadrature.points", "count/op"),
              ("quadrature.points_per_s", "1/s"), ("trace.ops_per_s", "1/s")]
    return names


class Checker:
    """Checks each distinct output once; repeats of an op with the same
    output bytes share the verdict."""

    def __init__(self, workload: str, inputs: dict, context: dict):
        self.workload = workload
        self.inputs = inputs
        self.context = context
        self.seen: dict = {}

    def __call__(self, k: int, output: dict) -> tuple[bool, list[str], dict]:
        """(ran, problems, facts): ran is False when the program failed to
        return an output; facts feed the per-layer counts."""
        if self.workload == "decide":
            return self._memo(k, json.dumps(output, sort_keys=True), lambda: self._decide(k, output))
        if self.workload == "resolve-replay":
            return self._resolve(k, output)
        return self._sweep(k, output)

    def _memo(self, k, blob, fn):
        key = (k, hashlib.sha256(blob.encode()).hexdigest())
        if key not in self.seen:
            self.seen[key] = fn()
        return self.seen[key]

    def _decide(self, k, output):
        op = self.inputs["pool"][k]
        table = self.context["tables"][op["tuple"]]
        terms = oracles.parse_terms(op["phase"])
        return True, oracles.check_decision(table, terms, op["degenerate"], output), {}

    def _resolve(self, k, output):
        for step in ("resolve", "replay"):
            res = output.get(step)
            if res is None or res["exit"] != 0:
                return False, [f"{step} failed: {res}"], {}
        if "replay ok" not in output["replay"]["output"]:
            return False, [f"replay did not report ok: {output['replay']['output']!r}"], {}
        blob = (Path(output["dir"]) / "resolution.json").read_text()
        written = json.loads(blob)
        attempts = sum(len(st["seeds_used"]) // 2 for st in written["resolution"]["steps"])
        ran, problems, _ = self._memo(
            k, blob, lambda: (True, oracles.check_resolution(self.context["snarls"][k], written), {}))
        return ran, problems, {"split_attempts": attempts}

    def _sweep(self, k, output):
        res = output["sweep"]
        if res["exit"] != 0:
            return False, [f"sweep failed: {res}"], {}
        blob = (Path(output["dir"]) / "sweep.json").read_text()
        written = json.loads(blob)
        spec = json.loads(Path(self.inputs["pool"][k]["spec"]).read_text())
        n0, m = spec["quad"]["nodes_per_axis"], len(spec["quad"]["domain_box"])
        points = 0
        for row in written["rows"]:
            n = n0
            while n <= row["nodes"]:
                points += n ** m
                n *= 2
        if self.workload == "sweep-decay":
            check = lambda: (True, oracles.check_decay(self.context["params"][k], written), {})
        else:
            check = lambda: (True, oracles.check_adversarial(spec, self.context["tol"], written), {})
        ran, problems, _ = self._memo(k, blob, check)
        return ran, problems, {"points": points}


def client_env() -> dict:
    """One-threaded client: OSCINT_THREADS unset (one quadrature worker)
    and one BLAS thread.  With BLAS free to use both cores of a shared
    2-core host, sweep-decay's leggauss calls made run times swing by a
    quarter from run to run, for the same median."""
    env = {k: v for k, v in os.environ.items() if k != "OSCINT_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscint" / "__init__.py").is_file():
        print(f"error: no oscint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.monotonic()
    rundir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return _run(args, rundir, began)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(args, rundir: Path, began: float) -> int:
    inputs, context = workloads.GENERATORS[args.workload](args.seed, rundir)
    inputs.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  setup_reps=SETUP_REPS)
    (rundir / "inputs.json").write_text(json.dumps(inputs))
    with open(rundir / "client.log", "w") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), str(rundir)],
                                cwd=ROOT, env=client_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - began)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0:
        tail = (rundir / "client.log").read_text()[-3000:]
        print(f"error: client exited with {code}\n{tail}", file=sys.stderr)
        return 1
    results = json.loads((rundir / "results.json").read_text())

    check = Checker(args.workload, inputs, context)
    failed, correct = 0, True
    facts: dict = {}
    for op in results["ops"]:
        ran, problems, got = check(op["k"], op["output"])
        for key, value in got.items():
            facts[key] = facts.get(key, 0) + value
        if problems:
            failed += 1
            correct = correct and not ran
            print(f"op {op['k']}: " + "; ".join(problems), file=sys.stderr)
    n = len(results["ops"])

    if args.trace:
        metrics = layer_metrics(results, facts, n)
        OUT.mkdir(exist_ok=True)
        shutil.copyfile(rundir / "spans.csv", OUT / f"spans-{args.workload}.csv")
    else:
        times_ms = sorted(op["s"] * 1e3 for op in results["ops"])
        values = {"setup_s": statistics.median(results["setup_s"]),
                  "ops_per_s": n / results["wall_s"],
                  "op_ms_p50": statistics.median(times_ms),
                  "op_ms_p90": quantile(times_ms, 0.9),
                  "peak_rss_mb": results["peak_rss_kb"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    line = json.dumps({"correct": correct, "attempted": n, "failed": failed,
                       "metrics": metrics})
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def layer_metrics(results: dict, facts: dict, n: int) -> dict:
    tr = results["trace"]
    values = {}
    for name in CALLS:
        values[f"{name}.calls"] = tr["calls"].get(name, 0) / n
    for name in SECONDS:
        values[f"{name}.s"] = tr["s"].get(name, 0.0) / n
    for layer in SELF:
        values[f"{layer}.self_s"] = tr["layer_self_s"].get(layer, 0.0) / n
    sweep_s = tr["s"].get("quadrature.sweep", 0.0)
    values.update({
        "linalg.rref.cells": tr["counters"].get("linalg.rref.cells", 0) / n,
        "resolution.split_attempts": facts.get("split_attempts", 0) / n,
        "quadrature.kernel_self_s": tr["self_s"].get("quadrature.sweep", 0.0) / n,
        "quadrature.points": facts.get("points", 0) / n,
        "quadrature.points_per_s": facts.get("points", 0) / sweep_s if sweep_s else 0.0,
        "trace.ops_per_s": n / results["wall_s"],
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
