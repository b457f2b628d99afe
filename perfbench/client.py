"""The workload process: one closed-loop client of oscint.

    python3 perfbench/client.py <rundir>

Reads <rundir>/inputs.json (written by run.py), sets up `setup_reps`
times (a fresh import of oscint plus the workload's warm-up), then runs
the pool of operations in order, cycling, each one only after the
previous one returned, until `seconds` have passed.  Each operation is
timed in-process with perf_counter.  Writes <rundir>/results.json: the
set-up times, each operation's time and output, the peak resident set,
and with tracing on the per-layer span summary.

This process imports nothing but oscint and its own dependencies, so its
peak resident set is the program's.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from tracing import LAYERS, Tracer  # noqa: E402


def fresh_import():
    """Import oscint from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "oscint" or n.startswith("oscint.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("oscint")
    mods = {layer: importlib.import_module(f"oscint.{layer}") for layer in LAYERS}
    if Path(package.__file__).resolve().parent != SRC / "oscint":
        raise ImportError(f"oscint imported from {package.__file__}, not from {SRC}")
    return package, mods


def clear_caches(mods) -> None:
    """Empty every lru_cache in the package, as a fresh process has."""
    for mod in mods.values():
        for obj in list(vars(mod).values()):
            for cand in (obj, getattr(obj, "__wrapped__", None)):
                if callable(getattr(cand, "cache_clear", None)):
                    cand.cache_clear()


def poly_terms(q) -> list:
    return [[list(e), str(c)] for e, c in sorted(q.terms.items())]


class Decide:
    """poly.is_degenerate on a stream of phases over shared map tuples."""

    def __init__(self, inputs, workdir: Path):
        self.inputs = inputs

    def load(self, mods):
        poly = mods["poly"]
        self.maps = [tuple(poly.mat_from_json(mp["rows"]) for mp in t["maps"])
                     for t in self.inputs["tuples"]]
        self.degrees = [t["degree"] for t in self.inputs["tuples"]]
        return poly

    def warm_up(self, mods):
        poly = self.load(mods)
        for t in range(len(self.maps)):
            first = next(op for op in self.inputs["pool"] if op["tuple"] == t)
            poly.is_degenerate(poly.poly_from_json(first["phase"]), self.maps[t],
                               max_degree=self.degrees[t])

    def prepare(self, mods):
        self.poly = self.load(mods)
        self.phases = [self.poly.poly_from_json(op["phase"]) for op in self.inputs["pool"]]

    def run(self, k: int, i: int):
        t = self.inputs["pool"][k]["tuple"]
        start = time.perf_counter()
        rep = self.poly.is_degenerate(self.phases[k], self.maps[t], max_degree=self.degrees[t])
        elapsed = time.perf_counter() - start
        return elapsed, {
            "is_degenerate": rep.is_degenerate,
            "quotient_norm": rep.quotient_norm,
            "certificate": (None if rep.certificate is None else
                            [poly_terms(q) for _, q in rep.certificate]),
        }


class Cli:
    """The oscint click entry point, invoked in-process with CliRunner."""

    def __init__(self, inputs, workdir: Path):
        from click.testing import CliRunner

        self.inputs = inputs
        self.workdir = workdir
        self.runner = CliRunner()

    def invoke(self, mods, args):
        r = self.runner.invoke(mods["cli"].main, args)
        res = {"exit": r.exit_code, "output": r.output[-2000:]}
        if r.exception is not None and not isinstance(r.exception, SystemExit):
            res["error"] = repr(r.exception)
        return res

    def warm_up(self, mods):
        self.once(mods, self.inputs["warmup"], self.workdir / "warmup")

    def prepare(self, mods):
        self.mods = mods

    def run(self, k: int, i: int):
        op = self.inputs["pool"][k]
        out = self.workdir / f"op-{i}"
        clear_caches(self.mods)
        start = time.perf_counter()
        result = self.once(self.mods, op, out)
        elapsed = time.perf_counter() - start
        result["dir"] = str(out)
        return elapsed, result


class ResolveReplay(Cli):
    def once(self, mods, op, out: Path):
        res = self.invoke(mods, ["resolve", op["snarl"], "--seed", str(op["seed"]),
                                 "--out", str(out)])
        if res["exit"] != 0:
            return {"resolve": res}
        run_id = json.loads(res["output"])["run_id"]
        record = out / f"record-{run_id[:12]}.json"
        return {"resolve": res, "replay": self.invoke(mods, ["replay", str(record)])}


class Sweep(Cli):
    def once(self, mods, op, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        args = ["sweep", op["spec"], "--out", str(out / "sweep.csv")]
        if op["adversarial"]:
            args.append("--adversarial")
        return {"sweep": self.invoke(mods, args)}


CLIENTS = {"decide": Decide, "resolve-replay": ResolveReplay,
           "sweep-decay": Sweep, "sweep-adversarial": Sweep}


def main(rundir: Path) -> None:
    sys.path.insert(0, str(SRC))
    inputs = json.loads((rundir / "inputs.json").read_text())
    client = CLIENTS[inputs["workload"]](inputs, rundir / "ops")

    setup_s = []
    for _ in range(inputs["setup_reps"]):
        start = time.perf_counter()
        package, mods = fresh_import()
        client.warm_up(mods)
        setup_s.append(time.perf_counter() - start)
    client.prepare(mods)

    tracer = None
    if inputs["trace"]:
        tracer = Tracer()
        tracer.install(package, mods)

    pool = len(inputs["pool"])
    ops = []
    start = time.perf_counter()
    i = 0
    while not ops or time.perf_counter() - start < inputs["seconds"]:
        if tracer is not None:
            tracer.op = i
        elapsed, output = client.run(i % pool, i)
        ops.append({"k": i % pool, "s": elapsed, "output": output})
        i += 1
    wall = time.perf_counter() - start

    results = {"setup_s": setup_s, "wall_s": wall, "ops": ops,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        results["trace"] = tracer.summary()
        tracer.write(rundir / "spans.csv")
    (rundir / "results.json").write_text(json.dumps(results))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
