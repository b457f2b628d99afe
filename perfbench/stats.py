"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/stats.py --workload decide --seeds 11-20 --seconds 20 --trace 0

Runs perfbench/run.py once per seed, one after another, and prints for
each metric its median, first and third quartile (statistics.quantiles,
n=4) and the quartile spread as a share of the median, plus the share of
failed operations.  The summary is also written to
perfbench/out/stats-<workload>-<trace>.json.  The reference figures in
perfbench/README.md were made with this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="11-20")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": values}
    failed = [r["failed"] / r["attempted"] for r in runs]
    print(f"{args.workload} trace={args.trace} seeds={args.seeds} "
          f"correct={all(r['correct'] for r in runs)} failed share={sorted(set(failed))}")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
    for name, s in summary.items():
        print(f"{name:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.3f}  {s['unit']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"stats-{args.workload}-{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
