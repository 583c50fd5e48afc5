"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload grp-n400 --seeds 1-10 [--trace 1] [--out FILE]

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; for an end-to-end metric it is shown
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace) -> tuple[dict, dict, dict]:
    """(env line, report line, result line) of one benchmark run."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = json.loads(lines[0].removeprefix("env "))
    report = json.loads(lines[-2].removeprefix("report "))
    return env, report, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        values, runs = {}, []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            env, report, result = run_once(spec, workload, seed, args.trace)
            summary["env"] = env
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            print(f"{workload} seed={seed} " + json.dumps(runs[-1] | report["metrics"]),
                  flush=True)
            # the report holds every result metric plus the ungated raw times
            for name, value in report["metrics"].items():
                values.setdefault(name, []).append(value)
        metrics = {name: summarize(v) for name, v in values.items()}
        for name, m in metrics.items():
            bound = bounds.get(name) if not args.trace else None
            print(f"  {workload} {name}: median={m['median']:.6g} "
                  f"spread={m.get('spread')}" + (f" bound={bound}" if bound else ""),
                  flush=True)
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
