#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workloads batch_sweep ci_edits \\
        --seeds 1-10 [--trace] [--out FILE]

Every run is ``perfbench/run.py`` with the ``run_seconds`` of
``BENCHMARK.json``.  For each workload and metric it prints the median,
the first and third quartile (``statistics.quantiles(values, n=4)``) and
the spread, the quartile distance as a share of the median, next to the
metric's bound.  ``--out`` writes the same summary as JSON; with
``--trace`` the runs are traced and the per-layer metrics are
summarized instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["log"] = [line for line in lines[:-1]
                     if line.startswith(("workload ", "host calibration"))]
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/spread.py")
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    summary: dict = {}
    ok = True
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(bench, workload, seed, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"wall={res['wall_s']:.1f}s "
                  + " ".join(f"{k}={m['value']:.4g}"
                             for k, m in res["metrics"].items()),
                  flush=True)
            ok &= res["correct"] and res["failed"] == 0
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"]
                                       for r in runs])
            metrics[name]["unit"] = m["unit"]
            bound = bounds.get(name)
            if bound is not None:
                metrics[name]["bound"] = bound
            s = metrics[name]
            print(f"  {name:<30} median {s['median']:>12.6g} {s['unit']:<6}"
                  f" q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g}"
                  f" spread {s['spread']:6.3f}"
                  + (f" (bound {bound})" if bound is not None else ""),
                  flush=True)
        summary[workload] = {
            "seeds": parse_seeds(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "failed": [r["failed"] for r in runs],
            "log": [r["log"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics}
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True)
                            + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
