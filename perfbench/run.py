#!/usr/bin/env python3
"""The analyzer's benchmark: one workload per run, from a seed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch_sweep --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
rounds: each round is a fresh interpreter that sets the workload up and
runs its seeded work set once.  ``--trace 1`` runs the workload with the
layer wrappers on and prints the per-layer table and metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
Workloads, metrics and their limitations are documented in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import Recorder, Tracer  # noqa: E402

WORKLOADS = ("batch_sweep", "certified_sweep", "ci_edits", "serve_mixed")

#: end-to-end metric name -> unit (the ``--trace 0`` output)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verdict_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def make_workload(name: str, root: Path, seed: int):
    if name in ("batch_sweep", "certified_sweep"):
        from sweeps import Sweep
        return Sweep(seed, certified=name == "certified_sweep")
    if name == "ci_edits":
        from ci_edits import CiEdits
        return CiEdits(root, seed)
    from serve_mixed import ServeMixed
    return ServeMixed(root, seed)


def round_main(args, root: Path) -> int:
    """One round of an untraced run (a fresh interpreter): set up, report
    readiness, run the work set once, print the round's result."""
    rec = Recorder(calibrate=True)
    workload = make_workload(args.workload, root, args.seed)
    try:
        workload.setup()
        print(harness.SETUP_READY, flush=True)
        out = workload.run_round(rec, Tracer(), first=args.round == 0)
    finally:
        workload.close()
    out.setdefault("peak_rss_mb", harness.peak_rss_mb())
    out.update(latency=rec.latency, cal=rec.cal, attempted=rec.attempted,
               failed=rec.failed, messages=rec.messages)
    print(json.dumps(out))
    return 0


def measure_rounds(args, rec: Recorder) -> dict:
    """Rounds until the window is used: a new round starts while it is
    expected to end within ``--seconds`` (and at least ``MIN_ROUNDS``
    run).  Each round is a fresh interpreter running the same work set.

    The host's speed drifts by up to a half over seconds to minutes, so
    every operation is followed by a calibration slice of fixed
    interpreter work, and its time is taken relative to that slice, in
    units of ``CAL_REF_S`` (the slice on the reference host): this
    cancels the host's speed at that moment.  An operation's latency is
    its minimum over the rounds; a round's set-up is scaled by the
    median slice of the round.  Throughput is that of a round in which
    every operation takes its latency: operations times the workload's
    concurrency over the summed latencies."""
    rounds, setups = [], []
    t_start = harness.now()

    def expected_end() -> float:
        elapsed = harness.now() - t_start
        return elapsed + elapsed / len(rounds)

    while len(rounds) < harness.MIN_ROUNDS or \
            expected_end() <= args.seconds:
        setup_s, out = harness.run_round(args.workload, args.seed,
                                         len(rounds))
        setups.append(setup_s)
        rounds.append(out)
    first = rounds[0]
    for r in rounds:
        rec.attempted += r["attempted"]
        rec.failed += r["failed"]
        rec.messages.extend(r["messages"][:10 - len(rec.messages)])
    for i, r in enumerate(rounds[1:], 1):
        rec.check(r["digest"] == first["digest"]
                  and set(r["latency"]) == set(first["latency"]),
                  f"round {i}: results differ from round 0")
    ref = harness.CAL_REF_S

    def summary(op_time, setup_time) -> dict:
        best = {key: min(op_time(r, key) for r in rounds
                         if key in r["latency"])
                for key in first["latency"]}
        deciles = statistics.quantiles(
            [s * 1000.0 for s in best.values()], n=10, method="inclusive")
        return {
            "setup_s": statistics.median(
                setup_time(r, s) for r, s in zip(rounds, setups)),
            "throughput_per_s": first["concurrency"] * len(best)
            / sum(best.values()),
            "latency_p50_ms": deciles[4],
            "latency_p90_ms": deciles[8],
        }

    values = summary(lambda r, k: r["latency"][k] / r["cal"][k] * ref,
                     lambda r, s: s / statistics.median(r["cal"].values())
                     * ref)
    values.update(verdict_accuracy=first["accuracy"],
                  peak_rss_mb=max(r["peak_rss_mb"] for r in rounds))
    unscaled = summary(lambda r, k: r["latency"][k], lambda r, s: s)
    cal = [c for r in rounds for c in r["cal"].values()]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          f"rounds of {len(first['latency'])} operations in "
          f"{harness.now() - t_start:.3f} s; round walls "
          + ", ".join(f"{r['wall']:.3f}" for r in rounds) + " s; set-ups "
          + ", ".join(f"{t:.3f}" for t in setups) + " s")
    print(f"host calibration: slice median "
          f"{statistics.median(cal) * 1000:.4f} ms, min "
          f"{min(cal) * 1000:.4f} ms (reference {ref * 1000:.4f} ms); "
          f"unscaled " + ", ".join(f"{k} {v:.6g}"
                                   for k, v in unscaled.items()))
    print(f"result digest {first['digest']}")
    return {k: {"value": values[k], "unit": u}
            for k, u in END_TO_END.items()}


def measure(args, root: Path) -> dict:
    rec = Recorder()
    if not args.trace:
        metrics = measure_rounds(args, rec)
    else:
        tracer = Tracer()
        workload = make_workload(args.workload, root, args.seed)
        import layers
        layers.install(tracer)
        try:
            tracer.enabled = True
            tracer.op = "setup"
            with tracer.span("setup"):
                workload.setup()
            tracer.enabled = False
            out = workload.run_traced(args.seconds, rec, tracer)
            metrics, table = layers_metrics(out, tracer, rec)
            harness.print_table(args.workload, table, out["traced_wall"])
            setup = tracer.table({"setup"})
            harness.print_table(f"{args.workload} set-up", setup,
                                setup["setup"]["incl_s"])
            tracer.write(root / ".perfbench" /
                         f"spans-{args.workload}-seed{args.seed}.jsonl")
            print(f"result digest {out['digest']}")
        finally:
            workload.close()
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    for msg in rec.messages:
        print(f"FAILED: {msg}")
    return {"correct": rec.failed == 0, "attempted": rec.attempted,
            "failed": rec.failed, "metrics": metrics}


#: largest allowed disagreement (percentage points) between a phase's
#: share of the traced split and of the split the reports carry
PHASE_GAP_LIMIT = 5.0


def layers_metrics(out: dict, tracer: Tracer,
                   rec: Recorder) -> tuple[dict, dict]:
    import layers
    setup_ops = {"setup"}
    metrics, table = layers.per_layer_metrics(
        tracer, out["ops"], out["counters"],
        overhead_pct=out["overhead_pct"], setup_ops=setup_ops,
        serve=out.get("serve"))
    gap = layers.phase_gap_pct(table, out["counters"])
    if gap is not None:
        print(f"phase split: traced vs reported differ by at most "
              f"{gap:.2f} points")
        rec.check(gap <= PHASE_GAP_LIMIT,
                         f"traced phase split disagrees with the "
                         f"reports by {gap:.2f} points")
    return metrics, table


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", type=int, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no analyzer sources under {src} (run from the root "
              "of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # a terminated run still stops the round or server it started
    # (``finally``)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.round is not None:
        return round_main(args, root)
    work = root / ".perfbench"
    try:
        result = measure(args, root)
    finally:
        for tmp in work.glob(f"*-{os.getpid()}"):
            shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
