#!/usr/bin/env python3
"""Diff two BENCH_perf.json files and print per-suite deltas.

For every section both files share, prints one row per suite with the
wall-seconds, query, conflict and propagation deltas, plus a per-section
and overall rollup.  Each section's rollup is followed by a ``layers``
row with the solver's LIA, EUF and EUF↔LIA interface time deltas, so a
diff shows which solver layer a change moved.  Intended for CI perf-smoke (old = committed
baseline, new = the run just produced) and for eyeballing the effect of
a solver change locally::

    python tools/bench_compare.py benchmarks/baselines/BENCH_perf_baseline.json BENCH_perf.json

Also understands ``BENCH_serve.json`` from the serving load generator
(``benchmarks/test_serve_load.py``): records carrying latency
aggregates (``throughput_rps``/``p50_ms``/``p99_ms``) get a
latency-delta row instead of solver counters.  And
``BENCH_incremental.json`` from the CI-mode smoke (``tools/ci_smoke.py``):
records carrying dirty-set sizes (``dirty``/``analyzed``/``clean``) get
a dirty-set delta row — a growing dirty count on the same scripted diff
means the dependency analysis got coarser.

Exit status is 0 unless the overall wall time regressed by more than
``--fail-factor`` (default 2.0; CI machines are noisy, so only a gross
regression is treated as a failure — everything else is advisory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _util import section_aggregate  # noqa: E402


def _suites(section: dict) -> dict:
    suites = section.get("suites")
    return suites if isinstance(suites, dict) else {}


def _delta(old: float, new: float) -> str:
    if old == 0:
        return "  n/a" if new == 0 else " +inf"
    return f"{(new - old) / old * 100.0:+5.1f}%"


def _num(rec: dict, key: str) -> float:
    """Counter lookup that tolerates keys missing from one side —
    baseline files produced before a counter existed (or after a rename)
    must diff, not KeyError."""
    v = rec.get(key, 0)
    return v if isinstance(v, (int, float)) else 0


def _serve_row(name: str, old: dict, new: dict) -> str:
    """Serving records (BENCH_serve.json) carry latency aggregates
    instead of solver counters: throughput and p50/p99 deltas."""
    ow, nw = _num(old, "wall_seconds"), _num(new, "wall_seconds")
    orps, nrps = _num(old, "throughput_rps"), _num(new, "throughput_rps")
    return (f"  {name:<24} wall {ow:7.3f}s -> {nw:7.3f}s ({_delta(ow, nw)})"
            f"  rps {orps:>7.2f} -> {nrps:>7.2f} ({_delta(orps, nrps)})"
            f"  p50 {_num(old, 'p50_ms'):>6.0f}ms ->"
            f" {_num(new, 'p50_ms'):>6.0f}ms"
            f"  p99 {_num(old, 'p99_ms'):>6.0f}ms ->"
            f" {_num(new, 'p99_ms'):>6.0f}ms")


def _incremental_row(name: str, old: dict, new: dict) -> str:
    """Incremental-CI records (BENCH_incremental.json) carry dirty-set
    sizes: wall/query deltas plus analyzed-vs-clean counts."""
    ow, nw = _num(old, "wall_seconds"), _num(new, "wall_seconds")
    return (f"  {name:<24} wall {ow:7.3f}s -> {nw:7.3f}s ({_delta(ow, nw)})"
            f"  queries {_num(old, 'queries'):>5} ->"
            f" {_num(new, 'queries'):>5}"
            f"  dirty {_num(old, 'dirty'):>3.0f} ->"
            f" {_num(new, 'dirty'):>3.0f}"
            f"  clean {_num(old, 'clean'):>3.0f} ->"
            f" {_num(new, 'clean'):>3.0f}")


def _row(name: str, old: dict, new: dict) -> str:
    ow, nw = _num(old, "wall_seconds"), _num(new, "wall_seconds")
    return (f"  {name:<24} wall {ow:7.3f}s -> {nw:7.3f}s ({_delta(ow, nw)})"
            f"  queries {_num(old, 'queries'):>5} ->"
            f" {_num(new, 'queries'):>5}"
            f"  conflicts {_num(old, 'conflicts'):>6} ->"
            f" {_num(new, 'conflicts'):>6}"
            f"  props {_num(old, 'propagations'):>8} ->"
            f" {_num(new, 'propagations'):>8}")


def _solver_totals(section: dict) -> dict:
    """Sum every numeric solver counter across a section's records —
    the full counter vocabulary, not just the fixed _row columns."""
    totals: dict = {}
    suites = _suites(section)
    records = list(suites.values()) if suites else [section]
    for rec in records:
        if not isinstance(rec, dict):
            continue
        solver = rec.get("solver")
        if not isinstance(solver, dict):
            continue
        for key, v in solver.items():
            if isinstance(v, (int, float)):
                totals[key] = totals.get(key, 0) + v
    return totals


#: (label, solver counter) of the per-layer time row
LAYERS = (("lia", "time_lia"), ("euf", "time_euf"),
          ("interface", "time_interface"))


def _layer_row(old: dict, new: dict) -> str | None:
    """Solver layer time deltas of one section, summed over its
    records; None when neither side records layer times."""
    ot, nt = _solver_totals(old), _solver_totals(new)
    if not any(key in ot or key in nt for _, key in LAYERS):
        return None
    cells = []
    for label, key in LAYERS:
        o, n = _num(ot, key), _num(nt, key)
        cells.append(f"{label} {o:7.3f}s -> {n:7.3f}s ({_delta(o, n)})")
    return f"  {'layers':<24} " + "  ".join(cells)


def _counter_drift(old: dict, new: dict, out) -> None:
    """Report solver counters present on only one side: new counters
    (e.g. a PR adding ``cubes_split``) print their value tagged
    ``(new)``; counters that disappeared are flagged, since that is
    usually a rename the baseline should be regenerated for."""
    ot, nt = _solver_totals(old), _solver_totals(new)
    for key in sorted(set(nt) - set(ot)):
        print(f"    counter {key:<22} {nt[key]:>10} (new)", file=out)
    for key in sorted(set(ot) - set(nt)):
        print(f"    counter {key:<22} {ot[key]:>10} (gone from new run)",
              file=out)


def compare(old: dict, new: dict, out=sys.stdout) -> tuple[float, float]:
    """Print the per-suite/per-section diff; return (old, new) total wall
    seconds over the sections the two files share."""
    total_old = total_new = 0.0
    # non-benchmark sections: run knobs and raw server snapshots
    skip = {"meta", "server_metrics"}
    shared = [s for s in old if s not in skip and s in new]
    for missing in sorted(set(old) - set(new) - skip):
        print(f"section {missing}: only in old file, skipped", file=out)
    for missing in sorted(set(new) - set(old) - skip):
        print(f"section {missing}: only in new file, skipped", file=out)
    for section in sorted(shared):
        print(f"section {section}:", file=out)
        olds, news = _suites(old[section]), _suites(new[section])
        for name in sorted(set(olds) | set(news)):
            if name not in olds or name not in news:
                side = "old" if name in olds else "new"
                print(f"  {name:<24} only in {side} file", file=out)
                continue
            if ("throughput_rps" in olds[name]
                    and "throughput_rps" in news[name]):
                print(_serve_row(name, olds[name], news[name]), file=out)
                continue
            if "dirty" in olds[name] and "dirty" in news[name]:
                print(_incremental_row(name, olds[name], news[name]),
                      file=out)
                continue
            print(_row(name, section_aggregate(olds[name]),
                       section_aggregate(news[name])), file=out)
        o = section_aggregate(old[section])
        n = section_aggregate(new[section])
        print(_row("TOTAL", o, n), file=out)
        layers = _layer_row(old[section], new[section])
        if layers:
            print(layers, file=out)
        _counter_drift(old[section], new[section], out)
        total_old += _num(o, "wall_seconds")
        total_new += _num(n, "wall_seconds")
    print(f"overall wall: {total_old:.3f}s -> {total_new:.3f}s "
          f"({_delta(total_old, total_new)})", file=out)
    return total_old, total_new


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="bench_compare",
        description="diff two BENCH_perf.json files (per-suite wall/query/"
                    "conflict/propagation deltas)")
    ap.add_argument("old", type=Path, help="baseline BENCH_perf.json")
    ap.add_argument("new", type=Path, help="candidate BENCH_perf.json")
    ap.add_argument("--fail-factor", type=float, default=2.0,
                    help="exit 2 if overall wall time exceeds baseline by "
                         "this factor (default 2.0)")
    args = ap.parse_args(argv)

    try:
        old = json.loads(args.old.read_text())
        new = json.loads(args.new.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    total_old, total_new = compare(old, new)
    if total_old > 0 and total_new > args.fail_factor * total_old:
        print(f"FAIL: overall wall time regressed more than "
              f"{args.fail_factor}x", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
