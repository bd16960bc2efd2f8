"""Shared helpers for the figure benchmarks."""

import json
import os
import pathlib
import subprocess

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Machine-readable perf trajectory, at the repo root so successive PRs can
# diff it: suite wall-times, total oracle queries, cache hits, and the
# SAT-core counters land here, one top-level section per benchmark.
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"

# Append-only perf trajectory: every emit_json call adds one aggregate line
# (section, wall, queries, conflicts, propagations, git rev) so regressions
# can be bisected across runs without diffing whole BENCH_perf.json blobs.
BENCH_HISTORY = BENCH_JSON.parent / "BENCH_history.jsonl"

# Paper-vs-us scale factor for suite sizes; raise for a longer, closer-to-
# paper-sized run: REPRO_BENCH_SCALE=3 pytest benchmarks/ --benchmark-only
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

# Per-procedure timeout, like the paper's 10s
TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "10.0"))

# Optional persistent-cache directory for warm-start sweeps: point
# REPRO_BENCH_CACHE_DIR at a directory and a second benchmark run serves
# unchanged procedures from disk (hits land in BENCH_perf.json "pcache").
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR") or None

# REPRO_BENCH_SELF_CHECK=1 certificate-checks every solver answer during
# the sweep (CI perf-smoke runs with this on: the perf numbers then also
# witness that reduction/lemma-cache proofs still certify).
SELF_CHECK = os.environ.get("REPRO_BENCH_SELF_CHECK", "") not in ("", "0")


def emit(name: str, table: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n")
    print(f"\n=== {name} (also written to {path}) ===")
    print(table)


def emit_json(section: str, payload: dict) -> None:
    """Merge ``payload`` under ``section`` into BENCH_perf.json.

    The file accumulates sections across benchmark runs (fig9, fig6, ...)
    so the whole perf picture survives partial reruns; ``meta`` records
    the knobs the numbers were taken under.
    """
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data["meta"] = {"scale": SCALE, "timeout": TIMEOUT,
                    "self_check": SELF_CHECK}
    data[section] = payload
    BENCH_JSON.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\n=== {section} perf counters merged into {BENCH_JSON} ===")
    record = {"section": section, "scale": SCALE, "timeout": TIMEOUT,
              "git_rev": _git_rev()}
    record.update(section_aggregate(payload))
    with BENCH_HISTORY.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(BENCH_JSON.parent), capture_output=True, text=True,
            timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def section_aggregate(payload: dict) -> dict:
    """One-line rollup of a BENCH_perf.json section: total wall seconds,
    oracle queries, SAT-core conflicts/propagations and checked theory
    lemmas, summed over the section's per-suite records (falling back to
    the section's own top-level fields for suite-less sections like
    ``warm_cache`` and ``selfcheck_checked_lemmas``)."""
    agg = {"wall_seconds": 0.0, "queries": 0,
           "conflicts": 0, "propagations": 0, "lemmas_checked": 0}
    suites = payload.get("suites")
    records = list(suites.values()) if isinstance(suites, dict) else [payload]
    for rec in records:
        if not isinstance(rec, dict):
            continue
        agg["wall_seconds"] += (rec.get("wall_seconds", 0.0)
                                + rec.get("cold_seconds", 0.0)
                                + rec.get("warm_seconds", 0.0)
                                + rec.get("sweep_wall_checked_s", 0.0))
        agg["queries"] += (rec.get("queries", rec.get("total_queries", 0))
                           + rec.get("cold_queries", 0)
                           + rec.get("warm_queries", 0))
        solver = rec.get("solver", {})
        agg["conflicts"] += solver.get("conflicts", 0)
        agg["propagations"] += solver.get("propagations", 0)
        agg["lemmas_checked"] += rec.get("lemmas_checked", 0)
    agg["wall_seconds"] = round(agg["wall_seconds"], 3)
    return agg


def suite_run_stats(run) -> dict:
    """The JSON-able observability slice of a ``SuiteRun``."""
    return {
        "wall_seconds": round(run.wall_seconds, 3),
        "queries": run.total_queries,
        "cache_hits": run.total_cache_hits,
        "queries_saved": run.total_queries_saved,
        "solver": run.solver_stats,
        "timeouts": run.n_timeouts,
        "pcache": dict(run.pcache),
    }


def sum_pcache(stats) -> dict:
    """Sum the per-suite persistent-cache counters from suite_run_stats
    dicts into one hits/misses/stores/invalidations total."""
    out = {"hits": 0, "misses": 0, "stores": 0, "invalidations": 0}
    for s in stats:
        for k, v in s.get("pcache", {}).items():
            out[k] = out.get(k, 0) + v
    return out
