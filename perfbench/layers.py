"""The analyzer's layers as the benchmark sees them from outside.

:func:`install` wraps the public functions of each layer with the
tracer; :func:`per_layer_metrics` turns a traced work set (spans plus
the counters the reports already carry) into the per-layer metrics
listed in ``BENCHMARK.json``.  Every workload reports every metric; a
layer a workload does not reach reads 0.
"""

from __future__ import annotations

from harness import Tracer

#: Analysis phases in pipeline order: span name -> the key the report's
#: ``ProcedureReport.phases`` uses for the same phase.
PHASES = {
    "lang.lower": "lower",
    "vc.encode": "encode",
    "core.mine": "mine",
    "core.baseline": "baseline",
    "core.cover": "cover",
    "core.search": "search",
    "core.post": "post",
}

#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "lang.lower_s": "s",
    "vc.encode_s": "s",
    "core.mine_s": "s",
    "core.baseline_s": "s",
    "core.cover_s": "s",
    "core.search_s": "s",
    "core.post_s": "s",
    "core.unattributed_s": "s",
    "core.queries": "count",
    "smt.check_calls": "count",
    "smt.check_s": "s",
    "smt.sat.conflicts": "count",
    "smt.sat.propagations": "count",
    "smt.euf_s": "s",
    "smt.lia_s": "s",
    "smt.interface_s": "s",
    "smt.model_s": "s",
    "smt.model_calls": "count",
    "smt.justify_s": "s",
    "smt.proofcheck_s": "s",
    "smt.lemmas_checked": "count",
    "smt.lemmas_trusted": "count",
    "frontend.compile_s": "s",
    "frontend.ingest_s": "s",
    "core.incremental.plan_s": "s",
    "core.incremental.manifest_s": "s",
    "core.incremental.analyzed": "count",
    "core.cache.load_s": "s",
    "core.cache.store_s": "s",
    "core.cache.hit_ratio": "ratio",
    "serve.submit_ms": "ms",
    "serve.result_ms": "ms",
    "serve.task_wait_ms": "ms",
    "serve.task_run_ms": "ms",
    "serve.hot_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.overloaded": "count",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "trace.phase_gap_pct": "%",
}

#: span name -> per-layer time metric (inclusive seconds of the span)
_SPAN_METRICS = {
    "lang.lower": "lang.lower_s",
    "vc.encode": "vc.encode_s",
    "core.mine": "core.mine_s",
    "core.baseline": "core.baseline_s",
    "core.cover": "core.cover_s",
    "core.search": "core.search_s",
    "core.post": "core.post_s",
    "smt.check": "smt.check_s",
    "smt.model": "smt.model_s",
    "smt.justify": "smt.justify_s",
    "smt.proofcheck": "smt.proofcheck_s",
    "frontend.compile": "frontend.compile_s",
    "frontend.ingest": "frontend.ingest_s",
    "core.incremental.plan": "core.incremental.plan_s",
    "core.incremental.manifest": "core.incremental.manifest_s",
    "core.cache.load": "core.cache.load_s",
    "core.cache.store": "core.cache.store_s",
}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (module attributes are
    patched where the caller looks them up, so the analyzer's own
    call sites go through the wrappers)."""
    import repro.bench.runner as runner
    import repro.core.analysis as analysis
    import repro.core.incremental as incremental
    import repro.core.sib as sib
    import repro.frontend.lower as lower
    import repro.smt.dpllt as dpllt
    import repro.smt.model as model
    from repro.core.cache import AnalysisCache
    from repro.core.deadfail import DeadFailOracle
    from repro.serve.client import ServeClient
    from repro.smt.api import Solver
    from repro.smt.proofcheck import DrupChecker

    w = tracer.wrap
    # frontend
    w(lower, "compile_c", "frontend.compile")
    w(runner, "compile_c", "frontend.compile")
    w(incremental, "ingest_directory", "frontend.ingest")
    # analysis phases (names as sib.py binds them)
    w(analysis, "find_abstract_sibs", "core.sib")
    w(analysis, "prepare_procedure", "lang.lower")
    w(sib, "prepare_procedure", "lang.lower")
    w(sib, "EncodedProcedure", "vc.encode")
    w(sib, "mine_predicates", "core.mine")
    w(sib, "DeadFailOracle", "core.baseline")
    w(DeadFailOracle, "conservative_fail", "core.baseline")
    w(sib, "predicate_cover", "core.cover")
    w(sib, "find_almost_correct_specs", "core.search")
    w(DeadFailOracle, "simplify_clauses", "core.post")
    w(sib, "clause_set_formula", "core.post")
    w(sib, "pp_formula", "core.post")
    # solver and certificates
    w(Solver, "check", "smt.check")
    w(model, "extract_model", "smt.model")
    w(dpllt, "justify_lemma", "smt.justify")
    w(DrupChecker, "step", "smt.proofcheck")
    w(DrupChecker, "flush", "smt.proofcheck")
    # incremental CI and the persistent cache
    w(incremental, "plan_increment", "core.incremental.plan")
    w(incremental, "load_manifest", "core.incremental.manifest")
    w(incremental, "save_manifest", "core.incremental.manifest")
    w(AnalysisCache, "load_analysis", "core.cache.load")
    w(AnalysisCache, "store_analysis", "core.cache.store")
    # service client
    w(ServeClient, "submit", "serve.submit")
    w(ServeClient, "result", "serve.result")


class Counters:
    """Counters read from the reports of a traced work set."""

    def __init__(self) -> None:
        self.queries = 0
        self.conflicts = 0
        self.propagations = 0
        self.euf_s = 0.0
        self.lia_s = 0.0
        self.interface_s = 0.0
        self.lemmas_checked = 0
        self.lemmas_trusted = 0
        self.analyzed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # reported ``phases`` summed per phase key, for the cross-check
        self.phases: dict[str, float] = {}

    def add_report(self, report) -> None:
        stats = report.solver_stats or {}
        self.queries += report.queries
        self.conflicts += stats.get("conflicts", 0)
        self.propagations += stats.get("propagations", 0)
        self.euf_s += stats.get("time_euf", 0.0)
        self.lia_s += stats.get("time_lia", 0.0)
        self.interface_s += stats.get("time_interface", 0.0)
        certs = report.certificates or {}
        self.lemmas_checked += certs.get("lemmas_checked", 0)
        self.lemmas_trusted += certs.get("lemmas_trusted", 0)
        for key, val in (report.phases or {}).items():
            self.phases[key] = self.phases.get(key, 0.0) + val


def phase_gap_pct(table: dict, counters: Counters) -> float | None:
    """Largest difference, in percentage points, between a phase's share
    of the traced phase split and its share of the split the reports
    carry (``None`` when the work set ran no analysis phase)."""
    traced = {span: table.get(span, {}).get("incl_s", 0.0)
              for span in PHASES}
    reported = {span: counters.phases.get(key, 0.0)
                for span, key in PHASES.items()}
    t_total, r_total = sum(traced.values()), sum(reported.values())
    if t_total <= 0 or r_total <= 0:
        return None
    return max(abs(traced[s] / t_total - reported[s] / r_total)
               for s in PHASES) * 100.0


def per_layer_metrics(tracer: Tracer, ops: set, counters: Counters, *,
                      overhead_pct: float, setup_ops: set = frozenset(),
                      serve: dict | None = None) -> tuple[dict, dict]:
    """``(metrics, table)`` for the traced work set ``ops``.  Compile
    spans are counted from ``setup_ops`` too, because the sweeps compile
    their inputs during set-up."""
    table = tracer.table(ops)
    values = {name: 0 for name in PER_LAYER}
    for span, metric in _SPAN_METRICS.items():
        values[metric] = table.get(span, {}).get("incl_s", 0.0)
    compile_rows = tracer.table(set(ops) | set(setup_ops))
    values["frontend.compile_s"] = \
        compile_rows.get("frontend.compile", {}).get("incl_s", 0.0)
    values["core.unattributed_s"] = table.get("core.sib", {}).get(
        "self_s", 0.0)
    values["core.queries"] = counters.queries
    values["smt.check_calls"] = table.get("smt.check", {}).get("calls", 0)
    values["smt.model_calls"] = table.get("smt.model", {}).get("calls", 0)
    values["smt.sat.conflicts"] = counters.conflicts
    values["smt.sat.propagations"] = counters.propagations
    values["smt.euf_s"] = counters.euf_s
    values["smt.lia_s"] = counters.lia_s
    values["smt.interface_s"] = counters.interface_s
    values["smt.lemmas_checked"] = counters.lemmas_checked
    values["smt.lemmas_trusted"] = counters.lemmas_trusted
    values["core.incremental.analyzed"] = counters.analyzed
    lookups = counters.cache_hits + counters.cache_misses
    values["core.cache.hit_ratio"] = \
        counters.cache_hits / lookups if lookups else 0.0
    if serve:
        values.update(serve)
    values["trace.ops"] = len(ops)
    values["trace.spans"] = sum(row["calls"] for row in table.values())
    values["trace.unattributed_s"] = table.get("op", {}).get("self_s", 0.0)
    values["trace.overhead_pct"] = overhead_pct
    gap = phase_gap_pct(table, counters)
    values["trace.phase_gap_pct"] = gap if gap is not None else 0.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, table
