"""High-level driver: the public face of ACSpec.

``analyze_procedure`` runs one procedure under one configuration with
timeout accounting; ``analyze_program`` sweeps every procedure of a
program and aggregates the per-benchmark numbers the paper's tables use
(warning counts, timeouts, predicates/clauses/time per procedure).

Procedures are analyzed one at a time, as in the paper's tool.  Both
sweeps hand each procedure to `repro.core.tasks.run_task` as an
`repro.core.tasks.AnalysisTask` — the same unit of work the analysis
server (`repro.serve`) streams to its persistent pool — and turn the
results into a report with :func:`assemble_results`, the one assembly
the server uses too, so served output equals batch output by
construction.  A procedure whose analysis *raises* becomes a structured
failure entry in the report (``ProcedureReport.failed`` + ``.failure``)
instead of aborting the whole sweep.  The one exception is a rejected
solver certificate under ``self_check``: the batch sweeps re-raise it,
because a certificate failure means the toolchain itself is wrong.
Parallelism across procedures is the server's worker pool
(``repro serve --pool N``).

Both sweeps, and ``analyze_procedure`` itself, consult the persistent
content-addressed cache (`repro.core.cache`) when given one: a procedure
whose structural hash + configuration fingerprint is already on disk
returns its stored result with zero solver work and telemetry of its
own (``source="disk"``), and the hit/miss/store counters are merged
into ``ProgramReport.cache_stats``.

A ``ProcedureReport`` is a *result* (status, warnings, specs, counts)
plus per-run *telemetry* (timings, solver counters, certificates, where
the answer came from).  The telemetry fields are ``compare=False``, so
plain ``==`` compares results; :meth:`ProcedureReport.result_dict` is
the result alone, which is all the caches store.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

from ..lang.ast import Program
from ..lang.transform import prepare_procedure
from ..scenarios.classes import bug_class_counts
from ..smt.allsat import AllSatBudgetExceeded
from ..smt.theories.lia import LiaBudgetExceeded
from .acspec import SearchBudgetExceeded
from .cache import AnalysisCache, merge_cache_stats
from .config import AbstractionConfig, CONC
from .deadfail import AnalysisTimeout, Budget
from .sib import SibResult, SibStatus, find_abstract_sibs

_BUDGET_ERRORS = (AnalysisTimeout, LiaBudgetExceeded, AllSatBudgetExceeded,
                  SearchBudgetExceeded, RecursionError)


@dataclass
class ProcedureReport:
    proc_name: str
    config_name: str
    timed_out: bool = False
    # analysis blew up (bug, resource limit, dead worker): the sweep
    # carries on and this entry records what happened instead of the
    # whole program analysis aborting.  ``failure`` holds
    # {"type": exception-or-infrastructure code, "message": str}.
    failed: bool = False
    failure: dict = field(default_factory=dict)
    status: str = SibStatus.CORRECT
    warnings: list = field(default_factory=list)
    conservative_warnings: list = field(default_factory=list)
    # per-bug-class counts over ``warnings`` (label-prefix derived, see
    # repro.scenarios.classes.bug_class_of), sorted by class name
    bug_classes: dict = field(default_factory=dict)
    specs: list = field(default_factory=list)
    n_preds: int = 0
    n_cover_clauses: int = 0
    # ---- telemetry: how this run went (see DeadFailOracle.stats /
    # SatSolver.stats); never compared, never cached
    seconds: float = field(default=0.0, compare=False)
    queries: int = field(default=0, compare=False)
    cache_hits: int = field(default=0, compare=False)
    queries_saved: int = field(default=0, compare=False)
    solver_stats: dict = field(default_factory=dict, compare=False)
    # certificate counters when the run was self-checking (sat answers
    # model-validated / unsat answers proof-checked); empty otherwise
    certificates: dict = field(default_factory=dict, compare=False)
    # per-phase wall-time breakdown plus the budget left at the end
    phases: dict = field(default_factory=dict, compare=False)
    budget_remaining: float | None = field(default=None, compare=False)
    # where the answer came from: "computed" by this run, read from the
    # "disk" cache or the server's "hot" tier, or handed to a
    # "coalesced" twin of an in-flight computation
    source: str = field(default="computed", compare=False)
    # the budget ran out while simplifying the displayed specs, so they
    # are shown unsimplified and the report is not cached
    post_timed_out: bool = field(default=False, compare=False)

    @property
    def cacheable(self) -> bool:
        """Whether the result is a pure function of the cache key: a
        timeout, a failure or a post-phase budget expiry depends on the
        budget or on luck, which the key leaves out."""
        return not (self.timed_out or self.failed or self.post_timed_out)

    def result_dict(self) -> dict:
        """The result alone, JSON-shaped: what the caches store."""
        data = asdict(self)
        return {f.name: data[f.name] for f in fields(self) if f.compare}

    @classmethod
    def from_dict(cls, data: dict, **telemetry) -> "ProcedureReport":
        """The one decoder of a report dict (a cache record's result, a
        hot-tier record or a wire report), with ``telemetry`` fields
        set on top.  Strict: unknown fields raise ``ValueError``, so a
        record of another schema degrades to a miss, not to a
        malformed report."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown report fields {sorted(unknown)}")
        return cls(**{**data, **telemetry})


@dataclass
class ProgramReport:
    config_name: str
    prune_k: int | None
    reports: list = field(default_factory=list)
    # persistent-cache counters summed over the sweep (empty when the
    # sweep ran without a cache): hits/misses/stores/invalidations
    cache_stats: dict = field(default_factory=dict)

    @property
    def n_warnings(self) -> int:
        return sum(len(r.warnings) for r in self.reports if not r.timed_out)

    @property
    def n_conservative(self) -> int:
        return sum(len(r.conservative_warnings) for r in self.reports
                   if not r.timed_out)

    @property
    def n_timeouts(self) -> int:
        return sum(1 for r in self.reports if r.timed_out)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.reports if r.failed)

    @property
    def failed_procs(self) -> list[str]:
        return [r.proc_name for r in self.reports if r.failed]

    @property
    def warned_procs(self) -> list[str]:
        return [r.proc_name for r in self.reports if r.warnings]

    def bug_class_totals(self) -> dict:
        """Per-bug-class warning counts summed over the sweep (timed-out
        procedures excluded, like ``n_warnings``), sorted by class."""
        totals: dict = {}
        for r in self.reports:
            if r.timed_out:
                continue
            for cls, n in r.bug_classes.items():
                totals[cls] = totals.get(cls, 0) + n
        return {cls: totals[cls] for cls in sorted(totals)}

    def avg(self, attr: str) -> float:
        vals = [getattr(r, attr) for r in self.reports
                if not r.timed_out and not r.failed]
        return sum(vals) / len(vals) if vals else 0.0

    def total(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.reports)

    def solver_totals(self) -> dict:
        """Element-wise sum of the per-procedure SAT-core counters."""
        out: dict = {}
        for r in self.reports:
            for k, v in r.solver_stats.items():
                out[k] = out.get(k, 0) + v
        return out


def analyze_procedure(program: Program, proc_name: str,
                      config: AbstractionConfig = CONC,
                      prune_k: int | None = None,
                      timeout: float | None = 10.0,
                      unroll_depth: int = 2,
                      max_preds: int = 12,
                      lia_budget: int = 20000,
                      cache: AnalysisCache | str | None = None,
                      self_check: bool = False
                      ) -> ProcedureReport:
    """Analyze one procedure; budget exhaustion yields ``timed_out``.

    ``cache`` (an :class:`AnalysisCache` or a directory path) enables
    the persistent content-addressed cache: a hit returns the stored
    result (equal to the run that produced it) with this run's own
    telemetry — ``source="disk"``, the lookup wall as ``seconds``, zero
    solver counters — and a completed miss is stored for next time.
    Timed-out analyses, and analyses whose budget ran out while
    simplifying the displayed specs, are never cached (they depend on
    the budget, which is outside the key).

    ``self_check`` runs the solver in certificate-validating mode: a
    rejected certificate raises :class:`repro.smt.api.CertificateError`
    (it is deliberately *not* absorbed as a timeout).  Cache hits skip
    solving entirely.
    """
    cache = AnalysisCache.open(cache)
    start = time.monotonic()
    budget = Budget(timeout)
    prepared = None
    key = None
    if cache is not None:
        prepared = prepare_procedure(program, program.proc(proc_name),
                                     havoc_returns=config.havoc_returns,
                                     unroll_depth=unroll_depth)
        key = cache.analysis_key(program, prepared, config=config,
                                 prune_k=prune_k, unroll_depth=unroll_depth,
                                 max_preds=max_preds)
        hit = cache.load_analysis(key, proc_name=proc_name)
        if hit is not None:
            hit.seconds = time.monotonic() - start
            hit.budget_remaining = budget.remaining()
            return hit
    report = ProcedureReport(proc_name=proc_name, config_name=config.name)
    res: SibResult | None = None
    try:
        res = find_abstract_sibs(
            program, proc_name, config=config, prune_k=prune_k,
            budget=budget, unroll_depth=unroll_depth, max_preds=max_preds,
            lia_budget=lia_budget, prepared=prepared, self_check=self_check)
        report.status = res.status
        report.warnings = res.warnings
        report.conservative_warnings = res.conservative_warnings
        report.bug_classes = bug_class_counts(res.warnings)
        report.specs = res.specs
        report.n_preds = len(res.preds)
        report.n_cover_clauses = res.n_cover_clauses
        report.queries = res.queries
        report.cache_hits = res.cache_hits
        report.queries_saved = res.queries_saved
        report.solver_stats = res.solver_stats
        report.certificates = res.oracle_stats.get("certificates", {})
        report.phases = res.timings
        report.post_timed_out = res.post_timed_out
    except _BUDGET_ERRORS:
        report.timed_out = True
    report.seconds = time.monotonic() - start
    report.budget_remaining = budget.remaining()
    if cache is not None and res is not None:
        cache.store_analysis(key, report, res)
    return report


def _proc_names(program: Program, proc_names: list[str] | None) -> list[str]:
    if proc_names is not None:
        return proc_names
    return [name for name, p in program.procedures.items()
            if p.body is not None]


def _reraise_certificate(results: list) -> None:
    """A rejected certificate is a toolchain bug, not a per-procedure
    hiccup: the batch sweeps raise it (the CLI maps it to exit 3)."""
    for res in results:
        if res.failure is not None and \
                res.failure.get("type") == "CertificateError":
            from ..smt.api import CertificateError
            raise CertificateError(res.failure.get("message", ""))


def failure_report(proc_name: str, config_name: str,
                   failure: dict) -> ProcedureReport:
    """The structured per-procedure failure entry shared by the batch
    sweeps and the server's error path."""
    return ProcedureReport(proc_name=proc_name, config_name=config_name,
                           failed=True, failure=dict(failure))


def assemble_results(kind: str, results: list, config_name: str = CONC.name,
                     prune_k: int | None = None):
    """The report of a sweep from its per-procedure
    :class:`~repro.core.tasks.TaskResult` list, in order — the one
    assembly shared by the batch sweeps and the server.

    ``analyze`` results become a :class:`ProgramReport` (a failed task
    becomes a :func:`failure_report` entry); ``cons`` results become
    the Cons baseline's wire dict ``{"kind", "warnings", "timeouts",
    "failures", "cache_stats"}`` (a failed task has an empty warning
    list and a ``failures`` entry).  Cache counters are merged either
    way.
    """
    cache_stats = merge_cache_stats(r.cache_stats for r in results)
    if kind == "analyze":
        out = ProgramReport(config_name=config_name, prune_k=prune_k)
        out.reports = [r.report if r.failure is None else
                       failure_report(r.proc_name, config_name, r.failure)
                       for r in results]
        out.cache_stats = cache_stats
        return out
    warnings: dict[str, list] = {}
    failures: dict[str, dict] = {}
    timeouts = 0
    for r in results:
        if r.failure is not None:
            warnings[r.proc_name] = []
            failures[r.proc_name] = dict(r.failure)
            continue
        warnings[r.proc_name] = r.cons_warnings
        timeouts += r.cons_timed_out
    return {"kind": "cons", "warnings": warnings, "timeouts": timeouts,
            "failures": failures, "cache_stats": cache_stats}


def analyze_program(program: Program,
                    config: AbstractionConfig = CONC,
                    prune_k: int | None = None,
                    timeout: float | None = 10.0,
                    unroll_depth: int = 2,
                    max_preds: int = 12,
                    lia_budget: int = 20000,
                    proc_names: list[str] | None = None,
                    cache_dir: str | None = None,
                    self_check: bool = False) -> ProgramReport:
    """Analyze every procedure with a body.

    Report order follows ``proc_names`` order.  ``cache_dir`` points
    the sweep at the persistent analysis cache (`repro.core.cache`);
    its counters are merged into ``ProgramReport.cache_stats``.  A
    procedure whose analysis raises becomes a :func:`failure_report`
    entry; a ``CertificateError`` is re-raised after the sweep.
    """
    from .tasks import AnalysisTask, run_task
    cache_dir = str(cache_dir) if cache_dir is not None else None
    results = [run_task(AnalysisTask(
        kind="analyze", proc_name=name, program=program,
        config_name=config.name, prune_k=prune_k, timeout=timeout,
        unroll_depth=unroll_depth, max_preds=max_preds,
        lia_budget=lia_budget, cache_dir=cache_dir, self_check=self_check))
        for name in _proc_names(program, proc_names)]
    _reraise_certificate(results)
    return assemble_results("analyze", results, config.name, prune_k)


def conservative_program(program: Program, timeout: float | None = 10.0,
                         unroll_depth: int = 2,
                         lia_budget: int = 20000,
                         proc_names: list[str] | None = None,
                         cache_dir: str | None = None,
                         cache_stats_out: dict | None = None,
                         self_check: bool = False,
                         failures_out: dict | None = None):
    """The Cons baseline over a program: (per-proc warning lists, timeouts).

    ``cache_dir`` enables the persistent cache as in
    :func:`analyze_program`; because the return shape is fixed, the
    merged cache counters are delivered by mutating ``cache_stats_out``
    (when a dict is passed) instead of being returned.  A procedure
    whose check raises is reported with an empty warning list; pass
    ``failures_out`` (a dict) to collect the structured
    ``{proc_name: {"type", "message"}}`` failure entries.
    """
    from .tasks import AnalysisTask, run_task
    cache_dir = str(cache_dir) if cache_dir is not None else None
    results = [run_task(AnalysisTask(
        kind="cons", proc_name=name, program=program, timeout=timeout,
        unroll_depth=unroll_depth, lia_budget=lia_budget,
        cache_dir=cache_dir, self_check=self_check))
        for name in _proc_names(program, proc_names)]
    _reraise_certificate(results)
    cons = assemble_results("cons", results)
    if failures_out is not None:
        failures_out.update(cons["failures"])
    if cache_stats_out is not None:
        cache_stats_out.update(cons["cache_stats"])
    return cons["warnings"], cons["timeouts"]


# ----------------------------------------------------------------------
# wire format: the JSON shape the analysis server ships reports in
# ----------------------------------------------------------------------

def program_report_to_json(report: ProgramReport) -> dict:
    """A JSON-safe dict carrying a ``ProgramReport``: every report field,
    telemetry included, flat."""
    return {
        "config_name": report.config_name,
        "prune_k": report.prune_k,
        "cache_stats": dict(report.cache_stats),
        "reports": [asdict(r) for r in report.reports],
    }


def program_report_from_json(data: dict) -> ProgramReport:
    """Inverse of :func:`program_report_to_json` (strict, through
    :meth:`ProcedureReport.from_dict`)."""
    out = ProgramReport(config_name=data["config_name"],
                        prune_k=data["prune_k"])
    out.reports = [ProcedureReport.from_dict(rd) for rd in data["reports"]]
    out.cache_stats = dict(data.get("cache_stats") or {})
    return out
