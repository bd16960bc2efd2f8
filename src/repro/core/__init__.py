"""The paper's contribution: abstract semantic inconsistency bugs and
almost-correct specifications (ACSpec)."""

from .acspec import (AcspecResult, SearchBudgetExceeded,
                     find_almost_correct_specs)
from .analysis import (ProcedureReport, ProgramReport, analyze_procedure,
                       analyze_program, assemble_results,
                       conservative_program, failure_report,
                       program_report_from_json, program_report_to_json)
from .cache import SCHEMA_VERSION as CACHE_SCHEMA_VERSION
from .cache import AnalysisCache
from .checker import CheckResult, check_procedure
from .clauses import (ClauseSet, QClause, clause_formula, clause_set_formula,
                      normalize, prune_clauses)
from .config import A0, A1, A2, ALL_CONFIGS, BY_NAME, CONC, AbstractionConfig
from .cover import predicate_cover
from .deadfail import AnalysisTimeout, Budget, DeadFailOracle
from .predicates import mine_predicates
from .sib import SibResult, SibStatus, find_abstract_sibs
from .tasks import AnalysisTask, TaskResult, coalesce_key, run_task

__all__ = [
    "AcspecResult", "SearchBudgetExceeded", "find_almost_correct_specs",
    "ProcedureReport", "ProgramReport", "analyze_procedure",
    "analyze_program", "assemble_results", "conservative_program",
    "failure_report", "program_report_from_json", "program_report_to_json",
    "AnalysisTask", "TaskResult", "coalesce_key", "run_task",
    "AnalysisCache", "CACHE_SCHEMA_VERSION",
    "CheckResult", "check_procedure",
    "ClauseSet", "QClause", "clause_formula", "clause_set_formula",
    "normalize", "prune_clauses",
    "A0", "A1", "A2", "ALL_CONFIGS", "BY_NAME", "CONC", "AbstractionConfig",
    "predicate_cover",
    "AnalysisTimeout", "Budget", "DeadFailOracle",
    "mine_predicates",
    "SibResult", "SibStatus", "find_abstract_sibs",
]

# Extensions beyond the paper's prototype (motivated by its §6/§7):
from .doomed import DoomedReport, find_doomed
from .incremental import (CiResult, IncrementPlan, load_manifest,
                          plan_increment, render_delta, run_ci,
                          save_manifest, warning_delta)
from .interproc import (InterprocResult, analyze_program_interprocedural,
                        call_graph, callers_of, infer_contracts,
                        spec_dependents, spec_fingerprint,
                        strengthen_program)
from .report import TriagedWarning, TriageReport, triage_program, witness_path
from .zranking import RankedAlarm, precision_at_k, z_rank

__all__ += [
    "DoomedReport", "find_doomed",
    "CiResult", "IncrementPlan", "load_manifest", "plan_increment",
    "render_delta", "run_ci", "save_manifest", "warning_delta",
    "InterprocResult", "analyze_program_interprocedural",
    "call_graph", "callers_of", "spec_dependents", "spec_fingerprint",
    "infer_contracts", "strengthen_program",
    "TriagedWarning", "TriageReport", "triage_program", "witness_path",
    "RankedAlarm", "precision_at_k", "z_rank",
]
