"""Z-ranking baseline tests."""

import pytest

from repro import compile_c
from repro.core.deadfail import AnalysisTimeout, DeadFailOracle
from repro.core.zranking import (PrecisionAtK, RankedAlarm, precision_at_k,
                                 z_rank)
from repro.smt.api import CertificateError


SRC = """
void safe1(int *p) { if (p != NULL) { *p = 1; } }
void safe2(int *q) { if (q != NULL) { *q = 1; } }
void safe3(int *r) { if (r != NULL) { *r = 1; } }
void envdep(int *s) { *s = 1; }
void doublefree(int *c) {
  if (nondet()) { free(c); return; }
  free(c);
}
"""


class TestZRank:
    def test_only_failing_checks_are_alarms(self):
        prog = compile_c(SRC)
        ranked = z_rank(prog)
        keys = {(a.proc_name, a.label) for a in ranked}
        # the three guarded derefs are proven: no alarm
        assert not any(p.startswith("safe") for p, _ in keys)
        assert ("envdep", "deref$1") in keys

    def test_populations_grouped_by_kind(self):
        prog = compile_c(SRC)
        ranked = z_rank(prog)
        pops = {a.population for a in ranked}
        assert pops <= {"deref", "free", "lock", "unlock", "user"}
        deref = next(a for a in ranked if a.population == "deref")
        # 4 deref checks in the program, 3 proven
        assert deref.checks == 4 and deref.successes == 3

    def test_healthier_population_ranks_first(self):
        prog = compile_c(SRC)
        ranked = z_rank(prog)
        # deref population: 3/4 succeed; free population: 0/2 succeed
        # (both frees fail demonically) -> deref alarms rank above free
        order = [a.population for a in ranked]
        assert order.index("deref") < order.index("free")

    def test_scores_monotone_in_success_rate(self):
        prog = compile_c(SRC)
        by_pop = {}
        for a in z_rank(prog):
            by_pop[a.population] = a
        assert by_pop["deref"].z_score > by_pop["free"].z_score

    def test_deterministic(self):
        prog = compile_c(SRC)
        a = [(x.proc_name, x.label) for x in z_rank(prog)]
        b = [(x.proc_name, x.label) for x in z_rank(prog)]
        assert a == b


class TestExceptionDiscipline:
    """Only a budget expiry drops a procedure from the ranking; anything
    else (a bug, a rejected certificate) must reach the caller instead of
    silently shifting the z-scores."""

    @pytest.mark.parametrize("exc", [TypeError("bad row"),
                                     CertificateError("rejected proof")])
    def test_non_budget_errors_propagate(self, monkeypatch, exc):
        def boom(self):
            raise exc
        monkeypatch.setattr(DeadFailOracle, "conservative_fail", boom)
        with pytest.raises(type(exc)):
            z_rank(compile_c(SRC))

    def test_budget_expiry_drops_the_procedure(self, monkeypatch):
        def expire(self):
            raise AnalysisTimeout()
        monkeypatch.setattr(DeadFailOracle, "conservative_fail", expire)
        assert z_rank(compile_c(SRC)) == []


class TestPrecisionAtK:
    def test_counts_hits(self):
        ranked = [("f", "a"), ("f", "b"), ("g", "a")]
        labels = {("f", "a"): True, ("f", "b"): False, ("g", "a"): True}
        (p2,) = precision_at_k(ranked, labels, [2])
        assert p2.hits == 1
        assert p2.precision == 0.5

    def test_unlabeled_alarms_are_misses(self):
        ranked = [("f", "a"), ("x", "zz")]
        labels = {("f", "a"): True}
        (p,) = precision_at_k(ranked, labels, [2])
        assert p.hits == 1

    def test_k_zero(self):
        (p,) = precision_at_k([], {}, [0])
        assert p.precision == 0.0
