"""No error is silently absorbed: a checker rejection during the post
phase (display simplification) reaches ``analyze_procedure`` and the
CLI's exit 3, and the interprocedural contract pass skips only budget
expiry."""

import pytest

from repro.cli import run
from repro.core import CONC, analyze_procedure
from repro.core.deadfail import AnalysisTimeout, DeadFailOracle
from repro.core.interproc import infer_contracts
from repro.lang import parse_program, typecheck
from repro.smt.api import CertificateError
from repro.smt.proofcheck import DrupChecker, ProofError

FIG1_BPL = """
var Freed: [int]int;
procedure Foo(c: int, buf: int, cmd: int) modifies Freed;
{
  if (*) {
    A1: assert Freed[c] == 0;  Freed[c] := 1;
    A2: assert Freed[buf] == 0; Freed[buf] := 1;
    return;
  }
  if (cmd == 0) {
    if (*) {
      A3: assert Freed[c] == 0;  Freed[c] := 1;
      A4: assert Freed[buf] == 0; Freed[buf] := 1;
    }
  }
  A5: assert Freed[c] == 0;  Freed[c] := 1;
  A6: assert Freed[buf] == 0; Freed[buf] := 1;
}
"""


@pytest.fixture()
def program():
    return typecheck(parse_program(FIG1_BPL))


@pytest.fixture()
def post_phase_rejection(monkeypatch):
    """The proof checker rejects every step replayed while the post
    phase (``simplify_clauses``) runs, and accepts everything before.
    Yields the list of steps it rejected."""
    rejected = []
    armed = []
    real_simplify = DeadFailOracle.simplify_clauses
    real_step = DrupChecker.step

    def simplify(self, clauses):
        armed.append(True)
        try:
            return real_simplify(self, clauses)
        finally:
            armed.pop()

    def step(self, tag, lits, just=None):
        if armed:
            rejected.append(tag)
            raise ProofError("injected rejection")
        return real_step(self, tag, lits, just)

    monkeypatch.setattr(DeadFailOracle, "simplify_clauses", simplify)
    monkeypatch.setattr(DrupChecker, "step", step)
    return rejected


def test_post_phase_rejection_reaches_analyze_procedure(
        program, post_phase_rejection):
    with pytest.raises(CertificateError, match="injected rejection"):
        analyze_procedure(program, "Foo", config=CONC, self_check=True)
    assert post_phase_rejection


def test_post_phase_rejection_exits_3(tmp_path, post_phase_rejection):
    path = tmp_path / "fig1.bpl"
    path.write_text(FIG1_BPL)
    code = run([str(path), "--self-check", "--no-cache"])
    assert code == 3
    assert post_phase_rejection


def test_post_phase_timeout_keeps_the_unsimplified_spec(program,
                                                        monkeypatch):
    def out_of_budget(self, clauses):
        raise AnalysisTimeout()

    full = analyze_procedure(program, "Foo", config=CONC)
    monkeypatch.setattr(DeadFailOracle, "simplify_clauses", out_of_budget)
    raw = analyze_procedure(program, "Foo", config=CONC)
    assert not raw.timed_out and not raw.failed
    assert raw.warnings == full.warnings
    assert len(raw.specs) == len(full.specs) > 0


@pytest.mark.parametrize("exc", [ValueError("synthetic bug"),
                                 CertificateError("synthetic rejection")])
def test_infer_contracts_propagates_non_budget_errors(program, monkeypatch,
                                                      exc):
    import repro.core.interproc as interproc

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(interproc, "find_abstract_sibs", boom)
    with pytest.raises(type(exc)):
        infer_contracts(program)


def test_infer_contracts_skips_budget_expiry(program, monkeypatch):
    import repro.core.interproc as interproc

    def expired(*args, **kwargs):
        raise AnalysisTimeout()

    monkeypatch.setattr(interproc, "find_abstract_sibs", expired)
    assert infer_contracts(program) == {}
