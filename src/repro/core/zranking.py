"""Z-ranking: the statistical alarm-ranking baseline (Kremenek & Engler,
SAS 2003 — the paper's related work [17]).

The paper positions ACSpec against statistical ranking: "Our method is
based on deep semantic reasoning of a program (unlike [17])".  To make
that comparison concrete, this module implements the z-ranking idea in
our setting so the benchmark harness can race the two.

Z-ranking's premise: a checker emits *successful checks* and *failed
checks*; alarms from populations with many successes and few failures are
likely true bugs (the code mostly honors the belief, so a violation is
interesting), while alarms from mostly-failing populations are likely a
bad checker fit (noise).  Each alarm is scored with the one-sided z-test
statistic on its population's success frequency:

    z = (s/n - p0) / sqrt(p0 (1 - p0) / n)

with ``s`` successes out of ``n`` checks and ``p0`` the prior success
rate (0.9 in the original).  Higher z = report earlier.

Our instantiation: the checker is the conservative verifier; a *check* is
an assertion, *successful* when the verifier proves it, *failed* when it
warns.  Populations group checks by kind and guardedness — e.g. all
``deref`` checks on a guarded path form one population — per program
(the "local" grouping of the original paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..lang.ast import Program
from ..lang.transform import prepare_procedure
from ..vc.encode import EncodedProcedure
from .analysis import _BUDGET_ERRORS
from .deadfail import Budget, DeadFailOracle


@dataclass
class RankedAlarm:
    proc_name: str
    label: str
    z_score: float
    population: str
    successes: int = 0
    checks: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[z={self.z_score:+.2f}] {self.proc_name}:{self.label} "
                f"(population {self.population}: {self.successes}/"
                f"{self.checks} succeed)")


def _population_of(label: str) -> str:
    """Group checks by their checker kind (deref / free / lock / user)."""
    return label.split("$", 1)[0]


def z_rank(program: Program, p0: float = 0.9,
           timeout: float | None = 10.0,
           unroll_depth: int = 2,
           proc_names: list[str] | None = None) -> list[RankedAlarm]:
    """Rank the conservative verifier's alarms by z-score, best first."""
    names = proc_names if proc_names is not None else [
        n for n, p in program.procedures.items() if p.body is not None]
    # pass 1: collect per-population success/failure counts
    observations: list[tuple[str, str, str, bool]] = []  # proc, label, pop, failed
    for name in names:
        try:
            prepared = prepare_procedure(program, program.proc(name),
                                         unroll_depth=unroll_depth)
            enc = EncodedProcedure(program, prepared)
            oracle = DeadFailOracle(enc, [], budget=Budget(timeout))
            failing = oracle.conservative_fail()
            failing_labels = set(oracle.labels_of(failing))
            seen: set[str] = set()
            for ev in enc.assert_events:
                if ev.label in seen:
                    continue
                seen.add(ev.label)
                observations.append((name, ev.label,
                                     _population_of(ev.label),
                                     ev.label in failing_labels))
        except _BUDGET_ERRORS:
            continue  # timeouts: that procedure contributes nothing
    counts: dict[str, tuple[int, int]] = {}
    for _, _, pop, failed in observations:
        s, n = counts.get(pop, (0, 0))
        counts[pop] = (s + (0 if failed else 1), n + 1)
    # pass 2: score the alarms
    alarms: list[RankedAlarm] = []
    for proc, label, pop, failed in observations:
        if not failed:
            continue
        s, n = counts[pop]
        denom = math.sqrt(p0 * (1 - p0) / n)
        z = ((s / n) - p0) / denom if denom else 0.0
        alarms.append(RankedAlarm(proc_name=proc, label=label, z_score=z,
                                  population=pop, successes=s, checks=n))
    alarms.sort(key=lambda a: (-a.z_score, a.proc_name, a.label))
    return alarms


@dataclass
class PrecisionAtK:
    """Precision of the first k ranked alarms against ground truth."""

    k: int
    hits: int

    @property
    def precision(self) -> float:
        return self.hits / self.k if self.k else 0.0


def precision_at_k(ranked: list, labels: dict, ks: list[int]) -> list[PrecisionAtK]:
    """``ranked`` is a list of (proc, label) in report order; ``labels``
    maps (proc, label) -> buggy?  Alarms without ground truth count as
    misses (conservative for the ranker)."""
    out = []
    for k in ks:
        top = ranked[:k]
        hits = sum(1 for key in top if labels.get(key, False))
        out.append(PrecisionAtK(k=min(k, len(ranked)) or k, hits=hits))
    return out
