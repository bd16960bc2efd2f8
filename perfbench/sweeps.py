"""``batch_sweep`` and ``certified_sweep``: batch analyses through
``analyze_procedure``, one operation per (procedure, config).

The work set is one pass over suites generated from the run's seed and
compiled during set-up.  An untraced run analyzes it once per round,
each round in a fresh interpreter, so every round is the first analysis
of those programs for its process, as for a CLI user; its results give
``verdict_accuracy`` and the result digest, which therefore depend on
the seed only, and every round must give the same digest.
"""

from __future__ import annotations

import statistics

import harness
from harness import Recorder, now
from layers import Counters

#: per-analysis budget (seconds): the CLI default
TIMEOUT = 10.0
#: |Q| cap of the paper's Figure 9 path (``repro.bench.runner.run_suite``)
MAX_PREDS = 10


def suite_seed(seed: int, pass_no: int, index: int) -> int:
    return (seed * 1_000_003 + pass_no * 1009 + index) & 0x7FFFFFFF


def batch_inputs(seed: int, pass_no: int) -> list:
    """The Figure 9 large suites under Conc/A1/A2 plus the five
    bug-class scenario suites under Conc/A0/A1/A2."""
    from repro.bench.suites import LARGE_SUITE_RECIPES, make_suite
    from repro.scenarios.generators import SCENARIO_SUITE_RECIPES
    plan = [(name, ("Conc", "A1", "A2")) for name in LARGE_SUITE_RECIPES]
    plan += [(name, ("Conc", "A0", "A1", "A2"))
             for name in SCENARIO_SUITE_RECIPES]
    return [(make_suite(name, seed=suite_seed(seed, pass_no, i)), configs)
            for i, (name, configs) in enumerate(plan)]


#: fig5-small suites at this scale for the certified sweep
CERT_SCALE = 0.5


def certified_inputs(seed: int, pass_no: int) -> list:
    """The fig5-small suites without the Figure 1 double-free shape (see
    README: one certified analysis of it takes 5-9 s, next to the 10 s
    budget), under Conc/A1/A2."""
    from repro.bench.suites import SMALL_SUITE_RECIPES, build_suite
    out = []
    for i, (name, (desc, mix)) in enumerate(SMALL_SUITE_RECIPES.items()):
        mix = {pat: n for pat, n in mix.items() if pat != "double_free"}
        suite = build_suite(name, desc, mix,
                            seed=suite_seed(seed, pass_no, i),
                            scale=CERT_SCALE)
        out.append((suite, ("Conc", "A1", "A2")))
    return out


class Sweep:
    """One sweep workload; ``certified`` selects the certified one."""

    def __init__(self, seed: int, certified: bool) -> None:
        self.seed = seed
        self.certified = certified
        self.inputs = certified_inputs if certified else batch_inputs

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        self.ops = self._compile()

    def _compile(self) -> list:
        """The work set: ``(key, program, proc, config, labels)``."""
        from repro.bench.runner import compile_suite
        from repro.core.config import BY_NAME
        ops = []
        for suite, configs in self.inputs(self.seed, 0):
            program = compile_suite(suite)
            for fn in suite.functions:
                labels = {label: buggy for (func, label), buggy
                          in suite.labels.items() if func == fn.name}
                for cfg in configs:
                    ops.append((f"{suite.name}/{fn.name}/{cfg}",
                                program, fn.name, BY_NAME[cfg], labels))
        return ops

    def close(self) -> None:
        pass

    # -- one operation ---------------------------------------------------

    def _run_op(self, op, rec: Recorder, tracer, counters=None):
        from repro.core.analysis import analyze_procedure
        key, program, name, config, _labels = op
        tracer.op = key
        t0 = now()
        why = ""
        report = None
        try:
            with tracer.span("op"):
                report = analyze_procedure(
                    program, name, config, max_preds=MAX_PREDS,
                    timeout=TIMEOUT, self_check=self.certified)
        except Exception as exc:  # noqa: BLE001 — a failed operation
            why = f"{key}: {type(exc).__name__}: {exc}"
        elapsed = now() - t0
        if report is not None:
            if report.timed_out or report.failed:
                why = f"{key}: timed_out={report.timed_out} " \
                      f"failure={report.failure}"
            elif self.certified and \
                    report.certificates.get("lemmas_trusted", 0) != 0:
                why = f"{key}: {report.certificates['lemmas_trusted']} " \
                      "trusted lemmas"
            if counters is not None:
                counters.add_report(report)
        rec.done(key, elapsed, ok=not why, why=why)
        return report if not why else None

    # -- one round of an untraced run ---------------------------------------

    def run_round(self, rec: Recorder, tracer, first: bool) -> dict:
        results: dict = {}
        matches = total = 0
        t0 = now()
        for op in self.ops:
            report = self._run_op(op, rec, tracer)
            if report is not None:
                results[op[0]] = harness.result_fields(report)
                m, n = harness.verdict_matches(op[4], set(report.warnings))
                matches += m
                total += n
        return {"wall": now() - t0, "concurrency": 1,
                "digest": harness.digest(results),
                "accuracy": matches / total if total else 0.0}

    # -- the traced run ----------------------------------------------------

    def run_traced(self, seconds: float, rec: Recorder, tracer) -> dict:
        """The work set repeated, alternately traced and untraced, with the
        process-wide baseline memo emptied before each repetition so each
        one starts as the first did.  Per-layer numbers come from the
        first traced repetition; the overhead compares the median traced
        and untraced repetition walls."""
        from repro.core.deadfail import clear_baseline_cache
        ops = self.ops
        walls = {True: [], False: []}
        first_ops: set = set()
        counters = Counters()
        digests = []
        t_start = now()
        rep = 0
        while rep < 2 or now() - t_start < seconds:
            traced = rep % 2 == 0
            clear_baseline_cache()
            tracer.enabled = traced
            results = {}
            t0 = now()
            for op in ops:
                key = op[0] if rep == 0 else f"r{rep}/{op[0]}"
                report = self._run_op((key,) + op[1:], rec, tracer,
                                      counters if rep == 0 else None)
                if report is not None:
                    results[op[0]] = harness.result_fields(report)
                if rep == 0:
                    first_ops.add(key)
            walls[traced].append(now() - t0)
            tracer.enabled = False
            digests.append(harness.digest(results))
            rep += 1
        rec.check(len(set(digests)) == 1,
                  "result digest differs between repetitions")
        overhead = (statistics.median(walls[True])
                    / statistics.median(walls[False]) - 1.0) * 100.0
        return {"ops": first_ops, "counters": counters,
                "overhead_pct": overhead, "digest": digests[0],
                "traced_wall": walls[True][0]}
