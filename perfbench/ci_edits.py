"""``ci_edits``: scripted edits to a generated BoogiePL repository, each
followed by an incremental ``run_ci`` rerun.

Set-up writes the Figure 9 large suites (seeded) as one ``.bpl`` file
per suite plus ``prelude.bpl`` (globals, functions and the bodiless
``bar``), then runs ``run_ci`` cold with a manifest and a persistent
cache.  One operation is one edit plus its rerun.  Every edit's effect
on the warning delta and on the set of re-analyzed procedures is known
by construction, and the benchmark checks both:

* ``body``: procedure P takes the definition of another procedure Q
  plus an unused local store with a fresh constant, so P is new content
  that must be analyzed, and its warnings must become Q's.  Q comes from
  the cost bands (``BANDS``, by the solver queries of its cold analysis)
  in turn, so every seed's body edits re-analyze cheap and expensive
  procedures alike;
* ``spec``: ``bar`` gets a fresh always-true ``ensures`` clause, which
  dirties every caller and changes no warning;
* ``rename``: P gets a new name and may move to another file; the
  rerun serves it from the cache, and its warnings move to the new name;
* ``comment``: a comment line in a suite file; nothing is analyzed;
* ``revert``: the most recent edit not yet reverted is undone.

The kinds follow a fixed cycle (``CYCLE``); ``verdict_accuracy`` is
taken over the cold run, whose verdicts every later edit's expected
delta builds on.
"""

from __future__ import annotations

import random
import shutil
import statistics
from dataclasses import dataclass, replace

import harness
from harness import Recorder, now
from layers import Counters

#: scale of the Figure 9 suites the repository is built from
SCALE = 0.5
#: The edit kinds, in a fixed cycle: every run has the same mix of cheap
#: and expensive edits, so ``latency_p90_ms`` does not depend on how many
#: expensive edits a seed happens to draw.  The seed picks the targets.
CYCLE = ("body", "rename", "comment", "body", "revert",
         "rename", "body", "comment", "revert", "spec",
         "body", "rename", "revert", "comment", "body",
         "rename", "revert", "body", "comment", "revert")
#: edits per round of an untraced run (five cycles), so p90 has ten
#: samples beyond it
EDITS = 100
#: cost bands of the procedures a ``body`` edit copies from: one per
#: ``body`` edit of a round
BANDS = 30
#: edits per repetition of the traced run
TRACED_EDITS = 40


@dataclass(frozen=True)
class Proc:
    file: str
    text: str
    labels: dict          # assertion label -> buggy (ground truth)
    high: frozenset       # expected ACSpec warnings
    cons: frozenset       # expected conservative warnings
    cost: int = 0         # solver queries of its cold analysis


@dataclass
class State:
    procs: dict           # name -> Proc (procedures with a body)
    bar_clause: str       # the extra ensures clause of ``bar`` ("" = none)
    comments: dict        # file -> number of comment lines

    def copy(self) -> "State":
        return State(dict(self.procs), self.bar_clause, dict(self.comments))


class CiEdits:

    def __init__(self, root, seed: int) -> None:
        self.seed = seed
        self.work = harness.scratch_dir(root, "ci")

    # -- the repository ----------------------------------------------------

    def _render(self, state: State) -> dict:
        files = {"prelude.bpl": self.prelude_head + self.bar_text.replace(
            "\n  ;", f"\n{state.bar_clause}  ;" if state.bar_clause
            else "\n  ;") + "\n"}
        for name in self.suite_files:
            lines = [f"// edit note {i}" for i in range(
                state.comments.get(name, 0))]
            files[name] = "\n".join(lines + [
                p.text for p in state.procs.values() if p.file == name]) \
                + "\n"
        return files

    def _write(self, state: State) -> None:
        for rel, text in self._render(state).items():
            if self._on_disk.get(rel) != text:
                (self.repo / rel).write_text(text)
                self._on_disk[rel] = text

    def setup(self) -> None:
        from repro.bench.runner import compile_suite
        from repro.bench.suites import LARGE_SUITE_RECIPES, make_suite
        from repro.core.incremental import run_ci
        from repro.lang.pretty import pp_procedure
        from sweeps import suite_seed
        procs: dict = {}
        self.suite_files = []
        head = None
        for i, name in enumerate(LARGE_SUITE_RECIPES):
            suite = make_suite(name, scale=SCALE,
                               seed=suite_seed(self.seed, 0, i))
            program = compile_suite(suite)
            if head is None:
                head = "\n".join(
                    [f"var {g}: {t};" for g, t in
                     sorted(program.globals.items())] +
                    [f"function {f}({', '.join(['int'] * n)}): int;"
                     for f, n in sorted(program.functions.items())]) + "\n\n"
                self.bar_text = pp_procedure(program.procedures["bar"])
            rel = f"{name}.bpl"
            self.suite_files.append(rel)
            for fn in suite.functions:
                labels = {label: buggy for (func, label), buggy
                          in suite.labels.items() if func == fn.name}
                procs[fn.name] = Proc(rel, pp_procedure(
                    program.procedures[fn.name]), labels,
                    frozenset(), frozenset())
        self.prelude_head = head
        self.repo = self.work / "repo"
        self.repo.mkdir(parents=True, exist_ok=True)
        self.manifest = self.work / "manifest.json"
        self.cache = self.work / "cache"
        self._on_disk: dict = {}
        state = State(procs, "", {})
        self._write(state)
        cold = run_ci(self.repo, self.manifest, cache_dir=str(self.cache))
        if cold.failed_procs or cold.stats["analyzed"] != len(procs):
            raise RuntimeError(f"cold run: analyzed "
                               f"{cold.stats['analyzed']}/{len(procs)}, "
                               f"failed {cold.failed_procs}")
        entries = cold.manifest["procedures"]
        matches = total = 0
        for name, p in procs.items():
            procs[name] = replace(
                p, high=frozenset(entries[name]["warnings"]),
                cons=frozenset(entries[name]["conservative_warnings"]),
                cost=cold.reports[name].queries)
            m, n = harness.verdict_matches(p.labels, procs[name].high)
            matches += m
            total += n
        self.cold_state = state
        self.cold_accuracy = matches / total

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- edits ---------------------------------------------------------------

    def _edit(self, rng: random.Random, state: State, undo: list,
              serial: int) -> tuple[State, set]:
        """Apply one seeded edit; returns the new state and the set of
        procedures the rerun must analyze."""
        kind = CYCLE[(serial - 1) % len(CYCLE)]
        names = list(state.procs)
        new = state.copy()
        if kind == "revert":
            prev, analyzed = undo.pop()
            return prev, analyzed
        if kind == "body":
            k = serial - 1
            band = ((k // len(CYCLE)) * CYCLE.count("body")
                    + CYCLE[:k % len(CYCLE)].count("body")) % BANDS
            ranked = sorted(names, key=lambda n: (state.procs[n].cost, n))
            lo = band * len(ranked) // BANDS
            hi = (band + 1) * len(ranked) // BANDS
            q_name = rng.choice(ranked[lo:hi])
            p_name = rng.choice([n for n in names if n != q_name])
            p, q = state.procs[p_name], state.procs[q_name]
            text = q.text.replace(f"procedure {q_name}(",
                                  f"procedure {p_name}(", 1)
            head, body = text.split("\n{\n", 1)
            if not body.endswith("}"):
                raise ValueError(f"unexpected procedure text for {q_name}")
            text = (f"{head}\n{{\n  var edit${serial}: int;\n"
                    f"{body[:-1]}  edit${serial} := {serial};\n}}")
            new.procs[p_name] = replace(q, file=p.file, text=text)
            analyzed = {p_name}
            undo.append((state, {p_name}))
        elif kind == "spec":
            new.bar_clause = f"  ensures {serial} >= 0;\n"
            analyzed = {n for n, p in state.procs.items()
                        if " bar()" in p.text}
            undo.append((state, analyzed))
        elif kind == "rename":
            p_name = rng.choice(names)
            p = state.procs[p_name]
            fresh = f"{p_name.split('_r')[0]}_r{serial}"
            file = rng.choice(self.suite_files) if rng.random() < 0.5 \
                else p.file
            del new.procs[p_name]
            new.procs[fresh] = replace(p, file=file, text=p.text.replace(
                f"procedure {p_name}(", f"procedure {fresh}(", 1))
            analyzed = {fresh}
            undo.append((state, {p_name}))
        else:
            file = rng.choice(self.suite_files)
            new.comments[file] = new.comments.get(file, 0) + 1
            analyzed = set()
            undo.append((state, set()))
        return new, analyzed

    @staticmethod
    def _expected_delta(before: State, after: State) -> dict:
        out = {}
        for cls in ("high", "cons"):
            old = {f"{n}:{w}" for n, p in before.procs.items()
                   for w in getattr(p, cls)}
            new = {f"{n}:{w}" for n, p in after.procs.items()
                   for w in getattr(p, cls)}
            out[cls] = {"new": sorted(new - old), "fixed": sorted(old - new),
                        "unchanged": sorted(old & new)}
        return out

    def _op(self, rng, state: State, undo: list, serial: int,
            rec: Recorder, tracer, counters=None, tag: str = ""):
        from repro.core.incremental import run_ci
        key = f"{tag}edit{serial}"
        tracer.op = key
        t0 = now()
        why = ""
        result = None
        with tracer.span("op"):
            new, analyzed = self._edit(rng, state, undo, serial)
            self._write(new)
            try:
                result = run_ci(self.repo, self.manifest,
                                cache_dir=str(self.cache))
            except Exception as exc:  # noqa: BLE001 — a failed operation
                why = f"{key}: {type(exc).__name__}: {exc}"
        elapsed = now() - t0
        if result is not None:
            delta = {cls: {k: result.delta[cls][k]
                           for k in ("new", "fixed", "unchanged")}
                     for cls in ("high", "cons")}
            if result.failed_procs:
                why = f"{key}: failed {result.failed_procs}"
            elif set(result.plan.order) != analyzed:
                why = (f"{key}: analyzed {sorted(result.plan.order)}, "
                       f"expected {sorted(analyzed)}")
            elif delta != self._expected_delta(state, new):
                why = f"{key}: warning delta differs from the edit's"
            if counters is not None:
                counters.analyzed += result.stats["analyzed"]
                counters.queries += result.stats["queries"]
                cache = result.stats["cache"]
                counters.cache_hits += cache.get("hits", 0)
                counters.cache_misses += cache.get("misses", 0)
        rec.done(key, elapsed, ok=not why, why=why)
        return new, result

    # -- runs -------------------------------------------------------------------

    def run_round(self, rec: Recorder, tracer, first: bool) -> dict:
        """The first ``EDITS`` edits from the cold state."""
        rng = random.Random(self.seed)
        state, undo = self.cold_state, []
        deltas = []
        t0 = now()
        for serial in range(1, EDITS + 1):
            state, result = self._op(rng, state, undo, serial, rec, tracer)
            deltas.append(result.delta if result is not None else None)
        return {"wall": now() - t0, "concurrency": 1,
                "digest": harness.digest({"deltas": deltas}),
                "accuracy": self.cold_accuracy}

    def run_traced(self, seconds: float, rec: Recorder, tracer) -> dict:
        """The first ``TRACED_EDITS`` edits, repeated from the cold run's
        repository, manifest and cache, alternately traced and untraced
        (the process-wide baseline memo is emptied before each)."""
        from repro.core.deadfail import clear_baseline_cache
        pristine = self.work / "pristine"
        for part in ("repo", "cache"):
            shutil.copytree(self.work / part, pristine / part)
        shutil.copy2(self.manifest, pristine / "manifest.json")
        on_disk = dict(self._on_disk)
        walls = {True: [], False: []}
        first_ops, counters, digests = set(), Counters(), []
        t_start = now()
        rep = 0
        while rep < 2 or now() - t_start < seconds:
            if rep:
                for part in ("repo", "cache"):
                    shutil.rmtree(self.work / part)
                    shutil.copytree(pristine / part, self.work / part)
                shutil.copy2(pristine / "manifest.json", self.manifest)
                self._on_disk = dict(on_disk)
            clear_baseline_cache()
            traced = rep % 2 == 0
            tracer.enabled = traced
            rng = random.Random(self.seed)
            state, undo, deltas = self.cold_state, [], []
            t0 = now()
            for serial in range(1, TRACED_EDITS + 1):
                state, result = self._op(rng, state, undo, serial, rec,
                                         tracer,
                                         counters if rep == 0 else None,
                                         tag=f"r{rep}/")
                deltas.append(result.delta if result is not None else None)
                if rep == 0:
                    first_ops.add(f"r0/edit{serial}")
            walls[traced].append(now() - t0)
            tracer.enabled = False
            digests.append(harness.digest({"deltas": deltas}))
            rep += 1
        rec.check(len(set(digests)) == 1,
                  "warning deltas differ between repetitions")
        overhead = (statistics.median(walls[True])
                    / statistics.median(walls[False]) - 1.0) * 100.0
        return {"ops": first_ops, "counters": counters,
                "overhead_pct": overhead, "digest": digests[0],
                "traced_wall": walls[True][0]}
