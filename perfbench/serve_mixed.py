"""``serve_mixed``: a closed-loop stream of single-procedure requests to
one ``repro serve --pool 2 --cache-dir`` subprocess.

Requests are the generated suite programs (the Figure 9 large suites and
the scenario suites, printed as BoogiePL), each naming one procedure and
one of Conc/A1/A2.  One client process drives two connections, one
thread each; each connection sends its next request when the previous
result has arrived.  Three of every five requests of a connection are
keys it has never sent; the others repeat its own earlier keys.  Keys are
deduplicated by the server's content address and owned by one
connection, so a repeat always finds its key in the hot tier and a new
key never coalesces: the hot-hit count of a request is fixed by the
stream, and the benchmark checks it on every request.

The work set of a connection sends each of its keys once, drawn in turn
from every (suite, config) stratum, with repeats at fixed stream
positions (``PATTERN``), so every seed has the same mix of suites,
configs, hot hits and new analyses.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading

import harness
from harness import Recorder, now
from layers import Counters

CONNECTIONS = 2
POOL = 2
CONFIGS = ("Conc", "A1", "A2")
#: which stream positions repeat a key the connection already sent
#: (cycled): three of every five requests are new keys
PATTERN = (False, True, False, True, False)
TIMEOUT = 10.0
MAX_PREDS = 10
#: scale of the suites the stream draws from: every distinct key is in
#: the work set, so ``verdict_accuracy`` covers each suite's whole
#: pattern mix and does not depend on which keys a seed samples
SCALE = 0.25
#: two small procedures submitted together, one task per pool worker,
#: so every worker has run the analyzer before the measured window
WARM_SOURCE = """
procedure warm0(x: int)
{
  W0: assert x != 0;
}

procedure warm1(x: int, y: int)
{
  W1: assert x != y;
}
"""


class ServeMixed:

    def __init__(self, root, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.work = harness.scratch_dir(root, "serve")
        self.server = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self._build_stream()
        self._start_server()

    def _build_stream(self) -> None:
        from repro.bench.runner import compile_suite
        from repro.bench.suites import LARGE_SUITE_RECIPES, make_suite
        from repro.core.tasks import AnalysisTask, coalesce_key
        from repro.lang import parse_program, pp_program, typecheck
        from repro.scenarios.generators import SCENARIO_SUITE_RECIPES
        from sweeps import suite_seed
        names = list(LARGE_SUITE_RECIPES) + list(SCENARIO_SUITE_RECIPES)
        self.sources: dict = {}    # suite -> (BoogiePL text, program)
        strata: dict = {}    # (suite, config) -> its candidates
        seen = set()
        for i, name in enumerate(names):
            suite = make_suite(name, seed=suite_seed(self.seed, 0, i),
                               scale=SCALE)
            text = pp_program(compile_suite(suite))
            program = typecheck(parse_program(text))
            self.sources[name] = (text, program)
            for fn in suite.functions:
                labels = {label: buggy for (func, label), buggy
                          in suite.labels.items() if func == fn.name}
                for cfg in CONFIGS:
                    key = coalesce_key(AnalysisTask(
                        kind="analyze", proc_name=fn.name,
                        program=program, config_name=cfg,
                        timeout=TIMEOUT, max_preds=MAX_PREDS))
                    if key in seen:
                        continue
                    seen.add(key)
                    strata.setdefault((name, cfg), []).append(
                        (name, fn.name, cfg, labels))
        rng = random.Random(self.seed)
        for group in strata.values():
            rng.shuffle(group)
        # one candidate from each stratum in turn
        candidates = [c for row in itertools.zip_longest(*strata.values())
                      for c in row if c is not None]
        # connection c owns every CONNECTIONS-th candidate; its stream
        # interleaves first sends of those with repeats of its own keys
        self.streams = []
        #: per connection, the stream positions of the work set: up to
        #: and including the first send of its last key
        self.positions = []
        for c in range(CONNECTIONS):
            own = candidates[c::CONNECTIONS]
            stream, sent = [], []
            for pos in range(2 * len(own)):
                if sent and (len(sent) == len(own)
                             or PATTERN[pos % len(PATTERN)]):
                    stream.append((rng.choice(sent), True))
                else:
                    stream.append((own[len(sent)], False))
                    sent.append(own[len(sent)])
                    if len(sent) == len(own):
                        self.positions.append(len(stream))
            self.streams.append(stream)

    def _start_server(self) -> None:
        from repro.serve.client import ServeClient
        sock = self.work / "serve.sock"
        self.address = os.path.relpath(sock)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.address, "--pool", str(POOL), "--cache-dir",
             str(self.work / "cache")],
            env=env, cwd=os.getcwd(), stdout=subprocess.DEVNULL)
        with ServeClient(self.address) as client:
            client.wait_ready(timeout=60.0)
            acc = client.submit(WARM_SOURCE)
            client.result(acc["id"])

    def close(self) -> None:
        if self.server is not None:
            from repro.serve.client import ServeClient, ServeError
            try:
                with ServeClient(self.address, connect_timeout=5.0) as c:
                    c.drain()
            except (ServeError, OSError):
                pass
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
        shutil.rmtree(self.work, ignore_errors=True)

    # -- one connection ----------------------------------------------------

    def _connection(self, c: int, deadline_at: float, rec: Recorder,
                    tracer, alternate: bool) -> None:
        from repro.core.analysis import program_report_from_json
        from repro.serve.client import ServeClient
        with ServeClient(self.address) as client:
            for pos, ((tag, name, cfg, _), repeat) in \
                    enumerate(self.streams[c]):
                if self._stop.is_set() or (pos >= self.positions[c]
                                           and now() >= deadline_at):
                    break
                key = f"c{c}/{pos}"
                if alternate:
                    tracer.enabled_here = pos % 2 == 0
                tracer.op = key
                why = ""
                t0 = now()
                try:
                    with tracer.span("op"):
                        acc = client.submit(
                            self.sources[tag][0], config=cfg, procs=[name],
                            timeout=TIMEOUT, max_preds=MAX_PREDS)
                        resp = client.result(acc["id"])
                    elapsed = now() - t0
                    report = program_report_from_json(
                        resp["report"]).reports[0]
                    if report.failed or report.timed_out:
                        why = f"{key}: failed={report.failure} " \
                              f"timed_out={report.timed_out}"
                    elif acc.get("hot", 0) != int(repeat) \
                            or acc.get("coalesced", 0):
                        why = (f"{key}: hot={acc.get('hot')} "
                               f"coalesced={acc.get('coalesced')}, "
                               f"expected hot={int(repeat)}")
                    else:
                        fields = harness.result_fields(report)
                        first = self.first.setdefault((tag, name, cfg),
                                                      (fields, key))
                        if first[0] != fields:
                            why = f"{key}: repeat differs from first answer"
                        self.answers[key] = report
                except Exception as exc:  # noqa: BLE001 — failed op
                    elapsed = now() - t0
                    why = f"{key}: {type(exc).__name__}: {exc}"
                rec.done(key, elapsed, ok=not why, why=why)
                if alternate:
                    tracer.enabled_here = None

    def _drive(self, seconds: float, rec: Recorder, tracer,
               alternate: bool = False) -> float:
        """Both connections, each for at least its work set and
        until the deadline; returns the wall.  Fills ``first`` (key ->
        first answer's result fields) and ``answers`` (stream position ->
        report)."""
        self.first: dict = {}
        self.answers: dict = {}
        # daemon threads plus a stop flag: a run interrupted while joining
        # (SIGTERM) still exits and stops its server
        self._stop = threading.Event()
        t0 = now()
        threads = [threading.Thread(
            target=self._connection,
            args=(c, t0 + seconds, rec, tracer, alternate), daemon=True)
            for c in range(CONNECTIONS)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            self._stop.set()
        return now() - t0

    # -- checks ------------------------------------------------------------

    def _check_against_batch(self, rec: Recorder) -> None:
        """Every distinct key's served report equals the batch report of
        the same procedure and config."""
        from repro.core.analysis import analyze_procedure
        from repro.core.config import BY_NAME
        for (tag, name, cfg), (fields, key) in self.first.items():
            batch = analyze_procedure(self.sources[tag][1], name,
                                      BY_NAME[cfg], timeout=TIMEOUT,
                                      max_preds=MAX_PREDS)
            rec.check(harness.result_fields(batch) == fields,
                      f"{key}: served report differs from batch")

    def _accuracy_digest(self) -> tuple[float, str]:
        """Over the work set of each connection's stream: fixed by the
        seed."""
        matches = total = 0
        results = {}
        for c in range(CONNECTIONS):
            for pos in range(self.positions[c]):
                key = f"c{c}/{pos}"
                report = self.answers.get(key)
                if report is None:
                    continue
                labels = self.streams[c][pos][0][3]
                m, n = harness.verdict_matches(labels, set(report.warnings))
                matches += m
                total += n
                results[key] = harness.result_fields(report)
        return (matches / total if total else 0.0), harness.digest(results)

    def _server_rss(self) -> float:
        pids = [self.server.pid] + harness.child_pids(self.server.pid)
        return harness.peak_rss_mb(pids)

    # -- runs --------------------------------------------------------------

    def run_round(self, rec: Recorder, tracer, first: bool) -> dict:
        """The work set of each connection; the first round also
        checks every distinct key against the batch report."""
        wall = self._drive(0.0, rec, tracer)
        rss = self._server_rss()
        accuracy, digest = self._accuracy_digest()
        if first:
            self._check_against_batch(rec)
        return {"wall": wall, "concurrency": CONNECTIONS,
                "accuracy": accuracy, "digest": digest,
                "peak_rss_mb": rss}

    def run_traced(self, seconds: float, rec: Recorder, tracer) -> dict:
        """Every other request of each connection is traced (client-side
        spans: the server is another process); the overhead compares the
        median latency of traced and untraced requests."""
        from repro.serve.client import ServeClient
        tracer.enabled = False
        elapsed = self._drive(seconds, rec, tracer, alternate=True)
        with ServeClient(self.address) as client:
            snap = client.metrics()
        self._check_against_batch(rec)
        ops = {s[5] for s in tracer.spans if s[1] == "op"}
        traced = [v for k, v in rec.latency.items() if k in ops]
        untraced = [v for k, v in rec.latency.items() if k not in ops]
        counters = snap.get("counters", {})
        submitted = counters.get("procs_submitted", 0)

        def span_ms(name):
            vals = [(s[3] - s[2]) * 1000.0 for s in tracer.spans
                    if s[1] == name]
            return statistics.median(vals) if vals else 0.0

        serve = {
            "serve.submit_ms": span_ms("serve.submit"),
            "serve.result_ms": span_ms("serve.result"),
            "serve.task_wait_ms": snap["task_wait"]["mean_ms"],
            "serve.task_run_ms": snap["task_run"]["mean_ms"],
            "serve.hot_hit_ratio": counters.get("hot_hits", 0) / submitted
            if submitted else 0.0,
            "serve.coalesced": counters.get("coalesced_tasks", 0),
            "serve.overloaded": counters.get("requests_rejected", 0),
        }
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    - 1.0) * 100.0
        _acc, digest = self._accuracy_digest()
        return {"ops": ops, "counters": Counters(), "overhead_pct": overhead,
                "digest": digest, "traced_wall": elapsed, "serve": serve}
