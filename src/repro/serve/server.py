"""The analysis daemon: an asyncio frontend over the warm worker pool.

One :class:`AnalysisServer` owns one :class:`~repro.serve.pool.WorkerPool`
and speaks the JSON-lines protocol (`repro.serve.protocol`) on a Unix or
TCP socket; the socket lifecycle, framing, request table and the shared
verbs live in `repro.serve.service`.  What the server adds:

* **Bounded admission.**  ``submit`` is rejected with ``overloaded`` +
  ``retry_after`` once the number of distinct in-flight computations
  reaches ``queue_limit`` — explicit backpressure instead of an
  unbounded queue.

* **Request coalescing.**  Every per-procedure task is content-addressed
  (`repro.core.tasks.coalesce_key`: post-elaboration AST fingerprint +
  configuration fingerprint + budget knobs).  A submission whose key is
  already being computed attaches to that computation instead of
  re-running it; both requests then get equal results (the twin's copy
  says ``source="coalesced"``), and later resubmissions hit the
  persistent cache inside the workers.

* **Hot tier.**  With ``hot_bytes`` set, completed per-procedure
  results are kept in a byte-bounded in-memory LRU
  (`repro.serve.hotcache`) keyed on the same coalesce key: a repeat
  submission is answered from the server process without touching a
  worker, the disk cache, or the pool queue (``source="hot"``).

* **Deadlines.**  A request-level deadline rides every task into the
  pool: expired-while-queued tasks never occupy a worker, and a task
  running past its deadline has its worker killed and restarted.  The
  affected procedures come back as structured ``deadline`` failure
  entries in the report.

* **Lifecycle.**  ``drain`` (verb or SIGTERM) stops admission, finishes
  every accepted request, shuts the pool down, and exits — no orphaned
  worker processes, ever.

Reports are assembled by `repro.core.analysis.assemble_results`, the
same function the batch sweeps use, so served output equals batch
output by construction.

All server state is mutated on the event loop; the only cross-thread
traffic is pool futures (bridged with ``asyncio.wrap_future``) and the
thread-safe :class:`~repro.serve.metrics.ServerMetrics`.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

from ..core.analysis import assemble_results, program_report_to_json
from ..core.tasks import AnalysisTask, failure_result
from .hotcache import HotCache, record_to_result, result_to_record
from .pool import PoolClosedError, WorkerPool
from .protocol import error
from .service import JsonLinesService, Request, ServiceThread, Submission


class AnalysisServer(JsonLinesService):
    """See module docstring."""

    def __init__(self, address: str, *, pool_size: int = 2,
                 queue_limit: int = 64, cache_dir: str | None = None,
                 default_deadline: float | None = None, hot_bytes: int = 0):
        super().__init__(address, queue_limit=queue_limit,
                         cache_dir=cache_dir,
                         default_deadline=default_deadline)
        self.hot_cache = HotCache(hot_bytes) if hot_bytes else None
        self.pool = WorkerPool(pool_size, metrics=self.metrics)
        # coalesce key -> (request, slot) pairs waiting on that flight
        self._inflight: dict[str, list[tuple[Request, int]]] = {}

    async def _open(self) -> None:
        await asyncio.to_thread(self.pool.start)

    async def _close(self) -> None:
        await asyncio.to_thread(self.pool.drain, 60.0)
        await asyncio.to_thread(self.pool.close)

    def _refusal(self) -> dict | None:
        if len(self._inflight) < self.queue_limit:
            return None
        depth = max(1, self.pool.queue_depth())
        retry_after = round(min(2.0, 0.05 * depth), 3)
        return error("overloaded",
                     f"{len(self._inflight)} computations in flight "
                     f"(limit {self.queue_limit})", retry_after=retry_after)

    def _schedule(self, req: Request, sub: Submission,
                  msg: dict) -> dict:
        coalesced = hot_hits = 0
        for idx, (task, key) in enumerate(zip(sub.tasks, sub.keys)):
            if self.hot_cache is not None:
                hot = self._hot_lookup(key)
                if hot is not None:
                    hot_hits += 1
                    self.metrics.inc("hot_hits")
                    self._deliver(req, idx, hot)
                    continue
            waiters = self._inflight.get(key)
            if waiters is not None:
                waiters.append((req, idx))
                coalesced += 1
                self.metrics.inc("coalesced_tasks")
                continue
            self._inflight[key] = [(req, idx)]
            self._spawn(self._run_flight(key, task, sub.deadline))
        return {"coalesced": coalesced, "hot": hot_hits}

    def _hot_lookup(self, key: str):
        """A TaskResult from the hot tier, or ``None`` (a malformed
        record — e.g. written by an older schema — degrades to a
        miss)."""
        record = self.hot_cache.get(key)
        if record is None:
            return None
        try:
            return record_to_result(record)
        except Exception:  # noqa: BLE001 — stale record = miss
            return None

    async def _run_flight(self, key: str, task: AnalysisTask,
                          deadline: float | None) -> None:
        """Produce one result for ``key`` on the worker pool, populate
        the hot tier, and deliver to every coalesced waiter."""
        try:
            future = self.pool.submit(task, deadline_seconds=deadline)
        except PoolClosedError:
            result = failure_result(task, "shutdown",
                                    "pool closed during submit")
        else:
            result = await asyncio.wrap_future(future)
        if self.hot_cache is not None:
            record = result_to_record(result)
            if record is not None:
                self.hot_cache.put(key, record)
        owner, *twins = self._inflight.pop(key)
        self._deliver(*owner, result)
        if twins:
            result = _as_coalesced(result)
        for req, idx in twins:
            self._deliver(req, idx, result)

    def _deliver(self, req: Request, idx: int, result) -> None:
        # Content addresses are procedure-name-independent, so a result
        # may arrive under another name: a rename served from the hot
        # tier or disk cache, or a coalesced twin of a same-content
        # procedure.  Rewrite on a copy — the original object may be
        # shared with other waiters expecting their own names.
        expected = req.proc_names[idx]
        if result.proc_name != expected:
            result = replace(result, proc_name=expected)
            if result.report is not None:
                result.report = replace(result.report, proc_name=expected)
        if result.cache_stats:
            self.metrics.merge_cache_stats(result.cache_stats)
        if result.failure is not None:
            self.metrics.inc("proc_failures")
            if result.failure.get("type") == "deadline":
                self.metrics.inc("deadline_expired")
        self._fill(req, idx, result)

    def _assemble(self, req: Request) -> tuple[dict, int]:
        """The wire report: for ``analyze``, exactly the JSON shape of a
        batch ``ProgramReport``; for ``cons``, the batch Cons dict."""
        report = assemble_results(req.kind, req.slots, req.config_name,
                                  req.prune_k)
        if req.kind == "analyze":
            report = program_report_to_json(report)
        return report, sum(1 for r in req.slots if r.failure is not None)

    def snapshot(self) -> dict:
        return self.metrics.snapshot(
            queue_depth=self.pool.queue_depth(),
            in_flight=len(self._inflight),
            pool=self.pool.counters(),
            workers=len(self.pool.worker_pids()),
            worker_pids=self.pool.worker_pids(),
            draining=self._draining,
            queue_limit=self.queue_limit,
            cache_dir=self.cache_dir,
            hot=(self.hot_cache.stats()
                 if self.hot_cache is not None else None))


def _as_coalesced(result):
    """A coalesced waiter's copy of a flight's result: the same answer,
    marked as handed over, with no cache work of its own to count."""
    if result.report is None:
        return replace(result, cache_stats=None)
    return replace(result, cache_stats=None,
                   report=replace(result.report, source="coalesced"))


def ServerThread(address: str, **kwargs) -> ServiceThread:
    """An in-process :class:`AnalysisServer` on a background thread."""
    return ServiceThread(AnalysisServer(address, **kwargs))
