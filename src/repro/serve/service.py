"""The service core shared by the analysis server and the fleet router.

:class:`JsonLinesService` owns everything a JSON-lines daemon does
regardless of what sits behind its socket (`repro.serve.protocol`):

* **Lifecycle.**  Listen (unlinking a stale Unix socket first),
  SIGTERM/SIGINT handlers, :meth:`request_shutdown_threadsafe` for
  embedders, and one :meth:`shutdown`: stop admission, wait for every
  accepted request, run the subclass close hook (the server drains its
  pool, the router its replicas), close the listener, unlink the
  socket.  :meth:`serve` then closes every open client connection
  before the event loop exits, so no connection handler is ever
  cancelled mid-read.

* **Framing and dispatch.**  One connection handler reads frames, looks
  the verb up in a verb table, times it into the verb-latency
  histograms and writes the response.  A malformed frame or a rejected
  submission (:class:`~repro.serve.protocol.ProtocolError`) answers
  ``bad_request``; any other exception answers ``internal`` and the
  connection keeps serving.

* **The request table.**  Accepted submissions, live ones never
  evicted, finished ones kept for late readers up to
  :data:`MAX_FINISHED_REQUESTS`; the ``status``, ``result``, ``ping``,
  ``metrics`` and ``drain`` verbs read it.

* **Submit validation.**  :meth:`parse_submit` checks kind, config,
  source, lang, unroll, procs and deadline once, parses the program and
  builds the per-procedure :class:`~repro.core.tasks.AnalysisTask`
  list with their coalesce keys.

A subclass supplies admission (:meth:`_refusal`), scheduling
(:meth:`_schedule`, which fills request slots through :meth:`_fill`),
report assembly (:meth:`_assemble`) and the open/close hooks.
:func:`run_service` and :class:`ServiceThread` run any service, in the
foreground or on a background thread.
"""

from __future__ import annotations

import asyncio
import collections
import os
import signal
import threading
import time
from dataclasses import dataclass

from ..core.config import BY_NAME
from ..core.tasks import AnalysisTask, coalesce_key
from .metrics import ServerMetrics
from .protocol import MAX_LINE, ProtocolError, decode, encode, error, ok
from .protocol import parse_address

#: Completed requests kept for late ``status``/``result`` readers.
MAX_FINISHED_REQUESTS = 4096


@dataclass
class Submission:
    """A validated ``submit``: the per-procedure tasks and their keys."""

    kind: str
    config_name: str
    prune_k: int | None
    proc_names: list
    tasks: list
    keys: list
    deadline: float | None


class Request:
    """Service-side state of one accepted submission: one slot per
    procedure, filled as results arrive."""

    def __init__(self, req_id: str, sub: Submission):
        self.id = req_id
        self.kind = sub.kind
        self.config_name = sub.config_name
        self.prune_k = sub.prune_k
        self.proc_names = list(sub.proc_names)
        self.keys = sub.keys
        self.slots: list = [None] * len(sub.proc_names)
        self.done = 0
        self.state = "queued"  # queued -> running -> done
        self.accepted_at = time.monotonic()
        self.event = asyncio.Event()
        self.report_json: dict | None = None
        self.n_failures = 0

    def result_fields(self) -> dict:
        """Extra fields of the ``result`` response."""
        return {}


class JsonLinesService:
    """See module docstring."""

    #: name used in messages and thread names; request-id prefix
    role = "server"
    id_prefix = "q"
    request_class = Request

    def __init__(self, address: str, *, queue_limit: int,
                 cache_dir: str | None = None,
                 default_deadline: float | None = None):
        self.address = parse_address(address)
        self.address_spec = address
        self.queue_limit = queue_limit
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.default_deadline = default_deadline
        self.metrics = ServerMetrics()
        self._requests: collections.OrderedDict[str, Request] = \
            collections.OrderedDict()
        self._next_id = 0
        self._live = 0  # accepted requests not yet done
        self._accepting = False
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._closed = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        # strong refs to fire-and-forget tasks: the event loop only
        # holds weak ones, and a GC'd task strands its request
        self._tasks: set[asyncio.Task] = set()
        # open client connections: handler task -> its writer
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._verbs = {"ping": self._op_ping, "submit": self._op_submit,
                       "status": self._op_status, "result": self._op_result,
                       "metrics": self._op_metrics, "drain": self._op_drain}

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def _open(self) -> None:
        """Subclass hook: acquire resources before listening."""

    async def _close(self) -> None:
        """Subclass hook: release resources once every accepted request
        has finished."""

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self._open()
        if self.address[0] == "unix":
            path = self.address[1]
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a previous run
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=path, limit=MAX_LINE)
        else:
            _, host, port = self.address
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port, limit=MAX_LINE)
        self._accepting = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain-then-exit."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: self._spawn(self.shutdown()))

    async def serve(self, ready: threading.Event | None = None,
                    signals: bool = False) -> None:
        """Start, serve until shut down, then close every open client
        connection and wait for its handler, so that none is left to
        be cancelled mid-read when the event loop exits."""
        await self.start()
        if signals:
            self.install_signal_handlers()
        if ready is not None:
            ready.set()
        await self._closed.wait()
        # one loop turn, in which every ``drain`` caller woken by the
        # shutdown writes its reply
        await asyncio.sleep(0)
        handlers = list(self._conns)
        for task in handlers:
            self._conns[task].close()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._server.wait_closed()

    async def shutdown(self) -> None:
        """Drain: refuse new work, finish everything accepted, run the
        close hook, close the listener, unlink the socket."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        self._accepting = False
        for req in [r for r in self._requests.values() if r.state != "done"]:
            await req.event.wait()
        await self._close()
        if self._server is not None:
            self._server.close()
        if self.address[0] == "unix":
            try:
                os.unlink(self.address[1])
            except OSError:
                pass
        self._closed.set()

    def request_shutdown_threadsafe(self) -> None:
        """Trigger :meth:`shutdown` from any thread (tests, embedders)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: self._spawn(self.shutdown()))
        except RuntimeError:
            pass  # loop already closed (e.g. a drain verb beat us to it)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        me = asyncio.current_task()
        self._conns[me] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode(error(
                        "too_large", f"frame exceeds {MAX_LINE} bytes")))
                    await writer.drain()
                    break
                if not line:
                    break
                t0 = time.monotonic()
                verb = "?"
                try:
                    msg = decode(line)
                    verb = str(msg.get("op", "?"))
                    handler = self._verbs.get(verb)
                    if handler is None:
                        resp = error("bad_request", f"unknown verb {verb!r}")
                    else:
                        resp = await handler(msg)
                except ProtocolError as exc:
                    resp = error("bad_request", str(exc))
                except Exception as exc:  # noqa: BLE001 — keep serving
                    resp = error("internal", f"{type(exc).__name__}: {exc}")
                self.metrics.observe_verb(verb, time.monotonic() - t0)
                writer.write(encode(resp))
                await writer.drain()
                if verb == "drain" and resp.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.pop(me, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------

    def _refusal(self) -> dict | None:
        """Subclass hook: an error response when admission is full."""
        return None

    def _schedule(self, req: Request, sub: Submission,
                  msg: dict) -> dict:
        """Subclass hook: start the work of an accepted request; return
        extra fields of the ``submit`` acknowledgement."""
        raise NotImplementedError

    async def parse_submit(self, msg: dict) -> Submission:
        """Validate a ``submit`` message and build its tasks; raises
        :class:`ProtocolError` (answered as ``bad_request``)."""
        kind = msg.get("kind", "analyze")
        if kind not in ("analyze", "cons"):
            raise ProtocolError(f"unknown kind {kind!r}")
        config_name = msg.get("config", "Conc")
        if config_name not in BY_NAME:
            raise ProtocolError(f"unknown config {config_name!r}")
        source = msg.get("source")
        if not isinstance(source, str):
            raise ProtocolError("submit needs a string 'source'")
        lang = msg.get("lang", "boogie")
        unroll = int(msg.get("unroll", 2))
        try:
            program = await asyncio.to_thread(_parse, source, lang, unroll)
        except (SyntaxError, TypeError, ValueError) as exc:
            raise ProtocolError(f"parse failed: {exc}") from exc
        proc_names = msg.get("procs")
        if proc_names is None:
            proc_names = [n for n, p in program.procedures.items()
                          if p.body is not None]
        else:
            missing = [n for n in proc_names
                       if n not in program.procedures]
            if missing:
                raise ProtocolError(f"no such procedures: {missing}")
        deadline = msg.get("deadline", self.default_deadline)
        deadline = float(deadline) if deadline is not None else None
        prune_k = msg.get("prune_k")
        tasks = [AnalysisTask(
            kind=kind, proc_name=name, program=program,
            config_name=config_name, prune_k=prune_k,
            timeout=msg.get("timeout", 10.0), unroll_depth=unroll,
            max_preds=int(msg.get("max_preds", 12)),
            lia_budget=int(msg.get("lia_budget", 20000)),
            cache_dir=self.cache_dir,
            self_check=bool(msg.get("self_check", False)))
            for name in proc_names]
        keys = await asyncio.to_thread(lambda: [_task_key(t) for t in tasks])
        return Submission(kind, config_name, prune_k, list(proc_names),
                          tasks, keys, deadline)

    def _admission(self) -> dict | None:
        """The rejection of a ``submit`` arriving now, or ``None``."""
        if not self._accepting:
            refusal = error("draining", f"{self.role} is draining; "
                                        f"resubmit elsewhere")
        else:
            refusal = self._refusal()
        if refusal is not None:
            self.metrics.inc("requests_rejected")
        return refusal

    async def _op_submit(self, msg: dict) -> dict:
        refusal = self._admission()
        if refusal is None:
            sub = await self.parse_submit(msg)
            # checked again: shutdown may have begun during the parse
            refusal = self._admission()
        if refusal is not None:
            return refusal
        self._next_id += 1
        req = self.request_class(f"{self.id_prefix}{self._next_id}", sub)
        self._requests[req.id] = req
        self._live += 1
        while len(self._requests) > MAX_FINISHED_REQUESTS:
            oldest = next(iter(self._requests))
            if self._requests[oldest].state != "done":
                break  # never evict live requests
            self._requests.pop(oldest)
        ack = self._schedule(req, sub, msg)
        if not req.slots:
            self._complete(req)  # zero procedures: an empty report
        elif req.state != "done":
            req.state = "running"
        self.metrics.inc("requests_accepted")
        self.metrics.inc("procs_submitted", len(sub.tasks))
        return ok(id=req.id, procs=list(sub.proc_names), **ack)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _assemble(self, req: Request) -> tuple[dict, int]:
        """Subclass hook: ``(wire report, failure count)`` of a request
        whose slots are all filled."""
        raise NotImplementedError

    def _fill(self, req: Request, idx: int, value) -> None:
        if req.slots[idx] is not None:
            return
        req.slots[idx] = value
        req.done += 1
        if req.done == len(req.slots):
            self._complete(req)

    def _complete(self, req: Request) -> None:
        req.report_json, req.n_failures = self._assemble(req)
        req.state = "done"
        self._live -= 1
        self.metrics.inc("requests_completed")
        self.metrics.request_latency.observe(
            time.monotonic() - req.accepted_at)
        req.event.set()

    # ------------------------------------------------------------------
    # shared verbs
    # ------------------------------------------------------------------

    async def _op_ping(self, msg: dict) -> dict:
        return ok(pong=True, draining=self._draining)

    async def _op_status(self, msg: dict) -> dict:
        req = self._requests.get(str(msg.get("id")))
        if req is None:
            return error("unknown_request", f"no request {msg.get('id')!r}")
        return ok(id=req.id, state=req.state, done=req.done,
                  total=len(req.proc_names))

    async def _op_result(self, msg: dict) -> dict:
        req = self._requests.get(str(msg.get("id")))
        if req is None:
            return error("unknown_request", f"no request {msg.get('id')!r}")
        if msg.get("wait", True) and req.state != "done":
            timeout = msg.get("timeout")
            try:
                await asyncio.wait_for(
                    req.event.wait(),
                    float(timeout) if timeout is not None else None)
            except asyncio.TimeoutError:
                pass
        if req.state != "done":
            return error("pending", "request still running", id=req.id,
                         done=req.done, total=len(req.proc_names))
        return ok(id=req.id, kind=req.kind, report=req.report_json,
                  failures=req.n_failures, **req.result_fields())

    async def _op_metrics(self, msg: dict) -> dict:
        return ok(metrics=self.snapshot())

    async def _op_drain(self, msg: dict) -> dict:
        await self.shutdown()
        counters = self.metrics.snapshot().get("counters", {})
        return ok(drained=True,
                  completed=counters.get("requests_completed", 0))

    def snapshot(self) -> dict:
        raise NotImplementedError


def _parse(source: str, lang: str, unroll: int):
    if lang == "c":
        from ..frontend import compile_c
        return compile_c(source, unroll_depth=unroll)
    if lang == "boogie":
        from ..lang import parse_program, typecheck
        return typecheck(parse_program(source))
    raise ValueError(f"unknown lang {lang!r} (expected 'boogie' or 'c')")


def _task_key(task: AnalysisTask) -> str:
    """The task's coalesce key, degrading to a never-coalescing unique
    key if the fingerprint computation itself fails (the worker will
    then report the real error as a structured failure)."""
    try:
        return coalesce_key(task)
    except Exception:  # noqa: BLE001
        return f"nocoalesce:{id(task)}:{time.monotonic_ns()}"


# ----------------------------------------------------------------------
# running a service
# ----------------------------------------------------------------------

def run_service(service: JsonLinesService) -> None:
    """Blocking entry point for ``repro serve`` and ``repro fleet``:
    serve until a ``drain`` verb or SIGTERM/SIGINT, then return."""
    asyncio.run(service.serve(signals=True))


class ServiceThread:
    """A service on a background thread, for tests, benchmarks and
    in-process fleets: :meth:`start` returns once it listens,
    :meth:`stop` (or context-manager exit) drains it."""

    def __init__(self, service: JsonLinesService):
        self.server = service
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(service.serve(self._ready)),
            name=f"{service.role}-thread", daemon=True)

    def start(self, timeout: float = 180.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError(f"{self.server.role} thread did not "
                               f"become ready")
        return self

    def stop(self, timeout: float = 120.0) -> None:
        self.server.request_shutdown_threadsafe()
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
