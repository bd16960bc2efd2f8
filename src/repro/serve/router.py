"""The fleet router: consistent-hash sharding over analysis replicas.

One :class:`RouterServer` speaks the same JSON-lines protocol as an
:class:`~repro.serve.server.AnalysisServer` — ``ping`` / ``submit`` /
``status`` / ``result`` / ``metrics`` / ``drain`` (plus ``topology``)
— so every existing client, including ``repro submit`` and
:class:`~repro.serve.client.ServeClient`, talks to a fleet unchanged;
the socket lifecycle, framing, request table and the shared verbs are
the same code (`repro.serve.service`).  Behind the socket it owns no
worker pool; it owns a :class:`~repro.serve.hashring.HashRing` over N
replica addresses and does four things (full design in
``docs/fleet.md``):

* **Shard placement.**  Each submission is parsed once and split into
  per-procedure tasks; each task's coalesce key
  (`repro.core.tasks.coalesce_key`) is hashed onto the ring, and the
  tasks are regrouped into one sub-submission per owning replica.  Twin
  requests from *different clients* therefore land on the same shard,
  where the replica's in-flight coalescing and hot tier deduplicate
  them — fleet-wide coalescing without any shared state.

* **Scatter/gather.**  Sub-submissions run concurrently; the router
  reassembles the per-replica reports into one wire report in the
  original procedure order, with cache counters merged — byte-identical
  to what a single server (or the batch CLI) would produce.

* **Failover.**  A replica that cannot be reached — connection refused,
  reset, or EOF mid-``result`` (the replica process died) — is removed
  from the ring, and every procedure that was in flight there is
  re-hashed over the survivors and resubmitted.  This generalizes the
  worker pool's EOF-crash retry from process loss to *replica* loss.
  Only with zero live replicas do the affected procedures come back as
  structured ``replica_lost`` failures.

* **Backpressure relay.**  A replica's ``overloaded`` rejection is
  retried by the router with the same capped-exponential,
  deterministically-jittered backoff the client library uses
  (:func:`repro.serve.client.retry_delay`); the router's own admission
  is bounded by ``queue_limit`` live requests.

The router adds no trust: replicas run ``--self-check`` certificate
validation exactly as a standalone server would, and a failed-over
procedure is *recomputed* (or served from the disk/hot tier) by its new
owner — never patched together from a dead replica's partial state.
"""

from __future__ import annotations

import asyncio

from ..core.analysis import failure_report
from ..core.cache import merge_cache_stats
from .client import SUBMIT_ATTEMPTS, request_token, retry_delay
from .hashring import DEFAULT_VNODES, HashRing
from .protocol import MAX_LINE, ProtocolError, decode, encode, error, ok
from .protocol import parse_address
from .service import JsonLinesService, Request, ServiceThread, Submission

#: Submission fields forwarded verbatim to the owning replicas (the
#: router adds its own ``procs`` subset per shard).
_FORWARD_FIELDS = ("source", "lang", "kind", "config", "prune_k", "timeout",
                   "unroll", "max_preds", "lia_budget", "self_check",
                   "deadline")

#: Reply timeout of one replica ``submit`` (seconds).
SUBMIT_TIMEOUT = 300.0


class ReplicaDeadError(RuntimeError):
    """A replica could not be reached or died mid-conversation."""


class _RouterRequest(Request):
    """A request plus what the router gathers from its shards."""

    def __init__(self, req_id: str, sub: Submission):
        super().__init__(req_id, sub)
        self.cons_timeouts = 0
        self.cache_stats: list[dict] = []
        self.shards_used: set[str] = set()
        self.failovers = 0

    def result_fields(self) -> dict:
        return {"shards": sorted(self.shards_used),
                "failovers": self.failovers}


class RouterServer(JsonLinesService):
    """See module docstring."""

    role = "router"
    id_prefix = "r"
    request_class = _RouterRequest

    def __init__(self, address: str, replicas: list[str], *,
                 queue_limit: int = 128, default_deadline: float | None = None,
                 cache_dir: str | None = None, vnodes: int = DEFAULT_VNODES,
                 drain_replicas: bool = False):
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        super().__init__(address, queue_limit=queue_limit,
                         cache_dir=cache_dir,
                         default_deadline=default_deadline)
        self.drain_replicas = drain_replicas
        self.ring = HashRing(replicas, vnodes=vnodes)
        self._dead: dict[str, str] = {}  # address -> reason
        self._verbs["topology"] = self._op_topology

    async def _close(self) -> None:
        """With ``drain_replicas``, drain the whole fleet."""
        if not self.drain_replicas:
            return
        for spec in self.ring.shards():
            try:
                await self._replica_call(spec, {"op": "drain"},
                                         timeout=600.0)
            except ReplicaDeadError:
                pass  # already gone is drained enough

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------

    async def _op_ping(self, msg: dict) -> dict:
        return ok(pong=True, draining=self._draining, role="router",
                  replicas=len(self.ring))

    def _refusal(self) -> dict | None:
        if self._live >= self.queue_limit:
            return error("overloaded",
                         f"{self._live} requests in flight "
                         f"(limit {self.queue_limit})", retry_after=0.25)
        if not self.ring:
            return error("no_replicas", "every replica is dead")
        return None

    def _schedule(self, req: _RouterRequest, sub: Submission,
                  msg: dict) -> dict:
        fields = {k: msg[k] for k in _FORWARD_FIELDS if k in msg}
        if sub.deadline is not None:
            fields["deadline"] = sub.deadline
        groups: dict[str, list[int]] = {}
        for idx, key in enumerate(sub.keys):
            groups.setdefault(self.ring.owner(key), []).append(idx)
        for shard, idxs in groups.items():
            self._spawn(self._run_group(req, shard, idxs, fields))
        self.metrics.inc("shard_submissions", len(groups))
        return {"shards": len(groups)}

    async def _op_metrics(self, msg: dict) -> dict:
        shards: dict[str, dict | None] = {}
        for spec in self.ring.shards():
            try:
                resp = await self._replica_call(spec, {"op": "metrics"},
                                                timeout=10.0)
                shards[spec] = resp.get("metrics") if resp.get("ok") else None
            except ReplicaDeadError:
                shards[spec] = None
        snap = self.snapshot()
        snap["shards"] = shards
        return ok(metrics=snap)

    async def _op_topology(self, msg: dict) -> dict:
        return ok(role="router", vnodes=self.ring.vnodes,
                  alive=self.ring.shards(), dead=dict(self._dead))

    # ------------------------------------------------------------------
    # scatter / gather / failover
    # ------------------------------------------------------------------

    async def _run_group(self, req: _RouterRequest, shard: str,
                         idxs: list[int], fields: dict) -> None:
        """Run one shard's share of a request: submit, await the
        report, deliver the per-procedure entries — or fail over."""
        procs = [req.proc_names[i] for i in idxs]
        sub = dict(fields)
        sub["procs"] = procs
        try:
            acc = await self._submit_to_replica(shard, sub)
            res = await self._replica_call(
                shard, {"op": "result", "id": acc["id"], "wait": True},
                timeout=None)
            if not res.get("ok"):
                raise ReplicaDeadError(
                    f"replica {shard} result error: {res.get('error')}")
        except ReplicaDeadError as exc:
            self._fail_over(req, shard, idxs, fields, exc)
            return
        req.shards_used.add(shard)
        report = res.get("report") or {}
        stats = report.get("cache_stats")
        if stats:
            req.cache_stats.append(stats)
        if req.kind == "analyze":
            by_name = {r.get("proc_name"): r
                       for r in report.get("reports", [])}
            for i in idxs:
                name = req.proc_names[i]
                entry = by_name.get(name)
                if entry is None:
                    entry = _failure_entry(
                        name, req.config_name, "router",
                        f"replica {shard} returned no report for {name!r}")
                self._fill(req, i, entry)
        else:
            warnings = report.get("warnings", {})
            failures = report.get("failures", {})
            req.cons_timeouts += int(report.get("timeouts", 0))
            for i in idxs:
                name = req.proc_names[i]
                self._fill(req, i, {"warnings": warnings.get(name, []),
                                    "failure": failures.get(name)})

    def _fail_over(self, req: _RouterRequest, shard: str, idxs: list[int],
                   fields: dict, exc: ReplicaDeadError) -> None:
        """The whole-replica generalization of the pool's crash retry:
        drop the dead shard from the ring, re-hash its share of the
        request over the survivors, resubmit."""
        self._mark_dead(shard, str(exc))
        if not self.ring:
            for i in idxs:
                name = req.proc_names[i]
                if req.kind == "analyze":
                    entry = _failure_entry(name, req.config_name,
                                           "replica_lost", str(exc))
                else:
                    entry = {"warnings": [],
                             "failure": {"type": "replica_lost",
                                         "message": str(exc)}}
                self._fill(req, i, entry)
            return
        req.failovers += len(idxs)
        self.metrics.inc("failover_resubmits", len(idxs))
        regroup: dict[str, list[int]] = {}
        for i in idxs:
            regroup.setdefault(self.ring.owner(req.keys[i]), []).append(i)
        for new_shard, sub_idxs in regroup.items():
            self._spawn(self._run_group(req, new_shard, sub_idxs, fields))

    def _mark_dead(self, shard: str, reason: str) -> None:
        if shard not in self.ring:
            return  # another group already buried it
        self.ring.remove(shard)
        self._dead[shard] = reason
        self.metrics.inc("replica_failures")

    def _assemble(self, req: _RouterRequest) -> tuple[dict, int]:
        """Reassemble the shards' wire entries in submission order."""
        if req.kind == "analyze":
            return ({"config_name": req.config_name,
                     "prune_k": req.prune_k,
                     "cache_stats": merge_cache_stats(req.cache_stats),
                     "reports": list(req.slots)},
                    sum(1 for e in req.slots if e.get("failed")))
        warnings: dict[str, list] = {}
        failures: dict[str, dict] = {}
        for name, entry in zip(req.proc_names, req.slots):
            warnings[name] = entry["warnings"]
            if entry.get("failure"):
                failures[name] = dict(entry["failure"])
        return ({"kind": "cons", "warnings": warnings,
                 "timeouts": req.cons_timeouts, "failures": failures,
                 "cache_stats": merge_cache_stats(req.cache_stats)},
                len(failures))

    # ------------------------------------------------------------------
    # replica RPC
    # ------------------------------------------------------------------

    async def _submit_to_replica(self, shard: str, msg: dict) -> dict:
        """Submit to one replica, absorbing ``overloaded`` backpressure
        with the shared capped-exponential deterministic-jitter
        backoff.  Any other rejection is treated as replica loss (the
        router validated the request already, so a healthy replica
        cannot legitimately refuse it)."""
        token = request_token(msg)
        for attempt in range(SUBMIT_ATTEMPTS):
            resp = await self._replica_call(
                shard, {"op": "submit", **msg}, timeout=SUBMIT_TIMEOUT)
            if resp.get("ok"):
                return resp
            code = resp.get("error")
            if code != "overloaded":
                raise ReplicaDeadError(
                    f"replica {shard} rejected submit: {code}: "
                    f"{resp.get('message', '')}")
            hint = float(resp.get("retry_after", 0.1))
            self.metrics.inc("shard_backpressure")
            await asyncio.sleep(retry_delay(token, attempt, hint))
        raise ReplicaDeadError(
            f"replica {shard} still overloaded after "
            f"{SUBMIT_ATTEMPTS} attempts")

    async def _replica_call(self, shard: str, msg: dict,
                            timeout: float | None) -> dict:
        """One connection-per-call round trip to a replica.  Every
        transport failure — connect, send, EOF, timeout — raises
        :class:`ReplicaDeadError`; the caller decides whether that
        means failover."""
        addr = parse_address(shard)
        try:
            if addr[0] == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    addr[1], limit=MAX_LINE)
            else:
                reader, writer = await asyncio.open_connection(
                    addr[1], addr[2], limit=MAX_LINE)
        except OSError as exc:
            raise ReplicaDeadError(f"connect {shard}: {exc}") from exc
        try:
            writer.write(encode(msg))
            await writer.drain()
            if timeout is not None:
                line = await asyncio.wait_for(reader.readline(), timeout)
            else:
                line = await reader.readline()
        except (OSError, ConnectionResetError, asyncio.TimeoutError) as exc:
            raise ReplicaDeadError(f"talk {shard}: {exc}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass
        if not line:
            raise ReplicaDeadError(f"replica {shard} closed the connection")
        try:
            return decode(line)
        except ProtocolError as exc:
            raise ReplicaDeadError(f"garbage from {shard}: {exc}") from exc

    def snapshot(self) -> dict:
        return self.metrics.snapshot(
            role="router",
            in_flight=self._live,
            queue_limit=self.queue_limit,
            draining=self._draining,
            replicas_alive=self.ring.shards(),
            replicas_dead=sorted(self._dead))


def _failure_entry(name: str, config_name: str, type_: str,
                   message: str) -> dict:
    """A wire-shaped failed ``ProcedureReport`` entry, matching what a
    replica would produce for an infrastructure failure."""
    from dataclasses import asdict
    return asdict(failure_report(name, config_name,
                                 {"type": type_, "message": message}))


def RouterThread(address: str, replicas: list[str],
                 **kwargs) -> ServiceThread:
    """An in-process :class:`RouterServer` on a background thread."""
    return ServiceThread(RouterServer(address, replicas, **kwargs))
