"""The serving layer: a persistent analysis daemon over warm workers.

``repro serve`` keeps the expensive engine resident — workers that
imported the solver once, hold the Dead/Fail baseline memo, and share
the persistent content-addressed cache — and streams per-procedure
analysis tasks to it over a JSON-lines socket protocol with bounded
admission, request coalescing, deadlines and crash recovery.

Public surface:

* :class:`~repro.serve.server.AnalysisServer` / ``ServerThread`` — the
  daemon (one replica);
* :class:`~repro.serve.router.RouterServer` / ``RouterThread`` — the
  consistent-hash fleet router (same wire protocol as a replica);
* :class:`~repro.serve.service.JsonLinesService` / ``run_service`` /
  ``ServiceThread`` — the service core both are built on: socket
  lifecycle, framing, request table, shared verbs;
* :class:`~repro.serve.fleet.FleetThread` / ``run_fleet`` — a whole
  fleet (N replicas + router) as one unit;
* :class:`~repro.serve.client.ServeClient` — the client library
  (``repro submit`` is a thin wrapper over it); works unchanged
  against a replica or a router;
* :class:`~repro.serve.pool.WorkerPool` — the warm pool, the one
  process layer;
* :class:`~repro.serve.hashring.HashRing` /
  :class:`~repro.serve.hotcache.HotCache` — the sharding and hot-tier
  primitives;
* `repro.serve.protocol` — the wire format.

See ``docs/serving.md`` for the protocol, lifecycle and metrics
glossary, and ``docs/fleet.md`` for the sharded-fleet topology.
"""

from .client import ServeClient, ServeError, retry_delay
from .fleet import FleetThread, run_fleet
from .hashring import HashRing
from .hotcache import HotCache
from .pool import PoolClosedError, WorkerPool
from .protocol import parse_address
from .router import RouterServer, RouterThread
from .server import AnalysisServer, ServerThread
from .service import JsonLinesService, ServiceThread, run_service

__all__ = [
    "AnalysisServer", "ServerThread",
    "RouterServer", "RouterThread",
    "JsonLinesService", "ServiceThread", "run_service",
    "FleetThread", "run_fleet",
    "ServeClient", "ServeError", "retry_delay",
    "WorkerPool", "PoolClosedError",
    "HashRing", "HotCache",
    "parse_address",
]
