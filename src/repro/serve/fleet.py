"""Fleet bring-up: N analysis replicas plus one router, as one unit.

``repro fleet`` (see :func:`run_fleet`) is the operational entry point:
it spawns N ``repro serve`` replica *processes* — each with its own
warm worker pool and hot tier, all sharing one disk cache — then runs
the :class:`~repro.serve.router.RouterServer` in the foreground on the
client-facing address.  Draining the router (the ``drain`` verb, or
SIGTERM) drains every replica before the process exits, so a fleet
shuts down as cleanly as a single server.

Replica addresses are *derived* from the router address
(:func:`replica_addresses`): ``sock.shard0..N-1`` for Unix sockets,
``port+1..port+N`` for TCP — one flag starts the whole topology, and a
crashed fleet can be restarted on the same addresses.

:class:`FleetThread` is the in-process twin for tests and benchmarks:
N server threads plus a router thread
(:class:`~repro.serve.service.ServiceThread`), all inside one
interpreter.  The SIGKILL failover test uses subprocess replicas
via :func:`spawn_replica` instead, because failover is about *process*
death.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from .client import ServeClient, ServeError
from .hotcache import DEFAULT_HOT_BYTES
from .protocol import parse_address
from .router import RouterServer, RouterThread
from .server import ServerThread
from .service import run_service


def replica_addresses(router_address: str, count: int) -> list[str]:
    """The derived shard addresses of a fleet fronted at
    ``router_address``: sibling socket paths for Unix, consecutive
    ports for TCP."""
    addr = parse_address(router_address)
    if addr[0] == "unix":
        # Keep the derived names recognizably Unix paths for
        # parse_address (a bare "x.sock" has no "/" to give it away).
        suffix = "" if "/" in addr[1] else ".sock"
        return [f"{addr[1]}.shard{i}{suffix}" for i in range(count)]
    _, host, port = addr
    return [f"{host}:{port + 1 + i}" for i in range(count)]


def spawn_replica(address: str, *, pool_size: int = 1,
                  queue_limit: int = 64, cache_dir: str | None = None,
                  deadline: float | None = None,
                  hot_bytes: int = DEFAULT_HOT_BYTES,
                  env: dict | None = None,
                  stdout=subprocess.DEVNULL,
                  stderr=subprocess.DEVNULL) -> subprocess.Popen:
    """Start one ``repro serve`` replica as a child process."""
    cmd = [sys.executable, "-m", "repro", "serve", "--socket", address,
           "--pool", str(pool_size), "--queue-limit", str(queue_limit),
           "--hot-bytes", str(hot_bytes)]
    if cache_dir:
        cmd += ["--cache-dir", str(cache_dir)]
    else:
        cmd += ["--no-cache"]
    if deadline is not None:
        cmd += ["--deadline", str(deadline)]
    return subprocess.Popen(cmd, env=env or dict(os.environ),
                            stdout=stdout, stderr=stderr)


def wait_ready(addresses: list[str], timeout: float = 180.0) -> None:
    """Block until every address accepts a ``ping`` (daemon startup)."""
    deadline = time.monotonic() + timeout
    for address in addresses:
        with ServeClient(address) as client:
            client.wait_ready(max(1.0, deadline - time.monotonic()))


def run_fleet(address: str, *, replicas: int = 2, pool_size: int = 1,
              queue_limit: int = 64, router_queue_limit: int = 128,
              cache_dir: str | None = None, deadline: float | None = None,
              hot_bytes: int = DEFAULT_HOT_BYTES, vnodes: int | None = None,
              out=sys.stdout) -> int:
    """Blocking entry point for ``repro fleet``: spawn the replicas,
    route until drained, reap the children.  Returns an exit code."""
    shard_addrs = replica_addresses(address, replicas)
    procs: list[subprocess.Popen] = []
    try:
        for shard in shard_addrs:
            procs.append(spawn_replica(
                shard, pool_size=pool_size, queue_limit=queue_limit,
                cache_dir=cache_dir, deadline=deadline,
                hot_bytes=hot_bytes, stderr=None))
        try:
            wait_ready(shard_addrs)
        except (ServeError, OSError) as exc:
            print(f"error: replica did not come up: {exc}",
                  file=sys.stderr)
            return 2
        print(f"repro fleet: routing {address} -> "
              f"{len(shard_addrs)} replicas "
              f"(pool={pool_size} each, hot={hot_bytes} bytes, "
              f"cache={'on' if cache_dir else 'off'})", file=out, flush=True)
        kwargs: dict = dict(queue_limit=router_queue_limit,
                            default_deadline=deadline, cache_dir=cache_dir,
                            drain_replicas=True)
        if vnodes is not None:
            kwargs["vnodes"] = vnodes
        try:
            run_service(RouterServer(address, shard_addrs, **kwargs))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("repro fleet: drained, exiting", file=out, flush=True)
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class FleetThread:
    """An in-process fleet for tests and benchmarks: N server threads
    over one cache dir, one router thread in front.  Context-manager
    enter starts everything ready-to-serve; exit drains the router
    first (so no new work reaches the shards), then the shards."""

    def __init__(self, address: str, *, replicas: int = 2,
                 pool_size: int = 1, queue_limit: int = 64,
                 router_queue_limit: int = 128,
                 cache_dir: str | None = None,
                 hot_bytes: int = DEFAULT_HOT_BYTES,
                 vnodes: int | None = None, **server_kwargs):
        self.address = address
        self.replica_addrs = replica_addresses(address, replicas)
        self.servers = [
            ServerThread(shard, pool_size=pool_size,
                         queue_limit=queue_limit, cache_dir=cache_dir,
                         hot_bytes=hot_bytes, **server_kwargs)
            for shard in self.replica_addrs]
        router_kwargs: dict = dict(queue_limit=router_queue_limit,
                                   cache_dir=cache_dir)
        if vnodes is not None:
            router_kwargs["vnodes"] = vnodes
        self.router = RouterThread(address, list(self.replica_addrs),
                                   **router_kwargs)

    def start(self, timeout: float = 180.0) -> "FleetThread":
        started = []
        try:
            for server in self.servers:
                server.start(timeout)
                started.append(server)
            self.router.start(timeout)
        except Exception:
            for server in started:
                server.stop()
            raise
        return self

    def stop(self, timeout: float = 120.0) -> None:
        self.router.stop(timeout)
        for server in self.servers:
            server.stop(timeout)

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.address, **kwargs)

    def __enter__(self) -> "FleetThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
