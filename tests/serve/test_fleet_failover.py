"""Whole-replica failover under real process death: subprocess
replicas, an in-process router, and SIGKILL — the replica vanishes
mid-request with no goodbye, the router re-hashes its keyspace over
the survivors, and the final report is indistinguishable from an
undisturbed run."""

import os
import subprocess
import time
from pathlib import Path

import pytest

from repro.core import CONC, analyze_program
from repro.core.tasks import AnalysisTask, coalesce_key
from repro.lang import parse_program, typecheck
from repro.serve import ServeClient
from repro.serve.fleet import replica_addresses, spawn_replica, wait_ready
from repro.serve.router import RouterThread

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

_FIG1_BODY = """
procedure {name}(c: int, buf: int, cmd: int) modifies Freed;
{{
  if (*) {{
    A1: assert Freed[c] == 0;  Freed[c] := 1;
    A2: assert Freed[buf] == 0; Freed[buf] := 1;
    return;
  }}
  if (cmd == {salt}) {{
    if (*) {{
      A3: assert Freed[c] == 0;  Freed[c] := 1;
      A4: assert Freed[buf] == 0; Freed[buf] := 1;
    }}
  }}
  A5: assert Freed[c] == 0;  Freed[c] := 1;
  A6: assert Freed[buf] == 0; Freed[buf] := 1;
}}
"""

def _program_src(prefix: str, count: int) -> str:
    # Content addresses ignore procedure names, so every generated
    # procedure gets a *body* unique to (prefix, i) — otherwise all of
    # them would coalesce onto one flight / hot-tier entry and the
    # distribution and failover assumptions below would not hold.
    salt0 = sum(ord(ch) for ch in prefix) % 1000
    return "var Freed: [int]int;\n" + "".join(
        _FIG1_BODY.format(name=f"{prefix}{i}", salt=salt0 * 100 + i)
        for i in range(count))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.pop("REPRO_SERVE_SOCKET", None)
    env.pop("REPRO_CACHE_DIR", None)
    return env


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("failover")
    router_sock = str(tmp / "router.sock")
    shards = replica_addresses(router_sock, 2)
    procs = [spawn_replica(s, pool_size=1, env=_env())
             for s in shards]
    try:
        wait_ready(shards, timeout=180)
    except Exception:
        for p in procs:
            p.kill()
        raise
    router = RouterThread(router_sock, shards).start()
    yield router, procs, shards, router_sock
    router.stop()
    for p in procs:
        if p.poll() is None:
            p.terminate()
    for p in procs:
        try:
            p.wait(60)
        except subprocess.TimeoutExpired:
            p.kill()


def test_sanity_analyze_through_subprocess_fleet(fleet):
    _, _, _, router_sock = fleet
    src = _program_src("Warm", 1)
    with ServeClient(router_sock) as c:
        served = c.analyze(src)
    batch = analyze_program(typecheck(parse_program(src)), config=CONC)
    assert served.reports == batch.reports


def test_sigkill_replica_mid_request_failover(fleet):
    router_thread, procs, shards, router_sock = fleet
    ring = router_thread.server.ring

    # A cold program, and the shard that provably owns part of it.
    src = _program_src("Cold", 4)
    program = typecheck(parse_program(src))
    key = coalesce_key(AnalysisTask(kind="analyze", proc_name="Cold0",
                                    program=program))
    victim = ring.owner(key)
    victim_idx = shards.index(victim)
    victim_proc = procs[victim_idx]

    with ServeClient(victim) as vc:
        worker_pids = vc.metrics()["worker_pids"]
        # Park the victim's single worker behind unrelated work so our
        # request is still in flight there when the SIGKILL lands.
        vc.submit(_program_src("Filler", 3))

    with ServeClient(router_sock) as c:
        acc = c.submit(src)
        time.sleep(0.3)  # let the groups reach the replicas
        victim_proc.kill()  # SIGKILL: no drain, no goodbye
        res = c.result(acc["id"])

    # The report is exactly what an undisturbed analysis produces.
    assert res["failures"] == 0
    from repro.core.analysis import program_report_from_json
    served = program_report_from_json(res["report"])
    batch = analyze_program(program, config=CONC)
    assert served.reports == batch.reports

    # The router buried the replica and re-homed its keyspace.
    assert victim in router_thread.server._dead
    counters = router_thread.server.metrics.snapshot()["counters"]
    assert counters.get("replica_failures", 0) >= 1
    assert counters.get("failover_resubmits", 0) >= 1
    survivors = ring.shards()
    assert survivors and victim not in survivors

    # The dead replica's workers notice the severed pipe and exit —
    # SIGKILL must not leak worker processes.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in worker_pids):
            break
        time.sleep(0.1)
    leaked = [p for p in worker_pids if _alive(p)]
    assert not leaked, f"orphaned workers after SIGKILL: {leaked}"

    # And the fleet keeps serving new work on the survivors.
    with ServeClient(router_sock) as c:
        rep = c.analyze(_program_src("After", 1))
    assert not any(r.failed for r in rep.reports)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
