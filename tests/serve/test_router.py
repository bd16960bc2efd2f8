"""Fleet router tests, all in-process (:class:`FleetThread`): shard
routing, cross-client twin coalescing at one shard, the hot tier,
report parity with batch, thread-level failover (replica drained out
from under the router) and clean shutdown.  Process-death failover
lives in ``test_fleet_failover.py``."""

import logging

import pytest

from repro.core import (CONC, analyze_program, conservative_program,
                        program_report_from_json)
from repro.core.tasks import AnalysisTask, coalesce_key
from repro.lang import parse_program, typecheck
from repro.serve import (FleetThread, RouterThread, ServeClient,
                         ServeError)

FIG1_BPL = """
var Freed: [int]int;
procedure Foo(c: int, buf: int, cmd: int) modifies Freed;
{
  if (*) {
    A1: assert Freed[c] == 0;  Freed[c] := 1;
    A2: assert Freed[buf] == 0; Freed[buf] := 1;
    return;
  }
  if (cmd == 0) {
    if (*) {
      A3: assert Freed[c] == 0;  Freed[c] := 1;
      A4: assert Freed[buf] == 0; Freed[buf] := 1;
    }
  }
  A5: assert Freed[c] == 0;  Freed[c] := 1;
  A6: assert Freed[buf] == 0; Freed[buf] := 1;
}
"""

MANY_PROCS_BPL = "\n".join(f"""
procedure p{i}(x: int) returns (r: int)
  ensures r >= x;
{{
  r := x + {i + 1};
}}""" for i in range(6))

# submit fields the shared validation rejects, with a piece of its message
SUBMIT_REJECTIONS = [
    ({"kind": "frob", "source": FIG1_BPL}, "unknown kind"),
    ({"config": "Nope", "source": FIG1_BPL}, "unknown config"),
    ({"source": 42}, "string 'source'"),
    ({"lang": "rust", "source": FIG1_BPL}, "unknown lang"),
]


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("fleet") / "router.sock")
    with FleetThread(sock, replicas=2, pool_size=1, queue_limit=8) as ft:
        yield ft


@pytest.fixture()
def client(fleet):
    with fleet.client() as c:
        yield c


def _replica_counter(fleet, name):
    return sum(s.server.metrics.snapshot()["counters"].get(name, 0)
               for s in fleet.servers)


class TestRouting:
    def test_ping_identifies_router(self, client):
        resp = client.ping()
        assert resp["pong"] is True
        assert resp["role"] == "router"
        assert resp["replicas"] == 2

    def test_analyze_matches_batch(self, client):
        served = client.analyze(FIG1_BPL)
        program = typecheck(parse_program(FIG1_BPL))
        batch = analyze_program(program, config=CONC)
        assert served.reports == batch.reports

    def test_cons_matches_batch(self, client):
        served = client.conservative(FIG1_BPL)
        program = typecheck(parse_program(FIG1_BPL))
        warnings, timeouts = conservative_program(program)
        assert served["warnings"] == warnings
        assert served["timeouts"] == timeouts
        assert served["failures"] == {}

    def test_report_order_follows_submission(self, client):
        served = client.analyze(MANY_PROCS_BPL)
        assert [r.proc_name for r in served.reports] == \
            [f"p{i}" for i in range(6)]

    def test_work_spreads_across_shards(self, fleet, client):
        # Six distinct procedures should not all hash to one shard
        # (checked via the submit ack's shard count).
        acc = client.submit(MANY_PROCS_BPL)
        assert acc["shards"] == 2
        client.result(acc["id"])

    def test_status_and_result_parity(self, client):
        acc = client.submit(MANY_PROCS_BPL)
        st = client.status(acc["id"])
        assert st["state"] in ("queued", "running", "done")
        assert st["total"] == 6
        res = client.result(acc["id"])
        assert res["failures"] == 0
        assert client.status(acc["id"])["state"] == "done"

    def test_unknown_request_and_bad_submit(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("nonesuch")
        assert exc.value.code == "unknown_request"
        with pytest.raises(ServeError) as exc:
            client.submit("procedure oops(   <-- not boogie")
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("msg,message", SUBMIT_REJECTIONS)
    def test_invalid_submit_is_bad_request(self, client, msg, message):
        # The router validates with the server's parse_submit, so it
        # rejects the same submissions before routing any work.
        with pytest.raises(ServeError) as exc:
            client.request("submit", **msg)
        assert exc.value.code == "bad_request"
        assert message in str(exc.value)

    def test_topology_verb(self, fleet, client):
        topo = client.request("topology")
        assert topo["role"] == "router"
        assert sorted(topo["alive"]) == sorted(fleet.replica_addrs)
        assert topo["dead"] == {}

    def test_metrics_aggregates_shards(self, fleet, client):
        m = client.metrics()
        assert m["role"] == "router"
        assert set(m["shards"]) == set(fleet.replica_addrs)
        for snap in m["shards"].values():
            assert snap is not None and "counters" in snap

    def test_in_flight_requests_survive_gc(self, client):
        # Regression: group/flight coroutines are fire-and-forget, and
        # the event loop only keeps weak references to tasks — without
        # a strong reference a GC pass mid-await destroys the pending
        # task ("Task was destroyed but it is pending!") and its
        # request never completes.  Pile up concurrent requests, force
        # collection while they are in flight, and demand every one
        # still finishes.
        import gc
        srcs = [f"procedure G{i}(x: int) {{ A1: assert x + {i} > x; }}"
                for i in range(8)]
        ids = [client.submit(src)["id"] for src in srcs]
        gc.collect()
        for rid in ids:
            assert client.result(rid)["failures"] == 0


class TestCoalescingAndHotTier:
    def test_cross_client_twins_coalesce_at_one_shard(self, fleet):
        # Park every replica pool so the first submission cannot finish,
        # then submit the same never-seen program from a second client:
        # its tasks must ride the first client's in-flight computations
        # (same shard by consistent hashing), not enqueue new ones.
        # Content addresses ignore procedure names, so freshness needs
        # a never-seen *body* (the changed constant), not just a rename.
        src = FIG1_BPL.replace("Foo", "TwinProbe").replace(
            "cmd == 0", "cmd == 41")
        blockers = [s.server.pool.submit(
            AnalysisTask(kind="sleep", payload=0.5))
            for s in fleet.servers]
        before = _replica_counter(fleet, "coalesced_tasks")
        with fleet.client() as c1, fleet.client() as c2:
            acc1 = c1.submit(src)
            acc2 = c2.submit(src)
            for b in blockers:
                b.result(timeout=60)
            r1 = c1.result(acc1["id"])
            r2 = c2.result(acc2["id"])
        assert _replica_counter(fleet, "coalesced_tasks") == before + 1
        r1 = program_report_from_json(r1["report"])
        r2 = program_report_from_json(r2["report"])
        assert r1.reports == r2.reports
        assert [r.source for r in r1.reports] == ["computed"]
        assert [r.source for r in r2.reports] == ["coalesced"]

    def test_repeat_request_served_from_hot_tier(self, fleet):
        src = FIG1_BPL.replace("Foo", "HotProbe").replace(
            "cmd == 0", "cmd == 42")
        with fleet.client() as c:
            c.analyze(src)
            before = _replica_counter(fleet, "hot_hits")
            rep = c.analyze(src)
        assert _replica_counter(fleet, "hot_hits") == before + 1
        assert not rep.reports[0].failed
        assert rep.reports[0].source == "hot"


class TestThreadFailover:
    """Replica loss while the fleet is up: drain one ServerThread out
    from under the router, then keep serving."""

    @pytest.fixture(scope="class")
    def lossy_fleet(self, tmp_path_factory):
        sock = str(tmp_path_factory.mktemp("lossy") / "router.sock")
        ft = FleetThread(sock, replicas=2, pool_size=1, queue_limit=8)
        ft.start()
        yield ft
        # only the survivor is still running; router.stop is idempotent
        ft.router.stop()
        for server in ft.servers:
            server.stop()

    def test_submission_survives_replica_drain(self, lossy_fleet):
        with lossy_fleet.client() as c:
            full = c.analyze(MANY_PROCS_BPL)
            assert not any(r.failed for r in full.reports)
            # Kill the shard that provably owns p0's keyspace, so the
            # next submission must hit the dead replica and fail over.
            program = typecheck(parse_program(MANY_PROCS_BPL))
            key = coalesce_key(AnalysisTask(
                kind="analyze", proc_name="p0", program=program))
            router = lossy_fleet.router.server
            victim = router.ring.owner(key)
            victim_idx = lossy_fleet.replica_addrs.index(victim)
            lossy_fleet.servers[victim_idx].stop()  # drain + socket gone
            after = c.analyze(MANY_PROCS_BPL)
        assert after.reports == full.reports
        assert len(router.ring) == 1
        assert victim in router._dead
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("replica_failures", 0) == 1
        assert counters.get("failover_resubmits", 0) >= 1

    def test_no_replicas_left_reports_structured_failures(self,
                                                          lossy_fleet):
        for server in lossy_fleet.servers:  # kill the survivor too
            server.stop()
        with lossy_fleet.client() as c:
            rep = c.analyze(MANY_PROCS_BPL)
            assert all(r.failed for r in rep.reports)
            assert all(r.failure["type"] == "replica_lost"
                       for r in rep.reports)
            # once the ring is empty, admission refuses outright
            with pytest.raises(ServeError) as exc:
                c.submit(MANY_PROCS_BPL)
            assert exc.value.code == "no_replicas"


def test_router_stop_with_a_connected_client_is_clean(tmp_path, caplog):
    # The router shares the server's shutdown: live client connections
    # are closed before its event loop exits (see test_server.py).
    sock = str(tmp_path / "router.sock")
    rt = RouterThread(sock, [str(tmp_path / "absent.sock")]).start()
    with ServeClient(sock) as c:
        assert c.ping()["role"] == "router"
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            rt.stop()
    assert not rt._thread.is_alive()
    assert [r.getMessage() for r in caplog.records
            if r.name == "asyncio"] == []
