"""In-process daemon tests: protocol verbs, coalescing, backpressure,
drain, shutdown — all over a real Unix socket against a
:class:`ServerThread`."""

import json
import logging
import socket
import threading
import time

import pytest

from repro.core import (CONC, analyze_program, conservative_program,
                        program_report_from_json)
from repro.core.tasks import AnalysisTask
from repro.lang import parse_program, typecheck
from repro.serve import ServeClient, ServeError, ServerThread

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

TWO_PROCS_BPL = """
procedure inc(x: int) returns (r: int)
  ensures r >= x;
{
  r := x + 1;
}

procedure dec(x: int) returns (r: int)
  ensures r <= x;
{
  r := x - 1;
}
"""

# submit fields the shared validation rejects, with a piece of its message
SUBMIT_REJECTIONS = [
    ({"kind": "frob", "source": FIG1_BPL}, "unknown kind"),
    ({"config": "Nope", "source": FIG1_BPL}, "unknown config"),
    ({"source": 42}, "string 'source'"),
    ({"lang": "rust", "source": FIG1_BPL}, "unknown lang"),
]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("serve") / "s.sock")
    with ServerThread(sock, pool_size=2, queue_limit=8) as st:
        yield st


@pytest.fixture()
def client(server):
    with ServeClient(server.server.address_spec) as c:
        yield c


class TestVerbs:
    def test_ping(self, client):
        resp = client.ping()
        assert resp["pong"] is True
        assert resp["draining"] is False

    def test_analyze_matches_batch(self, client):
        served = client.analyze(FIG1_BPL)
        program = typecheck(parse_program(FIG1_BPL))
        batch = analyze_program(program, config=CONC)
        assert served.reports == batch.reports
        assert served.config_name == "Conc"

    def test_cons_matches_batch(self, client):
        served = client.conservative(FIG1_BPL)
        program = typecheck(parse_program(FIG1_BPL))
        warnings, timeouts = conservative_program(program)
        assert served["warnings"] == warnings
        assert served["timeouts"] == timeouts
        assert served["failures"] == {}

    def test_status_then_result(self, client):
        acc = client.submit(TWO_PROCS_BPL)
        assert acc["procs"] == ["inc", "dec"]
        st = client.status(acc["id"])
        assert st["state"] in ("queued", "running", "done")
        assert st["total"] == 2
        res = client.result(acc["id"])
        assert res["failures"] == 0
        assert {r["proc_name"] for r in res["report"]["reports"]} == \
            {"inc", "dec"}
        assert client.status(acc["id"])["state"] == "done"

    def test_result_nowait_pending(self, client, server):
        # Hold the pool so the request cannot finish before we peek.
        blocker = server.server.pool.submit(
            AnalysisTask(kind="sleep", payload=0.4))
        acc = client.submit(FIG1_BPL)
        with pytest.raises(ServeError) as exc:
            client.result(acc["id"], wait=False)
        assert exc.value.code == "pending"
        blocker.result(timeout=30)
        assert client.result(acc["id"])["report"] is not None

    def test_metrics(self, client):
        acc = client.submit(FIG1_BPL)
        client.result(acc["id"])
        snap = client.metrics()
        assert snap["counters"]["requests_accepted"] >= 1
        assert snap["counters"]["requests_completed"] >= 1
        assert snap["counters"]["procs_submitted"] >= 1
        assert snap["workers"] == 2
        assert len(snap["worker_pids"]) == 2
        assert set(snap["pool"]) >= {"restarts", "retries", "deadline_kills",
                                     "crash_failures", "completed"}
        assert "submit" in snap["verb_latency"]
        assert snap["verb_latency"]["submit"]["count"] >= 1
        for hist in ("task_wait", "task_run", "request_latency"):
            assert {"count", "mean_ms", "p50_ms", "p90_ms",
                    "p99_ms"} <= set(snap[hist])

    def test_unknown_request(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("q999999")
        assert exc.value.code == "unknown_request"

    def test_unknown_verb(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("frobnicate")
        assert exc.value.code == "bad_request"

    def test_parse_error_is_bad_request(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit("procedure oops(")
        assert exc.value.code == "bad_request"
        assert "parse failed" in str(exc.value)

    def test_unknown_procs_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit(FIG1_BPL, procs=["Nope"])
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("msg,message", SUBMIT_REJECTIONS)
    def test_invalid_submit_is_bad_request(self, client, msg, message):
        with pytest.raises(ServeError) as exc:
            client.request("submit", **msg)
        assert exc.value.code == "bad_request"
        assert message in str(exc.value)

    def test_malformed_json_line(self, server):
        addr = server.server.address[1]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(addr)
            s.sendall(b"this is not json\n")
            resp = json.loads(s.makefile("rb").readline())
        assert resp["ok"] is False
        assert resp["error"] == "bad_request"


class TestCoalescing:
    def test_identical_inflight_submissions_coalesce(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        with ServerThread(sock, pool_size=1, queue_limit=8) as st:
            # Park the only worker so both submissions are in flight
            # together.
            blocker = st.server.pool.submit(
                AnalysisTask(kind="sleep", payload=0.5))
            with ServeClient(sock) as c:
                a = c.submit(FIG1_BPL)
                b = c.submit(FIG1_BPL)
                assert a["coalesced"] == 0
                assert b["coalesced"] == 1
                ra = program_report_from_json(c.result(a["id"])["report"])
                rb = program_report_from_json(c.result(b["id"])["report"])
                assert ra.reports == rb.reports
                assert [r.source for r in ra.reports] == ["computed"]
                assert [r.source for r in rb.reports] == ["coalesced"]
                assert c.metrics()["counters"]["coalesced_tasks"] >= 1
            blocker.result(timeout=30)


class TestHotTier:
    def test_served_repeat_is_a_hot_hit(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        with ServerThread(sock, pool_size=1, queue_limit=8,
                          hot_bytes=1 << 20) as st:
            with ServeClient(sock) as c:
                first = c.analyze(TWO_PROCS_BPL)
                again = c.analyze(TWO_PROCS_BPL)
        assert again.reports == first.reports
        assert [r.source for r in first.reports] == ["computed"] * 2
        assert [r.source for r in again.reports] == ["hot"] * 2
        assert all(r.queries == 0 and r.seconds == 0.0 and not r.phases
                   for r in again.reports)
        assert st.server.hot_cache.hits == 2


class TestBackpressure:
    def test_overloaded_submit_rejected_with_retry_after(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        with ServerThread(sock, pool_size=1, queue_limit=1) as st:
            blocker = st.server.pool.submit(
                AnalysisTask(kind="sleep", payload=0.6))
            with ServeClient(sock) as c:
                c.request("submit", source=FIG1_BPL)  # fills the queue
                with pytest.raises(ServeError) as exc:
                    c.request("submit", source=TWO_PROCS_BPL)
                assert exc.value.code == "overloaded"
                assert exc.value.response["retry_after"] > 0
                assert c.metrics()["counters"]["requests_rejected"] >= 1
                # The client's retry loop rides out the backpressure.
                acc = c.submit(TWO_PROCS_BPL)
                assert c.result(acc["id"])["failures"] == 0
            blocker.result(timeout=30)


class TestDrain:
    def test_drain_completes_accepted_and_rejects_new(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        st = ServerThread(sock, pool_size=1, queue_limit=8).start()
        blocker = st.server.pool.submit(
            AnalysisTask(kind="sleep", payload=0.5))
        accept_client = ServeClient(sock)
        acc = accept_client.submit(FIG1_BPL)
        drain_resp = []
        drainer = ServeClient(sock)
        t = threading.Thread(
            target=lambda: drain_resp.append(drainer.drain()))
        t.start()
        time.sleep(0.15)  # let the drain verb land
        with ServeClient(sock) as late:
            with pytest.raises(ServeError) as exc:
                late.request("submit", source=FIG1_BPL)
            assert exc.value.code == "draining"
        t.join(120)
        assert drain_resp and drain_resp[0]["drained"] is True
        assert drain_resp[0]["completed"] >= 1
        blocker.result(timeout=30)
        # The accepted request was finished before the server exited.
        req = st.server._requests[acc["id"]]
        assert req.state == "done"
        assert req.report_json is not None
        # Clean exit: socket unlinked, no live workers.
        st.stop()
        assert st.server.pool.worker_pids() == []
        accept_client.close()
        drainer.close()


class TestShutdown:
    def test_stop_with_a_connected_client_is_clean(self, tmp_path, caplog):
        # Stopping must close live client connections before the event
        # loop exits: a handler still blocked in readline would be
        # cancelled at loop teardown, which asyncio logs as an
        # "Exception in callback ... CancelledError".
        sock = str(tmp_path / "s.sock")
        st = ServerThread(sock, pool_size=1, queue_limit=8).start()
        with ServeClient(sock) as c:
            assert c.ping()["pong"] is True
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                st.stop()
        assert not st._thread.is_alive()
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []
