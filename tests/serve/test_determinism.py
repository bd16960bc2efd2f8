"""The server must be invisible in the results: a fig5 suite swept
through a warm two-worker daemon (coalescing on) gives results equal
(``==``) to the serial batch ``analyze_program`` sweep of the same
program."""

import pytest

from repro.bench import compile_suite, make_suite
from repro.core import CONC, analyze_program, program_report_from_json
from repro.serve import ServeClient, ServerThread


@pytest.fixture(scope="module")
def suite():
    return make_suite("moufilter", scale=0.5)


def test_server_sweep_equals_batch_serial_sweep(tmp_path, suite):
    names = [f.name for f in suite.functions]
    program = compile_suite(suite)
    batch = analyze_program(program, config=CONC, proc_names=names)

    sock = str(tmp_path / "s.sock")
    with ServerThread(sock, pool_size=2, queue_limit=32):
        with ServeClient(sock) as client:
            served = client.analyze(suite.c_source, lang="c", procs=names)
            # Resubmitting the identical sweep must not change anything
            # (it coalesces with nothing in flight, then hits the
            # workers' in-memory state warm).
            again = client.analyze(suite.c_source, lang="c", procs=names)

    assert [r.proc_name for r in served.reports] == names
    assert served.reports == batch.reports
    assert again.reports == batch.reports
    assert served.config_name == batch.config_name
    assert served.prune_k == batch.prune_k
    assert served.n_failures == 0


def test_coalesced_twins_get_identical_reports(tmp_path, suite):
    from repro.core.tasks import AnalysisTask
    names = [f.name for f in suite.functions][:4]
    sock = str(tmp_path / "s.sock")
    with ServerThread(sock, pool_size=1, queue_limit=32) as st:
        # Park the only worker so submission A is still entirely in
        # flight when its twin B arrives: every one of B's tasks must
        # attach to A's computations.
        blocker = st.server.pool.submit(
            AnalysisTask(kind="sleep", payload=0.5))
        with ServeClient(sock) as client:
            a = client.submit(suite.c_source, lang="c", procs=names)
            b = client.submit(suite.c_source, lang="c", procs=names)
            ra = client.result(a["id"])["report"]
            rb = client.result(b["id"])["report"]
            coalesced = b["coalesced"]
            snap = client.metrics()
        blocker.result(timeout=30)
    # Coalesced tasks share one computation: equal results, and the
    # twin's copy says where it came from.
    assert coalesced == len(names)
    assert snap["counters"]["coalesced_tasks"] >= coalesced
    ra, rb = program_report_from_json(ra), program_report_from_json(rb)
    assert ra.reports == rb.reports
    assert {r.source for r in ra.reports} == {"computed"}
    assert {r.source for r in rb.reports} == {"coalesced"}
