"""The persistent content-addressed analysis cache (repro.core.cache).

Correctness bar: a warm sweep must equal the cold sweep that populated
the cache (``ProcedureReport`` ``==``, which compares results and
ignores telemetry) while reporting its own run (``source="disk"``, no
solver queries); every fingerprinted knob must change the content
address; corruption of any record must degrade to a miss, never a
crash; nothing that depends on the budget is stored; and a cache shared
by the processes of a 2-worker pool must give the same answers as a
serial sweep.
"""

import json
from dataclasses import fields, replace

from repro.bench import compile_suite, make_suite
from repro.cli import run as cli_run
from repro.core import (CONC, A1, A2, AnalysisCache, AnalysisTask,
                        ProcedureReport, analyze_procedure, analyze_program,
                        assemble_results, conservative_program)
from repro.core.deadfail import AnalysisTimeout, DeadFailOracle
from repro.lang import parse_program, typecheck
from repro.lang.transform import prepare_procedure
from repro.serve.pool import WorkerPool

def _program():
    suite = make_suite("moufilter", scale=0.5)
    return compile_suite(suite), [f.name for f in suite.functions]


SRC = """
var Freed: [int]int;
procedure Foo(c: int)
  modifies Freed;
{
  A1: assert Freed[c] == 0;
  Freed[c] := 1;
  A2: assert Freed[c] == 0;
  Freed[c] := 1;
}
"""

def _small_program():
    return typecheck(parse_program(SRC))


# ----------------------------------------------------------------------
# warm == cold, each with its own telemetry
# ----------------------------------------------------------------------

def test_warm_report_is_bit_identical(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    warm = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    # the results are identical; the telemetry is the warm run's own
    assert warm.reports == cold.reports
    assert [r.result_dict() for r in warm.reports] == \
        [r.result_dict() for r in cold.reports]
    assert all(r.source == "computed" for r in cold.reports)
    assert all(r.source == "disk" and r.queries == 0 and not r.phases
               and not r.solver_stats for r in warm.reports)
    assert sum(r.queries for r in cold.reports) > 0
    assert cold.cache_stats["misses"] == len(names)
    assert cold.cache_stats["stores"] == len(names)
    assert warm.cache_stats["hits"] == len(names)
    assert warm.cache_stats["misses"] == 0


def test_warm_matches_uncached_on_stable_fields(tmp_path):
    program, names = _program()
    plain = analyze_program(program, config=A2, proc_names=names)
    analyze_program(program, config=A2, proc_names=names,
                    cache_dir=str(tmp_path))
    warm = analyze_program(program, config=A2, proc_names=names,
                           cache_dir=str(tmp_path))
    assert warm.reports == plain.reports


def test_cache_off_by_default(tmp_path):
    program, names = _program()
    report = analyze_program(program, config=CONC, proc_names=names)
    assert report.cache_stats == {}
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# content address sensitivity
# ----------------------------------------------------------------------

def _key(cache, program, name, config=CONC, prune_k=None, unroll_depth=2,
         max_preds=12, dead_through_failures=True):
    prepared = prepare_procedure(program, program.proc(name),
                                 havoc_returns=config.havoc_returns,
                                 unroll_depth=unroll_depth)
    return cache.analysis_key(program, prepared, config=config,
                              prune_k=prune_k, unroll_depth=unroll_depth,
                              max_preds=max_preds,
                              dead_through_failures=dead_through_failures)


def test_key_is_deterministic(tmp_path):
    cache = AnalysisCache(tmp_path)
    program = _small_program()
    assert _key(cache, program, "Foo") == _key(cache, program, "Foo")


def test_every_fingerprint_knob_changes_the_key(tmp_path):
    cache = AnalysisCache(tmp_path)
    program = _small_program()
    base = _key(cache, program, "Foo")
    variants = [
        _key(cache, program, "Foo", config=A1),   # ignore_conditionals
        _key(cache, program, "Foo", config=A2),   # + havoc_returns
        _key(cache, program, "Foo", prune_k=2),
        _key(cache, program, "Foo", unroll_depth=3),
        _key(cache, program, "Foo", max_preds=6),
        _key(cache, program, "Foo", dead_through_failures=False),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_source_change_changes_the_key(tmp_path):
    cache = AnalysisCache(tmp_path)
    program = _small_program()
    edited = typecheck(parse_program(SRC.replace("== 0", "== 1")))
    assert _key(cache, program, "Foo") != _key(cache, edited, "Foo")


def test_budgets_are_not_part_of_the_key(tmp_path):
    # timeout / lia_budget are outside the content address: a result
    # computed under one budget is served under any other
    program = _small_program()
    cache = AnalysisCache(tmp_path)
    cold = analyze_procedure(program, "Foo", timeout=10.0, cache=cache)
    warm = analyze_procedure(program, "Foo", timeout=99.0, cache=cache)
    assert warm == cold
    assert cache.hits == 1


def test_timed_out_analyses_are_never_cached(tmp_path):
    program, names = _program()
    report = analyze_program(program, config=CONC, proc_names=names,
                             timeout=0.0, cache_dir=str(tmp_path))
    # a born-expired budget raises before every solver query; only
    # procedures needing zero queries can complete (and may be stored)
    n_timed = sum(1 for r in report.reports if r.timed_out)
    assert n_timed > 0
    assert report.cache_stats["stores"] == len(names) - n_timed
    assert len(list(tmp_path.iterdir())) == len(names) - n_timed


def test_records_hold_results_only(tmp_path):
    program, names = _program()
    analyze_program(program, config=CONC, proc_names=names,
                    cache_dir=str(tmp_path))
    telemetry = {f.name for f in fields(ProcedureReport) if not f.compare}
    for path in tmp_path.glob("*.json"):
        rec = json.loads(path.read_text())
        assert "wall" not in rec
        assert not telemetry & set(rec["report"])


def test_hit_reports_its_own_budget(tmp_path):
    program = _small_program()
    cache = AnalysisCache(tmp_path)
    analyze_procedure(program, "Foo", timeout=10.0, cache=cache)
    hit = analyze_procedure(program, "Foo", timeout=99.0, cache=cache)
    assert hit.source == "disk"
    assert 98.0 < hit.budget_remaining <= 99.0
    assert 0.0 <= hit.seconds < 1.0


def test_post_phase_budget_expiry_is_not_cached(tmp_path, monkeypatch):
    # The budget running out while simplifying the displayed specs makes
    # them depend on wall-clock: such a report is shown, never stored.
    def expire(self, clauses):
        raise AnalysisTimeout()

    monkeypatch.setattr(DeadFailOracle, "simplify_clauses", expire)
    program = _small_program()
    cache = AnalysisCache(tmp_path)
    first = analyze_procedure(program, "Foo", cache=cache)
    assert first.specs and not first.timed_out
    assert first.post_timed_out
    assert cache.stores == 0
    again = analyze_procedure(program, "Foo", cache=cache)
    assert again.source == "computed"
    assert (cache.hits, cache.misses) == (0, 2)


# ----------------------------------------------------------------------
# corruption tolerance
# ----------------------------------------------------------------------

def _corrupt_each(tmp_path, payload):
    records = sorted(tmp_path.glob("*.json"))
    assert records
    for rec in records:
        rec.write_bytes(payload if isinstance(payload, bytes)
                        else payload(rec))
    return len(records)


def _assert_recovers(tmp_path, cold, n_bad):
    program, names = _program()
    warm = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    assert warm.reports == cold.reports
    assert warm.cache_stats["invalidations"] == n_bad
    assert warm.cache_stats["stores"] == n_bad  # bad records re-stored
    # ... and the restored records serve verbatim again
    warm2 = analyze_program(program, config=CONC, proc_names=names,
                            cache_dir=str(tmp_path))
    assert warm2.reports == warm.reports
    assert warm2.cache_stats["hits"] == len(names)


def test_truncated_record_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    n = _corrupt_each(tmp_path, lambda p: p.read_bytes()[:10])
    _assert_recovers(tmp_path, cold, n)


def test_garbage_record_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    n = _corrupt_each(tmp_path, b"{not json at all")
    _assert_recovers(tmp_path, cold, n)


def test_empty_record_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    n = _corrupt_each(tmp_path, b"")
    _assert_recovers(tmp_path, cold, n)


def test_wrong_schema_version_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))

    def bump(path):
        rec = json.loads(path.read_text())
        rec["schema"] = rec["schema"] + 1
        return json.dumps(rec).encode()

    n = _corrupt_each(tmp_path, bump)
    _assert_recovers(tmp_path, cold, n)


def test_unknown_report_field_is_a_miss(tmp_path):
    # a record written by a *newer* schema that forgot to bump: the
    # reconstruction fails and degrades to a miss
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))

    def extend(path):
        rec = json.loads(path.read_text())
        rec["report"]["from_the_future"] = 1
        return json.dumps(rec).encode()

    n = _corrupt_each(tmp_path, extend)
    _assert_recovers(tmp_path, cold, n)


# ----------------------------------------------------------------------
# shared cache across worker processes
# ----------------------------------------------------------------------

def _pool_sweep(pool, kind, program, names, cache_dir):
    """One sweep on ``pool``, assembled exactly like the batch sweeps."""
    futures = [pool.submit(AnalysisTask(kind=kind, proc_name=name,
                                        program=program,
                                        cache_dir=cache_dir))
               for name in names]
    return assemble_results(kind, [f.result(timeout=300) for f in futures])


def test_parallel_shared_cache_equals_serial(tmp_path):
    program, names = _program()
    serial = analyze_program(program, config=CONC, proc_names=names)
    with WorkerPool(workers=2) as pool:
        cold = _pool_sweep(pool, "analyze", program, names, str(tmp_path))
        warm = _pool_sweep(pool, "analyze", program, names, str(tmp_path))
    assert cold.reports == serial.reports
    assert cold.cache_stats["stores"] == len(names)
    assert warm.reports == cold.reports
    assert warm.cache_stats["hits"] == len(names)


def test_parallel_conservative_shared_cache(tmp_path):
    program, names = _program()
    serial = conservative_program(program, proc_names=names)
    with WorkerPool(workers=2) as pool:
        cold = _pool_sweep(pool, "cons", program, names, str(tmp_path))
        warm = _pool_sweep(pool, "cons", program, names, str(tmp_path))
    assert (cold["warnings"], cold["timeouts"]) == serial
    assert cold["cache_stats"]["stores"] == len(names)
    assert (warm["warnings"], warm["timeouts"]) == serial
    assert warm["cache_stats"]["hits"] == len(names)


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def test_open_coerces_paths_and_instances(tmp_path):
    assert AnalysisCache.open(None) is None
    cache = AnalysisCache.open(str(tmp_path))
    assert isinstance(cache, AnalysisCache)
    assert AnalysisCache.open(cache) is cache


def test_config_replace_shares_nothing(tmp_path):
    # paranoia: AbstractionConfig is frozen dataclass-style; replacing a
    # knob must produce a distinct key (guards against key derivation
    # reading the wrong object)
    cache = AnalysisCache(tmp_path)
    program = _small_program()
    tweaked = replace(CONC, ignore_conditionals=True)
    assert _key(cache, program, "Foo") != \
        _key(cache, program, "Foo", config=tweaked)


def test_cli_cache_dir_roundtrip(tmp_path, capsys):
    src = tmp_path / "t.bpl"
    src.write_text(SRC)
    cache = tmp_path / "cache"
    rc1 = cli_run(["--cache-dir", str(cache), str(src)])
    out1 = capsys.readouterr().out
    assert list(cache.iterdir())
    rc2 = cli_run(["--cache-dir", str(cache), str(src)])
    out2 = capsys.readouterr().out
    assert (rc1, out1) == (rc2, out2)


def test_cli_no_cache_disables(tmp_path, capsys):
    src = tmp_path / "t.bpl"
    src.write_text(SRC)
    cache = tmp_path / "cache"
    cli_run(["--cache-dir", str(cache), "--no-cache", str(src)])
    capsys.readouterr()
    assert not cache.exists()
