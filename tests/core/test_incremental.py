"""Incremental CI mode (`repro.core.incremental`): multi-file ingest,
dependency-aware dirty-set planning, manifest round-trips, rename cache
hits, schedule ordering, and the warning delta.

Everything runs on the committed fixture repository
(``tests/fixtures/ci_repo``): Release (spec'd callee, alloc.bpl),
Main (its cross-file caller), Buggy (a genuine SIB) and Clamp (an
isolated leaf)."""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import (load_manifest, plan_increment,
                                    render_delta, run_ci, save_manifest,
                                    warning_delta)
from repro.core.interproc import (call_graph, callers_of, spec_dependents,
                                  spec_fingerprint)
from repro.frontend.ingest import (IngestError, ingest_directory,
                                   merge_programs)
from repro.lang import parse_program, typecheck
from repro.vc.encode import procedure_fingerprint

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "ci_repo"


def make_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURE, repo)
    return repo


def edit(repo: Path, filename: str, old: str, new: str) -> None:
    path = repo / filename
    text = path.read_text()
    assert old in text, f"fixture drifted: {old!r} not in {filename}"
    path.write_text(text.replace(old, new))


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

class TestIngest:
    def test_cross_file_calls_typecheck(self, tmp_path):
        repo = make_repo(tmp_path)
        ingested = ingest_directory(repo)
        assert set(ingested.program.procedures) == {"Release", "Main",
                                                    "Buggy", "Clamp"}
        assert ingested.proc_files["Release"] == "alloc.bpl"
        assert ingested.proc_files["Main"] == "main.bpl"
        assert set(ingested.file_digests) == {"alloc.bpl", "main.bpl",
                                              "buggy.bpl", "util.bpl"}

    def test_duplicate_procedure_is_an_error(self, tmp_path):
        repo = make_repo(tmp_path)
        (repo / "dup.bpl").write_text(
            "procedure Clamp(x: int, lo: int, hi: int) returns (r: int)\n"
            "{ r := x; }\n")
        with pytest.raises(IngestError, match="defined in both"):
            ingest_directory(repo)

    def test_conflicting_global_is_an_error(self, tmp_path):
        a = typecheck(parse_program("var G: int;\nprocedure P(x: int) {}"))
        b = typecheck(parse_program(
            "var G: [int]int;\nprocedure Q(x: int) {}"))
        with pytest.raises(IngestError, match="global 'G'"):
            merge_programs([("a.bpl", a), ("b.bpl", b)])

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(IngestError, match="no .bpl or .c sources"):
            ingest_directory(tmp_path)


# ----------------------------------------------------------------------
# the dependency graph
# ----------------------------------------------------------------------

class TestCallGraph:
    def test_edges_and_reverse_edges(self, tmp_path):
        program = ingest_directory(make_repo(tmp_path)).program
        graph = call_graph(program)
        assert graph["Main"] == ("Release",)
        assert graph["Release"] == ()
        assert callers_of(program)["Release"] == ("Main",)

    def test_spec_dependents_is_one_level(self, tmp_path):
        program = ingest_directory(make_repo(tmp_path)).program
        assert spec_dependents(program, {"Release"}) == {"Main"}
        # Main has no callers, so its spec reaches nobody.
        assert spec_dependents(program, {"Main"}) == set()

    def test_spec_fingerprint_ignores_body_and_name(self):
        src = ("procedure P(x: int) returns (r: int)\n"
               "  requires x > 0;\n  ensures r > 0;\n{ r := x; }")
        base = typecheck(parse_program(src)).proc("P")
        rebodied = typecheck(parse_program(
            src.replace("r := x;", "r := x + 1;"))).proc("P")
        renamed = typecheck(parse_program(src.replace("P", "Q"))).proc("Q")
        respecced = typecheck(parse_program(
            src.replace("x > 0", "x > 1"))).proc("P")
        assert spec_fingerprint(base) == spec_fingerprint(rebodied)
        assert spec_fingerprint(base) == spec_fingerprint(renamed)
        assert spec_fingerprint(base) != spec_fingerprint(respecced)


# ----------------------------------------------------------------------
# planning against a manifest
# ----------------------------------------------------------------------

class TestPlanning:
    def test_cold_plan_marks_everything_changed(self, tmp_path):
        ingested = ingest_directory(make_repo(tmp_path))
        plan = plan_increment(ingested, None)
        assert plan.reason == "cold"
        assert set(plan.order) == set(ingested.program.procedures)
        assert all(c == "changed" for c in plan.classes.values())

    def test_config_mismatch_dirties_everything(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        rerun = run_ci(repo, tmp_path / "m.json", prune_k=2)
        assert rerun.plan.reason == "config"
        assert len(rerun.plan.order) == 4

    def test_ordering_changed_first_then_by_name(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        previous = result.manifest
        # Fabricate a diff: Buggy and Clamp changed, and a stale spec
        # fingerprint for Release dirtying its caller Main as dependent
        # (Release's own surface is untouched, so Release itself stays
        # clean in this fabricated manifest).
        previous["procedures"]["Buggy"]["surface_fp"] = "stale"
        previous["procedures"]["Clamp"]["surface_fp"] = "stale"
        previous["spec_fps"]["Release"] = "stale"
        # a v1-style wall cost must not reorder the plan any more
        previous["procedures"]["Clamp"]["wall"] = 9.0
        ingested = ingest_directory(repo)
        plan = plan_increment(ingested, previous)
        assert plan.classes == {"Buggy": "changed", "Clamp": "changed",
                                "Main": "dependent", "Release": "clean"}
        # rank 0 (changed) before rank 1 (dependent); by name within
        # the rank.
        assert plan.order == ["Buggy", "Clamp", "Main"]
        assert plan.priorities == {"Clamp": 0, "Buggy": 0, "Main": 1}


# ----------------------------------------------------------------------
# full runs: dirty sets, deltas, manifests
# ----------------------------------------------------------------------

class TestRunCi:
    def test_cold_then_idle_rerun(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        cold = run_ci(repo, manifest, cache_dir=str(tmp_path / "cache"))
        assert cold.stats["analyzed"] == 4
        assert "Buggy:A5" in cold.delta["high"]["new"]
        idle = run_ci(repo, manifest, cache_dir=str(tmp_path / "cache"))
        assert idle.plan.order == []
        assert idle.stats["analyzed"] == 0
        assert idle.delta["high"]["new"] == []
        assert "Buggy:A5" in idle.delta["high"]["unchanged"]
        again = run_ci(repo, manifest, cache_dir=str(tmp_path / "cache"))
        assert render_delta(idle.delta) == render_delta(again.delta)

    def test_body_edit_dirties_exactly_that_procedure(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        edit(repo, "alloc.bpl", "  Freed[p] := 1;\n",
             "  Freed[p] := 1;\n  R2: assert Freed[p] == 0;\n")
        rerun = run_ci(repo, manifest)
        assert rerun.plan.order == ["Release"]
        assert rerun.plan.classes["Main"] == "clean"
        assert "Release:R2" in rerun.delta["high"]["new"]

    def test_callee_spec_edit_dirties_direct_caller(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        edit(repo, "alloc.bpl", "  requires Freed[p] == 0;",
             "  requires Freed[p] == 0;\n  requires p != 0;")
        rerun = run_ci(repo, manifest)
        assert rerun.plan.classes["Release"] == "changed"
        assert rerun.plan.classes["Main"] == "dependent"
        assert set(rerun.plan.order) == {"Release", "Main"}
        assert rerun.plan.order[0] == "Release"  # rank 0 before rank 1
        assert rerun.plan.classes["Buggy"] == "clean"
        assert rerun.plan.classes["Clamp"] == "clean"

    def test_comment_and_whitespace_edits_dirty_nothing(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        edit(repo, "util.bpl", "  r := x;", "  r    := x;  // init")
        edit(repo, "main.bpl", "procedure Main",
             "// a fresh comment line\nprocedure Main")
        rerun = run_ci(repo, manifest)
        assert rerun.plan.order == []
        assert rerun.plan.counts()["clean"] == 4

    def test_fixed_warning_shows_in_delta(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        (repo / "buggy.bpl").unlink()
        rerun = run_ci(repo, manifest)
        assert rerun.plan.removed == ["Buggy"]
        assert "Buggy:A5" in rerun.delta["high"]["fixed"]
        assert rerun.delta["high"]["new"] == []


class TestRenameCacheHit:
    """Satellite regression: a fingerprint-identical procedure under a
    new name (file rename / procedure move) must hit the cache — the
    content address excludes the name."""

    def test_rename_and_move_costs_zero_solver_work(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        cache_dir = str(tmp_path / "cache")
        run_ci(repo, manifest, cache_dir=cache_dir)
        # Move Clamp to a new file AND rename it: same content.
        text = (repo / "util.bpl").read_text()
        (repo / "util.bpl").unlink()
        (repo / "clip.bpl").write_text(text.replace("Clamp", "Clip"))
        rerun = run_ci(repo, manifest, cache_dir=cache_dir)
        assert rerun.plan.classes["Clip"] == "renamed"
        assert rerun.plan.renamed_from == {"Clip": "Clamp"}
        assert rerun.plan.order == ["Clip"]
        assert rerun.stats["cache"]["hits"] == 1
        assert rerun.stats["cache"]["misses"] == 0
        assert rerun.stats["queries"] == 0  # served from disk
        # the loaded report carries the *new* name and its own telemetry
        assert rerun.reports["Clip"].proc_name == "Clip"
        assert rerun.reports["Clip"].source == "disk"
        assert rerun.manifest["procedures"]["Clip"]["file"] == "clip.bpl"

    def test_renamed_warnings_relabel_in_delta(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        cache_dir = str(tmp_path / "cache")
        run_ci(repo, manifest, cache_dir=cache_dir)
        text = (repo / "buggy.bpl").read_text()
        (repo / "buggy.bpl").unlink()
        (repo / "nasty.bpl").write_text(text.replace("Buggy", "Nasty"))
        rerun = run_ci(repo, manifest, cache_dir=cache_dir)
        assert rerun.stats["queries"] == 0
        assert "Nasty:A5" in rerun.delta["high"]["new"]
        assert "Buggy:A5" in rerun.delta["high"]["fixed"]


class TestNoTelemetryPersisted:
    """The manifest and the cache records hold results only: nothing a
    run measures about itself is written down."""

    def test_cold_manifests_are_byte_identical(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, tmp_path / "a.json")
        run_ci(repo, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_cache_records_carry_no_wall(self, tmp_path):
        repo = make_repo(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_ci(repo, tmp_path / "m.json", cache_dir=str(cache_dir))
        records = [json.loads(p.read_text())
                   for p in cache_dir.glob("*.json")]
        assert len(records) == 4
        assert not any("wall" in rec or "seconds" in rec["report"]
                       for rec in records)
        # executed queries are a plain sum over the fresh reports
        assert cold.stats["queries"] == \
            sum(r.queries for r in cold.reports.values()) > 0


class TestManifestIO:
    def test_round_trip_and_byte_stability(self, tmp_path):
        repo = make_repo(tmp_path)
        path = tmp_path / "m.json"
        result = run_ci(repo, path)
        first = path.read_bytes()
        loaded = load_manifest(path)
        assert loaded == result.manifest
        save_manifest(path, loaded)
        assert path.read_bytes() == first

    def test_wrong_schema_or_garbage_reads_as_cold(self, tmp_path):
        path = tmp_path / "m.json"
        assert load_manifest(path) is None  # missing
        path.write_text("{not json")
        assert load_manifest(path) is None
        path.write_text(json.dumps({"schema": 999, "procedures": {}}))
        assert load_manifest(path) is None

    def test_delta_against_no_previous_is_all_new(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        delta = warning_delta(None, result.manifest)
        assert delta["high"]["unchanged"] == []
        assert "Buggy:A5" in delta["high"]["new"]


# ----------------------------------------------------------------------
# fingerprint stability (the property behind "comments dirty nothing")
# ----------------------------------------------------------------------

_BASE_SRC = (FIXTURE / "alloc.bpl").read_text()
_BASE_PROGRAM = typecheck(parse_program(_BASE_SRC))
_BASE_FPS = {n: procedure_fingerprint(_BASE_PROGRAM, p)
             for n, p in _BASE_PROGRAM.procedures.items()}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fingerprints_survive_comment_and_whitespace_noise(data):
    """Random comment lines, trailing comments and indentation noise
    never change any procedure's surface fingerprint — the property
    that makes `plan_increment` classify such edits as clean."""
    lines = _BASE_SRC.splitlines()
    noisy: list[str] = []
    for i, line in enumerate(lines):
        if data.draw(st.booleans(), label=f"comment-before-{i}"):
            noisy.append("// noise %d" % i)
        pad = data.draw(st.integers(min_value=0, max_value=4),
                        label=f"pad-{i}")
        suffix = "  // trail" if data.draw(st.booleans(),
                                           label=f"trail-{i}") else ""
        noisy.append(" " * pad + line + suffix)
    program = typecheck(parse_program("\n".join(noisy)))
    for name, proc in program.procedures.items():
        assert procedure_fingerprint(program, proc) == _BASE_FPS[name]
