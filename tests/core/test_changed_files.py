"""Explicit VCS diffs (`repro ci --changed-files`) and the per-class
warning-delta breakdown.

Runs on the committed fixture repository (``tests/fixtures/ci_repo``),
like ``test_incremental.py``: the explicit diff must skip the
fingerprint pass on untouched files without changing the dirty-set
classification, warnings, or the delta."""

import json
import shutil
from pathlib import Path

from repro.cli import run
from repro.core.incremental import (config_fingerprint, plan_increment,
                                    run_ci, warning_delta)
from repro.core.config import CONC
from repro.frontend.ingest import ingest_directory
from repro.scenarios.classes import DEFAULT_CLASSES

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "ci_repo"

EDIT_OLD = "  Freed[p] := 1;\n"
EDIT_NEW = "  Freed[p] := 1;\n  R2: assert Freed[p] == 0;\n"


def make_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURE, repo)
    return repo


def edit_release(repo: Path) -> None:
    path = repo / "alloc.bpl"
    text = path.read_text()
    assert EDIT_OLD in text
    path.write_text(text.replace(EDIT_OLD, EDIT_NEW, 1))


class TestPlanWithExplicitDiff:
    def test_untouched_files_skip_fingerprinting(self, tmp_path):
        repo = make_repo(tmp_path)
        first = run_ci(repo, repo / "m.json")
        edit_release(repo)
        ingested = ingest_directory(repo)
        previous = json.loads((repo / "m.json").read_text())
        full = plan_increment(ingested, previous)
        diffed = plan_increment(ingested, previous,
                                changed_files=["alloc.bpl"])
        # identical classification and schedule...
        assert diffed.classes == full.classes
        assert diffed.order == full.order == ["Release"]
        assert diffed.surface_fps == full.surface_fps
        assert diffed.spec_fps == full.spec_fps
        # ...but only alloc.bpl's procedures were fingerprinted
        assert full.fingerprints_skipped == 0
        n_outside = sum(1 for f in ingested.proc_files.values()
                        if f != "alloc.bpl")
        assert diffed.fingerprints_skipped == n_outside > 0
        assert first.stats["fingerprints_skipped"] == 0

    def test_diff_ignored_on_cold_run(self, tmp_path):
        repo = make_repo(tmp_path)
        ingested = ingest_directory(repo)
        plan = plan_increment(ingested, None, changed_files=[])
        assert plan.reason == "cold"
        assert plan.fingerprints_skipped == 0
        assert len(plan.order) == len(ingested.proc_files)

    def test_run_ci_with_diff_matches_full_run(self, tmp_path):
        repo_a = make_repo(tmp_path / "a")
        repo_b = make_repo(tmp_path / "b")
        for repo in (repo_a, repo_b):
            run_ci(repo, repo / "m.json")
            edit_release(repo)
        full = run_ci(repo_a, repo_a / "m.json")
        diffed = run_ci(repo_b, repo_b / "m.json",
                        changed_files=["alloc.bpl"])
        assert diffed.delta == full.delta
        assert diffed.plan.order == full.plan.order
        assert diffed.stats["fingerprints_skipped"] > 0
        # the written manifests agree byte for byte
        assert (repo_a / "m.json").read_bytes() == \
            (repo_b / "m.json").read_bytes()

    def test_absolute_paths_are_normalized(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        edit_release(repo)
        result = run_ci(repo, repo / "m.json",
                        changed_files=[str((repo / "alloc.bpl").resolve())])
        assert result.plan.order == ["Release"]
        assert result.stats["fingerprints_skipped"] > 0


class TestConfigFingerprint:
    def test_bug_classes_default_is_recorded(self):
        cfg = config_fingerprint(CONC, prune_k=None, unroll_depth=2,
                                 max_preds=12)
        assert cfg["bug_classes"] == sorted(DEFAULT_CLASSES)

    def test_changing_bug_classes_invalidates_manifest(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        again = run_ci(repo, repo / "m.json",
                       bug_classes=frozenset({"null-deref"}))
        assert again.plan.reason == "config"


class TestDeltaBugClasses:
    def test_delta_carries_per_class_counts(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        edit_release(repo)
        result = run_ci(repo, repo / "m.json")
        high = result.delta["high"]
        assert high["bug_classes"]["user-assert"]["new"] == len(high["new"])
        cons = result.delta["cons"]
        assert "call-precondition" in cons["bug_classes"]
        for counts in cons["bug_classes"].values():
            assert set(counts) == {"new", "fixed", "unchanged"}

    def test_manifest_entries_carry_bug_classes(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, repo / "m.json")
        for entry in result.manifest["procedures"].values():
            assert "bug_classes" in entry
        buggy = result.manifest["procedures"]["Buggy"]
        assert sum(buggy["bug_classes"].values()) == len(buggy["warnings"])

    def test_empty_delta_has_empty_breakdown(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        result = run_ci(repo, repo / "m.json")  # no edit
        for cls in ("high", "cons"):
            d = result.delta[cls]
            assert d["new"] == [] and d["fixed"] == []
            for counts in d["bug_classes"].values():
                assert counts["new"] == 0 and counts["fixed"] == 0


class TestCliChangedFiles:
    def test_changed_files_flag(self, tmp_path):
        import io
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        assert run(["ci", str(repo), "--manifest", str(manifest)],
                   out=io.StringIO()) == 1
        edit_release(repo)
        listing = tmp_path / "diff.txt"
        listing.write_text("alloc.bpl\n")
        buf = io.StringIO()
        rc = run(["ci", str(repo), "--manifest", str(manifest),
                  "--changed-files", str(listing)], out=buf)
        out = buf.getvalue()
        assert rc == 1
        assert "analyzing 1 (1 changed" in out
        assert "skipped fingerprinting" in out
        assert "new by class: user-assert=" in out

    def test_missing_listing_exits_2(self, tmp_path, capsys):
        repo = make_repo(tmp_path)
        rc = run(["ci", str(repo), "--changed-files",
                  str(tmp_path / "nope.txt")])
        capsys.readouterr()
        assert rc == 2
