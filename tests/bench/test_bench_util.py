"""The BENCH_history.jsonl rollup (``benchmarks/_util.section_aggregate``)
must give a non-zero line for every committed BENCH_perf.json section,
including the flat, suite-less ``selfcheck_checked_lemmas`` section."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def util():
    spec = importlib.util.spec_from_file_location(
        "bench_util", ROOT / "benchmarks" / "_util.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def perf():
    return json.loads((ROOT / "BENCH_perf.json").read_text())


def test_selfcheck_section_rolls_up_wall_and_lemmas(util, perf):
    section = perf["selfcheck_checked_lemmas"]
    agg = util.section_aggregate(section)
    assert agg["wall_seconds"] == round(section["sweep_wall_checked_s"], 3)
    assert agg["wall_seconds"] > 0
    assert agg["lemmas_checked"] == section["lemmas_checked"] > 0


def test_every_committed_section_gives_a_nonzero_line(util, perf):
    for name, section in perf.items():
        if name == "meta":
            continue
        agg = util.section_aggregate(section)
        assert agg["wall_seconds"] > 0, name
