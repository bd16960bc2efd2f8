"""``tools/bench_compare.py``: the per-section ``layers`` row reports the
solver's LIA, EUF and interface time deltas next to the wall/query
rollup, and is left out for sections that record no layer times."""

import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "tools" / "bench_compare.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _section(lia, euf, interface):
    solver = {"conflicts": 3, "time_lia": lia, "time_euf": euf,
              "time_interface": interface}
    return {"suites": {
        "S/Conc": {"wall_seconds": 1.0, "queries": 10, "solver": solver},
        "S/A1": {"wall_seconds": 1.0, "queries": 10, "solver": solver}}}


def test_layers_row_sums_each_solver_layer(bench_compare):
    old = {"fig9": _section(1.0, 0.25, 0.1)}
    new = {"fig9": _section(0.5, 0.25, 0.2)}
    out = io.StringIO()
    bench_compare.compare(old, new, out=out)
    lines = out.getvalue().splitlines()
    total = next(i for i, line in enumerate(lines) if "TOTAL" in line)
    layers = lines[total + 1]
    assert layers.split()[0] == "layers"
    assert "lia   2.000s ->   1.000s (-50.0%)" in layers
    assert "euf   0.500s ->   0.500s ( +0.0%)" in layers
    assert "interface   0.200s ->   0.400s (+100.0%)" in layers


def test_no_layers_row_without_layer_times(bench_compare):
    section = {"suites": {"load": {"wall_seconds": 2.0,
                                   "throughput_rps": 5.0}}}
    out = io.StringIO()
    bench_compare.compare({"serve": section}, {"serve": section}, out=out)
    assert "layers" not in out.getvalue()
