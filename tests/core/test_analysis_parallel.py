"""A sweep spread over worker processes must be invisible in the
results: equal reports (``==``, which ignores telemetry) and identical Cons
baseline, in the serial report order.  Parallelism across procedures
lives in one process layer, the serve layer's :class:`WorkerPool`; the
pooled sweep is assembled by the same ``assemble_results`` the serial
batch sweeps use."""

from repro.bench import compile_suite, make_suite
from repro.core import (A2, CONC, AnalysisTask, analyze_program,
                        assemble_results, conservative_program)
from repro.serve.pool import WorkerPool


def _program():
    suite = make_suite("moufilter", scale=0.5)
    return compile_suite(suite), [f.name for f in suite.functions]


def _pooled(kind, program, names, workers=2, config_name="Conc"):
    with WorkerPool(workers=workers) as pool:
        futures = [pool.submit(AnalysisTask(
            kind=kind, proc_name=name, program=program,
            config_name=config_name)) for name in names]
        return assemble_results(
            kind, [f.result(timeout=300) for f in futures], config_name)


def test_parallel_sweep_equals_serial():
    program, names = _program()
    serial = analyze_program(program, config=CONC, proc_names=names)
    parallel = _pooled("analyze", program, names)
    assert parallel.reports == serial.reports
    assert [r.proc_name for r in parallel.reports] == names


def test_parallel_sweep_equals_serial_abstract_config():
    program, names = _program()
    serial = analyze_program(program, config=A2, proc_names=names)
    parallel = _pooled("analyze", program, names, config_name="A2")
    assert parallel.reports == serial.reports
    assert parallel.config_name == serial.config_name == "A2"


def test_parallel_conservative_equals_serial():
    program, names = _program()
    serial = conservative_program(program, proc_names=names)
    parallel = _pooled("cons", program, names)
    assert (parallel["warnings"], parallel["timeouts"]) == serial


def test_jobs_one_is_the_serial_path():
    # One worker process gives the in-process serial answer.
    program, names = _program()
    a = analyze_program(program, config=CONC, proc_names=names)
    b = _pooled("analyze", program, names, workers=1)
    assert a.reports == b.reports
