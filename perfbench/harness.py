"""Measurement plumbing shared by every workload: the span tracer, the
operation recorder, peak memory, result digests and the measured
rounds.

Nothing here imports the analyzer at module level: ``run.py`` first
checks that the checkout holds the program's sources, then puts them on
``sys.path``, then imports the workloads.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

now = time.perf_counter

#: Minimum rounds per untraced run, however long they take.
MIN_ROUNDS = 3

#: The fastest calibration slice seen on the reference host (seconds).
CAL_REF_S = 0.00035

#: The result fields a digest covers.  Timings, phases, solver counters
#: and certificates are per-run telemetry and are left out.
RESULT_FIELDS = ("status", "warnings", "conservative_warnings", "specs")


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

class Tracer:
    """Spans recorded around public functions of the analyzer.

    ``wrap`` replaces a function or method on its owner (a module or a
    class) with a wrapper that records ``(id, name, start, end, parent,
    op)`` while the tracer is enabled and calls straight through when it
    is not.  Spans stay in memory until :meth:`write`.  The span stack
    and the current operation id are per thread, because the served
    workload drives two connections from two threads.
    """

    def __init__(self) -> None:
        self._enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    # -- per-thread state ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def enabled(self) -> bool:
        """On for every thread, unless this thread set ``enabled_here``."""
        here = getattr(self._local, "enabled", None)
        return self._enabled if here is None else here

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value

    @property
    def enabled_here(self):
        return getattr(self._local, "enabled", None)

    @enabled_here.setter
    def enabled_here(self, value) -> None:
        self._local.enabled = value

    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    # -- recording -----------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _exit(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = now()
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, parent, self.op))

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own
        code (operations, set-up)."""
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            sid, parent = tracer._enter()
            t0 = now()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._exit(sid, parent, name, t0)

        setattr(owner, attr, wrapper)

    # -- analysis ------------------------------------------------------

    def table(self, ops: set | None = None) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of
        that name only, so recursion is not counted twice) and self
        seconds (duration minus the part covered by child spans).
        ``ops`` restricts the table to spans of those operation ids."""
        spans = self.spans if ops is None else \
            [s for s in self.spans if s[5] in ops]
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for sid, _name, t0, t1, parent, _op in spans:
            if parent in by_id:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, name, t0, t1, parent, _op in spans:
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            dur = t1 - t0
            row["self_s"] += dur - child_time.get(sid, 0.0)
            anc = parent
            nested = False
            while anc in by_id:
                if by_id[anc][1] == name:
                    nested = True
                    break
                anc = by_id[anc][4]
            if not nested:
                row["incl_s"] += dur
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, t0, t1, parent, op in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.enabled:
            self.sid, self.parent = self.tracer._enter()
            self.t0 = now()
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer.enabled:
            self.tracer._exit(self.sid, self.parent, self.name, self.t0)


def print_table(title: str, table: dict, wall: float) -> None:
    """The per-layer table of a traced run, on standard output."""
    print(f"\n== per-layer spans: {title} (traced wall {wall:.3f} s) ==")
    print(f"{'span':<28}{'calls':>9}{'incl_s':>11}{'self_s':>11}"
          f"{'self%':>8}")
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        pct = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        print(f"{name:<28}{row['calls']:>9}{row['incl_s']:>11.4f}"
              f"{row['self_s']:>11.4f}{pct:>7.1f}%")


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

class Recorder:
    """Attempted / failed operations and per-operation latency, by
    operation id.  A failed check, a timeout, a refusal or an error is a
    failed operation; it is counted, never dropped.  With ``calibrate``,
    each operation is followed by a calibration slice, kept by operation
    id in ``cal``."""

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.cal: dict[str, float] = {}
        self.latency: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()

    def done(self, key: str, seconds: float, ok: bool = True,
             why: str = "") -> None:
        if self.calibrate:
            self.cal[key] = calibration_slice()
        with self._lock:
            self.attempted += 1
            self.latency[key] = seconds
            if not ok:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(why)

    def check(self, ok: bool, why: str) -> None:
        """A run-level check (no operation of its own): a failure is
        charged as one failed operation."""
        if not ok:
            with self._lock:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(why)


def peak_rss_mb(pids: list[int] = ()) -> float:
    """Sum of the peak resident set (``VmHWM``) of this process and of
    ``pids``, in MiB."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (from ``/proc``)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...: comm may hold spaces, split after it
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def result_fields(report) -> dict:
    """The deterministic result of one ``ProcedureReport``."""
    return {f: getattr(report, f) for f in RESULT_FIELDS}


def digest(results: dict) -> str:
    """Canonical digest of ``{key: result_fields}``."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verdict_matches(labels: dict, warned: set) -> tuple[int, int]:
    """``(matches, total)`` of labeled assertions whose verdict (warned
    or not) equals the ground truth (``True`` = a real bug)."""
    hits = sum(1 for label, buggy in labels.items()
               if (label in warned) == buggy)
    return hits, len(labels)


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------

def _interpreter_work(n: int) -> int:
    table: dict = {}
    total = 0
    for i in range(n):
        k = i * 7919 % 1021
        table[k] = table.get(k, 0) + (i ^ (i >> 3))
        total += len(str(k))
    return total


def calibration_slice() -> float:
    """Seconds one fixed slice of interpreter work takes (int arithmetic,
    an int-keyed dict, ``str``), after a short untimed warm-up of the same
    work so that the caches the previous operation left behind are not
    timed.  Nothing of the analyzer runs in it, so no change to the
    program can move it, and it builds no container the cyclic garbage
    collector tracks, so it does not shift the program's collections."""
    _interpreter_work(300)
    t0 = now()
    _interpreter_work(1500)
    return now() - t0


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

SETUP_READY = "PERFBENCH-SETUP-READY"


def run_round(workload: str, seed: int, index: int,
              timeout: float = 150.0) -> tuple[float, dict]:
    """Run one round in a fresh interpreter: set the workload up, then run
    its work set once.  Returns the set-up time, from spawn until the
    round reports ready (interpreter start, imports, input generation and
    whatever else the workload sets up), and the round's result (the last
    line of its output)."""
    script = Path(__file__).resolve().parent / "run.py"
    t0 = now()
    proc = subprocess.Popen(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--round", str(index)],
        stdout=subprocess.PIPE, text=True)
    setup_s = None
    lines: list[str] = []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == SETUP_READY:
                setup_s = now() - t0
            else:
                lines.append(line)
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            # SIGTERM first: the round's own clean-up stops any server
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if setup_s is None or proc.returncode != 0 or not lines:
        raise RuntimeError(f"round {index} of {workload} failed "
                           f"(exit {proc.returncode})")
    return setup_s, json.loads(lines[-1])


def scratch_dir(root: Path, tag: str) -> Path:
    """A private working directory under the checkout's ``.perfbench``
    (removed by the caller)."""
    path = root / ".perfbench" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
