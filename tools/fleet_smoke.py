#!/usr/bin/env python3
"""CI smoke test for the sharded analysis fleet.

Boots a real ``python -m repro fleet`` (router + 2 replica daemons),
sweeps the fig5-small suites through ``python -m repro submit
--router`` **twice** — a cold pass that exercises sharding and a hot
pass that must be served from the replicas' hot tiers — and diffs
every byte of stdout (and the exit code) against the batch ``python -m
repro`` invocation with the same flags.  Then SIGTERMs the fleet and
verifies the clean-shutdown contract: exit code 0, every socket
unlinked, no traceback in the fleet's output (replicas share its
stderr), and no orphaned replica or worker processes.

Usage::

    python tools/fleet_smoke.py [--scale 0.5] [--replicas 2]
                                [--timeout 30]

Exit codes: 0 all checks passed; 1 output mismatch, cold hot tier, or
unclean shutdown; 2 infrastructure failure (fleet did not start).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench import small_suites        # noqa: E402
from repro.serve import ServeClient         # noqa: E402
from repro.serve.fleet import replica_addresses  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_SERVE_SOCKET", None)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def _repro(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(), capture_output=True, text=True, timeout=1200)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="fleet_smoke",
        description="diff a fleet-served fig5-small sweep (cold + hot "
                    "passes) against the batch CLI, then check clean "
                    "SIGTERM shutdown of router and replicas")
    ap.add_argument("--scale", type=float, default=0.5,
                    help="suite scale factor (default 0.5)")
    ap.add_argument("--replicas", type=int, default=2,
                    help="replica daemons behind the router (default 2)")
    ap.add_argument("--timeout", type=float, default=30.0,
                    help="per-procedure timeout in seconds (default 30)")
    args = ap.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="fleet_smoke_"))
    sock = str(tmp / "router.sock")
    shard_socks = replica_addresses(sock, args.replicas)
    fleet = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--socket", sock,
         "--replicas", str(args.replicas), "--pool", "1"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    client = ServeClient(sock)
    try:
        client.wait_ready(timeout=300)
    except Exception as exc:  # noqa: BLE001
        fleet.kill()
        print(f"FAIL: fleet never became ready: {exc}", file=sys.stderr)
        return 2
    topo = client.request("topology")
    worker_pids = []
    for shard in topo["alive"]:
        with ServeClient(shard) as sc:
            worker_pids += sc.metrics()["worker_pids"]
    print(f"fleet up on {sock} (pid {fleet.pid}): "
          f"{len(topo['alive'])} replicas, workers {worker_pids}")

    failures = 0
    t0 = time.monotonic()
    for suite in small_suites(scale=args.scale):
        src_file = tmp / f"{suite.name}.c"
        src_file.write_text(suite.c_source)
        flags = ("--c", "--timeout", str(args.timeout), str(src_file))
        batch = _repro(*flags)
        for phase in ("cold", "hot"):
            served = _repro("submit", "--router", sock, *flags)
            if served.stdout == batch.stdout and \
                    served.returncode == batch.returncode:
                print(f"  {suite.name:<12} {phase:<4} OK "
                      f"({len(batch.stdout.splitlines())} lines, "
                      f"exit {batch.returncode})")
                continue
            failures += 1
            print(f"  {suite.name:<12} {phase:<4} MISMATCH "
                  f"(batch exit {batch.returncode}, "
                  f"served exit {served.returncode})", file=sys.stderr)
            for tag, res in (("batch", batch), ("served", served)):
                print(f"--- {tag} stdout ---\n{res.stdout}",
                      file=sys.stderr)
                if res.stderr:
                    print(f"--- {tag} stderr ---\n{res.stderr}",
                          file=sys.stderr)
    sweep_secs = time.monotonic() - t0

    router_snap = client.metrics()
    hot_hits = 0
    for snap in (router_snap.get("shards") or {}).values():
        if snap:
            hot_hits += snap["counters"].get("hot_hits", 0)
    client.close()
    print(f"sweep finished in {sweep_secs:.1f}s; router requests "
          f"{router_snap['counters'].get('requests_completed', 0)}, "
          f"replica hot hits {hot_hits}, replica failures "
          f"{router_snap['counters'].get('replica_failures', 0)}")

    # graceful shutdown: SIGTERM must drain router and replicas, exit
    # 0, unlink every socket, and leave no processes behind
    fleet.send_signal(signal.SIGTERM)
    try:
        code = fleet.wait(timeout=300)
    except subprocess.TimeoutExpired:
        fleet.kill()
        print("FAIL: fleet did not exit within 300s of SIGTERM",
              file=sys.stderr)
        return 1
    out = fleet.stdout.read()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and any(map(_alive, worker_pids)):
        time.sleep(0.1)
    orphans = [p for p in worker_pids if _alive(p)]

    ok = True
    if code != 0:
        print(f"FAIL: fleet exited {code} on SIGTERM", file=sys.stderr)
        ok = False
    if "drained, exiting" not in out:
        print(f"FAIL: no drain message in fleet output:\n{out}",
              file=sys.stderr)
        ok = False
    if "Traceback" in out:
        print(f"FAIL: traceback in fleet output:\n{out}",
              file=sys.stderr)
        ok = False
    for leftover in [sock, *shard_socks]:
        if os.path.exists(leftover):
            print(f"FAIL: socket {leftover} still exists after shutdown",
                  file=sys.stderr)
            ok = False
    if orphans:
        print(f"FAIL: orphaned workers after shutdown: {orphans}",
              file=sys.stderr)
        ok = False
    if hot_hits == 0:
        print("FAIL: hot pass never hit the hot tier", file=sys.stderr)
        ok = False
    if failures:
        print(f"FAIL: {failures} pass(es) diverged from the batch CLI",
              file=sys.stderr)
        ok = False
    if ok:
        print("fleet smoke passed: routed output byte-identical to batch "
              "(cold and hot), clean SIGTERM shutdown, no orphans")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
