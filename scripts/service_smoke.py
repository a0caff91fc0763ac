#!/usr/bin/env python
"""CI smoke for the simulation service: real processes, real signals.

The in-thread tests in ``tests/test_service.py`` pin the semantics;
this script proves them across process boundaries, the way the service
actually deploys:

1. start ``python -m repro serve`` as a subprocess;
2. run a fig8-style cell batch through the ``repro submit`` CLI and
   assert every result payload is digest- and result-identical to a
   direct ``repro run --json`` of the same cell; the first cell also
   goes in as a plain and a ``sanitize`` job claimed in one batch,
   and both payloads must equal the direct run;
3. submit 20 jobs so that one batch claims several of them, and
   ``SIGTERM`` the server mid-batch: the process must exit 0 (graceful
   drain), leave no job in ``running``, lose none and hand at least one
   of that batch's jobs back to the queue;
4. restart on the same store and drain the queue to completion.

The store lives in a temporary directory that is removed on exit, pass
or fail.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service import JobStore, ServiceClient

CELLS = [("gaussian", "lrr"), ("gaussian", "shared-reg"),
         ("hotspot", "lrr"), ("hotspot", "shared-reg")]
RUN_FLAGS = ["--clusters", "1", "--scale", "0.2", "--waves", "1"]


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_server(port: int, db: Path) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--db", str(db), "--jobs", "1", "--no-cache"])
    client = ServiceClient(port=port, timeout=5.0)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server died on startup "
                             f"(rc={proc.returncode})")
        try:
            client.healthz()
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise SystemExit("server did not come up within 30s")


def cli_json(argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, "-m", "repro", *argv],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"`repro {' '.join(argv)}` failed "
                         f"(rc={out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout)


def check_mixed_batch(port: int, local: dict) -> None:
    """Submit ``local``'s cell as a plain and a sanitized job while a
    long opener holds the one worker slot, so one claim takes both;
    each payload must be digest- and result-identical to ``local``."""
    from repro.config import GPUConfig
    from repro.harness.engine import RunSpec
    from repro.harness.runner import unshared
    from repro.workloads.apps import APPS
    client = ServiceClient(port=port, client_id="smoke")
    cfg = GPUConfig().scaled(num_clusters=1)
    opener = client.submit(RunSpec.create(
        APPS["gaussian"], unshared("lrr"), config=cfg, scale=1.0,
        waves=60.0, max_cycles=20_000_002))["id"]
    deadline = time.monotonic() + 60
    while opener not in client.healthz()["running_batch"]:
        if time.monotonic() > deadline:
            raise SystemExit("the opener's batch never started")
        time.sleep(0.01)
    cell = RunSpec.from_dict(local["spec"])
    ids = [client.submit(cell, sanitize=flag)["id"]
           for flag in (False, True)]
    for jid in ids:
        remote = client.wait(jid, timeout=120)
        assert remote["ok"], f"mixed-batch job {jid} failed"
        assert remote["digest"] == local["digest"], "mixed batch: digest"
        assert remote["result"] == local["result"], "mixed batch: result"
    jobs = [client.status(jid) for jid in ids]
    assert [j["sanitize"] for j in jobs] == [False, True]
    if jobs[0]["started_at"] != jobs[1]["started_at"]:
        raise SystemExit("the plain and sanitized jobs were claimed in "
                         "different batches")
    client.wait(opener, timeout=120)
    print(f"  cell {cell.app:10s} plain + sanitized in one batch: both "
          f"identical to the direct run")


def check_digest_equality(port: int) -> None:
    for i, (app, mode) in enumerate(CELLS):
        remote = cli_json(["submit", app, "--mode", mode, *RUN_FLAGS,
                           "--port", str(port), "--wait",
                           "--wait-timeout", "120", "--json"])
        local = cli_json(["run", app, "--mode", mode, *RUN_FLAGS,
                          "--no-cache", "--json"])
        assert remote["ok"] and local["ok"], (app, mode)
        assert remote["digest"] == local["digest"], \
            f"{app}/{mode}: digest mismatch"
        assert remote["result"] == local["result"], \
            f"{app}/{mode}: result payload mismatch"
        print(f"  cell {app:10s} {mode:12s} digest "
              f"{remote['digest'][:16]}… identical local/remote")
        if i == 0:
            check_mixed_batch(port, local)


def queue_20_and_sigterm(port: int, db: Path,
                         proc: subprocess.Popen) -> list[str]:
    """Put several of 20 jobs in one batch and SIGTERM the server
    while it runs.

    An idle scheduler claims a job the moment it is submitted, and the
    server runs one batch at a time (``--jobs 1``).  So a long opener
    is claimed alone and holds the scheduler while the other 19 are
    submitted.  When it ends, one claim takes the long, higher-priority
    ``holder`` plus the short jobs queued by then (up to 15).  The
    signal lands while ``holder`` runs, so the drain must requeue that
    batch's unstarted slots.  ``holder`` runs five times as long as the
    opener: while the server simulates, each submission waits on its
    busy interpreter, and ``holder`` must outlast the 18 that follow.
    """
    client = ServiceClient(port=port, client_id="smoke")
    from repro.config import GPUConfig
    from repro.harness.engine import RunSpec
    from repro.harness.runner import unshared
    from repro.workloads.apps import APPS
    cfg = GPUConfig().scaled(num_clusters=1)
    opener, holder = (RunSpec.create(APPS["gaussian"], unshared("lrr"),
                                     config=cfg, scale=1.0, waves=waves,
                                     max_cycles=max_cycles)
                      for waves, max_cycles in ((20.0, 20_000_000),
                                                (100.0, 20_000_001)))
    specs = [RunSpec.create(APPS["gaussian"], unshared("lrr"),
                            config=cfg, scale=0.2, waves=1.0,
                            max_cycles=10_000_000 + i)
             for i in range(18)]
    ids = [client.submit(opener)["id"]]
    held = client.submit(holder, priority=1)["id"]
    ids += [held] + [client.submit(s)["id"] for s in specs]
    deadline = time.monotonic() + 60
    while held not in (batch := client.healthz()["running_batch"]):
        if time.monotonic() > deadline:
            raise SystemExit("the holder's batch never started")
        time.sleep(0.01)
    proc.send_signal(signal.SIGTERM)     # mid-batch, on purpose
    rc = proc.wait(timeout=120)
    if rc != 0:
        raise SystemExit(f"graceful drain exited {rc}, expected 0")

    store = JobStore(db)
    states = {jid: store.get(jid).state for jid in ids}
    counts = store.counts()
    store.close()
    lost = [jid for jid, st in states.items()
            if st not in ("done", "queued")]
    if counts["running"] or lost:
        raise SystemExit(f"drain lost jobs: running={counts['running']} "
                         f"bad states={lost}")
    done = sum(1 for st in states.values() if st == "done")
    requeued = sum(1 for jid in batch if states[jid] == "queued")
    if not requeued:
        raise SystemExit("SIGTERM landed after the batch: none of its "
                         "jobs was requeued, so the drain went untested")
    print(f"  SIGTERM mid-batch with 20 jobs: rc=0, {done} done, "
          f"{requeued} requeued from the batch, "
          f"{20 - done - requeued} never claimed, 0 lost")
    return ids


def drain_after_restart(port: int, ids: list[str]) -> None:
    client = ServiceClient(port=port, client_id="smoke")
    for jid in ids:
        payload = client.wait(jid, timeout=120)
        assert payload["ok"], f"job {jid} failed after restart"
    print(f"  restart drained all {len(ids)} jobs to done")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-",
                                     ignore_cleanup_errors=True) as tmp:
        db = Path(tmp) / "jobs.sqlite"
        port = free_port()

        print(f"service smoke: port {port}, store {db}")
        proc = start_server(port, db)
        try:
            check_digest_equality(port)
            ids = queue_20_and_sigterm(port, db, proc)
            proc = start_server(port, db)
            drain_after_restart(port, ids)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=60)
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
