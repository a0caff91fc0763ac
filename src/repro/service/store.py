"""Persistent job store for the simulation service (SQLite, WAL mode).

One row per submitted job.  The store is the service's source of
truth: the server process can die (crash, ``kill -TERM``, redeploy)
and a restart resumes exactly where the queue left off —
``recover()`` moves any job stranded in ``running`` back to
``queued``, finished jobs keep their persisted result payloads, and
ordering (priority, then FIFO within priority via the monotonic
``seq`` rowid) survives because it lives in the schema, not in
process memory.

States and transitions::

    queued ──claim──▶ running ──finish──▶ done
       ▲                 │──fail────────▶ failed
       │──requeue────────┘  (drain / crash recovery)
    queued ──cancel──▶ cancelled         (queued jobs only)

Thread safety: the server touches the store from the asyncio event
loop *and* from the batch-runner thread, so every operation takes a
process-local lock around a single shared connection
(``check_same_thread=False``).  SQLite's WAL journal makes concurrent
readers from other processes (introspection tooling) safe too.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

__all__ = ["Job", "JobStore", "JOB_STATES"]

#: Every state a job can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    id           TEXT UNIQUE NOT NULL,
    digest       TEXT NOT NULL,
    spec         TEXT NOT NULL,
    spec_bytes   INTEGER NOT NULL,
    sanitize     INTEGER NOT NULL DEFAULT 0,
    state        TEXT NOT NULL DEFAULT 'queued',
    priority     INTEGER NOT NULL DEFAULT 0,
    client       TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    result       TEXT,
    failure      TEXT
);
CREATE INDEX IF NOT EXISTS ix_jobs_sched
    ON jobs(state, priority DESC, seq);
CREATE INDEX IF NOT EXISTS ix_jobs_digest ON jobs(digest);
"""


@dataclass(frozen=True)
class Job:
    """One row of the store (payloads already JSON-decoded)."""

    seq: int
    id: str
    digest: str
    spec: dict
    sanitize: bool
    state: str
    priority: int
    client: str
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    result: dict | None
    failure: dict | None

    @classmethod
    def _from_row(cls, row: sqlite3.Row) -> "Job":
        return cls(
            seq=row["seq"], id=row["id"], digest=row["digest"],
            spec=json.loads(row["spec"]), sanitize=bool(row["sanitize"]),
            state=row["state"], priority=row["priority"],
            client=row["client"], submitted_at=row["submitted_at"],
            started_at=row["started_at"], finished_at=row["finished_at"],
            result=json.loads(row["result"]) if row["result"] else None,
            failure=json.loads(row["failure"]) if row["failure"] else None)

    def to_dict(self) -> dict:
        """Wire form for ``/jobs`` listings and job-status responses."""
        mode = self.spec.get("mode") or {}
        return {
            "id": self.id,
            "digest": self.digest,
            "app": self.spec.get("app"),
            "mode": mode.get("label"),
            "state": self.state,
            "priority": self.priority,
            "client": self.client,
            "sanitize": self.sanitize,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @property
    def terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in ("done", "failed", "cancelled")


class JobStore:
    """SQLite-backed job queue + archive (see module docstring)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        self._db.row_factory = sqlite3.Row
        # WAL survives process death with a consistent view; NORMAL
        # sync is the standard WAL pairing (durable at checkpoint,
        # never corrupt).
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        with self._lock, self._db:
            self._db.executescript(_SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    # -- submission ----------------------------------------------------
    def submit(self, spec: dict, digest: str, *, priority: int = 0,
               client: str = "", sanitize: bool = False,
               job_id: str | None = None) -> Job:
        """Insert a new ``queued`` job and return it."""
        job_id = job_id or uuid.uuid4().hex[:16]
        text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        with self._lock, self._db:
            self._db.execute(
                "INSERT INTO jobs (id, digest, spec, spec_bytes, sanitize,"
                " state, priority, client, submitted_at)"
                " VALUES (?, ?, ?, ?, ?, 'queued', ?, ?, ?)",
                (job_id, digest, text, len(text), int(sanitize),
                 priority, client, time.time()))
        job = self.get(job_id)
        assert job is not None
        return job

    # -- lookup --------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        """The job with ``job_id``, or None."""
        with self._lock:
            row = self._db.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return Job._from_row(row) if row is not None else None

    def list_jobs(self, *, state: str | None = None,
                  client: str | None = None, limit: int = 200) -> list[Job]:
        """Jobs filtered by state/client, newest first."""
        q = "SELECT * FROM jobs"
        conds, params = [], []
        if state is not None:
            conds.append("state = ?")
            params.append(state)
        if client is not None:
            conds.append("client = ?")
            params.append(client)
        if conds:
            q += " WHERE " + " AND ".join(conds)
        q += " ORDER BY seq DESC LIMIT ?"
        params.append(max(1, limit))
        with self._lock:
            rows = self._db.execute(q, params).fetchall()
        return [Job._from_row(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """Job count per state (every state present, zeros included)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT state, COUNT(*) AS n FROM jobs"
                " GROUP BY state").fetchall()
        out = {s: 0 for s in JOB_STATES}
        out.update({r["state"]: r["n"] for r in rows})
        return out

    def queue_depth(self) -> int:
        """Number of ``queued`` jobs (the admission-control signal)."""
        with self._lock:
            row = self._db.execute(
                "SELECT COUNT(*) AS n FROM jobs"
                " WHERE state = 'queued'").fetchone()
        return row["n"]

    def queued_bytes(self) -> int:
        """Summed spec payload bytes over ``queued`` jobs."""
        with self._lock:
            row = self._db.execute(
                "SELECT COALESCE(SUM(spec_bytes), 0) AS n FROM jobs"
                " WHERE state = 'queued'").fetchone()
        return row["n"]

    # -- scheduling ----------------------------------------------------
    def claim(self, limit: int) -> list[Job]:
        """Atomically move the next ``limit`` queued jobs to ``running``
        and return them: priority (higher first), then FIFO within a
        priority (``seq``).  Sanitized and plain jobs share a batch."""
        with self._lock, self._db:
            rows = self._db.execute(
                "SELECT * FROM jobs WHERE state = 'queued'"
                " ORDER BY priority DESC, seq LIMIT ?",
                (max(1, limit),)).fetchall()
            now = time.time()
            self._db.executemany(
                "UPDATE jobs SET state = 'running', started_at = ?"
                " WHERE id = ?", [(now, r["id"]) for r in rows])
        return [replace(Job._from_row(r), state="running",
                        started_at=now) for r in rows]

    # -- completion ----------------------------------------------------
    def finish(self, job_id: str, result: dict) -> None:
        """running → done, with the result payload persisted."""
        with self._lock, self._db:
            self._db.execute(
                "UPDATE jobs SET state = 'done', finished_at = ?,"
                " result = ? WHERE id = ? AND state = 'running'",
                (time.time(), json.dumps(result), job_id))

    def fail(self, job_id: str, failure: dict) -> None:
        """running → failed, with the failure record persisted."""
        with self._lock, self._db:
            self._db.execute(
                "UPDATE jobs SET state = 'failed', finished_at = ?,"
                " failure = ? WHERE id = ? AND state = 'running'",
                (time.time(), json.dumps(failure), job_id))

    def cancel(self, job_id: str) -> bool:
        """queued → cancelled; False if the job already left the queue
        (running jobs finish — mid-simulation abort would waste the
        nearly-done work and complicate digest equality for nothing)."""
        with self._lock, self._db:
            cur = self._db.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                " WHERE id = ? AND state = 'queued'",
                (time.time(), job_id))
            return cur.rowcount > 0

    # -- recovery ------------------------------------------------------
    def requeue(self, job_ids: Iterable[str]) -> int:
        """running → queued (graceful-drain path for unstarted jobs)."""
        ids = list(job_ids)
        with self._lock, self._db:
            cur = self._db.executemany(
                "UPDATE jobs SET state = 'queued', started_at = NULL"
                " WHERE id = ? AND state = 'running'",
                [(i,) for i in ids])
            return cur.rowcount

    def recover(self) -> int:
        """Startup recovery: requeue every job stranded in ``running``
        by a previous process death.  Returns the number requeued."""
        with self._lock, self._db:
            cur = self._db.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL"
                " WHERE state = 'running'")
            return cur.rowcount
