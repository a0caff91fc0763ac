"""Async simulation service: HTTP front end + batching scheduler.

The server owns three moving parts (docs/service.md has the full
semantics):

* an asyncio socket server speaking a deliberately small slice of
  HTTP/1.1 (one request per connection, ``Connection: close``) — no
  ``http.server``, no third-party framework;
* a **scheduler task** that claims queued jobs from the
  :class:`~repro.service.store.JobStore` (priority, then FIFO) the
  moment a worker slot is free, and executes them through the
  ordinary :meth:`Engine.run_batch` of the server's one engine in a
  worker thread — so the service inherits the engine's dedup, result
  cache, retries, timeouts and failure isolation verbatim rather than
  reimplementing them.  Batches run side by side until they fill the
  engine's ``jobs`` worker slots; jobs that arrive while every slot is
  busy wait in the queue and the next claim takes them together;
* **admission control**: a submission is rejected with ``429`` when
  the queue is too deep, the queued spec bytes exceed the bound, or
  the per-client token bucket is empty.  Load is shed at the door, not
  absorbed until the process falls over.

Durability: every result is persisted the moment it lands (the
engine's ``progress`` hook), so ``kill -TERM`` mid-batch loses
nothing — in-flight simulations finish and are stored, unstarted jobs
are requeued by the engine's cancellation token, and a later restart
:meth:`~repro.service.store.JobStore.recover`\\ s anything a hard kill
stranded in ``running``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.harness.engine import Engine, RunSpec
from repro.harness.resilience import RunFailure
from repro.obs.metrics import MetricsRegistry
from repro.service.serialize import failure_payload, result_payload
from repro.service.store import JOB_STATES, Job, JobStore
from repro.workloads.apps import APPS

__all__ = ["ServiceConfig", "ServiceServer", "TokenBucket"]

#: Hard cap on a request body; larger submissions get 413.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    "queue_depth": "queue depth bound reached",
    "queued_bytes": "queued spec bytes bound reached",
    "rate": "per-client rate limit exceeded",
}

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Tunables for one :class:`ServiceServer`."""

    host: str = "127.0.0.1"
    port: int = 8070                 #: 0 = pick an ephemeral port
    db_path: str | Path = "repro-jobs.sqlite"
    batch_max: int = 16              #: max jobs coalesced per run_batch
    max_queue_depth: int = 256       #: admission bound: queued jobs
    max_queued_bytes: int = 8 << 20  #: admission bound: queued spec bytes
    rate_limit: float = 0.0          #: per-client submits/sec (0 = off)
    rate_burst: int = 20             #: token-bucket burst size
    wait_max: float = 60.0           #: cap on one long-poll request
    start_paused: bool = False       #: scheduler idles until unpaused


class TokenBucket:
    """Classic token bucket: ``rate`` refills/sec up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(max(1, burst))
        self.tokens = self.burst
        self.stamp = time.monotonic()

    def allow(self) -> bool:
        """Consume one token if available."""
        now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(eq=False)
class _BatchState:
    """Bookkeeping for one claimed batch, until ``run_batch`` returns."""

    jobs: list[Job]
    slots: int                       #: worker slots it occupies
    jobs_by_digest: dict[str, list[Job]] = field(default_factory=dict)


class ServiceServer:
    """The long-running simulation service (see module docstring).

    ``engine_opts`` are passed through to :class:`Engine` — the service
    composes with every engine feature (``jobs=``, ``cache=``,
    ``timeout=``, ``retry=``, ``faults=`` for chaos drills...).  One
    engine runs every batch, side by side on its ``jobs`` worker
    slots; a job's ``sanitize`` flag rides on its own spec.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 engine_opts: dict | None = None) -> None:
        self.config = config or ServiceConfig()
        self.engine = Engine(**(engine_opts or {}))
        self.store = JobStore(self.config.db_path)
        self.recovered = self.store.recover()
        self.registry = MetricsRegistry()
        self._paused = self.config.start_paused
        #: Engine drain token — set once, at shutdown.
        self.cancel = threading.Event()
        self.draining = False
        self.started_at = time.time()
        self._buckets: dict[str, TokenBucket] = {}
        #: Batches inside ``run_batch``.  Loop-thread only.
        self._batches: list[_BatchState] = []
        self._mlock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_ev = asyncio.Event()
        #: Set when the scheduler may have work: submit, un-pause, drain.
        self._wake = asyncio.Event()
        #: Open long-polls by job id; each future resolves when its job
        #: may have become terminal.  Loop-thread only.
        self._waiters: dict[str, set[asyncio.Future]] = {}
        self._handlers: set[asyncio.Task] = set()
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self.port: int | None = None
        if self.recovered:
            with self._mlock:
                self.registry.counter("service_jobs_recovered_total") \
                    .inc(self.recovered)

    # -- lifecycle -----------------------------------------------------
    @property
    def paused(self) -> bool:
        """While True the scheduler claims nothing; settable from any
        thread (un-pausing wakes the scheduler)."""
        return self._paused

    @paused.setter
    def paused(self, value: bool) -> None:
        self._paused = value
        if not value:
            self._call_soon(self._wake.set)

    def _call_soon(self, fn, *args) -> None:
        """Thread-safe: run ``fn(*args)`` on the server loop, if any."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(fn, *args)

    def _wake_waiters(self, job_ids) -> None:
        """Resolve the open long-polls on ``job_ids`` (loop thread)."""
        for job_id in job_ids:
            for fut in self._waiters.get(job_id, ()):
                if not fut.done():
                    fut.set_result(None)

    def run(self, *, install_signal_handlers: bool = True) -> None:
        """Serve until :meth:`request_shutdown` (or SIGTERM/SIGINT)."""
        try:
            asyncio.run(self._main(install_signal_handlers))
        except BaseException as exc:  # surface startup errors to tests
            self._startup_error = exc
            self._ready.set()
            raise

    def start_in_thread(self) -> "ServiceServer":
        """Run the server on a background thread (tests, embedding).

        Blocks until the port is bound; raises if startup failed.
        """
        self._thread = threading.Thread(
            target=self.run, kwargs={"install_signal_handlers": False},
            daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful shutdown + join (for :meth:`start_in_thread`)."""
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("service did not stop in time")

    def request_shutdown(self) -> None:
        """Thread-safe graceful-shutdown trigger (idempotent)."""
        self._call_soon(self._shutdown_ev.set)

    async def _main(self, install_signal_handlers: bool) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._shutdown_ev.set)
        server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        scheduler = asyncio.create_task(self._scheduler())
        self._ready.set()
        try:
            await self._shutdown_ev.wait()
        finally:
            # Drain: stop accepting, tell the engine to finish only
            # what is already in flight, requeue the rest.
            self.draining = True
            self.cancel.set()
            # Waiters before the scheduler: a woken long-poll then
            # answers before the handler sweep below cancels it.
            self._wake_waiters(list(self._waiters))
            self._wake.set()
            server.close()
            await server.wait_closed()
            await scheduler
            for task in list(self._handlers):
                task.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers,
                                     return_exceptions=True)
            self.store.close()

    # -- scheduler -----------------------------------------------------
    async def _scheduler(self) -> None:
        cfg = self.config
        shutdown, wake = self._shutdown_ev, self._wake
        running: set[asyncio.Task] = set()
        while not shutdown.is_set():
            # Clear before looking: a wake that lands after the check
            # stays set, so the wait below cannot miss it.
            wake.clear()
            busy = sum(b.slots for b in self._batches)
            if (self._paused or busy >= self.engine.jobs
                    or self.store.queue_depth() == 0):
                await wake.wait()
                continue
            # Claim at once: jobs submitted while every worker slot is
            # busy queue up and share the next claim.
            jobs = self.store.claim(cfg.batch_max)
            if not jobs:
                continue
            # Registered before the next pass counts busy slots: one
            # per distinct spec, up to the engine's workers.
            state = _BatchState(
                jobs, slots=min(len({j.digest for j in jobs}),
                                self.engine.jobs))
            self._batches.append(state)
            task = asyncio.create_task(self._run_batch(state))
            running.add(task)
            task.add_done_callback(running.discard)
        await asyncio.gather(*running)

    async def _run_batch(self, state: _BatchState) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self._execute_batch, state)
        except Exception as exc:  # defensive: never lose a batch
            for j in state.jobs:
                self.store.fail(j.id, failure_payload(RunFailure(
                    category="error", exception_type=type(exc).__name__,
                    message=f"service batch runner died: {exc}",
                    spec_digest=j.digest, app=j.spec.get("app") or "?",
                    mode="?")))
            self._wake_waiters(j.id for j in state.jobs)
        finally:
            self._batches.remove(state)
            self._wake.set()

    def _execute_batch(self, state: _BatchState) -> None:
        """Worker-thread body: one ``run_batch`` for the claimed jobs.

        Jobs are keyed on the digest recomputed here, under the running
        code's salt, because that is the digest ``_persist`` sees; the
        one stored at submit may predate an upgrade and restart.  A
        job's ``sanitize`` flag goes onto its spec; a plain job and a
        sanitized one of the same digest share the sanitized run.

        With more than one worker every simulation runs in a worker
        process, even a batch's lone one, so batches running side by
        side never share this process's interpreter lock (nor take it
        from the event loop).
        """
        specs = []
        for job in state.jobs:
            spec = RunSpec.from_dict(job.spec)
            if job.sanitize:
                spec = replace(spec, sanitize=True)
            specs.append(spec)
            state.jobs_by_digest.setdefault(spec.digest(), []).append(job)
        with self._mlock:
            self.registry.counter("service_batches_total").inc()
            self.registry.histogram("service_batch_jobs") \
                .record(len(state.jobs))
        self.engine.run_batch(
            specs, cancel=self.cancel, pool=self.engine.jobs > 1,
            progress=lambda ev: self._persist(state, ev))

    def _persist(self, state: _BatchState, ev) -> None:
        """Durability hook: store each slot the moment it settles.

        Runs on the batch thread.  One engine event fans out to every
        job that shares the digest (in-batch dedup means N submitted
        jobs can ride one simulation).  Their long-polls are woken on
        the loop thread; a requeued job's poll just re-reads ``queued``.
        """
        digest = ev.spec.digest()
        res = ev.result
        now = time.time()
        jobs = state.jobs_by_digest.get(digest, ())
        for job in jobs:
            if isinstance(res, RunFailure):
                if res.category == "cancelled":
                    # Drain: the run never started; hand the job back
                    # to the queue for the next server instance.
                    self.store.requeue([job.id])
                    outcome = "requeued"
                else:
                    self.store.fail(job.id, failure_payload(res))
                    outcome = "failed"
            else:
                self.store.finish(job.id, result_payload(
                    res, digest=digest, cached=ev.cached,
                    elapsed=ev.elapsed, spec=job.spec))
                outcome = "done"
            with self._mlock:
                self.registry.counter("service_jobs_finished_total",
                                      outcome=outcome).inc()
                if outcome != "requeued" and job.started_at:
                    self.registry.histogram("service_job_wait_ms").record(
                        max(0.0, (job.started_at - job.submitted_at))
                        * 1000.0)
                    self.registry.histogram("service_job_run_ms").record(
                        max(0.0, now - job.started_at) * 1000.0)
        self._call_soon(self._wake_waiters, [j.id for j in jobs])

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass  # client went away / shutdown — nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # shutdown raced the close — the task ends either way

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        request = await reader.readline()
        if not request:
            return
        try:
            method, target, _version = request.decode("ascii").split()
        except ValueError:
            await self._respond(writer, 400, {"error": "bad request line"})
            return
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not declared.isdecimal():
            await self._respond(writer, 400,
                                {"error": "bad Content-Length header"})
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            await self._respond(writer, 413,
                                {"error": "request body too large",
                                 "limit": MAX_BODY_BYTES})
            return
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        peer = writer.get_extra_info("peername")
        client = headers.get("x-repro-client") \
            or (f"{peer[0]}" if peer else "unknown")
        status, payload = await self._route(method, parts.path, query,
                                            body, client, reader)
        if status is not None:
            await self._respond(writer, status, payload)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, *, content_type: str | None = None,
                       extra_headers: dict | None = None) -> None:
        if isinstance(payload, (dict, list)):
            data = json.dumps(payload).encode()
            ctype = content_type or "application/json"
        else:
            data = str(payload).encode()
            ctype = content_type or "text/plain; version=0.0.4"
        head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(data)}",
                "Connection: close"]
        for k, v in (extra_headers or {}).items():
            head.append(f"{k}: {v}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
        await writer.drain()
        with self._mlock:
            self.registry.counter("service_http_responses_total",
                                  code=status).inc()

    # -- routing -------------------------------------------------------
    async def _route(self, method: str, path: str, query: dict,
                     body: bytes, client: str,
                     reader: asyncio.StreamReader):
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/metrics" and method == "GET":
            return 200, self._metrics_text()
        if path == "/jobs" and method == "GET":
            return self._list_jobs(query)
        if path == "/jobs" and method == "POST":
            return self._submit(body, client)
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):].split("/")
            job_id = rest[0]
            tail = rest[1] if len(rest) > 1 else ""
            if tail == "" and method == "GET":
                return self._job_status(job_id)
            if tail == "result" and method == "GET":
                return self._job_result(job_id)
            if tail == "cancel" and method == "POST":
                return self._job_cancel(job_id)
            if tail == "wait" and method == "GET":
                return await self._job_wait(job_id, query, reader)
        return (405 if path in ("/jobs", "/healthz", "/metrics")
                else 404), {"error": f"no route for {method} {path}"}

    # -- endpoints -----------------------------------------------------
    def _healthz(self) -> dict:
        counts = self.store.counts()
        stats = self.engine.stats
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "paused": self.paused,
            "jobs": counts,
            "queued_bytes": self.store.queued_bytes(),
            "running_batch": sorted(
                j.id for b in self._batches for j in b.jobs),
            "recovered_on_start": self.recovered,
            "engine": {name: getattr(stats, name) for name in
                       ("sims", "hits", "failures", "retries", "cancelled")},
        }

    def _metrics_text(self) -> str:
        counts = self.store.counts()
        with self._mlock:
            for state, n in counts.items():
                self.registry.gauge("service_jobs", state=state).set(n)
            self.registry.gauge("service_queued_bytes") \
                .set(self.store.queued_bytes())
            self.registry.gauge("service_uptime_seconds") \
                .set(round(time.time() - self.started_at, 3))
            stats = self.engine.stats
            self.registry.gauge("engine_sims").set(stats.sims)
            self.registry.gauge("engine_cache_hits").set(stats.hits)
            self.registry.gauge("engine_deduped").set(stats.deduped)
            return self.registry.to_prometheus()

    def _list_jobs(self, query: dict):
        state = query.get("state")
        if state is not None and state not in JOB_STATES:
            return 400, {"error": f"unknown state {state!r}"}
        try:
            limit = int(query.get("limit", 200))
        except ValueError:
            return 400, {"error": "limit must be an integer"}
        jobs = self.store.list_jobs(state=state,
                                    client=query.get("client"),
                                    limit=limit)
        return 200, {"jobs": [j.to_dict() for j in jobs]}

    def _submit(self, body: bytes, client: str):
        if self.draining:
            return 503, {"error": "service is draining"}
        try:
            payload = json.loads(body.decode() or "{}")
            spec_dict = payload["spec"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return 400, {"error": "body must be a JSON object with a "
                                  "'spec' key"}
        client = payload.get("client") or client
        if not isinstance(client, str):
            return 400, {"error": "client must be a string"}
        # Admission control: shed load at the door.
        reason = self._admission_reason(client)
        if reason is not None:
            with self._mlock:
                self.registry.counter("service_jobs_rejected_total",
                                      reason=reason).inc()
            return 429, {"error": _REASONS[reason], "reason": reason,
                         "retry_after": 1.0}
        try:
            spec = RunSpec.from_dict(spec_dict)
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"malformed RunSpec: {exc}"}
        if spec.app is None or spec.app not in APPS:
            return 400, {"error": "only registry-app specs can run "
                                  "remotely (ad-hoc kernels do not "
                                  "survive JSON)",
                         "apps": sorted(APPS)}
        if spec.trace is not None:
            return 400, {"error": "trace output is a local side effect; "
                                  "submit without 'trace'"}
        try:
            priority = int(payload.get("priority", 0))
            if not -(1 << 63) <= priority < 1 << 63:  # SQLite INTEGER
                raise OverflowError(priority)
        except (TypeError, ValueError, OverflowError):
            return 400, {"error": "priority must be a 64-bit integer"}
        job = self.store.submit(
            spec.to_dict(), spec.digest(), priority=priority,
            client=client, sanitize=bool(payload.get("sanitize", False)))
        self._wake.set()
        with self._mlock:
            self.registry.counter("service_jobs_submitted_total").inc()
        return 202, {"job": job.to_dict()}

    def _admission_reason(self, client: str) -> str | None:
        cfg = self.config
        if cfg.rate_limit > 0:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    cfg.rate_limit, cfg.rate_burst)
            if not bucket.allow():
                return "rate"
        if self.store.queue_depth() >= cfg.max_queue_depth:
            return "queue_depth"
        if self.store.queued_bytes() >= cfg.max_queued_bytes:
            return "queued_bytes"
        return None

    def _job_status(self, job_id: str):
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {"job": job.to_dict()}

    def _job_result(self, job_id: str):
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state == "done":
            return 200, job.result
        if job.state == "failed":
            return 200, job.failure
        if job.state == "cancelled":
            return 200, {"schema": 1, "ok": False, "digest": job.digest,
                         "cancelled": True}
        return 202, {"state": job.state, "id": job.id}

    def _job_cancel(self, job_id: str):
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if self.store.cancel(job_id):
            self._wake_waiters([job_id])
            with self._mlock:
                self.registry.counter("service_jobs_cancelled_total") \
                    .inc()
            job = self.store.get(job_id)
            return 200, {"job": job.to_dict() if job else None}
        job = self.store.get(job_id)
        state = job.state if job else "?"
        if state in ("done", "failed", "cancelled"):
            return 409, {"error": f"job already {state}", "state": state}
        return 409, {"error": "job already running; running jobs finish",
                     "state": state}

    async def _job_wait(self, job_id: str, query: dict,
                        reader: asyncio.StreamReader):
        """Long-poll: hold the connection until the job is terminal.

        Returns the job plus (when terminal) the same payload as
        ``/result``.  Bounded by ``?timeout=`` capped at
        ``config.wait_max``; a drain ends the poll early with the
        current state so clients fall back to reconnect-and-retry.

        The poll parks on a per-job future that every path making the
        job terminal resolves (persist, cancel, batch failure), as
        does shutdown.  It is registered *before* the store is read,
        so a transition after the read still finds it.

        A background one-byte read watches for the client hanging up
        mid-poll: a bare FIN only signals EOF (the transport stays
        open, so ``writer.is_closing()`` never trips), and without the
        watch a vanished client would pin this handler for the full
        timeout.
        """
        try:
            timeout = float(query.get("timeout", self.config.wait_max))
        except ValueError:
            return 400, {"error": "timeout must be a number"}
        timeout = max(0.0, min(timeout, self.config.wait_max))
        settled = asyncio.get_running_loop().create_future()
        waiters = self._waiters.setdefault(job_id, set())
        waiters.add(settled)
        gone = asyncio.ensure_future(reader.read(1))
        try:
            job = self.store.get(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            if not job.terminal and not self.draining:
                await asyncio.wait((settled, gone), timeout=timeout,
                                   return_when=asyncio.FIRST_COMPLETED)
                job = self.store.get(job_id)
            if job.terminal:
                _status, payload = self._job_result(job_id)
                return 200, {"job": job.to_dict(), "timed_out": False,
                             "payload": payload}
            return 200, {"job": job.to_dict(), "timed_out": True,
                         "payload": None}
        finally:
            gone.cancel()
            waiters.discard(settled)
            if not waiters:
                self._waiters.pop(job_id, None)
