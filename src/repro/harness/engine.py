"""Unified execution engine: RunSpec, parallel executor, result cache.

Every harness entry point (``experiments.py``, :class:`Sweep`, both
CLIs, the benchmark harness) used to drive :func:`repro.harness.runner.run`
through its own sequential loop, re-simulating common baselines like
``Unshared-LRR`` once per figure.  This module centralises scheduling,
deduplication and persistence of simulations:

* :class:`RunSpec` — a frozen, hashable, JSON-serializable description
  of one simulation: app (or ad-hoc kernel fingerprint), :class:`Mode`,
  :class:`GPUConfig`, scale/waves/grid/max_cycles.  ``digest()`` is a
  content address that also folds in a *code-version salt* (a hash of
  the simulation-relevant sources), so cached results are invalidated
  automatically when the simulator changes.
* :class:`Engine` — executes batches of RunSpecs.  Identical specs in a
  batch are simulated once; one scheduling loop runs the unique specs,
  on a ``ProcessPoolExecutor`` with ``jobs > 1`` and in this process
  at ``jobs == 1`` (the simulations are deterministic, so both produce
  the same bits — only wall-clock changes).
* :class:`ResultCache` — a content-addressed SQLite store
  (``~/.cache/repro/results.db`` by default, override the root with
  ``cache_dir=`` / ``REPRO_CACHE_DIR``) keyed by ``RunSpec.digest()``;
  each row holds the :meth:`RunResult.to_dict` payload, and a batch
  reads all of its rows in one query.
* Observability — per-run wall time, hit/miss/dedup counters
  (:class:`EngineStats`) and a per-completion progress callback
  (:class:`RunEvent`).
* Resilience (see docs/resilience.md) — a failing run yields a
  structured :class:`~repro.harness.resilience.RunFailure` at its
  position in the batch instead of aborting the whole batch; transient
  worker failures (``BrokenProcessPool``, injected crashes) retry with
  exponential backoff under a :class:`RetryPolicy`; ``timeout=`` arms
  a wall-clock budget (a hung pool worker is killed, and a run that
  finishes over budget fails); ``fail_fast=True``
  restores the historical abort-on-first-error behaviour;
  ``sanitize=True`` runs every simulation under the runtime invariant
  sanitizer (and bypasses the cache so the checks execute);
  ``faults=`` accepts a deterministic
  :class:`~repro.harness.faults.FaultInjector` for chaos testing.

Environment knobs: ``REPRO_JOBS`` (worker count when ``jobs`` is not
given) and ``REPRO_CACHE_DIR`` (cache location).  See docs/engine.md
and docs/resilience.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sqlite3
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Protocol, Sequence

from repro.config import GDDRTimings, GPUConfig, LatencyConfig
from repro.core.sharing import SharedResource
from repro.harness.faults import FaultInjector
from repro.harness.resilience import (RetryPolicy, RunCancelled,
                                      RunFailure, RunTimeoutError,
                                      categorize)
from repro.harness.runner import Mode, run
from repro.isa.kernel import Kernel
from repro.obs import NULL_SINK, Observer
from repro.sched import SCHEDULERS
from repro.sim.stats import RunResult
from repro.workloads.apps import APPS, App

__all__ = ["RunSpec", "Engine", "EngineStats", "RunEvent", "ResultCache",
           "RunFailure", "RetryPolicy", "code_salt",
           "default_engine"]

#: Bump when the cache entry layout changes (independent of code salt).
CACHE_SCHEMA = 1

#: Sources whose content participates in the code-version salt: anything
#: that can change simulation results.  Reports/CLI/docs are excluded.
#: ``obs`` is included not because observation may change results (it
#: must not) but because metrics/trace payloads cached alongside results
#: must be invalidated when their schema evolves.
_SALT_SOURCES = ("config.py", "core", "isa", "mem", "obs", "sched", "sim",
                 "workloads", "harness/runner.py")


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Hash of the simulation-relevant source tree.

    Folded into every :meth:`RunSpec.digest`, so editing the simulator
    (or the workloads) invalidates all previously cached results without
    any manual version bookkeeping.
    """
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for entry in _SALT_SOURCES:
        p = root / entry
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _mode_to_dict(mode: Mode) -> dict:
    return {
        "label": mode.label,
        "scheduler": mode.scheduler,
        "sharing": mode.sharing.value if mode.sharing is not None else None,
        "t": mode.t,
        "unroll": mode.unroll,
        "dyn": mode.dyn,
        "early_release": mode.early_release,
    }


def _mode_from_dict(d: dict) -> Mode:
    sharing = SharedResource(d["sharing"]) if d["sharing"] is not None \
        else None
    _require(isinstance(d["label"], str), "mode.label must be a string")
    _require(isinstance(d["scheduler"], str)
             and d["scheduler"] in SCHEDULERS,
             f"mode.scheduler must be one of {sorted(SCHEDULERS)}")
    _require(_is_real(d["t"]) and 0 <= d["t"] <= 1,
             "mode.t must be a number in [0, 1]")
    for flag in ("unroll", "dyn", "early_release"):
        _require(isinstance(d[flag], bool), f"mode.{flag} must be a bool")
    return Mode(label=d["label"], scheduler=d["scheduler"], sharing=sharing,
                t=d["t"], unroll=d["unroll"], dyn=d["dyn"],
                early_release=d["early_release"])


def _config_from_dict(d: dict) -> GPUConfig:
    d = dict(d)
    d["timings"] = GDDRTimings(**d["timings"])
    d["latency"] = LatencyConfig(**d["latency"])
    return GPUConfig(**d)


@lru_cache(maxsize=64)
def _config_dict(config: GPUConfig) -> dict:
    """``asdict(config)``, computed once per distinct config.  Shared:
    never mutate it (:meth:`RunSpec.to_dict` hands out copies)."""
    return asdict(config)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _is_real(v: object) -> bool:
    """A finite int or float (``bool`` excluded)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _is_count(v: object) -> bool:
    """An int of at least 1 (``bool`` excluded)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


@dataclass(frozen=True)
class RunSpec:
    """Canonical description of one simulation.

    Frozen and hashable; :meth:`to_dict` / :meth:`from_dict` give a JSON
    round trip and :meth:`digest` a stable content address.  ``app`` is
    a registry name when the target lives in :data:`APPS`; ad-hoc
    kernels (extension studies, ``.kasm`` files) ride along in the
    ``kernel`` field, which is excluded from equality/hash — the
    ``kernel_fp`` fingerprint represents them in the identity.
    """

    app: str | None
    kernel_fp: str
    mode: Mode
    config: GPUConfig
    scale: float = 1.0
    waves: float = 6.0
    grid_blocks: int | None = None
    max_cycles: int = 2_000_000
    #: Chrome trace-event output path (None = no timeline).  Part of the
    #: digest, so traced and untraced runs never share a cache entry;
    #: traced runs additionally bypass the disk cache entirely — the
    #: trace file is a side effect a cached result could not reproduce.
    trace: str | None = None
    #: Collect a metrics registry and attach it to ``RunResult.metrics``.
    #: Also part of the digest (the cached payload differs).
    metrics: bool = False
    #: Pre-built kernel for non-registry targets (identity lives in
    #: ``kernel_fp``; this field only carries the payload to workers).
    kernel: Kernel | None = field(default=None, compare=False, repr=False)

    @classmethod
    def create(cls, target: App | Kernel, mode: Mode, *,
               config: GPUConfig | None = None, scale: float = 1.0,
               waves: float = 6.0, grid_blocks: int | None = None,
               max_cycles: int = 2_000_000, trace: str | None = None,
               metrics: bool = False) -> "RunSpec":
        """Build a spec from the same arguments :func:`runner.run` takes."""
        config = config if config is not None else GPUConfig()
        if isinstance(target, App):
            kernel = target.kernel(scale)
            name = target.name if APPS.get(target.name) is target else None
        else:
            kernel, name = target, None
        return cls(app=name, kernel_fp=kernel.fingerprint,
                   mode=mode, config=config, scale=scale, waves=waves,
                   grid_blocks=grid_blocks, max_cycles=max_cycles,
                   trace=trace, metrics=metrics,
                   kernel=None if name is not None else kernel)

    def to_dict(self) -> dict:
        """JSON-serializable form (the ad-hoc kernel payload is reduced
        to its fingerprint)."""
        config = {k: dict(v) if isinstance(v, dict) else v
                  for k, v in _config_dict(self.config).items()}
        return {
            "app": self.app,
            "kernel_fp": self.kernel_fp,
            "mode": _mode_to_dict(self.mode),
            "config": config,
            "scale": self.scale,
            "waves": self.waves,
            "grid_blocks": self.grid_blocks,
            "max_cycles": self.max_cycles,
            "trace": self.trace,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Only registry-app specs can be fully reconstructed; ad-hoc
        kernel specs keep their identity (digest) but not the kernel
        payload, so they cannot be re-executed from JSON.  A value of
        the wrong type or range raises ``ValueError``, so a malformed
        spec is refused here rather than failing inside the simulator.
        """
        _require(d["app"] is None or isinstance(d["app"], str),
                 "app must be a string or null")
        _require(isinstance(d["kernel_fp"], str),
                 "kernel_fp must be a string")
        for key in ("scale", "waves"):
            _require(_is_real(d[key]) and d[key] > 0,
                     f"{key} must be a finite number > 0")
        _require(d["grid_blocks"] is None or _is_count(d["grid_blocks"]),
                 "grid_blocks must be null or an int >= 1")
        _require(_is_count(d["max_cycles"]), "max_cycles must be an int >= 1")
        trace, metrics = d.get("trace"), d.get("metrics", False)
        _require(trace is None or isinstance(trace, str),
                 "trace must be a string or null")
        _require(isinstance(metrics, bool), "metrics must be a bool")
        return cls(app=d["app"], kernel_fp=d["kernel_fp"],
                   mode=_mode_from_dict(d["mode"]),
                   config=_config_from_dict(d["config"]),
                   scale=d["scale"], waves=d["waves"],
                   grid_blocks=d["grid_blocks"],
                   max_cycles=d["max_cycles"],
                   trace=trace, metrics=metrics)

    def digest(self) -> str:
        """Content address: canonical JSON of the spec + code salt,
        computed once per distinct spec and salt (see :func:`_digest`)."""
        return _digest(self.app, self.kernel_fp, self.mode, self.config,
                       self.scale, self.waves, self.grid_blocks,
                       self.max_cycles, self.trace, self.metrics,
                       type(self.mode.t), code_salt())

    def target(self) -> App | Kernel:
        """The runnable object this spec describes."""
        if self.app is not None:
            return APPS[self.app]
        if self.kernel is None:
            raise ValueError(
                "ad-hoc kernel spec has no kernel payload (deserialized "
                "from JSON?) — only registry-app specs are re-runnable")
        return self.kernel

    def execute(self, sanitize: bool = False) -> RunResult:
        """Run the simulation this spec describes (no cache, no pool).

        With ``metrics``/``trace`` set, the run is observed through an
        :class:`~repro.obs.Observer`; the trace file is written here so
        the side effect also happens inside pool workers.
        """
        obs = NULL_SINK
        if self.metrics or self.trace is not None:
            obs = Observer(metrics=self.metrics,
                           trace=self.trace is not None)
        res = run(self.target(), self.mode, config=self.config,
                  scale=self.scale, waves=self.waves,
                  grid_blocks=self.grid_blocks, max_cycles=self.max_cycles,
                  sanitize=sanitize, obs=obs)
        if self.trace is not None:
            obs.write_trace(self.trace)
        return res


@lru_cache(maxsize=4096, typed=True)
def _digest(app, kernel_fp, mode, config, scale, waves, grid_blocks,
            max_cycles, trace, metrics, _t_type, salt) -> str:
    """:meth:`RunSpec.digest` of the spec with these identity fields:
    not the spec itself, so the memo keeps no ad-hoc kernel alive.
    ``typed`` (and ``_t_type`` for the mode's ``t``) keeps ``1`` apart
    from ``1.0``, which encode differently."""
    spec = RunSpec(app, kernel_fp, mode, config, scale, waves, grid_blocks,
                   max_cycles, trace, metrics).to_dict()
    payload = json.dumps({"salt": salt, "spec": spec},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _execute_timed(spec: RunSpec, attempt: int = 1,
                   faults: FaultInjector | None = None,
                   sanitize: bool = False,
                   hard_faults: bool = False) -> tuple[RunResult, float]:
    """Worker entry point (top-level so it pickles).

    The elapsed time covers fault injection too, so an injected hang
    counts against the run's timeout budget.
    """
    t0 = time.perf_counter()
    if faults is not None:
        faults.fire(spec.digest(), attempt, hard=hard_faults)
    res = spec.execute(sanitize=sanitize)
    return res, time.perf_counter() - t0


#: Open store connections by (process, thread, database path).  Only
#: the thread in its key touches an entry, so no lock is needed.  Not
#: thread-local: a forked process must keep, never close, its parent's.
_CONNS: dict[tuple[int, int, str], sqlite3.Connection] = {}
#: Stores one thread keeps open; opening another closes its oldest.
_CONNS_PER_THREAD = 4
#: Digests per ``SELECT … IN (…)``: under any SQLite's variable limit.
_IN_MAX = 900
#: How long a store operation waits for another writer's lock.
_BUSY_S = 30.0


class ResultCache:
    """Content-addressed store of :class:`RunResult` payloads.

    One SQLite database in WAL mode, ``<root>/results.db``, with one
    table ``results(digest PRIMARY KEY, schema, payload)`` holding
    :meth:`RunResult.to_dict` JSON; :meth:`get` serves a whole batch in
    one query.  A database error is a miss or a dropped write, never a
    failed run, and a row of another :data:`CACHE_SCHEMA` is a plain
    miss.  A row that does not decode to a result is deleted on read and
    counted in :attr:`quarantined`, so its spec is re-simulated once
    instead of re-parsed forever.  Old ``<root>/<xx>/<digest>.json``
    entries are not read.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root if root is not None
                         else os.environ.get("REPRO_CACHE_DIR")
                         or Path.home() / ".cache" / "repro")
        #: The database file.
        self.path = self.root / "results.db"
        #: Corrupt rows deleted by this instance.
        self.quarantined = 0

    def connection(self) -> sqlite3.Connection:
        """This thread's connection to the store, opened (and the table
        created) on first use and reused by every later instance."""
        key = (os.getpid(), threading.get_ident(), str(self.path))
        db = _CONNS.get(key)
        if db is None:
            mine = [k for k in list(_CONNS) if k[:2] == key[:2]]
            for old in mine[:len(mine) + 1 - _CONNS_PER_THREAD]:
                _CONNS.pop(old).close()
            self.root.mkdir(parents=True, exist_ok=True)
            db = sqlite3.connect(key[2], timeout=_BUSY_S,
                                 isolation_level=None)
            deadline = time.monotonic() + _BUSY_S
            while True:
                try:
                    db.execute("PRAGMA journal_mode=WAL")
                    db.execute("PRAGMA synchronous=NORMAL")
                    db.execute("CREATE TABLE IF NOT EXISTS results (digest"
                               " TEXT PRIMARY KEY, schema INTEGER,"
                               " payload TEXT)")
                    break
                except sqlite3.Error as exc:
                    # Switching a new database to WAL fails "locked" at
                    # once, not after the busy timeout, when another
                    # process is doing the same: retry that.
                    if "locked" not in str(exc) \
                            or time.monotonic() > deadline:
                        db.close()
                        raise
                    time.sleep(0.01)
            _CONNS[key] = db
        return db

    def get(self, digests: Sequence[str]) -> dict[str, RunResult]:
        """Stored results of those ``digests`` that have one."""
        found: dict[str, RunResult] = {}
        bad: list[str] = []
        try:
            db = self.connection()
            for i in range(0, len(digests), _IN_MAX):
                chunk = digests[i:i + _IN_MAX]
                rows = db.execute(
                    "SELECT digest, payload FROM results WHERE schema = ?"
                    f" AND digest IN ({','.join('?' * len(chunk))})",
                    (CACHE_SCHEMA, *chunk)).fetchall()
                for d, payload in rows:
                    try:
                        found[d] = RunResult.from_dict(json.loads(payload))
                    except (ValueError, KeyError, TypeError):
                        bad.append(d)
            if bad:
                self.quarantined += len(bad)
                db.executemany("DELETE FROM results WHERE digest = ?",
                               [(d,) for d in bad])
        except (sqlite3.Error, OSError):
            pass  # an unreadable store is a miss, never a failed run
        return found

    def put(self, digest: str, result: RunResult) -> None:
        """Store ``result`` under ``digest`` (best-effort)."""
        payload = json.dumps(result.to_dict())
        try:
            self.connection().execute(
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
                (digest, CACHE_SCHEMA, payload))
        except (sqlite3.Error, OSError):
            pass  # a read-only cache dir must never fail the run


class _CancelToken(Protocol):
    """Anything with ``is_set()`` — e.g. ``threading.Event``."""

    def is_set(self) -> bool: ...  # pragma: no cover


@dataclass
class EngineStats:
    """Cumulative counters for one :class:`Engine`."""

    submitted: int = 0       #: specs passed to run_batch
    deduped: int = 0         #: specs served by an identical one in-batch
    hits: int = 0            #: specs served from the disk cache
    misses: int = 0          #: cache lookups that missed
    sims: int = 0            #: simulations actually executed
    sim_time: float = 0.0    #: summed per-simulation wall seconds
    wall_time: float = 0.0   #: wall seconds spent inside run_batch
    failures: int = 0        #: runs that ended as a RunFailure
    retries: int = 0         #: re-attempts scheduled by the retry policy
    timeouts: int = 0        #: runs killed / flagged by the watchdog
    quarantined: int = 0     #: corrupt cache rows deleted on read
    cancelled: int = 0       #: runs cancelled before dispatch (token)


@dataclass(frozen=True)
class RunEvent:
    """Progress-callback payload: one completed (or cache-served) run."""

    index: int           #: 1-based completion order within the batch
    total: int           #: unique runs in the batch
    spec: RunSpec
    result: RunResult
    cached: bool
    elapsed: float       #: simulation seconds (0.0 for cache hits)


def default_jobs() -> int:
    """Worker count when ``jobs`` is not given: ``REPRO_JOBS``, else
    the CPU count.  A ``REPRO_JOBS`` that is not an integer >= 1
    raises ``ValueError`` naming the variable."""
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return os.cpu_count() or 1
    if not (env.strip().isdecimal() and int(env) >= 1):
        raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {env!r}")
    return int(env)


class _InlineExecutor:
    """The executor of :meth:`Engine._schedule` when there is no pool:
    ``submit`` runs the call at once, in this process, and returns its
    settled future."""

    def submit(self, fn: Callable, /, *args) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        """Nothing to stop: no call outlives its ``submit``."""


class Engine:
    """Executes batches of :class:`RunSpec`, with dedup, cache and pool.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` → ``REPRO_JOBS`` or ``os.cpu_count()``;
        ``1`` → every simulation runs in this process (no pool).
    cache:
        ``True`` (default) enables the content-addressed result store,
        ``False`` disables it; a :class:`ResultCache` instance is used
        as-is.
    cache_dir:
        Cache root (default ``REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    progress:
        Default per-completion callback receiving a :class:`RunEvent`.
    timeout:
        Per-run wall-clock budget in seconds (``None`` → unlimited).
        A run that finishes over budget is a timeout failure; on the
        pool a run still going at the budget is killed with its pool,
        which is rebuilt.
    retry:
        :class:`RetryPolicy` governing which failure categories retry
        and with what backoff.  Default: crashes retry up to 3 attempts.
    fail_fast:
        ``True`` restores the historical behaviour — the first terminal
        failure re-raises and aborts the batch.  Default ``False``:
        failures are isolated into :class:`RunFailure` slots.
    sanitize:
        Run every simulation under the runtime invariant sanitizer
        (DESIGN.md §6).  Sanitized runs bypass the cache so the checks
        actually execute.
    faults:
        Optional deterministic :class:`FaultInjector` for chaos testing.
    max_cycles:
        When set, overrides ``max_cycles`` on every submitted spec
        (applied before dedup, so digests reflect it).
    metrics:
        ``True`` turns on metrics collection for every submitted spec
        (``RunSpec.metrics``), attaching a registry snapshot to each
        ``RunResult.metrics``.
    trace_dir:
        When set, every submitted spec gets a Chrome trace written to
        ``<trace_dir>/<app>-<mode>.json`` (``RunSpec.trace``).  Traced
        specs bypass the disk cache — the trace file is a side effect a
        cached result could not reproduce.
    """

    def __init__(self, *, jobs: int | None = None,
                 cache: bool | ResultCache = True,
                 cache_dir: str | Path | None = None,
                 progress: Callable[[RunEvent], None] | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 fail_fast: bool = False,
                 sanitize: bool = False,
                 faults: FaultInjector | None = None,
                 max_cycles: int | None = None,
                 metrics: bool = False,
                 trace_dir: str | Path | None = None) -> None:
        self.jobs = max(1, jobs) if jobs is not None else default_jobs()
        if isinstance(cache, ResultCache):
            self.cache: ResultCache | None = cache
        elif cache:
            self.cache = ResultCache(cache_dir)
        else:
            self.cache = None
        self.progress = progress
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.fail_fast = fail_fast
        self.sanitize = sanitize
        self.faults = faults
        self.max_cycles = max_cycles
        self.metrics = metrics
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.stats = EngineStats()
        #: Every RunFailure recorded across this engine's batches.
        self.failures: list[RunFailure] = []

    # ------------------------------------------------------------------
    def run_one(self, spec: RunSpec) -> RunResult | RunFailure:
        """Convenience wrapper: a batch of one."""
        return self.run_batch([spec])[0]

    def run_batch(self, specs: Sequence[RunSpec], *,
                  progress: Callable[[RunEvent], None] | None = None,
                  cancel: "_CancelToken | None" = None,
                  pool: bool = False
                  ) -> list[RunResult | RunFailure]:
        """Execute ``specs``; returns results aligned with the input.

        Identical specs (same digest) are simulated once; cached results
        are loaded from the store in one query; the rest run on the pool
        (``jobs > 1``) or in-process.  Result order is always the
        submission order, so a parallel batch is bit-identical to a
        sequential one.

        Failure isolation: unless ``fail_fast=True``, a run that fails
        terminally (after retries) occupies its slot in the returned
        list as a :class:`RunFailure` — check ``r.ok`` or use
        :func:`repro.harness.resilience.split_results`.  The failures
        are also appended to :attr:`failures`.

        Cooperative cancellation: ``cancel`` is an Event-style token
        (anything with ``is_set()``, e.g. ``threading.Event``) checked
        between dispatches.  Once set, no *new* simulation starts;
        in-flight simulations run to completion and keep their results,
        and every not-yet-started spec fills its slot with a
        ``category="cancelled"`` :class:`RunFailure` (counted in
        ``stats.cancelled``, *not* appended to :attr:`failures` — the
        caller asked for the drain, so these aren't errors).  This is
        the drain primitive the simulation service's graceful shutdown
        is built on: cancelled slots are requeued, completed ones kept.

        ``progress`` (default: the engine's) fires once per unique spec
        as its slot settles — simulated, cache-served, failed or
        cancelled — on the calling thread, so it doubles as a
        durability hook: the service persists each result from it the
        moment it lands.

        ``pool=True`` runs every uncached spec in a worker process, even
        a lone one that would otherwise run in this process.  A caller
        running several batches at once from threads uses it so the
        simulations do not share one interpreter lock.
        """
        t_batch = time.perf_counter()
        progress = progress if progress is not None else self.progress
        if self.max_cycles is not None:
            specs = [replace(s, max_cycles=self.max_cycles) for s in specs]
        if self.metrics or self.trace_dir is not None:
            if self.trace_dir is not None:
                self.trace_dir.mkdir(parents=True, exist_ok=True)
            specs = [self._observed(s) for s in specs]
        order: list[str] = []
        unique: dict[str, RunSpec] = {}
        for spec in specs:
            d = spec.digest()
            order.append(d)
            if d in unique:
                self.stats.deduped += 1
            else:
                unique[d] = spec
        self.stats.submitted += len(specs)

        # Sanitized runs bypass the cache: a cached result would skip
        # the invariant checks that are the whole point of the mode.
        # Traced runs do too: the trace file is a side effect a cached
        # result could not reproduce (metrics-only runs stay cacheable —
        # the registry snapshot rides inside the cached RunResult).
        cache = self.cache if not self.sanitize else None

        def cacheable(d: str) -> bool:
            return cache is not None and unique[d].trace is None

        lookup = [d for d in unique if cacheable(d)]
        hits = cache.get(lookup) if lookup else {}

        results: dict[str, RunResult | RunFailure] = {}
        done = 0
        total = len(unique)

        def emit(d: str, res: RunResult | RunFailure, cached: bool,
                 elapsed: float) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(RunEvent(index=done, total=total, spec=unique[d],
                                  result=res, cached=cached,
                                  elapsed=elapsed))

        todo: list[str] = []
        for d in unique:
            hit = hits.get(d)
            if hit is not None:
                self.stats.hits += 1
                results[d] = hit
                emit(d, hit, True, 0.0)
                continue
            if cacheable(d):
                self.stats.misses += 1
            todo.append(d)

        def record(d: str, res: RunResult, elapsed: float) -> None:
            results[d] = res
            self.stats.sims += 1
            self.stats.sim_time += elapsed
            if cacheable(d):
                cache.put(d, res)
            emit(d, res, False, elapsed)

        def fail(d: str, failure: RunFailure) -> None:
            results[d] = failure
            self.failures.append(failure)
            self.stats.failures += 1
            emit(d, failure, False, failure.elapsed)

        def cancelled(d: str) -> None:
            # Not a failure: the caller set the token, so the slot is
            # filled with a marker record but neither retried nor
            # appended to self.failures.
            exc = RunCancelled("cancelled before dispatch "
                               "(batch cancellation token set)")
            results[d] = RunFailure.from_exception(
                unique[d], d, exc, attempts=0)
            self.stats.cancelled += 1
            emit(d, results[d], False, 0.0)

        try:
            if todo:
                self._schedule(todo, unique, record, fail, cancelled, cancel,
                               pool or (len(todo) > 1 and self.jobs > 1))
        finally:
            if self.cache is not None:
                self.stats.quarantined = self.cache.quarantined
            self.stats.wall_time += time.perf_counter() - t_batch
        return [results[d] for d in order]

    # ------------------------------------------------------------------
    def _observed(self, spec: RunSpec) -> RunSpec:
        """Apply the engine-level ``metrics``/``trace_dir`` knobs.

        Applied before dedup, so digests reflect the observation state;
        per-spec settings win over the engine-level defaults.
        """
        changes: dict = {}
        if self.metrics and not spec.metrics:
            changes["metrics"] = True
        if self.trace_dir is not None and spec.trace is None:
            slug = "".join(c if c.isalnum() or c in "._-" else "_"
                           for c in f"{spec.app or spec.kernel_fp}"
                                    f"-{spec.mode.label}")
            changes["trace"] = str(self.trace_dir / f"{slug}.json")
        return replace(spec, **changes) if changes else spec

    # ------------------------------------------------------------------
    def _schedule(self, todo: list[str], unique: dict[str, RunSpec],
                  record: Callable[[str, RunResult, float], None],
                  fail: Callable[[str, RunFailure], None],
                  cancelled: Callable[[str], None],
                  cancel: "_CancelToken | None",
                  use_pool: bool) -> None:
        """The one scheduler: retries, timeouts and failure isolation.

        ``use_pool`` runs the specs on a ``ProcessPoolExecutor``;
        otherwise an :class:`_InlineExecutor` runs each in this process
        as it is submitted, with faults injected soft (an injected
        crash raises instead of killing the process).  Both obey the
        same rules: a run that finishes over the ``timeout`` budget is
        a timeout failure, and a run backing off starts at its retry
        deadline.

        Inflight submissions are capped at the worker count so the
        submit time of a future approximates its start time — that is
        what makes the per-run wall-clock watchdog meaningful on a
        ``ProcessPoolExecutor`` (which has no native task timeouts).

        Blame on ``BrokenProcessPool`` is imprecise: when a worker dies,
        *every* inflight future raises it.  Rather than charging a
        retry attempt to innocent co-scheduled specs, all affected
        digests are requeued un-blamed into a *solo* queue that runs
        one spec at a time — if the pool breaks again there, exactly
        one spec was inflight and the blame is precise.
        """
        policy = self.retry
        workers = min(self.jobs, len(todo))
        pending: list[str] = list(todo)      # parallel-eligible queue
        solo: list[str] = []                 # run-one-at-a-time queue
        fail_count: dict[str, int] = {}      # failed attempts so far
        not_before: dict[str, float] = {}    # backoff deadlines
        inflight: dict[Future, tuple[str, float]] = {}
        tick = 0.05 if self.timeout is not None else 0.2

        def new_executor() -> ProcessPoolExecutor | _InlineExecutor:
            return (ProcessPoolExecutor(max_workers=workers) if use_pool
                    else _InlineExecutor())

        executor = new_executor()

        def submit(d: str) -> None:
            attempt = fail_count.get(d, 0) + 1
            t0 = time.monotonic()  # before an inline run, not after
            try:
                fut = executor.submit(_execute_timed, unique[d], attempt,
                                      self.faults, self.sanitize, use_pool)
            except BrokenExecutor as exc:
                # A worker died after the last wait: settle this spec
                # as broken so the broken-pool path requeues it.
                fut = Future()
                fut.set_exception(exc)
            inflight[fut] = (d, t0)

        def kill_pool() -> None:
            nonlocal executor
            for proc in list(getattr(executor, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
            executor.shutdown(wait=False, cancel_futures=True)
            inflight.clear()
            executor = new_executor()

        def handle_failure(d: str, exc: Exception, elapsed: float) -> None:
            """Retry a blamed failure, or record it as terminal."""
            fail_count[d] = fail_count.get(d, 0) + 1
            category = categorize(exc)
            if (policy.retryable(category)
                    and fail_count[d] < policy.max_attempts):
                self.stats.retries += 1
                not_before[d] = (time.monotonic()
                                 + policy.delay(fail_count[d]))
                # Crash suspects go to the solo queue so a repeat
                # break can be attributed precisely.
                (solo if category == "crash" else pending).append(d)
                return
            if self.fail_fast:
                raise exc
            fail(d, RunFailure.from_exception(
                unique[d], d, exc, attempts=fail_count[d], elapsed=elapsed))

        def ready(queue: list[str]) -> str | None:
            now = time.monotonic()
            for i, d in enumerate(queue):
                if not_before.get(d, 0.0) <= now:
                    return queue.pop(i)
            return None

        try:
            while pending or solo or inflight:
                # Drain request: stop feeding the pool, let inflight
                # simulations finish, mark everything queued cancelled.
                if (cancel is not None and cancel.is_set()
                        and (pending or solo)):
                    for d in pending + solo:
                        cancelled(d)
                    pending.clear()
                    solo.clear()
                    if not inflight:
                        break
                # Fill the pool: solo specs only run alone.
                while (len(inflight) < workers
                       and not (cancel is not None and cancel.is_set())):
                    if solo:
                        if inflight:
                            break  # wait for the pool to drain first
                        d = ready(solo)
                        if d is not None:
                            submit(d)
                        break  # at most one solo inflight
                    d = ready(pending)
                    if d is None:
                        break
                    submit(d)
                if not inflight:
                    # Everything runnable is backing off: sleep until
                    # the first deadline of the queue that runs next.
                    queue = solo or pending
                    if queue:
                        wake = min(not_before.get(d, 0.0) for d in queue)
                        time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                done_set, _ = wait(list(inflight), timeout=tick,
                                   return_when=FIRST_COMPLETED)
                broken: Exception | None = None
                affected: list[str] = []
                for fut in done_set:
                    d, t0 = inflight.pop(fut)
                    elapsed = time.monotonic() - t0
                    try:
                        res, sim_elapsed = fut.result()
                    except BrokenExecutor as exc:
                        broken = exc
                        affected.append(d)
                        continue
                    except Exception as exc:
                        handle_failure(d, exc, elapsed)
                        continue
                    if self.timeout is not None and sim_elapsed > self.timeout:
                        self.stats.timeouts += 1
                        handle_failure(d, RunTimeoutError(
                            f"run exceeded {self.timeout:.3g}s budget "
                            f"({sim_elapsed:.3g}s elapsed)"), elapsed)
                        continue
                    record(d, res, sim_elapsed)

                if broken is not None:
                    # The whole pool is dead; every inflight future is
                    # collateral.  Blame precisely only when exactly one
                    # spec was running (solo mode).
                    affected.extend(d for d, _ in inflight.values())
                    kill_pool()
                    if len(affected) == 1:
                        handle_failure(affected[0], broken, 0.0)
                    else:
                        # Un-blamed requeue: isolate in the solo queue.
                        solo.extend(affected)
                    continue

                if self.timeout is not None:
                    now = time.monotonic()
                    expired = [(fut, d, t0) for fut, (d, t0)
                               in inflight.items() if now - t0 > self.timeout]
                    if expired:
                        self.stats.timeouts += len(expired)
                        expired_futs = {fut for fut, _d, _t0 in expired}
                        # Co-scheduled runs die with the pool through no
                        # fault of their own: requeue without blame.
                        innocents = [d for fut, (d, _t0) in inflight.items()
                                     if fut not in expired_futs]
                        kill_pool()
                        pending.extend(innocents)
                        for _fut, d, t0 in expired:
                            exc = RunTimeoutError(
                                f"run exceeded {self.timeout:.3g}s budget "
                                f"(killed after {now - t0:.3g}s)")
                            handle_failure(d, exc, now - t0)
        finally:
            # On the normal path inflight is empty, so a blocking
            # shutdown is instant and joins the executor's management
            # thread (avoids "Exception ignored" atexit noise).  On the
            # fail-fast abort path, don't wait for running simulations.
            executor.shutdown(wait=not inflight, cancel_futures=True)


_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """Process-wide engine used when a caller doesn't supply one."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE
