"""Deterministic fault injection for the execution engine (chaos harness).

Resilience claims that aren't exercised are wishes.  This module lets
tests and the CI chaos job inject the exact failure modes the engine's
resilience layer must absorb, deterministically and per-spec:

* **crash** — the worker process dies mid-run (``os._exit``) so the
  pool observes a real ``BrokenProcessPool``; in-process execution
  raises :class:`InjectedCrash` instead (same ``crash`` category).
* **hang** — the run sleeps ``seconds`` before simulating, tripping
  the engine's timeout: the pool watchdog kills it, and a run in this
  process fails as over budget when it ends.
* **error** — an :class:`InjectedError` (plain exception path).
* **deadlock** — raises :class:`~repro.sim.gpu.SimulationDeadlock`
  with an "injected" report, proving those exceptions serialize into
  ``RunFailure`` records across the process pool.

Faults are keyed by ``RunSpec.digest()`` and gated on the attempt
number, so *transient* faults (``until_attempt=1``) crash the first
attempt and let the retry succeed — exactly the scenario bounded
retries exist for.  The injector is a plain picklable mapping, shipped
to workers inside the engine's task tuple; no globals, no env vars.

Cache corruption is a parent-side fault: :func:`corrupt_cache_entry`
damages a result-store row in one of four ways so tests can prove that
a corrupt row is deleted and re-simulated instead of re-parsed
forever, and that a row of another schema version is a plain miss.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.sim.gpu import SimulationDeadlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.engine import ResultCache

__all__ = ["FaultSpec", "FaultInjector", "InjectedCrash", "InjectedError",
           "corrupt_cache_entry", "FAULT_KINDS", "CRASH_EXIT_CODE"]

#: Supported fault kinds.
FAULT_KINDS = ("crash", "hang", "error", "deadlock")

#: Exit status of a hard-crashed worker (distinctive in pool logs).
CRASH_EXIT_CODE = 70

#: ``until_attempt`` default: effectively "always".
ALWAYS = 1 << 30


class InjectedCrash(RuntimeError):
    """Soft (in-process) stand-in for a worker process death."""


class InjectedError(RuntimeError):
    """Generic injected exception (the plain ``error`` category)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what to inject and for how many attempts.

    ``until_attempt=1`` makes the fault transient (fires only on the
    first attempt); the default fires on every attempt, which is how a
    deterministic failure exhausts the retry budget.
    """

    kind: str
    until_attempt: int = ALWAYS
    seconds: float = 30.0      #: hang duration (``kind="hang"`` only)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"one of {FAULT_KINDS}")
        if self.until_attempt < 1:
            raise ValueError("until_attempt must be >= 1")


class FaultInjector:
    """Deterministic digest-keyed fault plan, picklable across the pool.

    ``hard`` faults (worker processes) crash with ``os._exit`` so the
    parent sees genuine process death; soft mode (in-process engine
    path) raises :class:`InjectedCrash` instead so the parent survives.
    """

    def __init__(self, plan: Mapping[str, FaultSpec] | None = None) -> None:
        self.plan: dict[str, FaultSpec] = dict(plan or {})

    # ------------------------------------------------------------------
    def add(self, digest: str, kind: str, *, until_attempt: int = ALWAYS,
            seconds: float = 30.0) -> "FaultInjector":
        """Register a fault for one spec digest (chainable)."""
        self.plan[digest] = FaultSpec(kind, until_attempt, seconds)
        return self

    @classmethod
    def seeded(cls, seed: int, digests: list[str], *, rate: float = 0.2,
               kinds: tuple[str, ...] = ("crash", "error"),
               until_attempt: int = 1,
               seconds: float = 30.0) -> "FaultInjector":
        """Pseudo-randomly fault ~``rate`` of ``digests``, seeded.

        Selection hashes ``(seed, digest)`` so the same seed over the
        same batch always injects the same faults — chaos runs are
        reproducible bug reports, not flakes.
        """
        inj = cls()
        for d in digests:
            h = hashlib.sha256(f"{seed}:{d}".encode()).digest()
            if h[0] / 256.0 < rate:
                kind = kinds[h[1] % len(kinds)]
                inj.add(d, kind, until_attempt=until_attempt,
                        seconds=seconds)
        return inj

    # ------------------------------------------------------------------
    def fire(self, digest: str, attempt: int, *, hard: bool) -> None:
        """Inject the planned fault for ``digest`` (no-op if none).

        Called by the engine's worker entry point before the simulation
        starts.  ``hang`` returns after sleeping (the run then proceeds
        normally — the watchdog decides its fate); the other kinds do
        not return.
        """
        spec = self.plan.get(digest)
        if spec is None or attempt > spec.until_attempt:
            return
        if spec.kind == "crash":
            if hard:
                # A real worker death: skips atexit/finally, exactly like
                # an OOM kill.  The pool surfaces BrokenProcessPool.
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrash(
                f"injected worker crash (attempt {attempt})")
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return
        if spec.kind == "error":
            raise InjectedError(
                f"injected failure (attempt {attempt})")
        raise SimulationDeadlock(
            f"injected deadlock (attempt {attempt}): no ready warps, "
            f"no events [fault injection]")


# ----------------------------------------------------------------------
def corrupt_cache_entry(cache: "ResultCache", digest: str,
                        mode: str = "garbage") -> None:
    """Damage the result-store row for ``digest``.

    Modes: ``garbage`` (a payload that is not JSON), ``truncate`` (cut
    the payload in half), ``missing-key`` (valid JSON, wrong shape)
    and ``schema`` (a row of another cache schema version).
    ``truncate`` and ``schema`` require an existing row (``KeyError``
    otherwise); the other two create one if absent.
    """
    from repro.harness.engine import CACHE_SCHEMA
    if mode not in ("garbage", "truncate", "missing-key", "schema"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    db = cache.connection()
    if mode in ("garbage", "missing-key"):
        payload = ("{corrupt \x00 not json" if mode == "garbage"
                   else '{"oops": 1}')
        db.execute("INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
                   (digest, CACHE_SCHEMA, payload))
        return
    sql = ("UPDATE results SET payload = substr(payload, 1,"
           " max(1, length(payload) / 2)) WHERE digest = ?"
           if mode == "truncate" else
           "UPDATE results SET schema = schema + 1 WHERE digest = ?")
    if db.execute(sql, (digest,)).rowcount != 1:
        raise KeyError(f"no result-store row for {digest}")
