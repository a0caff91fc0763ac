"""Failure isolation primitives for the execution engine.

A production-scale harness cannot let one bad run abort a whole batch:
a ``SimulationDeadlock`` in one (app × mode) cell, a worker process
killed by the OS, or a hung simulation must degrade to a *structured
record* while the remaining runs complete.  This module defines that
vocabulary; :mod:`repro.harness.engine` implements the mechanics
(watchdog, retries, backoff) and :mod:`repro.harness.faults` provides
the deterministic fault-injection harness that proves them.

* :class:`RunFailure` — the per-run failure record the engine returns
  in place of a :class:`~repro.sim.stats.RunResult`: category, exception
  type, spec digest, attempt count and a traceback tail.  JSON
  round-trips so reports and CI artifacts can persist it.
* :class:`RetryPolicy` — bounded retries with exponential backoff for
  *transient* failures (worker crashes / ``BrokenProcessPool``).
  Deterministic simulation errors (deadlock, cycle-limit, sanitizer)
  are never retried: re-running a deterministic sim reproduces them.
* :class:`BatchReport` — partition of a mixed result list, with a
  one-line summary for CLI footers.
* :func:`categorize` — exception → failure-category mapping shared by
  every path (inline or pool executor, watchdog).

Failure categories: ``deadlock`` | ``limit`` | ``sanitizer`` |
``crash`` | ``timeout`` | ``error`` | ``cancelled``.  Only ``crash``
(and optionally ``timeout``) is transient.  ``cancelled`` is special:
the run never started — the engine's cooperative cancellation token
(see :meth:`Engine.run_batch`) was set before it could be dispatched.
Cancelled slots are not counted as failures and never retried; callers
that requested the cancellation (the service's drain logic) requeue
them.
"""

from __future__ import annotations

import traceback
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.sim.gpu import SimulationDeadlock, SimulationLimitExceeded
from repro.sim.sanitizer import SanitizerViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.engine import RunSpec
    from repro.sim.stats import RunResult

__all__ = ["RunFailure", "RetryPolicy", "BatchReport", "RunTimeoutError",
           "RunCancelled", "categorize", "CATEGORIES"]

#: Every category the engine can emit.
CATEGORIES = ("deadlock", "limit", "sanitizer", "crash", "timeout", "error",
              "cancelled")

#: Lines of remote/local traceback kept in a failure record.
_TB_TAIL_LINES = 12


class RunTimeoutError(RuntimeError):
    """A run exceeded the engine's per-run wall-clock budget."""


class RunCancelled(RuntimeError):
    """A run was cancelled by the batch's cancellation token before it
    started; its slot holds a ``category="cancelled"`` record."""


def categorize(exc: BaseException) -> str:
    """Failure category for an exception (see :data:`CATEGORIES`)."""
    if isinstance(exc, SimulationDeadlock):
        return "deadlock"
    if isinstance(exc, SimulationLimitExceeded):
        return "limit"
    if isinstance(exc, SanitizerViolation):
        return "sanitizer"
    if isinstance(exc, RunTimeoutError):
        return "timeout"
    if isinstance(exc, RunCancelled):
        return "cancelled"
    if isinstance(exc, BrokenExecutor) or _is_injected_crash(exc):
        return "crash"
    return "error"


def _is_injected_crash(exc: BaseException) -> bool:
    # Soft-mode injected crashes (see faults.InjectedCrash) must map to
    # the same category as a real worker death; imported lazily so the
    # two modules stay import-cycle free.
    from repro.harness.faults import InjectedCrash
    return isinstance(exc, InjectedCrash)


def _traceback_tail(exc: BaseException, limit: int = _TB_TAIL_LINES) -> str:
    """Last ``limit`` lines of the (possibly remote) traceback."""
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    # concurrent.futures attaches the worker-side traceback text as the
    # __cause__ (_RemoteTraceback); format_exception already includes it.
    text = "".join(lines).rstrip()
    return "\n".join(text.splitlines()[-limit:])


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one failed run (the non-result).

    Returned by :meth:`Engine.run_batch` at the failed spec's position,
    so partial batches stay index-aligned with their inputs.  Callers
    distinguish with ``isinstance(r, RunFailure)`` (or :attr:`ok`).
    """

    category: str          #: one of :data:`CATEGORIES`
    exception_type: str    #: class name of the underlying exception
    message: str           #: str(exception), first source of diagnosis
    spec_digest: str       #: RunSpec.digest() of the failed run
    app: str               #: app name (or "kernel:<fp>" for ad-hoc kernels)
    mode: str              #: Mode.label of the failed run
    attempts: int = 1      #: execution attempts consumed (retries + 1)
    elapsed: float = 0.0   #: wall seconds spent on the final attempt
    traceback_tail: str = ""  #: last lines of the (remote) traceback

    #: Symmetric with RunResult-like duck typing in report code.
    ok = False

    @classmethod
    def from_exception(cls, spec: "RunSpec", digest: str,
                       exc: BaseException, attempts: int,
                       elapsed: float = 0.0) -> "RunFailure":
        """Build a record from the exception a run died with."""
        return cls(category=categorize(exc),
                   exception_type=type(exc).__name__,
                   message=str(exc),
                   spec_digest=digest,
                   app=spec.app if spec.app is not None
                   else f"kernel:{spec.kernel_fp}",
                   mode=spec.mode.label,
                   attempts=attempts,
                   elapsed=round(elapsed, 6),
                   traceback_tail=_traceback_tail(exc))

    def to_dict(self) -> dict:
        """JSON-serializable form (exact :meth:`from_dict` round trip)."""
        return {
            "category": self.category,
            "exception_type": self.exception_type,
            "message": self.message,
            "spec_digest": self.spec_digest,
            "app": self.app,
            "mode": self.mode,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "traceback_tail": self.traceback_tail,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunFailure":
        """Inverse of :meth:`to_dict`."""
        return cls(**d)

    def describe(self) -> str:
        """One line for CLI failure listings."""
        first = self.message.splitlines()[0] if self.message else ""
        return (f"{self.app} / {self.mode}: {self.category} "
                f"({self.exception_type}, attempt {self.attempts}) — {first}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff for transient failures.

    ``delay(n)`` after the n-th failed attempt is
    ``min(backoff_max, backoff_base * backoff_factor ** (n - 1))``
    seconds.  Only categories in :attr:`retry_categories` (plus
    ``timeout`` when :attr:`retry_timeouts`) are retried; deterministic
    simulation failures always fail immediately.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 4.0
    backoff_max: float = 2.0
    retry_timeouts: bool = False
    retry_categories: frozenset = frozenset({"crash"})

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff_base >= 0 and backoff_factor >= 1")

    def retryable(self, category: str) -> bool:
        """True if a failure of ``category`` should be retried."""
        if category == "timeout":
            return self.retry_timeouts
        return category in self.retry_categories

    def delay(self, failed_attempts: int) -> float:
        """Backoff before the next attempt, after ``failed_attempts``."""
        if failed_attempts < 1:
            return 0.0
        return min(self.backoff_max,
                   self.backoff_base
                   * self.backoff_factor ** (failed_attempts - 1))


@dataclass
class BatchReport:
    """Partition of a mixed ``run_batch`` result list."""

    results: list = field(default_factory=list)    #: RunResult entries
    failures: list = field(default_factory=list)   #: RunFailure entries

    @classmethod
    def from_results(cls, mixed: Sequence) -> "BatchReport":
        """Split an index-aligned result list into ok / failed."""
        rep = cls()
        for r in mixed:
            (rep.failures if isinstance(r, RunFailure)
             else rep.results).append(r)
        return rep

    @property
    def ok(self) -> bool:
        """True when no run failed."""
        return not self.failures

    def by_category(self) -> dict[str, int]:
        """Failure counts per category."""
        counts: dict[str, int] = {}
        for f in self.failures:
            counts[f.category] = counts.get(f.category, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line footer fragment, e.g. ``2 failed (crash:1, timeout:1)``."""
        if self.ok:
            return "all ok"
        cats = ", ".join(f"{k}:{v}" for k, v in sorted(self.by_category()
                                                       .items()))
        return f"{len(self.failures)} failed ({cats})"

    def render(self) -> str:
        """Multi-line failure listing for CLIs."""
        return "\n".join("  !! " + f.describe() for f in self.failures)


def split_results(mixed: Iterable) -> tuple[list, list["RunFailure"]]:
    """Convenience: ``(ok_results, failures)`` from a mixed list."""
    rep = BatchReport.from_results(list(mixed))
    return rep.results, rep.failures
