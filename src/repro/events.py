"""Deterministic event queue for the cycle simulator.

A single global heap drives everything that is not per-cycle scheduler
work: memory responses, DRAM bank wakeups, lock releases, monitoring
windows.  Events at the same cycle fire in insertion order (a sequence
number breaks ties), so simulations are bit-reproducible.

Two kinds of entries live in the heap:

* **callback events** (:meth:`push`) — an arbitrary ``fn(cycle)``;
* **warp wakes** (:meth:`push_wake`) — the timed-retry pattern of the SM
  (scoreboard wake, MSHR retry, Dyn cooldown), stored as a plain
  ``(sm, warp, token)`` record and dispatched inline by
  :meth:`run_due`.  A wake whose warp changed state since it was pushed
  (``wake_token`` mismatch) is dropped; a valid wake always makes the
  warp READY (operand readiness can only improve while a warp is
  blocked, so re-deriving the scoreboard state is redundant — see
  docs/performance.md).  This replaces one closure allocation plus two
  Python frames per wake on the simulator's hottest path.

  Wakes of MSHR-rejected warps (``BLOCK_RETRY``) are the exception:
  they settle after the cycle's last event has fired, per SM, through
  ``SMCore.settle_retries``, which may *park* the warps instead of
  making them READY when a retry could only be rejected again.
"""

from __future__ import annotations

import heapq
from typing import Callable, TYPE_CHECKING

from repro.sim.warp import WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.sm import SMCore
    from repro.sim.warp import WarpContext

__all__ = ["EventQueue"]

_READY = WarpState.READY
_BLOCK_RETRY = WarpState.BLOCK_RETRY
_heappush = heapq.heappush

#: A heap entry: ``(cycle, seq, payload)``.  The payload is a callback
#: or a wake record; ``seq`` is unique, so payloads are never compared.
Event = tuple


class EventQueue:
    """Min-heap of ``(cycle, seq, payload)`` events."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._heap)

    def push(self, cycle: int, fn: Callable[[int], None]) -> None:
        """Schedule ``fn`` to run at ``cycle``.

        The callback receives the cycle at which it actually fires (the
        current simulation time), which equals the scheduled cycle in
        normal stepping and may be later after a bulk skip.
        """
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        _heappush(self._heap, (cycle, self._seq, fn))
        self._seq += 1

    def push_wake(self, cycle: int, sm: "SMCore",
                  warp: "WarpContext") -> None:
        """Schedule ``warp`` (blocked on ``sm``) to wake READY at
        ``cycle``.  The warp's current ``wake_token`` is captured; any
        later state change invalidates the wake."""
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        _heappush(self._heap,
                  (cycle, self._seq, (sm, warp, warp.wake_token)))
        self._seq += 1

    def next_cycle(self) -> int | None:
        """Cycle of the earliest event, or None if empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def run_due(self, cycle: int) -> int:
        """Fire every event scheduled at or before ``cycle``.

        Events may push new events; newly pushed events due at or before
        ``cycle`` also fire this call.  MSHR-retry wakes are collected
        per SM and settled after the last of them (see the module
        docstring).  Returns the number fired.
        """
        n = 0
        heap = self._heap
        pop = heapq.heappop
        retries: dict["SMCore", list["WarpContext"]] | None = None
        while heap and heap[0][0] <= cycle:
            payload = pop(heap)[2]
            if type(payload) is tuple:
                sm, warp, token = payload
                if warp.wake_token == token:
                    if (warp.state is _BLOCK_RETRY
                            and sm._parked is not None):
                        if retries is None:
                            retries = {}
                        retries.setdefault(sm, []).append(warp)
                    else:
                        sm.now = cycle
                        sm._set_state(warp, _READY)
            else:
                payload(cycle)
            n += 1
        if retries is not None:
            for sm, warps in retries.items():
                sm.settle_retries(warps, cycle)
        return n
