"""Issue-trace recording for debugging and teaching.

:class:`TraceRecorder` is an :class:`~repro.obs.sink.ObsSink` that keeps
every instruction issue as a :class:`TraceEvent` and offers simple
queries plus a compact textual timeline — useful for demonstrating,
e.g., exactly when a non-owner warp blocks on a shared pool and when
the handoff wakes it.  Attach it like any other sink (``obs=``); the
hot path stays untouched when no sink is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.sink import ObsSink
from repro.sim.warp import WarpContext

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One issued instruction."""

    cycle: int
    sm: int
    warp: int
    block: int
    slot: int
    op: str
    #: 0 owner / 1 unshared / 2 non-owner at issue time.
    warp_class: int


class TraceRecorder(ObsSink):
    """Record every issue of a GPU run.

    Usage::

        trace = TraceRecorder()
        result = GPU(kernel, cfg, plan=plan, obs=trace).run()
        print(trace.timeline(sm=0, first=40))

    or ``runner.run(app, mode, obs=trace)``.  Simulated behaviour is
    identical with or without the recorder.
    """

    enabled = True

    def __init__(self, *, max_events: int = 1_000_000) -> None:
        self.events: list[TraceEvent] = []
        self.max_events = max_events
        #: True if the event cap was hit (the log is a prefix).
        self.truncated = False

    def issued(self, sm_id: int, sched_id: int, warp: WarpContext,
               cycle: int) -> None:
        # Both cores call this after the instruction's side effects but
        # before advance() / _finish_warp, so ``warp.instr`` is the
        # issued instruction and the block still holds its pair.
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        block = warp.block
        self.events.append(TraceEvent(
            cycle=cycle, sm=sm_id, warp=warp.dynamic_id,
            block=block.linear_id, slot=warp.slot, op=warp.instr.op.name,
            warp_class=warp.owf_class() if block.pair is not None else 1))

    # ------------------------------------------------------------------
    def for_sm(self, sm: int) -> list[TraceEvent]:
        """Events of one SM, in issue order."""
        return [e for e in self.events if e.sm == sm]

    def for_warp(self, sm: int, warp: int) -> list[TraceEvent]:
        """Events of one warp."""
        return [e for e in self.events if e.sm == sm and e.warp == warp]

    def issue_gaps(self, sm: int, warp: int) -> list[int]:
        """Cycle gaps between consecutive issues of one warp — long gaps
        are stalls (memory, locks, barriers)."""
        ev = self.for_warp(sm, warp)
        return [b.cycle - a.cycle for a, b in zip(ev, ev[1:])]

    def timeline(self, sm: int = 0, first: int = 50) -> str:
        """Compact textual timeline of one SM's first ``first`` issues."""
        cls_tag = {0: "OWN", 1: "UNS", 2: "NON"}
        lines = [f"cycle  warp blk slot cls  op  (SM{sm})"]
        for e in self.for_sm(sm)[:first]:
            lines.append(f"{e.cycle:6d} w{e.warp:<3d} b{e.block:<3d} "
                         f"s{e.slot:<2d} {cls_tag[e.warp_class]} {e.op}")
        return "\n".join(lines)
