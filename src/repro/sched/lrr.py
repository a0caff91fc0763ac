"""Loose Round Robin — the paper's baseline scheduler (Table I)."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sched.base import SCHEDULERS, WarpScheduler
from repro.sim.warp import WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["LRRScheduler"]

_READY = WarpState.READY


class LRRScheduler(WarpScheduler):
    """Rotate through ready warps, resuming after the last issued id."""

    name = "lrr"

    def select(self, port_free: bool) -> Optional["WarpContext"]:
        last = self.last
        after = -1 if last is None else last.dynamic_id
        wrap = None  # oldest candidate, taken when none is after ``after``
        for w in self.warps:
            if w.state is _READY and (port_free or not w.instr.uses_port):
                if w.dynamic_id > after:
                    return w
                if wrap is None:
                    wrap = w
        return wrap


SCHEDULERS["lrr"] = LRRScheduler
