"""Two-level warp scheduling (Narasiman et al., MICRO-44).

Warps are partitioned into *fetch groups* of ``fetch_group_size``
consecutive dynamic ids.  The scheduler round-robins *within* the active
group and only moves to the next group when no warp of the active group
can issue — so groups drift out of lockstep and long latencies are
covered by the next group while the active one waits.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sched.base import SCHEDULERS, WarpScheduler
from repro.sim.warp import WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["TwoLevelScheduler"]

_READY = WarpState.READY


class TwoLevelScheduler(WarpScheduler):
    """Fetch-group round robin with group switching on stall."""

    name = "two_level"

    def __init__(self, sched_id: int, *, fetch_group_size: int = 8,
                 **kw: object) -> None:
        super().__init__(sched_id, **kw)
        if fetch_group_size < 1:
            raise ValueError("fetch_group_size must be >= 1")
        self.group_size = fetch_group_size
        self._active_group = 0

    def select(self, port_free: bool) -> Optional["WarpContext"]:
        gs = self.group_size
        g = self._active_group
        last = self.last
        after = -1 if last is None else last.dynamic_id
        # Pass 1: round-robin inside the active group.
        wrap = None
        for w in self.warps:
            if (w.state is _READY and (port_free or not w.instr.uses_port)
                    and w.dynamic_id // gs == g):
                if w.dynamic_id > after:
                    return w
                if wrap is None:
                    wrap = w
        if wrap is not None:
            return wrap
        # Pass 2: nothing in the active group can issue, so the oldest
        # candidate belongs to another group (ordered by id, i.e. group
        # age) — switch to it.
        for w in self.warps:
            if w.state is _READY and (port_free or not w.instr.uses_port):
                self._active_group = w.dynamic_id // gs
                return w
        return None

    def on_issued(self, warp: "WarpContext") -> None:
        self.last = warp
        self._active_group = warp.dynamic_id // self.group_size

    def in_active_group(self, warp: "WarpContext") -> bool:
        """True when pass 1 can pick ``warp``, so that selecting it
        leaves the active group as it is."""
        return warp.dynamic_id // self.group_size == self._active_group


SCHEDULERS["two_level"] = TwoLevelScheduler
