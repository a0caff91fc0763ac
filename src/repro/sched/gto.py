"""Greedy-Then-Oldest: stick with the last warp, else oldest ready."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sched.base import SCHEDULERS, WarpScheduler
from repro.sim.warp import WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["GTOScheduler"]

_READY = WarpState.READY


class GTOScheduler(WarpScheduler):
    """GTO keeps issuing from one warp until it stalls, then the oldest."""

    name = "gto"

    def select(self, port_free: bool) -> Optional["WarpContext"]:
        last = self.last
        if (last is not None and last.state is _READY
                and (port_free or not last.instr.uses_port)):
            return last
        for w in self.warps:  # ascending dynamic id == age
            if w.state is _READY and (port_free or not w.instr.uses_port):
                return w
        return None


SCHEDULERS["gto"] = GTOScheduler
