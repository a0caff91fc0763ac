"""Owner Warp First — the paper's scheduler (Sec. IV-A).

Priority classes: **shared owner** (0) > **unshared** (1) > **shared
non-owner** (2).  Owner warps finish sooner so their dependent non-owner
warps unblock; non-owner warps run only when nothing else can, so their
memory traffic does not interfere with the rest of the SM.

Within a class the policy is greedy-then-oldest.  When no shared blocks
exist every warp is class 1 and OWF degenerates to exactly GTO — the
paper leans on this for its Set-3 analysis ("Shared-OWF ... is similar
to Unshared-GTO"), and our tests assert it cycle-for-cycle.

Class membership is read at select time from ``SharePair.owner``
(ownership moves when locks are acquired or a partner block completes),
so no per-class containers are kept.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sched.base import SCHEDULERS, WarpScheduler
from repro.sim.warp import WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["OWFScheduler"]

_READY = WarpState.READY


class OWFScheduler(WarpScheduler):
    """Owner > unshared > non-owner; greedy-then-oldest within a class."""

    name = "owf"

    def select(self, port_free: bool) -> Optional["WarpContext"]:
        last = self.last
        if (last is not None and last.state is _READY
                and (port_free or not last.instr.uses_port)):
            blk = last.block
            pair = blk.pair
            if pair is not None and pair.owner == blk.side:
                return last  # nothing outranks a sticky owner
        best: Optional["WarpContext"] = None
        best_cls = 3
        for w in self.warps:  # id order ⇒ first hit per class is oldest
            if w.state is not _READY or (not port_free
                                          and w.instr.uses_port):
                continue
            # Inlined owf_class(): this loop runs for every ready warp
            # on every select of the paper's headline scheduler.
            blk = w.block
            pair = blk.pair
            cls = 1 if pair is None else (0 if pair.owner == blk.side else 2)
            if cls < best_cls:
                best = w
                best_cls = cls
                if cls == 0:
                    break
        if best is None:
            return None
        if (last is not None and last is not best
                and last.state is _READY
                and last.owf_class() == best_cls
                and (port_free or not last.instr.uses_port)):
            return last  # greedy stickiness within the winning class
        return best


SCHEDULERS["owf"] = OWFScheduler
