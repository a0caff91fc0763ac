"""Scheduler interface: one ``select`` per policy, shared by both cores.

Each SM has ``num_schedulers`` scheduler instances (Table I: two); warps
are statically partitioned by ``dynamic_id % num_schedulers``, mirroring
GPGPU-Sim.  A scheduler owns its *static partition* ``warps`` — every
resident warp of the partition, appended at launch and therefore in
ascending ``dynamic_id`` (launch age) — plus ``n_ready``, the number of
those warps in the READY state, which the SM keeps up to date on every
state transition.

Each policy is a single method, ``select(port_free)``.  It scans
``warps`` in id order, keeps only warps whose ``state`` is READY and,
when ``port_free`` is false (the SM's single LD/ST port already issued
this cycle), drops warps whose next instruction uses the port.  Id
order is the order every policy is defined over: LRR rotates through
it, GTO/OWF take the oldest, two-level walks it in fetch groups.  The
SM then attempts the issue and on success records the warp as
``last``, the one piece of history LRR, GTO and OWF read; if the
warp turns out to be blocked (shared-pool lock, Dyn refusal, MSHR
rejection) it leaves READY and ``select`` is consulted again in the
same cycle.  The fast and the reference SM core call the same
``select``.

A policy that keeps more history than ``last`` overrides
``on_issued``; the fast core calls it only for such a policy (two-level
today) and otherwise sets ``last`` itself, saving a call per issue.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["WarpScheduler", "make_scheduler", "SCHEDULERS"]


class WarpScheduler:
    """Base class; subclasses implement :meth:`select`."""

    name = "base"

    def __init__(self, sched_id: int, **_: object) -> None:
        self.sched_id = sched_id
        #: Static partition: every resident warp, ascending dynamic_id.
        self.warps: list["WarpContext"] = []
        #: Number of READY warps in the partition.
        self.n_ready = 0
        self.last: Optional["WarpContext"] = None

    def on_ready(self, warp: "WarpContext") -> None:
        """Register a newly launched (READY) warp with this scheduler."""
        self.warps.append(warp)
        self.n_ready += 1

    def on_issued(self, warp: "WarpContext") -> None:
        """Record ``warp`` as the last issued warp of this partition."""
        self.last = warp

    def select(self, port_free: bool) -> Optional["WarpContext"]:
        """Choose a READY warp (only non-port ones unless ``port_free``)."""
        raise NotImplementedError


def make_scheduler(name: str, sched_id: int, *,
                   fetch_group_size: int = 8) -> WarpScheduler:
    """Factory over the registered scheduling policies."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls(sched_id, fetch_group_size=fetch_group_size)


# Populated by the policy modules at import time (see package __init__).
SCHEDULERS: dict[str, type[WarpScheduler]] = {}
