"""Exclusive-access managers for shared resource pools.

Register sharing (paper Sec. III-A)
    Warp ``i`` of block A pairs with warp ``i`` of block B.  Each pair has
    one lock over its shared register pool.  Two rules govern access:

    * **Per-pair handoff** — "only after W20 finishes execution, W30 can
      access the shared registers": when the holding warp *finishes*, the
      pool passes to its partner warp immediately, even while other warps
      of the holding block still hold their own pools.
    * **Direction rule (Fig. 5)** — a warp may *initiate* (acquire a pool
      whose partner warp is still live) only while no live warp of the
      partner block holds any pool.  This breaks the barrier/lock cycle
      of the paper's deadlock example: the initiating side's warps never
      wait on locks, their barriers involve only their own block, so they
      always drain; the other side's warps wait only on partner-warp
      completion, never on their own block's barriers.

Scratchpad sharing (paper Sec. III-B)
    One lock per block pair over the shared scratchpad region, held by the
    first block to touch it and released when that *block completes*.  A
    single lock cannot deadlock.

The managers are pure state machines over ``side ∈ {0, 1}`` (which member
of the pair) and ``slot`` (warp index within the block); the simulator
maps its block/warp objects onto these.  An optional ``on_release``
callback lets the SM wake warps that were busy-waiting, and an optional
``obs`` adapter (``acquired(side, slot)`` / ``released(side, slot)``,
see :class:`repro.obs.sink._LockObs`) publishes grant/release events to
the observability layer — the groups themselves stay clock-free; the
adapter supplies the timestamps.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["RegisterShareGroup", "ScratchpadShareGroup"]


class RegisterShareGroup:
    """Locks for the shared register pools of one pair of blocks."""

    def __init__(self, n_slots: int) -> None:
        if n_slots < 1:
            raise ValueError("need at least one warp slot")
        self.n_slots = n_slots
        self._holder: list[Optional[int]] = [None] * n_slots
        self._held_count = [0, 0]
        self._finished = [[False] * n_slots, [False] * n_slots]
        self.on_release: Callable[[], None] | None = None
        #: Observability adapter (None = not observed).
        self.obs = None

    # ------------------------------------------------------------------
    def holder(self, slot: int) -> Optional[int]:
        """Side currently holding ``slot``'s shared pool, or None."""
        return self._holder[slot]

    def holds(self, side: int, slot: int) -> bool:
        """True if ``side`` already holds the lock for ``slot``."""
        return self._holder[slot] == side

    def held_by_side(self, side: int) -> int:
        """Number of pools currently held by live warps of ``side``."""
        return self._held_count[side]

    def partner_finished(self, side: int, slot: int) -> bool:
        """True if the partner warp of (side, slot) has finished."""
        return self._finished[1 - side][slot]

    # ------------------------------------------------------------------
    def try_acquire(self, side: int, slot: int) -> bool:
        """Attempt to take slot ``slot``'s shared pool for ``side``.

        Implements Fig. 3 step (e): re-acquiring an already-held pool
        succeeds; a free pool is granted on per-pair handoff (partner
        warp finished) or under the Fig. 5 direction rule.
        """
        if side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        cur = self._holder[slot]
        if cur == side:
            return True
        if cur is not None:
            return False  # live partner warp holds this very pool
        if not self._finished[1 - side][slot] \
                and self._held_count[1 - side] > 0:
            return False  # direction rule: partner side has live holders
        self._holder[slot] = side
        self._held_count[side] += 1
        if self.obs is not None:
            self.obs.acquired(side, slot)
        return True

    def warp_finished(self, side: int, slot: int) -> None:
        """Record warp completion; hands its pool to the partner warp."""
        self._finished[side][slot] = True
        self._release(side, slot)

    def _release(self, side: int, slot: int) -> None:
        if self._holder[slot] == side:
            self._holder[slot] = None
            self._held_count[side] -= 1
            if self.obs is not None:
                self.obs.released(side, slot)
            if self.on_release is not None:
                self.on_release()

    def reset_side(self, side: int) -> None:
        """Block teardown: drop every pool and finished-flag of ``side``
        (a fresh block is about to occupy the side)."""
        for slot in range(self.n_slots):
            self._release(side, slot)
            self._finished[side][slot] = False

    # ------------------------------------------------------------------
    def audit(self) -> list[str]:
        """Re-derive the DESIGN.md §6 lock invariants from raw state.

        Returns violation descriptions (empty list = healthy).  Used by
        the runtime sanitizer; deliberately recomputes everything from
        ``_holder``/``_finished`` rather than trusting the counters it
        is checking.
        """
        v: list[str] = []
        for slot, holder in enumerate(self._holder):
            if holder not in (None, 0, 1):
                v.append(f"reg pool slot {slot}: holder {holder!r} "
                         f"outside {{None, 0, 1}}")
        for side in (0, 1):
            actual = sum(1 for h in self._holder if h == side)
            if actual != self._held_count[side]:
                v.append(f"reg pools: side {side} held-count "
                         f"{self._held_count[side]} != recount {actual} "
                         f"(single-holder bookkeeping broken)")
        # Fig. 5 direction rule: a pool held while its partner warp is
        # still live means that side *initiated*; both sides initiating
        # is the paper's barrier/lock deadlock cycle.
        initiating = {h for slot, h in enumerate(self._holder)
                      if h in (0, 1) and not self._finished[1 - h][slot]}
        if len(initiating) > 1:
            v.append("reg pools: both sides hold pools with live partner "
                     "warps (Fig. 5 direction rule violated)")
        return v


class ScratchpadShareGroup:
    """Lock for the shared scratchpad region of one pair of blocks."""

    def __init__(self) -> None:
        self._holder: Optional[int] = None
        self.on_release: Callable[[], None] | None = None
        #: Observability adapter (None = not observed).
        self.obs = None

    @property
    def holder(self) -> Optional[int]:
        """Side currently holding the shared region, or None."""
        return self._holder

    def holds(self, side: int) -> bool:
        """True if ``side`` holds the shared region."""
        return self._holder == side

    def try_acquire(self, side: int) -> bool:
        """Attempt to take the shared region for ``side`` (Fig. 4 (e))."""
        if side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        if self._holder is None:
            self._holder = side
            if self.obs is not None:
                self.obs.acquired(side, 0)
            return True
        return self._holder == side

    def release(self, side: int) -> None:
        """Release the region if held by ``side`` (block completion)."""
        if self._holder == side:
            self._holder = None
            if self.obs is not None:
                self.obs.released(side, 0)
            if self.on_release is not None:
                self.on_release()

    def audit(self) -> list[str]:
        """Sanitizer check: the single scratchpad lock state is sane."""
        if self._holder not in (None, 0, 1):
            return [f"scratchpad region: holder {self._holder!r} outside "
                    f"{{None, 0, 1}}"]
        return []
