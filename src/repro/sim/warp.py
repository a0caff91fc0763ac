"""Warp execution context: trace pointer, scoreboard, wait state."""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

from repro.isa.instructions import Instr
from repro.isa.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.block import BlockContext

__all__ = ["WarpState", "WarpContext", "REG_PENDING"]

#: Scoreboard sentinel: register has an outstanding (memory) write whose
#: completion cycle is unknown.
REG_PENDING = 1 << 62


def _warp_repeats(kernel: Kernel, block_linear: int,
                  slot: int) -> tuple[int, ...]:
    """Per-segment trip counts for one warp under ``work_variance``."""
    v = kernel.work_variance
    if v == 0.0:
        return tuple(seg.repeat for seg in kernel.segments)
    from repro.mem.request import mix64
    out = []
    for si, seg in enumerate(kernel.segments):
        if seg.repeat > 1:
            h = mix64(kernel.seed * 1000003 + block_linear * 8191
                      + slot * 131 + si)
            m = 1.0 + v * (2.0 * (h / 2.0 ** 64) - 1.0)
            out.append(max(1, round(seg.repeat * m)))
        else:
            out.append(seg.repeat)
    return tuple(out)


class WarpState(IntEnum):
    """Why a warp is (not) schedulable."""

    READY = 0        # may issue its next instruction
    BLOCK_SB = 1     # scoreboard hazard, wake cycle known
    BLOCK_MEM = 2    # waiting for an outstanding load (wake on response)
    BLOCK_BAR = 3    # waiting at a barrier
    BLOCK_LOCK = 4   # busy-waiting for a shared resource lock
    BLOCK_DYN = 5    # refused by the Dyn controller until window end
    BLOCK_RETRY = 6  # structural hazard (MSHR full), timed retry
    FINISHED = 7


class WarpContext:
    """One resident warp."""

    __slots__ = (
        "dynamic_id", "slot", "block", "kernel",
        "_seg", "_pc", "_instrs", "iter_idx", "repeats",
        "reg_ready", "outstanding_loads",
        "state", "wake_token", "issued", "shared_done",
        "instr", "sched", "pend_valid", "pend_lines", "pend_gen",
    )

    def __init__(self, dynamic_id: int, slot: int, block: "BlockContext",
                 kernel: Kernel) -> None:
        #: SM-wide launch sequence number; GTO age and LRR order key.
        self.dynamic_id = dynamic_id
        #: Index of this warp within its thread block (pairing slot).
        self.slot = slot
        self.block = block
        self.kernel = kernel
        self._seg = 0
        self._pc = 0
        #: Loop iteration (segment repetition) of the current instruction.
        self.iter_idx = 0
        #: The current segment's instruction list (hot in :meth:`advance`).
        self._instrs = kernel.segments[0].instrs
        #: Per-segment trip counts, scaled by the kernel's work_variance
        #: with a deterministic per-(block, warp, segment) factor.
        self.repeats = _warp_repeats(kernel, block.linear_id, slot)
        #: Per-register ready cycle; REG_PENDING while a load is in flight.
        self.reg_ready = [0] * kernel.regs_per_thread
        self.outstanding_loads = 0
        self.state = WarpState.READY
        #: Invalidates stale timed wake events after state changes.
        self.wake_token = 0
        #: Dynamic instructions issued by this warp (conservation checks).
        self.issued = 0
        #: Early-release extension: set once live-range analysis proves
        #: this warp will never touch its shared register pool again.
        self.shared_done = False
        #: The next instruction to issue, kept in sync by :meth:`advance`
        #: (caching it avoids two indexed lookups per scheduler probe).
        self.instr: Instr = kernel.segments[0].instrs[0]
        #: Scheduler this warp is partitioned onto (set at launch).
        self.sched = None
        #: Pending-access cache: coalesced line addresses of a global
        #: access that was rejected by a full MSHR array.  The line set
        #: of a dynamic access is a pure function of the trace position,
        #: and :meth:`advance` clears ``pend_valid`` whenever the
        #: position moves, so while the flag is set the cache belongs to
        #: the current instruction and MSHR retries reuse it instead of
        #: re-coalescing.  ``pend_gen`` snapshots the L1 mutation
        #: generation at the failed attempt: if it is unchanged at retry
        #: time, the L1's admission decision is provably identical and
        #: the reject is replayed in O(1) (see SMCore._gate).
        self.pend_valid = False
        self.pend_lines: tuple[int, ...] = ()
        self.pend_gen = -1

    # ------------------------------------------------------------------
    # trace navigation
    # ------------------------------------------------------------------
    @property
    def current_instr(self) -> Instr:
        """The next instruction this warp will issue."""
        return self.instr

    def advance(self) -> None:
        """Move the trace pointer past the just-issued instruction."""
        instrs = self._instrs
        pc = self._pc + 1
        if pc < len(instrs):
            # Common case: next instruction in the same segment pass.
            self._pc = pc
            self.instr = instrs[pc]
            self.pend_valid = False
            return
        self._pc = 0
        rep = self.iter_idx + 1
        if rep == self.repeats[self._seg]:
            rep = 0
            self._seg += 1
            # EXIT is the last instruction; the SM marks the warp
            # FINISHED instead of advancing past the end.
            self._instrs = instrs = self.kernel.segments[self._seg].instrs
        self.iter_idx = rep
        self.instr = instrs[0]
        self.pend_valid = False

    @property
    def trace_position(self) -> tuple[int, int, int]:
        """Current (segment, repetition, pc) — the next instruction."""
        return (self._seg, self.iter_idx, self._pc)

    @property
    def expected_instructions(self) -> int:
        """Dynamic instructions this warp will issue in total."""
        return sum(len(seg.instrs) * rep for seg, rep
                   in zip(self.kernel.segments, self.repeats))

    # ------------------------------------------------------------------
    # scoreboard
    # ------------------------------------------------------------------
    def earliest_issue(self) -> int:
        """Cycle at which the current instruction's operands are ready.

        ``REG_PENDING`` means some operand waits on an in-flight load.
        """
        ready = 0
        rr = self.reg_ready
        for r in self.instr.regs:
            v = rr[r]
            if v > ready:
                ready = v
        return ready

    # ------------------------------------------------------------------
    # classification (paper: unshared / shared owner / shared non-owner)
    # ------------------------------------------------------------------
    def owf_class(self) -> int:
        """0 = shared owner, 1 = unshared, 2 = shared non-owner."""
        pair = self.block.pair
        if pair is None:
            return 1
        return 0 if pair.owner == self.block.side else 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Warp id={self.dynamic_id} blk={self.block.linear_id} "
                f"slot={self.slot} {self.state.name}>")
