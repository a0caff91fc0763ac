"""Reference SM core: the original scan-based implementation.

:class:`ReferenceSMCore` preserves the pre-optimisation hot path
verbatim — closure-based timed wakes, ``op_group`` dictionary lookups,
full re-coalescing and admission scans on every MSHR retry, and
O(warps) ``classify``/``has_ready`` scans of the resident warps.  It
inherits the fast core's ``_set_state``, which keeps ``n_ready`` and
the category counters, but never reads them.  It exists purely as the
differential-testing oracle for the fast core (``GPU(core="reference")``):
both cores must produce bit-identical :class:`RunResult`\\ s on every
configuration, which ``tests/test_core_equivalence.py`` asserts against
committed golden fingerprints.

Policy choice is the one thing it does not check independently: both
cores call the same ``select`` of the scheduler (``repro.sched``).
Policy semantics are pinned instead by ``golden_core.json``, captured
from the core before it was split into fast and reference and covering
all four schedulers, and by the unit tests in
``tests/test_schedulers.py``.

Do not optimise this module.  Its value is that it stays dumb.
"""

from __future__ import annotations

from typing import Callable

from repro.core.sharing import SharedResource
from repro.isa.opcodes import Op
from repro.mem.request import coalesce_lines
from repro.sched.base import WarpScheduler
from repro.sim.sm import (_BANK_CONFLICT, _DYN_COOLDOWN, _GROUP, _MSHR_RETRY,
                          _STALL_STATES, SMCore)
from repro.sim.warp import REG_PENDING, WarpContext, WarpState

__all__ = ["ReferenceSMCore"]


class ReferenceSMCore(SMCore):
    """SM core with the original (unoptimised) issue and scan logic."""

    def _timed_wake(self, warp: WarpContext, at: int,
                    expected: WarpState) -> None:
        """Original closure-based timed wake (re-derives readiness)."""
        token = warp.wake_token

        def _fire(cycle: int) -> None:
            if warp.wake_token == token and warp.state is expected:
                self.now = cycle
                self._update_readiness(warp, cycle)

        self.events.push(at, _fire)

    def _update_readiness(self, warp: WarpContext, cycle: int) -> None:
        """Re-derive a warp's scoreboard wait state for its next instr."""
        e = warp.earliest_issue()
        if e >= REG_PENDING:
            self._set_state(warp, WarpState.BLOCK_MEM)
        elif e <= cycle + 1:
            self._set_state(warp, WarpState.READY)
        else:
            self._set_state(warp, WarpState.BLOCK_SB)
            self._timed_wake(warp, e, WarpState.BLOCK_SB)

    def has_ready(self) -> bool:
        """True if any resident warp is READY (scan, not ``n_ready``)."""
        return any(w.state is WarpState.READY for w in self.warps)

    def step(self, cycle: int) -> int:
        """Run one SM cycle; returns instructions issued (0..2)."""
        self.now = cycle
        self._mem_port_free = True
        issued = 0
        for sched in self.schedulers:
            while True:
                w = sched.select(self._mem_port_free)
                if w is None:
                    break
                if self._try_issue(w, cycle, sched):
                    issued += 1
                    break
                # otherwise the warp blocked and left READY; give the
                # scheduler another chance this cycle.
        return issued

    def classify(self) -> str:
        """Classify a no-issue cycle by scanning every resident warp."""
        saw_warp = False
        for w in self.warps:
            st = w.state
            if st in _STALL_STATES:
                return "stall"
            if st is not WarpState.FINISHED:
                saw_warp = True
        return "idle" if saw_warp else "empty"

    def _try_issue(self, warp: WarpContext, cycle: int,
                   sched: WarpScheduler) -> bool:
        ins = warp.current_instr
        grp = _GROUP[ins.op]
        block = warp.block
        pair = block.pair
        stats = self.stats

        # --- Dyn gate (Sec. IV-C): non-owner global memory only ---
        if (self.dyn is not None and grp == "global" and pair is not None
                and warp.owf_class() == 2):
            if (not self.dyn.allow(self.sm_id)
                    and not self._dyn_critical(warp)):
                stats.dyn_refusals += 1
                if self._obs_on:
                    self.obs.dyn_refusal(self.sm_id, warp, cycle)
                self._set_state(warp, WarpState.BLOCK_DYN)
                self._dyn_blocked.append(warp)
                self._timed_wake(warp, cycle + _DYN_COOLDOWN,
                                 WarpState.BLOCK_DYN)
                return False

        # --- register sharing access check (Fig. 3) ---
        if (self.sharing is not None
                and self.sharing.resource is SharedResource.REGISTERS
                and pair is not None):
            pr = self.sharing.private_regs
            if any(r >= pr for r in ins.regs):
                g = pair.reg_group
                assert g is not None
                if not g.holds(block.side, warp.slot):
                    if g.try_acquire(block.side, warp.slot):
                        stats.lock_acquires += 1
                        pair.note_acquired(block.side)
                    else:
                        stats.lock_waits += 1
                        self._set_state(warp, WarpState.BLOCK_LOCK)
                        self._lock_blocked.append(warp)
                        return False

        # --- scratchpad sharing access check (Fig. 4) ---
        smem_off = 0
        if grp == "shared":
            m = ins.mem
            assert m is not None
            smem_off = (m.offset if m.wrap == 0
                        else (m.offset + warp.iter_idx * m.stride) % m.wrap)
            if (self.sharing is not None
                    and self.sharing.resource is SharedResource.SCRATCHPAD
                    and pair is not None
                    and smem_off >= self.sharing.private_smem):
                g = pair.spad_group
                assert g is not None
                if not g.holds(block.side):
                    if g.try_acquire(block.side):
                        stats.lock_acquires += 1
                        pair.note_acquired(block.side)
                    else:
                        stats.lock_waits += 1
                        self._set_state(warp, WarpState.BLOCK_LOCK)
                        self._lock_blocked.append(warp)
                        return False

        # --- execute side effects ---
        if grp == "global":
            m = ins.mem
            assert m is not None
            lines = coalesce_lines(
                m, self.amap, block_linear=block.linear_id,
                warp_in_block=warp.slot, warps_per_block=block.n_warps,
                iter_idx=warp.iter_idx, line_size=self.cfg.line_size,
                seed=self.kernel.seed)
            if ins.op is Op.LDG:
                dst = ins.dst
                on_done: Callable[[int], None] = (
                    lambda c, w=warp, d=dst: self._on_load_done(w, d, c))
                if not self.hierarchy.try_load(self.sm_id, lines, cycle,
                                               on_done):
                    stats.mshr_stalls += 1
                    self._set_state(warp, WarpState.BLOCK_RETRY)
                    self._timed_wake(warp, cycle + _MSHR_RETRY,
                                     WarpState.BLOCK_RETRY)
                    return False
                for r in dst:
                    warp.reg_ready[r] = REG_PENDING
                warp.outstanding_loads += 1
            else:
                self.hierarchy.store(self.sm_id, lines, cycle)
            self._mem_port_free = False
            stats.mem_instructions += 1
        elif grp == "shared":
            m = ins.mem
            assert m is not None
            # An n-way bank conflict serialises into n bank accesses.
            lat = self.lat.scratchpad + (m.conflicts - 1) * _BANK_CONFLICT
            for r in ins.dst:
                warp.reg_ready[r] = cycle + lat
            self._mem_port_free = False
            stats.mem_instructions += 1
        elif grp == "alu":
            for r in ins.dst:
                warp.reg_ready[r] = cycle + self.lat.alu
        elif grp == "sfu":
            for r in ins.dst:
                warp.reg_ready[r] = cycle + self.lat.sfu

        # --- retire bookkeeping ---
        warp.issued += 1
        stats.instructions += 1
        if self._obs_on:
            self.obs.issued(self.sm_id, sched.sched_id, warp, cycle)
        cls = warp.owf_class()
        if cls == 0:
            stats.issued_owner += 1
        elif cls == 1:
            stats.issued_unshared += 1
        else:
            stats.issued_nonowner += 1
        sched.on_issued(warp)

        if grp == "exit":
            self._finish_warp(warp, cycle)
            return True

        warp.advance()
        if self.liveness is not None:
            self._maybe_early_release(warp)

        if grp == "bar":
            block.bar_count += 1
            if block.bar_count == block.n_warps:
                block.bar_count = 0
                stats.barriers += 1
                for w2 in block.warps:
                    if w2.state is WarpState.BLOCK_BAR:
                        self._update_readiness(w2, cycle)
                self._update_readiness(warp, cycle)
            else:
                self._set_state(warp, WarpState.BLOCK_BAR)
            return True

        self._update_readiness(warp, cycle)
        return True
