"""SM core: warp contexts, dual schedulers, issue logic, cycle taxonomy.

Issue model (see DESIGN.md §4): each of the SM's two schedulers issues at
most one instruction per cycle from its warp partition
(``dynamic_id % num_schedulers``); the two schedulers share a single
LD/ST port (one memory instruction per SM per cycle).  Warps are in-order
with a per-register scoreboard; ALU/SFU results are pipelined.

An issue is one pass through :meth:`SMCore.step`: the scheduler picks a
warp, a *gate* decides whether the instruction may retire this cycle,
and one retire tail does the bookkeeping.  All of the paper's run-time
machinery lives in the gate, :meth:`SMCore._gate`: the Fig. 3 register
access check, the Fig. 4 scratchpad access check, the busy-wait on
shared-pool locks, and the Sec. IV-C Dyn gate for non-owner memory
instructions.  A compute instruction that no check can stop skips the
gate (see :meth:`SMCore.step`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.config import GPUConfig
from repro.core.dynwarp import DynWarpController
from repro.core.liverange import SharedLiveness
from repro.core.sharing import SharedResource
from repro.events import EventQueue
from repro.isa.instructions import Instr
from repro.isa.kernel import Kernel
from repro.isa.opcodes import GROUPS, Op, op_group
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import AddressMap, coalesce_lines
from repro.obs.sink import NULL_SINK, ObsSink
from repro.sched.base import WarpScheduler, make_scheduler
from repro.sched.two_level import TwoLevelScheduler
from repro.sim.block import BlockContext, SharePair
from repro.sim.stats import SMStats
from repro.sim.warp import REG_PENDING, WarpContext, WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.dispatcher import Dispatcher
    from repro.sim.sanitizer import Sanitizer

__all__ = ["SharingRuntime", "SMCore"]

#: Cycles before a warp rejected by a full MSHR array retries.
_MSHR_RETRY = 4

#: Cooldown before a Dyn-refused warp retries its memory instruction (it
#: is also released at the next monitoring-window boundary).
_DYN_COOLDOWN = 64

#: Extra cycles per additional scratchpad bank-conflict way.
_BANK_CONFLICT = 8

#: op → functional group (kept for the reference core; the fast core
#: reads the precomputed group code ``Instr.gcode`` instead).
_GROUP: dict[Op, str] = {op: op_group(op) for op in Op}

#: Group codes (``Instr.gcode``, an index into ``GROUPS``).  Codes below
#: ``_N_COMPUTE`` are the compute groups, alu and sfu.
_N_COMPUTE = 2
_G_GLOBAL = GROUPS.index("global")
_G_SHARED = GROUPS.index("shared")
_G_BAR = GROUPS.index("bar")
_G_EXIT = GROUPS.index("exit")

_STALL_STATES = frozenset({WarpState.BLOCK_SB, WarpState.BLOCK_MEM,
                           WarpState.BLOCK_RETRY})
_IDLE_STATES = frozenset({WarpState.BLOCK_BAR, WarpState.BLOCK_LOCK,
                          WarpState.BLOCK_DYN})

#: WarpState → cycle-taxonomy category, indexed by state value:
#: 0 = ready, 1 = stall (_STALL_STATES), 2 = idle (_IDLE_STATES),
#: 3 = finished (untracked by :meth:`SMCore.classify`).
_CAT = (0, 1, 1, 2, 2, 2, 1, 3)

# Hot-path aliases: enum member access goes through the Enum metaclass,
# which is measurable at hundreds of thousands of issues per second.
_READY = WarpState.READY
_BLOCK_SB = WarpState.BLOCK_SB
_BLOCK_LOCK = WarpState.BLOCK_LOCK
_BLOCK_DYN = WarpState.BLOCK_DYN
_BLOCK_RETRY = WarpState.BLOCK_RETRY
_BLOCK_BAR = WarpState.BLOCK_BAR
_BLOCK_MEM = WarpState.BLOCK_MEM


@dataclass(frozen=True)
class SharingRuntime:
    """Run-time sharing parameters the SM consults on every access.

    ``private_regs`` — per-thread register index threshold: indices below
    it are private (Fig. 3 step (c) compares against ``Rw·t``).
    ``private_smem`` — scratchpad byte-offset threshold (Fig. 4 step (c)).
    """

    resource: SharedResource
    private_regs: int
    private_smem: int


class SMCore:
    """One streaming multiprocessor.

    Keep its instance attributes at 30 or fewer (29 today): CPython
    shares one key table among a class's instances only up to 30, and
    past that every attribute read in :meth:`step` and :meth:`_gate`
    gets slower (31 made fig-sweep about 3.5 % slower).
    """

    def __init__(self, sm_id: int, kernel: Kernel, config: GPUConfig,
                 events: EventQueue, hierarchy: MemoryHierarchy,
                 amap: AddressMap, scheduler: str,
                 sharing: Optional[SharingRuntime] = None,
                 dyn: Optional[DynWarpController] = None,
                 liveness: Optional[SharedLiveness] = None,
                 sanitizer: Optional["Sanitizer"] = None,
                 obs: ObsSink = NULL_SINK) -> None:
        self.sm_id = sm_id
        self.kernel = kernel
        self.cfg = config
        self.lat = config.latency
        self.events = events
        self.hierarchy = hierarchy
        #: This SM's L1 (alias into the hierarchy, hot in ``_try_issue``).
        self.l1 = hierarchy.l1[sm_id]
        self.amap = amap
        self.sharing = sharing
        #: Result latency of each compute group, indexed by group code
        #: (the ``LatencyConfig`` field named after the group).
        self._compute_lat = tuple(getattr(self.lat, g)
                                  for g in GROUPS[:_N_COMPUTE])
        #: Fig. 3 threshold ``Rw·t`` while register sharing is active;
        #: without it every register is private, so no register index
        #: reaches the bound and the Fig. 3 check never fires.
        self._private_regs = (
            sharing.private_regs
            if sharing is not None
            and sharing.resource is SharedResource.REGISTERS
            else kernel.regs_per_thread)
        self.dyn = dyn
        #: Live-range tables for the early-release extension (None = off).
        self.liveness = liveness
        #: Runtime invariant checker (None = sanitizer off).
        self.sanitizer = sanitizer
        #: Observability sink (metrics/timeline); the null object by
        #: default.  ``_obs_on`` caches ``obs.enabled`` so the hot paths
        #: pay one attribute read + branch, nothing more, when off.
        self.obs = obs
        self._obs_on = obs.enabled
        self.schedulers: list[WarpScheduler] = [
            make_scheduler(scheduler, i,
                           fetch_group_size=config.fetch_group_size)
            for i in range(config.num_schedulers)
        ]
        #: True when the policy keeps history beyond ``last`` (see
        #: ``repro.sched.base``): only then does an issue call
        #: ``on_issued``; otherwise ``step`` sets ``last`` itself.
        self._issue_hook = (type(self.schedulers[0]).on_issued
                            is not WarpScheduler.on_issued)
        #: MSHR-rejected warps waiting without a retry wake, each with
        #: the cycle of its last attempt (see :meth:`settle_retries`).
        #: None turns parking off: it skips retry attempts, so a sink
        #: that observes each one (its state changes or its rejections)
        #: must not meet it.
        sink = type(obs)
        self._parked: Optional[list[tuple[WarpContext, int]]] = (
            [] if sink.warp_state is ObsSink.warp_state
            and sink.mshr_reject is ObsSink.mshr_reject else None)
        self.stats = SMStats(sm_id=sm_id)
        self.warps: list[WarpContext] = []
        self.resident_blocks = 0
        self.dispatcher: Optional["Dispatcher"] = None
        self.now = 0
        self._next_warp_id = 0
        self._mem_port_free = True
        self._lock_blocked: list[WarpContext] = []
        self._dyn_blocked: list[WarpContext] = []
        #: Warps per taxonomy category (see ``_CAT``), maintained
        #: incrementally by :meth:`_set_state` so :meth:`classify` and
        #: :meth:`has_ready` are O(1) instead of scanning every warp.
        self._cat_n = [0, 0, 0, 0]

    # ------------------------------------------------------------------
    # block/warp lifecycle
    # ------------------------------------------------------------------
    def wire_pair(self, pair: SharePair) -> None:
        """Point the pair's lock-release callback at this SM."""
        if pair.reg_group is not None:
            pair.reg_group.on_release = self._on_lock_release
        if pair.spad_group is not None:
            pair.spad_group.on_release = self._on_lock_release
        if self._obs_on:
            self.obs.wire_locks(self, pair)

    def launch_block(self, block: BlockContext, cycle: int) -> None:
        """Create and enqueue the block's warps."""
        for slot in range(block.n_warps):
            w = WarpContext(self._next_warp_id, slot, block, self.kernel)
            self._next_warp_id += 1
            block.warps.append(w)
            self.warps.append(w)
            w.sched = self.schedulers[w.dynamic_id % len(self.schedulers)]
            w.sched.on_ready(w)
            if self._obs_on:
                self.obs.warp_started(self.sm_id, w, cycle)
        self._cat_n[0] += block.n_warps
        self.resident_blocks += 1
        self.stats.blocks_launched += 1
        if self.resident_blocks > self.stats.max_resident_blocks:
            self.stats.max_resident_blocks = self.resident_blocks

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def _set_state(self, warp: WarpContext, state: WarpState) -> None:
        # Runs twice per state round-trip of every issue and retry:
        # O(1) upkeep of the scheduler's READY count and the per-SM
        # category counters, nothing else.
        old = warp.state
        if old is state:
            return
        if old is _READY:
            warp.sched.n_ready -= 1
        elif state is _READY:
            warp.sched.n_ready += 1
            if self._parked:
                self._unpark(self.now)
        c = self._cat_n
        c[_CAT[old]] -= 1
        c[_CAT[state]] += 1
        warp.state = state
        warp.wake_token += 1
        if self._obs_on:
            self.obs.warp_state(self.sm_id, warp, state, self.now)

    def _update_readiness(self, warp: WarpContext, cycle: int) -> None:
        """Re-derive a warp's scoreboard wait state for its next instr.

        Timed wakes go through :meth:`EventQueue.push_wake`: a blocked
        warp's operand readiness can only improve (loads lower
        ``reg_ready`` entries, nothing raises them while the warp cannot
        issue), so a still-valid wake deterministically lands in the
        ``e <= cycle + 1`` branch and the queue sets it READY directly.
        """
        # warp.earliest_issue() inlined: one call per wake and retry.
        e = 0
        rr = warp.reg_ready
        for r in warp.instr.regs:
            v = rr[r]
            if v > e:
                e = v
        if e >= REG_PENDING:
            self._set_state(warp, _BLOCK_MEM)
        elif e <= cycle + 1:
            self._set_state(warp, _READY)
        else:
            self._set_state(warp, _BLOCK_SB)
            self.events.push_wake(e, self, warp)

    # ------------------------------------------------------------------
    # wake paths
    # ------------------------------------------------------------------
    def _on_load_done(self, warp: WarpContext, dst: tuple[int, ...],
                      cycle: int) -> None:
        self.now = cycle
        for r in dst:
            warp.reg_ready[r] = cycle
        warp.outstanding_loads -= 1
        if warp.state is _BLOCK_MEM:
            self._update_readiness(warp, cycle)

    def _on_lock_release(self) -> None:
        """A shared pool was released: retry every lock-blocked warp."""
        if not self._lock_blocked:
            return
        waiters, self._lock_blocked = self._lock_blocked, []
        for w in waiters:
            if w.state is WarpState.BLOCK_LOCK:
                self._update_readiness(w, self.now)

    def settle_retries(self, warps: list[WarpContext], cycle: int) -> None:
        """Settle the MSHR-retry wakes of ``warps`` due at ``cycle``.

        :meth:`EventQueue.run_due` hands them over once every event of
        the cycle has fired.  When no warp of this SM is READY and each
        retry could only be rejected again, stepping the SM would only
        reject them all: each warp counts that attempt and *parks*
        instead of pushing its next wake.  Otherwise they become READY.

        A parked warp still retries every ``_MSHR_RETRY`` cycles from
        its last attempt; :meth:`_unpark` counts the attempts it skipped
        and puts it back on that chain.  That happens when a warp of
        this SM becomes READY (:meth:`_set_state`; a block launch, the
        other way in, happens only in a step, which needs a READY warp
        already), when an L1 fill may admit a parked load
        (:meth:`_recheck_parked`) or when the event queue runs dry
        (``GPU._run_fast``).  Until then no warp of the SM is READY and
        its L1 changes only by fills, so every skipped attempt would
        have been rejected with no other effect.
        """
        self.now = cycle
        if self._cat_n[0] or not all(map(self._retry_rejected, warps)):
            for w in warps:
                self._set_state(w, _READY)
        else:
            self._park(warps, cycle)

    def _park(self, warps: list[WarpContext], cycle: int) -> None:
        """Count the rejected attempts of ``warps`` at ``cycle`` and
        park them, without a wake, until :meth:`_unpark`."""
        l1 = self.l1
        n = len(warps)
        self.stats.mshr_stalls += n
        l1.stats.mshr_rejects += n
        gen = l1.gen
        for w in warps:
            w.pend_gen = gen
            self._parked.append((w, cycle))
        self.hierarchy.on_l1_fill[self.sm_id] = self._recheck_parked

    def _retry_rejected(self, warp: WarpContext) -> bool:
        """True when an MSHR retry of ``warp`` could only be rejected.

        Mirrors :meth:`_gate` up to the load without its side effects:
        neither the Dyn gate (it may draw) nor a Fig. 3 acquire may be
        reached, a two-level scheduler must be able to pick the warp
        without switching groups, and the L1 must reject the warp's
        pending lines.
        """
        block = warp.block
        pair = block.pair
        if pair is not None:
            if self.dyn is not None and pair.owner != block.side:
                return False
            if (warp.instr.max_reg >= self._private_regs
                    and not pair.reg_group.holds(block.side, warp.slot)):
                return False
        sched = warp.sched
        if (isinstance(sched, TwoLevelScheduler)
                and not sched.in_active_group(warp)):
            return False
        l1 = self.l1
        return warp.pend_gen == l1.gen or l1.rejects(warp.pend_lines)

    def _recheck_parked(self, cycle: int) -> None:
        """An L1 fill at ``cycle``: release the parked warps if it
        admits any of their loads."""
        l1 = self.l1
        for w, _ in self._parked:
            if not l1.rejects(w.pend_lines):
                self._unpark(cycle)
                return

    def _unpark(self, cycle: int) -> None:
        """Put every parked warp back on its retry chain at ``cycle``.

        A warp last rejected at ``r`` skipped the attempts at ``r + 4j``
        before ``cycle``; each counts as one rejection.  Its next
        attempt is due at the first chain point at or after ``cycle``:
        if that is ``cycle`` the warp becomes READY at once, as its wake
        would make it this cycle; otherwise a wake is pushed.
        """
        parked, self._parked = self._parked, []
        self.hierarchy.on_l1_fill[self.sm_id] = None
        skipped = 0
        for w, r in parked:
            k = (cycle - 1 - r) // _MSHR_RETRY
            skipped += k
            nxt = r + (k + 1) * _MSHR_RETRY
            if nxt == cycle:
                self._set_state(w, _READY)
            else:
                self.events.push_wake(nxt, self, w)
        self.stats.mshr_stalls += skipped
        self.l1.stats.mshr_rejects += skipped

    def release_dyn_blocked(self, cycle: int) -> None:
        """Dyn monitoring window ended: unblock refused warps."""
        self.now = cycle
        waiters, self._dyn_blocked = self._dyn_blocked, []
        for w in waiters:
            if w.state is WarpState.BLOCK_DYN:
                self._update_readiness(w, cycle)

    # ------------------------------------------------------------------
    # per-cycle issue
    # ------------------------------------------------------------------
    def has_ready(self) -> bool:
        """True if any scheduler has a READY warp."""
        return self._cat_n[0] > 0

    def step(self, cycle: int) -> int:
        """Run one SM cycle; returns instructions issued (0..2).

        ``n_ready`` gates each scheduler, so a partition with no READY
        warp costs no scan; after a memory issue the scheduler is asked
        only for warps that do not need the LD/ST port.

        A compute (alu/sfu) instruction enters :meth:`_gate` only when
        the Fig. 3 check can fire: register sharing is on (otherwise
        ``_private_regs`` is the kernel's register count, above every
        index), the block is paired and ``max_reg >= Rw·t``.  The Dyn gate and the Fig. 4
        check concern memory instructions only, so nothing else could
        stop it, and its one side effect is the destination latency.

        Every issue then runs the retire tail below.  The issuing warp
        is still READY there: it was selected READY, and nothing in the
        gate or the tail before the readiness update moves it (lock
        releases wake only BLOCK_LOCK warps).  So readiness only has to
        handle the blocking outcomes; ``_set_state(READY)`` would be a
        no-op.
        """
        self.now = cycle
        port_free = True
        self._mem_port_free = True
        issued = 0
        for sched in self.schedulers:
            while sched.n_ready:
                w = sched.select(port_free)
                if w is None:
                    break
                ins = w.instr
                code = ins.gcode
                if code < _N_COMPUTE:
                    if (ins.max_reg >= self._private_regs
                            and w.block.pair is not None
                            and not self._gate(w, ins, code, cycle)):
                        continue  # blocked on the shared register pool
                    t = cycle + self._compute_lat[code]
                    rr = w.reg_ready
                    for r in ins.dst:
                        rr[r] = t
                elif self._gate(w, ins, code, cycle):
                    port_free = self._mem_port_free
                else:
                    # The warp blocked (left the READY state); give the
                    # scheduler another chance this cycle.
                    continue

                # --- retire tail ---
                w.issued += 1
                stats = self.stats
                stats.instructions += 1
                if self._obs_on:
                    self.obs.issued(self.sm_id, sched.sched_id, w, cycle)
                block = w.block
                pair = block.pair
                if pair is None:
                    stats.issued_unshared += 1
                elif pair.owner == block.side:
                    stats.issued_owner += 1
                else:
                    stats.issued_nonowner += 1
                sched.last = w
                if self._issue_hook:
                    sched.on_issued(w)
                issued += 1
                if code == _G_EXIT:
                    self._finish_warp(w, cycle)
                    break
                # warp.advance(), its same-segment case inlined.
                instrs = w._instrs
                pc = w._pc + 1
                if pc < len(instrs):
                    w._pc = pc
                    w.instr = nxt = instrs[pc]
                    w.pend_valid = False
                else:
                    w.advance()
                    nxt = w.instr
                if self.liveness is not None:
                    self._maybe_early_release(w)
                if code == _G_BAR:
                    self._arrive_at_barrier(w, block, cycle)
                    break
                # _update_readiness() for a READY warp, inlined.
                e = 0
                rr = w.reg_ready
                for r in nxt.regs:
                    v = rr[r]
                    if v > e:
                        e = v
                if e > cycle + 1:
                    if e >= REG_PENDING:
                        self._set_state(w, _BLOCK_MEM)
                    else:
                        self._set_state(w, _BLOCK_SB)
                        self.events.push_wake(e, self, w)
                break
        return issued

    # ------------------------------------------------------------------
    def _dyn_critical(self, warp: WarpContext) -> bool:
        """True when throttling ``warp`` would stall the partner block.

        Priority-inversion escape hatch for the Dyn gate: if this
        warp's block holds a shared pool that a partner-side warp is
        lock-blocked on, refusing its memory instructions cannot be
        "protecting the owner" — it *is* the owner's critical path
        (pools release only as the holding block progresses).  On SM0,
        whose throttle probability is pinned to 0, refusing such a warp
        forever would livelock the pair outright.
        """
        pair = warp.block.pair
        if pair is None:
            return False
        side = warp.block.side
        partner = pair.blocks[1 - side]
        if partner is None:
            return False
        g, sg = pair.reg_group, pair.spad_group
        for w in self._lock_blocked:
            if w.state is not WarpState.BLOCK_LOCK or w.block is not partner:
                continue
            if g is not None and g.holder(w.slot) == side:
                return True
            if sg is not None and sg.holder == side:
                return True
        return False

    def _gate(self, warp: WarpContext, ins: Instr, code: int,
              cycle: int) -> bool:
        """The issue half before retirement: access checks and effects.

        Runs the Dyn gate, the Fig. 3 and Fig. 4 checks and the memory
        side effects (a compute instruction's destination latency is
        set by :meth:`step`).  Returns True when the warp may retire the
        instruction this cycle; False when it blocked (and left the
        READY state) instead.
        """
        block = warp.block
        pair = block.pair
        stats = self.stats

        # --- Dyn gate (Sec. IV-C): non-owner global memory only ---
        if (self.dyn is not None and code == _G_GLOBAL and pair is not None
                and pair.owner != block.side):
            if (not self.dyn.allow(self.sm_id)
                    and not self._dyn_critical(warp)):
                stats.dyn_refusals += 1
                if self._obs_on:
                    self.obs.dyn_refusal(self.sm_id, warp, cycle)
                self._set_state(warp, _BLOCK_DYN)
                self._dyn_blocked.append(warp)
                self.events.push_wake(cycle + _DYN_COOLDOWN, self, warp)
                return False

        # --- register sharing access check (Fig. 3) ---
        if pair is not None and ins.max_reg >= self._private_regs:
            g = pair.reg_group
            assert g is not None
            if not g.holds(block.side, warp.slot):
                if g.try_acquire(block.side, warp.slot):
                    stats.lock_acquires += 1
                    pair.note_acquired(block.side)
                else:
                    stats.lock_waits += 1
                    self._set_state(warp, _BLOCK_LOCK)
                    self._lock_blocked.append(warp)
                    return False

        # --- execute side effects ---
        if code == _G_GLOBAL:
            m = ins.mem
            assert m is not None
            if ins.op is Op.LDG:
                l1 = self.l1
                if warp.pend_valid:
                    # Retry of an MSHR-rejected access (``pend_valid``
                    # is cleared by ``advance``, so the cached lines are
                    # exactly this trace position's): the line set is a
                    # pure function of the position, so reuse it.
                    lines = warp.pend_lines
                    if warp.pend_gen == l1.gen:
                        # The L1 has not changed since the rejected
                        # attempt, so the admission scan would reach the
                        # same verdict — replay the rejection in O(1)
                        # (same counters, same state transition).
                        l1.stats.mshr_rejects += 1
                        if self._obs_on:
                            self.obs.mshr_reject(self.sm_id, cycle)
                        stats.mshr_stalls += 1
                        self._set_state(warp, _BLOCK_RETRY)
                        self.events.push_wake(cycle + _MSHR_RETRY,
                                              self, warp)
                        return False
                else:
                    lines = coalesce_lines(
                        m, self.amap, block_linear=block.linear_id,
                        warp_in_block=warp.slot,
                        warps_per_block=block.n_warps,
                        iter_idx=warp.iter_idx,
                        line_size=self.cfg.line_size,
                        seed=self.kernel.seed)
                    if len(lines) > 1:
                        lines = tuple(dict.fromkeys(lines))
                dst = ins.dst
                if not self.hierarchy.try_load(
                        self.sm_id, lines, cycle,
                        partial(self._on_load_done, warp, dst),
                        assume_unique=True):
                    stats.mshr_stalls += 1
                    warp.pend_valid = True
                    warp.pend_lines = lines
                    warp.pend_gen = l1.gen
                    self._set_state(warp, _BLOCK_RETRY)
                    self.events.push_wake(cycle + _MSHR_RETRY, self, warp)
                    return False
                for r in dst:
                    warp.reg_ready[r] = REG_PENDING
                warp.outstanding_loads += 1
            else:
                lines = coalesce_lines(
                    m, self.amap, block_linear=block.linear_id,
                    warp_in_block=warp.slot, warps_per_block=block.n_warps,
                    iter_idx=warp.iter_idx, line_size=self.cfg.line_size,
                    seed=self.kernel.seed)
                self.hierarchy.store(self.sm_id, lines, cycle)
            self._mem_port_free = False
            stats.mem_instructions += 1
        elif code == _G_SHARED:
            m = ins.mem
            assert m is not None
            # --- scratchpad sharing access check (Fig. 4) ---
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
                        self._set_state(warp, _BLOCK_LOCK)
                        self._lock_blocked.append(warp)
                        return False
            # An n-way bank conflict serialises into n bank accesses.
            lat = self.lat.scratchpad + (m.conflicts - 1) * _BANK_CONFLICT
            for r in ins.dst:
                warp.reg_ready[r] = cycle + lat
            self._mem_port_free = False
            stats.mem_instructions += 1
        return True

    def _arrive_at_barrier(self, warp: WarpContext, block: BlockContext,
                           cycle: int) -> None:
        """``warp`` retired a BAR: release the block or wait for it."""
        block.bar_count += 1
        if block.bar_count == block.n_warps:
            block.bar_count = 0
            self.stats.barriers += 1
            for w2 in block.warps:
                if w2.state is WarpState.BLOCK_BAR:
                    self._update_readiness(w2, cycle)
            self._update_readiness(warp, cycle)
        else:
            self._set_state(warp, WarpState.BLOCK_BAR)

    # ------------------------------------------------------------------
    def _maybe_early_release(self, warp: WarpContext) -> None:
        """Live-range extension (paper Sec. VIII): hand the shared pool to
        the partner warp as soon as this warp provably stops needing it."""
        if warp.shared_done:
            return
        pair = warp.block.pair
        if pair is None or pair.reg_group is None or self.sharing is None:
            return
        seg, rep, pc = warp.trace_position
        assert self.liveness is not None
        if self.liveness.done_with_shared(seg, rep, pc, warp.repeats,
                                          self.sharing.private_regs):
            warp.shared_done = True
            if pair.reg_group.holds(warp.block.side, warp.slot):
                self.stats.early_releases += 1
            pair.reg_group.warp_finished(warp.block.side, warp.slot)

    def _finish_warp(self, warp: WarpContext, cycle: int) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_warp_finished(warp)
        self._set_state(warp, WarpState.FINISHED)
        block = warp.block
        block.active_warps -= 1
        pair = block.pair
        if pair is not None and pair.reg_group is not None:
            # Paper Sec. III-A: the shared pool passes to the partner
            # warp the moment its holder finishes.
            pair.reg_group.warp_finished(block.side, warp.slot)
        if block.active_warps == 0:
            self._complete_block(block, cycle)

    def _complete_block(self, block: BlockContext, cycle: int) -> None:
        self.now = cycle
        self.stats.blocks_completed += 1
        self.resident_blocks -= 1
        for w in block.warps:
            self.warps.remove(w)
            w.sched.warps.remove(w)
        assert self.dispatcher is not None
        # detach (inside on_block_done) releases the scratchpad lock and
        # wakes partner warps; then the slot is refilled.
        self.dispatcher.on_block_done(self, block, cycle)

    # ------------------------------------------------------------------
    # cycle taxonomy (paper Fig. 9 metrics)
    # ------------------------------------------------------------------
    def classify(self) -> str:
        """Classify a no-issue cycle as 'stall', 'idle' or 'empty'.

        O(1): reads the incremental per-category counters instead of
        scanning the resident warps (the reference core keeps the scan;
        the differential suite pins both to the same answers).
        """
        c = self._cat_n
        if c[1]:
            return "stall"
        return "idle" if c[0] or c[2] else "empty"

    def account(self, kind: str, n: int = 1) -> None:
        """Add ``n`` cycles of class ``kind`` to the counters."""
        if kind == "active":
            self.stats.active_cycles += n
        elif kind == "stall":
            self.stats.stall_cycles += n
        elif kind == "idle":
            self.stats.idle_cycles += n
        else:
            self.stats.empty_cycles += n
