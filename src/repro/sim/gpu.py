"""Top-level GPU: clock loop, cycle accounting, bulk idle skipping.

Two interchangeable cores run the same machine model (see
docs/performance.md):

* the **fast core** (default) — event-driven ready sets: SMs whose
  ready sets are empty are not stepped, MSHR-rejected accesses replay
  in O(1), and when no SM can issue the clock jumps to the next event
  in one step while charging the skipped span to the same cycle
  taxonomy;
* the **reference core** (``core="reference"``) — the original
  scan-every-warp loop, kept as the differential-testing oracle.

Both must produce bit-identical :class:`RunResult`\\ s; the golden core
suite (``tests/test_core_equivalence.py``) enforces it.
"""

from __future__ import annotations

from typing import Optional

from repro.config import GPUConfig
from repro.core.dynwarp import DynWarpController
from repro.core.liverange import SharedLiveness
from repro.core.sharing import SharedResource, SharingPlan
from repro.events import EventQueue
from repro.isa.kernel import Kernel
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import AddressMap
from repro.obs.sink import NULL_SINK, ObsSink
from repro.sim.dispatcher import Dispatcher
from repro.sim.sanitizer import Sanitizer
from repro.sim.sm import SharingRuntime, SMCore
from repro.sim.stats import RunResult
from repro.sim.warp import WarpState

__all__ = ["GPU", "SimulationLimitExceeded", "SimulationDeadlock"]


class SimulationLimitExceeded(RuntimeError):
    """The run exceeded ``max_cycles`` (runaway guard)."""


class SimulationDeadlock(RuntimeError):
    """No SM can ever issue again and no event is pending."""


class GPU:
    """Assembles SMs, memory and dispatcher, and runs a kernel to
    completion.

    ``plan`` selects resource sharing (None → baseline, all blocks
    unshared); ``scheduler`` is one of ``lrr``/``gto``/``two_level``/
    ``owf``; ``dyn`` enables the Sec. IV-C dynamic warp execution
    controller (only meaningful with register sharing); ``core`` picks
    the simulator core (``"fast"`` or ``"reference"``).
    """

    def __init__(self, kernel: Kernel, config: GPUConfig, *,
                 scheduler: str = "lrr",
                 plan: Optional[SharingPlan] = None,
                 dyn: bool = False,
                 early_release: bool = False,
                 mode: str = "",
                 sanitize: bool = False,
                 core: str = "fast",
                 obs: ObsSink = NULL_SINK) -> None:
        if core not in ("fast", "reference"):
            raise ValueError(f"unknown core {core!r}; "
                             f"choose 'fast' or 'reference'")
        self.core = core
        self.kernel = kernel
        self.cfg = config
        self.mode = mode or scheduler
        self.sanitizer: Optional[Sanitizer] = Sanitizer() if sanitize \
            else None
        #: Observability sink (metrics/timeline); null object when off.
        self.obs = obs
        self.events = EventQueue()
        self.hierarchy = MemoryHierarchy(config, self.events,
                                         config.num_sms, obs=obs)
        self.amap = AddressMap(seed=kernel.seed)

        sharing_rt: Optional[SharingRuntime] = None
        if plan is not None and plan.enabled:
            sharing_rt = SharingRuntime(
                resource=plan.spec.resource,
                private_regs=plan.private_regs_per_thread,
                private_smem=(plan.private_units
                              if plan.spec.resource is SharedResource.SCRATCHPAD
                              else 0),
            )

        self.dyn: Optional[DynWarpController] = None
        if dyn and sharing_rt is not None:
            self.dyn = DynWarpController(config.num_sms, seed=kernel.seed + 7)

        liveness: Optional[SharedLiveness] = None
        if (early_release and sharing_rt is not None
                and sharing_rt.resource is SharedResource.REGISTERS):
            liveness = SharedLiveness(kernel)

        if self.core == "reference":
            from repro.sim.refcore import ReferenceSMCore
            sm_cls: type[SMCore] = ReferenceSMCore
        else:
            sm_cls = SMCore
        self.sms = [
            sm_cls(i, kernel, config, self.events, self.hierarchy, self.amap,
                   scheduler, sharing=sharing_rt, dyn=self.dyn,
                   liveness=liveness, sanitizer=self.sanitizer, obs=obs)
            for i in range(config.num_sms)
        ]
        self.plan = plan
        from repro.core.occupancy import occupancy as _occupancy
        baseline = _occupancy(kernel, config).blocks
        self.dispatcher = Dispatcher(kernel, plan, self.sms, baseline)
        for sm in self.sms:
            sm.dispatcher = self.dispatcher

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        """Simulate until every grid block completes."""
        if self.core == "reference":
            return self._run_reference(max_cycles)
        return self._run_fast(max_cycles)

    def _prologue(self) -> None:
        """Resident-block fill and the Dyn monitoring-window event chain."""
        events = self.events
        sms = self.sms
        dyn = self.dyn
        self.dispatcher.initial_fill(0)
        if dyn is not None:
            def _window(cycle: int) -> None:
                dyn.end_window()
                for sm in sms:
                    sm.release_dyn_blocked(cycle)
                events.push(cycle + dyn.period, _window)
            events.push(dyn.period, _window)

    def _epilogue(self, cycle: int) -> RunResult:
        if self.sanitizer is not None:
            self.sanitizer.final(self, cycle)
        if self.obs.enabled:
            self.obs.finalize(self, cycle)
        stats = [sm.stats for sm in self.sms]
        return RunResult(
            kernel=self.kernel.name,
            mode=self.mode,
            cycles=cycle,
            instructions=sum(s.instructions for s in stats),
            sm_stats=stats,
            mem=self.hierarchy.totals(),
            blocks_baseline=(self.plan.baseline if self.plan is not None
                             else self.dispatcher.blocks_per_sm),
            blocks_total=self.dispatcher.blocks_per_sm,
            metrics=self.obs.metrics_dict(),
        )

    def _limit_exceeded(self, max_cycles: int) -> SimulationLimitExceeded:
        return SimulationLimitExceeded(
            f"kernel {self.kernel.name!r} exceeded {max_cycles} cycles "
            f"({self.dispatcher.completed}/{self.kernel.grid_blocks} blocks "
            f"done)")

    def _run_fast(self, max_cycles: int) -> RunResult:
        """Event-driven ready-set loop (cycle-exact vs the reference).

        Per cycle, only SMs with a READY warp are stepped: with none,
        every scheduler's ``select`` would return None, so ``step``
        could only have returned 0 without side effects — the skip is
        exact.  Cycle accounting is unchanged (``classify`` is
        O(1) on the fast core), so when no SM can issue and the clock
        jumps to the next event, the skipped span is charged per SM to
        the same class the intervening cycles would have received.
        """
        events = self.events
        sms = self.sms
        dispatcher = self.dispatcher
        dyn = self.dyn
        sanitizer = self.sanitizer

        self._prologue()
        # (SM, its stats, its category counters): the objects live as
        # long as the SM, so the loop reads each once per visit.
        visits = [(sm, sm.stats, sm._cat_n) for sm in sms]
        cats = [sm._cat_n for sm in sms]
        grid = dispatcher.kernel.grid_blocks  # dispatcher.done, inlined
        cycle = 0
        heap = events._heap  # peeked to skip no-op run_due calls
        while dispatcher.completed < grid:
            if heap and heap[0][0] <= cycle:
                events.run_due(cycle)
                if dispatcher.completed >= grid:
                    break
            all_zero = True
            for sm, st, c in visits:
                # classify()/account() inlined: this runs once per SM
                # per simulated cycle.
                if c[0] and sm.step(cycle):
                    st.active_cycles += 1
                    all_zero = False
                elif c[1]:
                    st.stall_cycles += 1
                    if dyn is not None:
                        dyn.record_stall(sm.sm_id)
                elif c[0] or c[2]:
                    st.idle_cycles += 1
                else:
                    st.empty_cycles += 1
            cycle += 1
            if all_zero and not any(c[0] for c in cats):
                nxt = events.next_cycle()
                if nxt is None:
                    raise SimulationDeadlock(self._deadlock_report(cycle))
                if nxt > cycle:
                    # No SM issued, and a step that issues nothing moves
                    # no warp of another SM, so each SM's counters still
                    # give the class it was charged this cycle.
                    gap = nxt - cycle
                    for sm, st, c in visits:
                        if c[1]:
                            st.stall_cycles += gap
                            if dyn is not None:
                                dyn.record_stall(sm.sm_id, gap)
                        elif c[2]:
                            st.idle_cycles += gap
                        else:
                            st.empty_cycles += gap
                    cycle = nxt
            if sanitizer is not None:
                sanitizer.maybe_check(self, cycle)
            if cycle > max_cycles:
                raise self._limit_exceeded(max_cycles)

        return self._epilogue(cycle)

    def _run_reference(self, max_cycles: int) -> RunResult:
        """The original loop: step every SM, scan-based classification.

        Kept verbatim as the differential-testing oracle; do not
        optimise this path.
        """
        events = self.events
        sms = self.sms
        dispatcher = self.dispatcher
        dyn = self.dyn
        sanitizer = self.sanitizer

        self._prologue()
        cycle = 0
        while not dispatcher.done:
            events.run_due(cycle)
            if dispatcher.done:
                break
            all_zero = True
            kinds: list[str] = []
            for sm in sms:
                issued = sm.step(cycle)
                if issued:
                    sm.account("active")
                    kinds.append("active")
                    all_zero = False
                else:
                    kind = sm.classify()
                    sm.account(kind)
                    kinds.append(kind)
                    if dyn is not None and kind == "stall":
                        dyn.record_stall(sm.sm_id)
            cycle += 1
            if all_zero and not any(sm.has_ready() for sm in sms):
                nxt = events.next_cycle()
                if nxt is None:
                    raise SimulationDeadlock(self._deadlock_report(cycle))
                if nxt > cycle:
                    gap = nxt - cycle
                    for sm, kind in zip(sms, kinds):
                        sm.account(kind, gap)
                        if dyn is not None and kind == "stall":
                            dyn.record_stall(sm.sm_id, gap)
                    cycle = nxt
            if sanitizer is not None:
                sanitizer.maybe_check(self, cycle)
            if cycle > max_cycles:
                raise self._limit_exceeded(max_cycles)

        return self._epilogue(cycle)

    # ------------------------------------------------------------------
    def _deadlock_report(self, cycle: int) -> str:
        """Diagnostic naming every blocked warp and the lock it waits on.

        Fed into :class:`SimulationDeadlock` (and from there into the
        engine's ``RunFailure`` records), so a deadlocked cell in a
        sweep pinpoints the warp/lock cycle without a debugger.
        """
        lines = [f"deadlock at cycle {cycle}: no ready warps, no events"]
        for sm in self.sms:
            states: dict[str, int] = {}
            for w in sm.warps:
                states[w.state.name] = states.get(w.state.name, 0) + 1
            lines.append(f"  SM{sm.sm_id}: {states} "
                         f"resident_blocks={sm.resident_blocks}")
            for w in sm.warps:
                if w.state is WarpState.BLOCK_LOCK:
                    lines.append(f"    {self._lock_wait_line(w)}")
                elif w.state is WarpState.BLOCK_BAR:
                    lines.append(
                        f"    W{w.dynamic_id} (block {w.block.linear_id}, "
                        f"slot {w.slot}) waits at barrier "
                        f"({w.block.bar_count}/{w.block.n_warps} arrived)")
        lines.append(f"  grid: {self.dispatcher.completed}"
                     f"/{self.kernel.grid_blocks} blocks complete")
        return "\n".join(lines)

    @staticmethod
    def _lock_wait_line(w) -> str:
        """Describe which shared-pool lock a BLOCK_LOCK warp waits on."""
        block = w.block
        pair = block.pair
        head = (f"W{w.dynamic_id} (block {block.linear_id} side "
                f"{block.side}, slot {w.slot}) waits on")
        if pair is None:  # pragma: no cover - unreachable by construction
            return f"{head} an unknown lock (no pair attached)"
        if pair.reg_group is not None:
            holder = pair.reg_group.holder(w.slot)
            return (f"{head} shared reg pool slot {w.slot}, "
                    f"held by side {holder}")
        holder = pair.spad_group.holder if pair.spad_group is not None \
            else None
        return f"{head} shared scratchpad region, held by side {holder}"
