"""Opt-in runtime sanitizer: validates DESIGN.md §6 invariants mid-run.

The paper's central safety claim — register/scratchpad sharing cannot
deadlock because of the Fig. 5 direction rule — is enforced by
construction in :mod:`repro.core.locks`, but a harness serving large
sweeps should not *trust* the construction: the sanitizer re-derives
the invariants from raw simulator state while the simulation runs and
turns any violation into a :class:`SanitizerViolation`, which the
engine surfaces as a diagnostic ``RunFailure`` (category
``sanitizer``) instead of silently producing a wrong result.

Checked periodically (every :attr:`Sanitizer.period` cycles) and once
more at completion:

* **single holder per pool** — each lock group's per-side held counts
  equal a fresh recount of its holder table, and holders are in
  ``{None, 0, 1}`` (:meth:`RegisterShareGroup.audit`);
* **Fig. 5 direction rule** — at most one side of a pair holds pools
  whose partner warp is still live (both sides initiating is exactly
  the barrier/lock cycle of the paper's deadlock example);
* **cycle-taxonomy sums** — per SM, active+stall+idle+empty cycles
  equal the global cycle count (including bulk idle skips);
* **scheduler partitions** — each scheduler's ``n_ready`` equals a
  recount of the READY warps in its partition ``warps``, and the
  partition is in strictly ascending ``dynamic_id`` order (the fast
  core's issue loop and every policy's ``select`` trust both).

At completion, additionally:

* every launched block completes (dispatcher and per-SM counters);
* Σ issued instructions over all retired warps equals Σ per-SM issued.

Enable via ``GPU(..., sanitize=True)``, ``run(..., sanitize=True)``,
``Engine(sanitize=True)`` or ``--sanitize`` on both CLIs.  Overhead is
a few percent at the default period; sanitized engine runs bypass the
result cache so the checks always execute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.warp import WarpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.gpu import GPU
    from repro.sim.warp import WarpContext

__all__ = ["Sanitizer", "SanitizerViolation"]


class SanitizerViolation(RuntimeError):
    """An invariant from DESIGN.md §6 failed during simulation."""


class Sanitizer:
    """Periodic + final invariant checker for one :class:`GPU` run."""

    def __init__(self, period: int = 256) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        #: Σ issued instructions of warps that reached EXIT.
        self.retired_issued = 0
        #: Number of periodic checks performed (observability/tests).
        self.checks = 0
        self._next = period

    # ------------------------------------------------------------------
    def on_warp_finished(self, warp: "WarpContext") -> None:
        """Accumulate the conservation ledger as warps retire."""
        self.retired_issued += warp.issued

    def maybe_check(self, gpu: "GPU", cycle: int) -> None:
        """Run the periodic checks if ``cycle`` crossed the next mark."""
        if cycle < self._next:
            return
        self._next = cycle + self.period
        self.check(gpu, cycle)

    # ------------------------------------------------------------------
    def check(self, gpu: "GPU", cycle: int) -> None:
        """Validate the mid-run invariants; raise on any violation."""
        violations = (self._cycle_sums(gpu, cycle) + self._lock_state(gpu)
                      + self._partitions(gpu))
        self.checks += 1
        self._raise(violations, cycle)

    def final(self, gpu: "GPU", cycle: int) -> None:
        """Completion checks: mid-run invariants + conservation."""
        violations = (self._cycle_sums(gpu, cycle) + self._lock_state(gpu)
                      + self._partitions(gpu) + self._conservation(gpu))
        self._raise(violations, cycle)

    # ------------------------------------------------------------------
    def _cycle_sums(self, gpu: "GPU", cycle: int) -> list[str]:
        v = []
        for sm in gpu.sms:
            total = sm.stats.total_cycles
            if total != cycle:
                v.append(f"SM{sm.sm_id}: cycle classes sum to {total}, "
                         f"clock is {cycle} (active+stall+idle+empty "
                         f"must cover every cycle)")
        return v

    def _lock_state(self, gpu: "GPU") -> list[str]:
        v = []
        for i, pair in enumerate(gpu.dispatcher.share_pairs()):
            if pair.reg_group is not None:
                v += [f"pair {i}: {msg}" for msg in pair.reg_group.audit()]
            if pair.spad_group is not None:
                v += [f"pair {i}: {msg}" for msg in pair.spad_group.audit()]
        return v

    def _partitions(self, gpu: "GPU") -> list[str]:
        v = []
        for sm in gpu.sms:
            for sched in sm.schedulers:
                where = f"SM{sm.sm_id} scheduler {sched.sched_id}"
                n = sum(w.state is WarpState.READY for w in sched.warps)
                if n != sched.n_ready:
                    v.append(f"{where}: n_ready is {sched.n_ready}, "
                             f"partition holds {n} READY warps")
                ids = [w.dynamic_id for w in sched.warps]
                if any(a >= b for a, b in zip(ids, ids[1:])):
                    v.append(f"{where}: partition not in ascending "
                             f"dynamic_id order: {ids}")
        return v

    def _conservation(self, gpu: "GPU") -> list[str]:
        v = []
        disp = gpu.dispatcher
        if disp.completed != gpu.kernel.grid_blocks:
            v.append(f"grid: {disp.completed}/{gpu.kernel.grid_blocks} "
                     f"blocks completed")
        issued = 0
        for sm in gpu.sms:
            issued += sm.stats.instructions
            if sm.stats.blocks_launched != sm.stats.blocks_completed:
                v.append(f"SM{sm.sm_id}: {sm.stats.blocks_launched} blocks "
                         f"launched, {sm.stats.blocks_completed} completed")
            if sm.resident_blocks or sm.warps:
                v.append(f"SM{sm.sm_id}: {sm.resident_blocks} blocks / "
                         f"{len(sm.warps)} warps still resident at exit")
        if self.retired_issued != issued:
            v.append(f"conservation: Σ per-warp issued {self.retired_issued}"
                     f" != Σ per-SM issued {issued}")
        return v

    # ------------------------------------------------------------------
    @staticmethod
    def _raise(violations: list[str], cycle: int) -> None:
        if violations:
            raise SanitizerViolation(
                f"{len(violations)} invariant violation(s) at cycle "
                f"{cycle}:\n  " + "\n  ".join(violations))
