"""Simulation statistics.

The cycle taxonomy follows the paper's Fig. 9 definitions:

* **active** — the SM issued at least one instruction this cycle;
* **stall**  — nothing issued and some resident warp is blocked on a
  *pipeline or memory dependency* (scoreboard hazard, outstanding load,
  or a structural hazard such as a full MSHR array) — "pipeline stall";
* **idle**   — nothing issued and no warp is pipeline-blocked: warps are
  only waiting at barriers / for shared-resource locks / for the Dyn
  window, or have all finished ("all available warps issued, none ready");
* **empty**  — the SM has no resident warps at all (tail of the grid).
  Reported separately but grouped with idle in paper-style summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SMStats", "RunResult"]


@dataclass
class SMStats:
    """Per-SM counters."""

    sm_id: int = 0
    instructions: int = 0
    mem_instructions: int = 0
    active_cycles: int = 0
    stall_cycles: int = 0
    idle_cycles: int = 0
    empty_cycles: int = 0
    # issue counts by warp class (paper: unshared / owner / non-owner)
    issued_unshared: int = 0
    issued_owner: int = 0
    issued_nonowner: int = 0
    # sharing machinery
    lock_acquires: int = 0
    lock_waits: int = 0
    dyn_refusals: int = 0
    #: Shared pools handed over before warp exit (live-range extension).
    early_releases: int = 0
    # structural
    mshr_stalls: int = 0
    barriers: int = 0
    blocks_launched: int = 0
    blocks_completed: int = 0
    max_resident_blocks: int = 0

    @property
    def total_cycles(self) -> int:
        """Sum of the four cycle classes (== GPU cycles once finished)."""
        return (self.active_cycles + self.stall_cycles + self.idle_cycles
                + self.empty_cycles)

    @property
    def idle_like_cycles(self) -> int:
        """Idle + empty: the paper's 'idle cycles' bucket."""
        return self.idle_cycles + self.empty_cycles

    def to_dict(self) -> dict:
        """Flat JSON-serializable form (all counters, in field order):
        every value is an int, so a shallow copy is a deep one."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "SMStats":
        """Inverse of :meth:`to_dict` (exact round trip)."""
        return cls(**d)


@dataclass
class RunResult:
    """Outcome of one kernel simulation."""

    kernel: str
    mode: str
    cycles: int
    instructions: int
    sm_stats: list[SMStats] = field(default_factory=list)
    mem: dict[str, int | float] = field(default_factory=dict)
    #: Blocks/SM the dispatcher planned: (baseline D, total with sharing).
    blocks_baseline: int = 0
    blocks_total: int = 0
    #: Observability snapshot (``MetricsRegistry.to_dict()``) when the
    #: run was made with ``--metrics``; None otherwise.  Deliberately
    #: absent from :meth:`to_dict` when None so results of unobserved
    #: runs — including the pinned golden_core.json cells — are
    #: byte-identical to those produced before this field existed.
    metrics: dict | None = None

    #: Success marker, mirroring ``RunFailure.ok = False`` — lets batch
    #: consumers branch on ``r.ok`` without isinstance checks.
    ok = True

    @property
    def ipc(self) -> float:
        """GPU-wide instructions per cycle (the paper's headline metric)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def stall_cycles(self) -> int:
        """Total pipeline-stall cycles across SMs."""
        return sum(s.stall_cycles for s in self.sm_stats)

    @property
    def idle_cycles(self) -> int:
        """Total idle(+empty) cycles across SMs (paper's idle bucket)."""
        return sum(s.idle_like_cycles for s in self.sm_stats)

    @property
    def max_resident_blocks(self) -> int:
        """Peak blocks resident on any SM (paper Fig. 8a/8b metric)."""
        return max((s.max_resident_blocks for s in self.sm_stats), default=0)

    def to_dict(self) -> dict:
        """JSON-serializable form; :meth:`from_dict` restores it exactly
        (ints stay ints, floats stay floats — service payloads and the
        goldens rely on the round trip being bit-exact)."""
        d = {
            "kernel": self.kernel,
            "mode": self.mode,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "sm_stats": [s.to_dict() for s in self.sm_stats],
            "mem": dict(self.mem),
            "blocks_baseline": self.blocks_baseline,
            "blocks_total": self.blocks_total,
        }
        if self.metrics is not None:
            d["metrics"] = self.metrics
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kernel=d["kernel"], mode=d["mode"], cycles=d["cycles"],
            instructions=d["instructions"],
            sm_stats=[SMStats.from_dict(s) for s in d["sm_stats"]],
            mem=dict(d["mem"]), blocks_baseline=d["blocks_baseline"],
            blocks_total=d["blocks_total"], metrics=d.get("metrics"))

    def summary(self) -> dict[str, int | float]:
        """Flat dict of the headline numbers (for reports/tests).

        Values keep their native types: integer ``mem`` counters (e.g.
        ``dram_requests``) stay ints, matching :meth:`to_dict` and the
        sweep CSV — they were previously coerced to float here, making
        the three disagree.
        """
        out: dict[str, int | float] = {
            "ipc": self.ipc,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "max_resident_blocks": self.max_resident_blocks,
        }
        out.update(self.mem)
        return out
