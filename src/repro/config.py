"""GPU hardware configuration.

The defaults in :class:`GPUConfig` mirror Table I of the paper (a
GTX-480-class GPGPU-Sim configuration): 14 single-core clusters, 32768
registers and 16 KB of scratchpad per core, 1536 threads and 8 thread
blocks max per core, two LRR warp schedulers, 16 KB L1 per core, a shared
768 KB L2, and an FR-FCFS DRAM scheduler with GDDR3 timing parameters.

:class:`LatencyConfig` holds the pipeline/memory latencies of the
simulator.  The paper's GDDR3 timings are expressed in DRAM command
cycles; we fold a fixed core-to-DRAM clock ratio into the values so the
whole simulator runs on a single core-clock domain (see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

__all__ = ["GDDRTimings", "LatencyConfig", "GPUConfig", "WARP_SIZE"]

#: Number of threads in a warp (fixed across all NVIDIA generations the
#: paper considers; baked into the block→warp partitioning logic).
WARP_SIZE = 32


def _require_counts(obj: object, skip: tuple[str, ...] = ()) -> None:
    """Every field of ``obj`` not in ``skip`` is an ``int`` (not a
    ``bool``) of at least 1: all of them are counts, sizes or latencies."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.name not in skip and (not isinstance(v, int)
                                   or isinstance(v, bool) or v < 1):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be an "
                             f"int >= 1, got {v!r}")


@dataclass(frozen=True)
class GDDRTimings:
    """GDDR3 timing parameters from Table I, in DRAM command cycles.

    Only the parameters the FR-FCFS model consumes are kept:

    * ``tRCD`` — row-to-column delay (activate → read/write)
    * ``tRP``  — row precharge time (close row)
    * ``tCL``  — CAS latency (column read → first data)
    * ``tRAS`` — minimum row-active time
    * ``tRC``  — row cycle time (activate → activate, same bank)
    * ``tRRD`` — activate → activate, different banks
    * ``tWR``  — write recovery
    * ``tCDLR``— last-write-data → read command
    * ``burst``— data burst length in command cycles for one transaction
    """

    tRCD: int = 12
    tRP: int = 12
    tCL: int = 12
    tRAS: int = 28
    tRC: int = 40
    tRRD: int = 6
    tWR: int = 12
    tCDLR: int = 5
    burst: int = 4

    def __post_init__(self) -> None:
        _require_counts(self)


@dataclass(frozen=True)
class LatencyConfig:
    """Pipeline and memory-hierarchy latencies, in core cycles."""

    #: Simple integer/float ALU result latency (pipelined: only dependent
    #: instructions wait; independent issue continues every cycle).
    alu: int = 4
    #: Special function unit (transcendental) latency.
    sfu: int = 20
    #: Scratchpad (shared memory) load/store latency.
    scratchpad: int = 24
    #: L1 hit latency (includes LD/ST pipeline depth).
    l1_hit: int = 28
    #: One-way SM ↔ L2 interconnect latency.
    interconnect: int = 24
    #: L2 array access latency on a hit.
    l2_hit: int = 48
    #: Core-clock cycles per DRAM command cycle (clock-ratio fold-in).
    dram_clock_ratio: int = 2
    #: Fixed DRAM controller front-end latency (queue entry etc.).
    dram_fixed: int = 20

    def __post_init__(self) -> None:
        _require_counts(self)


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU configuration (Table I defaults).

    The per-*core* resource limits are the quantities the paper's Eq. 1-4
    operate on: ``registers_per_sm``, ``scratchpad_per_sm``,
    ``max_threads_per_sm`` and ``max_blocks_per_sm``.
    """

    # --- compute resources (Table I) ---
    num_clusters: int = 14
    cores_per_cluster: int = 1
    max_blocks_per_sm: int = 8
    max_threads_per_sm: int = 1536
    registers_per_sm: int = 32768
    scratchpad_per_sm: int = 16 * 1024  # bytes
    num_schedulers: int = 2

    # --- memory hierarchy (Table I + GPGPU-Sim GTX480 defaults) ---
    l1_size: int = 16 * 1024
    l1_assoc: int = 4
    line_size: int = 128
    l1_mshrs: int = 32
    l2_size: int = 768 * 1024
    l2_assoc: int = 8
    l2_mshrs: int = 64
    num_mem_partitions: int = 6
    banks_per_partition: int = 8
    dram_row_size: int = 2048  # bytes per row per bank
    dram_queue_depth: int = 32

    timings: GDDRTimings = field(default_factory=GDDRTimings)
    latency: LatencyConfig = field(default_factory=LatencyConfig)

    # --- two-level scheduler parameter (Narasiman et al.) ---
    fetch_group_size: int = 8

    def __post_init__(self) -> None:
        _require_counts(self, skip=("timings", "latency"))
        if not isinstance(self.timings, GDDRTimings):
            raise ValueError("timings must be a GDDRTimings")
        if not isinstance(self.latency, LatencyConfig):
            raise ValueError("latency must be a LatencyConfig")
        if self.max_threads_per_sm % WARP_SIZE:
            raise ValueError("max_threads_per_sm must be a warp multiple")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a power of two")
        for size, assoc, what in (
            (self.l1_size, self.l1_assoc, "L1"),
            (self.l2_size, self.l2_assoc, "L2"),
        ):
            if size % (assoc * self.line_size):
                raise ValueError(f"{what} size not divisible by assoc*line")

    @property
    def num_sms(self) -> int:
        """Total number of SM cores on the GPU."""
        return self.num_clusters * self.cores_per_cluster

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM."""
        return self.max_threads_per_sm // WARP_SIZE

    def scaled(self, *, num_clusters: int | None = None,
               max_blocks_per_sm: int | None = None) -> "GPUConfig":
        """Return a copy with a reduced machine size for fast experiments.

        Per-SM resources are untouched, so occupancy and sharing decisions
        (the quantities the paper studies) are identical to the full
        configuration; only the SM count shrinks.
        """
        kwargs: dict = {}
        if num_clusters is not None:
            kwargs["num_clusters"] = num_clusters
        if max_blocks_per_sm is not None:
            kwargs["max_blocks_per_sm"] = max_blocks_per_sm
        return replace(self, **kwargs)
