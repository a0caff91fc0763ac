"""Correctness checks and simulated-output summaries for the benchmark.

Every check returns a list of problem strings (empty when the output is
right), so a workload can count each failed check as a failed operation
and still report the rest.  The checks re-derive their expectations
from the kernel definition, not from the simulator:

* **instruction conservation** — a run issues exactly the dynamic
  instructions its grid defines: Σ over blocks and warps of Σ over
  segments of ``len(instrs) × trip count``, with the kernel's per-warp
  work-variance trip counts recomputed here;
* **cycle taxonomy** — every SM's active + stall + idle + empty cycles
  sum to the run's cycle count.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.core.occupancy import occupancy
from repro.core.unroll import reorder_registers
from repro.isa.kernel import Kernel
from repro.mem.request import mix64
from repro.sim.stats import RunResult


def _trip_counts(kernel: Kernel, block: int, slot: int) -> list[int]:
    """Per-segment trip counts of one warp (work-variance definition)."""
    v = kernel.work_variance
    out = []
    for si, seg in enumerate(kernel.segments):
        if v == 0.0 or seg.repeat <= 1:
            out.append(seg.repeat)
            continue
        h = mix64(kernel.seed * 1000003 + block * 8191 + slot * 131 + si)
        m = 1.0 + v * (2.0 * (h / 2.0 ** 64) - 1.0)
        out.append(max(1, round(seg.repeat * m)))
    return out


def grid_size(kernel: Kernel, config: GPUConfig, *, unroll: bool,
              waves: float, grid_blocks: int | None) -> int:
    """Grid the runner launches for this kernel (``runner.run`` rule)."""
    if grid_blocks is not None:
        return grid_blocks
    if unroll:
        kernel = reorder_registers(kernel)
    base = occupancy(kernel, config).blocks
    return max(1, round(waves * config.num_sms * base))


def expected_instructions(kernel: Kernel, grid: int) -> int:
    """Dynamic warp-instructions a grid of ``kernel`` must issue."""
    lens = [len(seg.instrs) for seg in kernel.segments]
    warps = kernel.warps_per_block
    if kernel.work_variance == 0.0:
        return grid * warps * kernel.dynamic_count
    total = 0
    for block in range(grid):
        for slot in range(warps):
            total += sum(n * r for n, r in
                         zip(lens, _trip_counts(kernel, block, slot)))
    return total


def check_result(res: RunResult, expected: int) -> list[str]:
    """Conservation + cycle-taxonomy problems of one run (empty = ok)."""
    problems = []
    if res.instructions != expected:
        problems.append(f"{res.kernel}/{res.mode}: issued "
                        f"{res.instructions} instructions, kernel defines "
                        f"{expected}")
    issued = sum(s.instructions for s in res.sm_stats)
    if issued != res.instructions:
        problems.append(f"{res.kernel}/{res.mode}: per-SM issued {issued} "
                        f"!= total {res.instructions}")
    for s in res.sm_stats:
        if s.total_cycles != res.cycles:
            problems.append(f"{res.kernel}/{res.mode}: SM{s.sm_id} cycle "
                            f"classes sum to {s.total_cycles}, run took "
                            f"{res.cycles}")
    return problems


def model_summary(results: list[RunResult]) -> dict[str, float]:
    """Simulated-time layer metrics over a fixed list of runs.

    Deterministic: a host-time change must leave every value identical.
    """
    if not results:
        return {"model.ipc_mean": 0.0, "model.stall_frac": 0.0,
                "mem.l1_miss_rate": 0.0, "mem.dram_row_hit_rate": 0.0,
                "core.locks.lock_acquires": 0}
    cycles = stall = 0
    l1_acc = l1_miss = 0
    dram_req = 0
    dram_hits = 0.0
    acquires = 0
    for r in results:
        for s in r.sm_stats:
            cycles += s.total_cycles
            stall += s.stall_cycles
            acquires += s.lock_acquires
        l1_acc += r.mem.get("l1_accesses", 0)
        l1_miss += r.mem.get("l1_misses", 0)
        req = r.mem.get("dram_requests", 0)
        dram_req += req
        dram_hits += r.mem.get("dram_row_hit_rate", 0.0) * req
    return {
        "model.ipc_mean": sum(r.ipc for r in results) / len(results),
        "model.stall_frac": stall / cycles if cycles else 0.0,
        "mem.l1_miss_rate": l1_miss / l1_acc if l1_acc else 0.0,
        "mem.dram_row_hit_rate": dram_hits / dram_req if dram_req else 0.0,
        "core.locks.lock_acquires": acquires,
    }
