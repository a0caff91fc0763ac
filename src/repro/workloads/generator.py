"""Parametric random-kernel generator for stress and property testing.

Generates structurally valid kernels across the whole feature space —
register/scratchpad pressure, loops, barriers, every access pattern,
work variance — from a seed, deterministically.  Used by the robustness
test suite ("any generated kernel completes under any mode") and handy
for fuzzing scheduler/sharing interactions.
"""

from __future__ import annotations

from repro.config import GPUConfig, WARP_SIZE
from repro.isa.builder import KernelBuilder
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Pattern
from repro.rng import PCG64

__all__ = ["GeneratorParams", "generate_kernel"]

KB = 1024

#: The access patterns a generated load draws from, in enum order.
_PATTERNS = tuple(Pattern)


class GeneratorParams:
    """Bounds for random kernel generation (all inclusive)."""

    def __init__(self, *,
                 min_warps: int = 1, max_warps: int = 16,
                 min_regs: int = 4, max_regs: int = 48,
                 max_smem: int = 8 * KB,
                 max_loops: int = 3, max_loop_trip: int = 20,
                 max_body: int = 8,
                 barrier_prob: float = 0.3,
                 variance_prob: float = 0.4) -> None:
        self.min_warps = min_warps
        self.max_warps = max_warps
        self.min_regs = min_regs
        self.max_regs = max_regs
        self.max_smem = max_smem
        self.max_loops = max_loops
        self.max_loop_trip = max_loop_trip
        self.max_body = max_body
        self.barrier_prob = barrier_prob
        self.variance_prob = variance_prob


def generate_kernel(seed: int, params: GeneratorParams | None = None,
                    config: GPUConfig | None = None) -> Kernel:
    """Deterministically generate a valid kernel that fits on an SM."""
    p = params or GeneratorParams()
    cfg = config or GPUConfig()
    rng = PCG64(seed)

    warps = rng.integers(p.min_warps, p.max_warps + 1)
    threads = warps * WARP_SIZE
    # Keep one block launchable: regs_per_thread * threads <= R.
    max_regs_fit = max(p.min_regs,
                       min(p.max_regs, cfg.registers_per_sm // threads))
    regs = rng.integers(p.min_regs, max_regs_fit + 1)
    smem = rng.integers(0, min(p.max_smem, cfg.scratchpad_per_sm) + 1)
    smem = (smem // 64) * 64  # realistic 64 B granularity

    use_variance = rng.random() < p.variance_prob
    # barriers inside loops are incompatible with variance (CUDA UB)
    allow_loop_bar = not use_variance

    b = KernelBuilder(
        f"gen{seed}", block_size=threads, regs=regs, smem=smem, seed=seed,
        alloc="high_first" if rng.random() < 0.5 else "low_first",
        variance=rng.uniform(0.1, 0.6) if use_variance else 0.0)

    def emit_body(in_loop: bool) -> None:
        n = rng.integers(1, p.max_body + 1)
        for _ in range(n):
            kind = rng.random()
            if kind < 0.45:
                if rng.random() < 0.5:
                    b.alu_chain(rng.integers(1, 4))
                else:
                    b.alu_indep(rng.integers(1, 4))
            elif kind < 0.55:
                b.sfu(1)
            elif kind < 0.75:
                pat = _PATTERNS[rng.integers(0, len(_PATTERNS))]
                txn = (rng.integers(1, 9)
                       if pat in (Pattern.STRIDED, Pattern.RANDOM) else 1)
                b.ldg(region=f"r{rng.integers(0, 3)}",
                      footprint=rng.integers(1, 65) * 8 * KB,
                      pattern=pat, txn=txn,
                      block_private=rng.random() < 0.5)
            elif kind < 0.85:
                b.stg(footprint=rng.integers(1, 65) * 8 * KB)
            elif smem > 0 and kind < 0.97:
                off = rng.integers(0, smem)
                wrap = rng.integers(off + 1, smem + 1) \
                    if rng.random() < 0.5 else 0
                stride = rng.integers(0, 256) if wrap else 0
                conflicts = rng.integers(1, 5) \
                    if rng.random() < 0.2 else 1
                if rng.random() < 0.5:
                    b.lds(offset=off, stride=stride, wrap=wrap,
                          conflicts=conflicts)
                else:
                    b.sts(offset=off, stride=stride, wrap=wrap,
                          conflicts=conflicts)
            else:
                if (allow_loop_bar or not in_loop) \
                        and rng.random() < p.barrier_prob:
                    b.bar()
                else:
                    b.alu_indep(1)

    emit_body(in_loop=False)
    for _ in range(rng.integers(0, p.max_loops + 1)):
        with b.loop(rng.integers(2, p.max_loop_trip + 1)):
            emit_body(in_loop=True)
        if rng.random() < p.barrier_prob:
            b.bar()
    emit_body(in_loop=False)
    return b.build()
