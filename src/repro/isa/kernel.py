"""Kernel representation: segments of instructions with repeat counts."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Tuple

from repro.config import WARP_SIZE
from repro.isa.instructions import Instr
from repro.isa.opcodes import Op, SHARED_OPS

__all__ = ["Segment", "Kernel"]


@dataclass(frozen=True)
class Segment:
    """A straight-line block of instructions executed ``repeat`` times.

    Loops in the synthetic kernels are unrolled at *trace* level: every
    warp executes ``instrs`` back-to-back ``repeat`` times.  Branch
    divergence is deliberately not modelled (the paper treats divergence
    handling as orthogonal work, Sec. VII).
    """

    instrs: Tuple[Instr, ...]
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if not self.instrs:
            raise ValueError("segment cannot be empty")

    @property
    def dynamic_count(self) -> int:
        """Dynamic instructions contributed by this segment."""
        return len(self.instrs) * self.repeat


@dataclass(frozen=True)
class Kernel:
    """A launchable kernel: resource signature + instruction segments.

    ``regs_per_thread`` and ``smem_per_block`` are the *declared* resource
    requirements that drive occupancy and sharing decisions (paper Tables
    II/III).  The instruction stream may touch fewer registers or a
    smaller scratchpad prefix than declared — the paper itself relies on
    this for lavaMD, whose scratchpad accesses never reach the shared
    region.
    """

    name: str
    threads_per_block: int
    regs_per_thread: int
    smem_per_block: int
    grid_blocks: int
    segments: Tuple[Segment, ...]
    seed: int = 0
    #: Data-dependent work imbalance: each warp's loop trip counts are
    #: scaled by a deterministic per-(block, warp) factor in
    #: ``[1-v, 1+v]``.  This models the per-thread trip-count variance of
    #: real kernels (MUM's query lengths, hotspot's boundary blocks, ...)
    #: that makes block-granularity resource allocation wasteful — the
    #: paper's motivation.  Kernels with barriers inside loops must keep
    #: v = 0 (diverging trip counts across a barrier are CUDA UB).
    work_variance: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.work_variance < 0.9:
            raise ValueError("work_variance must be in [0, 0.9)")
        if self.work_variance > 0.0:
            for seg in self.segments:
                if seg.repeat > 1 and any(i.op is Op.BAR for i in seg.instrs):
                    raise ValueError(
                        "work_variance requires barrier-free loop bodies "
                        "(diverging trip counts across __syncthreads)")
        if self.threads_per_block < 1 or self.threads_per_block > 1536:
            raise ValueError("threads_per_block out of range")
        if self.regs_per_thread < 1:
            raise ValueError("regs_per_thread must be >= 1")
        if self.smem_per_block < 0:
            raise ValueError("smem_per_block must be >= 0")
        if self.grid_blocks < 1:
            raise ValueError("grid_blocks must be >= 1")
        if not self.segments:
            raise ValueError("kernel must have at least one segment")
        last = self.segments[-1].instrs[-1]
        if last.op is not Op.EXIT:
            raise ValueError("kernel must end with EXIT")
        max_reg = self.max_register_used
        if max_reg >= self.regs_per_thread:
            raise ValueError(
                f"instruction uses register {max_reg} but kernel declares "
                f"only {self.regs_per_thread} registers/thread")
        for ins in self.static_instrs:
            if ins.op in SHARED_OPS:
                m = ins.mem
                assert m is not None
                hi = m.offset if m.wrap == 0 else max(m.offset, m.wrap - 1)
                if hi >= self.smem_per_block:
                    raise ValueError(
                        f"scratchpad access at offset {hi} exceeds declared "
                        f"{self.smem_per_block} bytes/block")

    # ------------------------------------------------------------------
    # resource signature helpers
    # ------------------------------------------------------------------
    @property
    def warps_per_block(self) -> int:
        """Warps per thread block (threads rounded up to warp multiples)."""
        return -(-self.threads_per_block // WARP_SIZE)

    @property
    def regs_per_block(self) -> int:
        """Registers one thread block occupies (``Rtb`` for registers)."""
        return self.regs_per_thread * self.threads_per_block

    @property
    def regs_per_warp(self) -> int:
        """Registers one warp occupies (``Rw`` in the paper)."""
        return self.regs_per_thread * WARP_SIZE

    # ------------------------------------------------------------------
    # instruction stream helpers
    # ------------------------------------------------------------------
    @property
    def static_instrs(self) -> Tuple[Instr, ...]:
        """All static instructions in program order (segments flattened)."""
        out: list[Instr] = []
        for seg in self.segments:
            out.extend(seg.instrs)
        return tuple(out)

    @property
    def dynamic_count(self) -> int:
        """Dynamic instructions executed by each warp."""
        return sum(seg.dynamic_count for seg in self.segments)

    @property
    def max_register_used(self) -> int:
        """Highest register sequence number referenced (-1 if none)."""
        hi = -1
        for ins in self.static_instrs:
            for r in ins.regs:
                hi = max(hi, r)
        return hi

    @property
    def registers_used(self) -> Tuple[int, ...]:
        """Distinct register indices in order of first use.

        This is the order the Sec. IV-B unroll-and-reorder pass declares
        registers in.
        """
        seen: dict[int, None] = {}
        for ins in self.static_instrs:
            for r in ins.regs:
                seen.setdefault(r)
        return tuple(seen)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the kernel (resources + instruction stream),
        computed once per instance.  It is the kernel's identity in
        every ``RunSpec`` digest: changing what is hashed here orphans
        every cached result."""
        h = hashlib.sha256()
        h.update(repr((self.name, self.threads_per_block,
                       self.regs_per_thread, self.smem_per_block,
                       self.grid_blocks, self.seed,
                       self.work_variance)).encode())
        for seg in self.segments:
            h.update(f"|x{seg.repeat}|".encode())
            for ins in seg.instrs:
                h.update(repr(ins).encode())
        return h.hexdigest()[:16]

    def iter_trace(self) -> Iterator[Instr]:
        """Yield the full dynamic instruction stream of one warp."""
        for seg in self.segments:
            for _ in range(seg.repeat):
                yield from seg.instrs

    def remap_registers(self, mapping: dict[int, int]) -> "Kernel":
        """Return a copy with every instruction renumbered via ``mapping``."""
        segs = tuple(
            Segment(tuple(i.remap(mapping) for i in s.instrs), s.repeat)
            for s in self.segments)
        return replace(self, segments=segs)

    def with_grid(self, grid_blocks: int) -> "Kernel":
        """Return a copy with a different grid size (used for scaling)."""
        return replace(self, grid_blocks=grid_blocks)
