"""Instruction and memory-descriptor records."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.isa.opcodes import (GROUPS, MEM_OPS, GLOBAL_OPS, MemSpace,
                               Op, Pattern, op_group)

__all__ = ["MemDesc", "Instr"]


@dataclass(frozen=True)
class MemDesc:
    """Describes how one memory instruction touches memory.

    Global descriptors
        ``pattern``/``txn`` determine how many 128-byte transactions the
        coalescer emits per warp execution of the instruction.
        ``footprint`` is the size in bytes of the region the instruction
        walks; addresses wrap modulo the footprint, so a footprint smaller
        than the cache captures reuse, while a large footprint streams.
        ``block_private`` selects whether each thread block walks its own
        slice of the region (True: more resident blocks → proportionally
        larger aggregate working set, the cache-contention effect the
        paper discusses for LIB/mri-q) or all blocks share one region
        (False: inter-block reuse).

    Shared (scratchpad) descriptors
        ``offset``/``stride``/``wrap`` give the byte offset sequence
        ``(offset + i*stride) mod wrap`` across loop iterations ``i``;
        ``wrap == 0`` means the offset is constant.  Whether an offset
        falls in the private or the shared scratchpad partition is decided
        at run time against the sharing threshold (paper Fig. 4).
    """

    space: MemSpace
    # -- global --
    pattern: Pattern = Pattern.COALESCED
    txn: int = 1
    footprint: int = 0
    block_private: bool = True
    region: str = "g0"
    # -- shared --
    offset: int = 0
    stride: int = 0
    wrap: int = 0
    #: Scratchpad bank-conflict degree: lanes hit ``conflicts`` distinct
    #: rows of the same bank, serialising the access (1 = conflict-free).
    conflicts: int = 1

    def __post_init__(self) -> None:
        if self.space is MemSpace.GLOBAL:
            if self.txn < 1 or self.txn > 32:
                raise ValueError("txn must be in 1..32")
            if self.footprint <= 0:
                raise ValueError("global footprint must be positive")
        else:
            if self.offset < 0 or self.stride < 0 or self.wrap < 0:
                raise ValueError("shared offsets must be non-negative")
            if not 1 <= self.conflicts <= 32:
                raise ValueError("conflicts must be in 1..32")


@dataclass(frozen=True)
class Instr:
    """One static instruction.

    ``dst``/``src`` are *per-thread register sequence numbers* — the same
    numbers the paper's Fig. 3 access check compares against ``Rw*t`` and
    the Sec. IV-B pass renumbers.  All 32 lanes of a warp execute the
    instruction together, so the simulator tracks registers at warp
    granularity using these per-thread indices.
    """

    op: Op
    dst: Tuple[int, ...] = ()
    src: Tuple[int, ...] = ()
    mem: MemDesc | None = None

    # Derived metadata, precomputed once at construction so the
    # simulator's issue loop never recomputes it per dynamic instruction
    # (non-field attributes: they do not participate in eq/repr/replace).
    #
    # ``gcode``    — functional group as its index in ``GROUPS`` (0 alu,
    #                1 sfu, 2 global, 3 shared, 4 bar, 5 exit).
    # ``regs``     — all register indices, dst first (was a property
    #                that rebuilt the tuple on every scoreboard check).
    # ``max_reg``  — highest register index (-1 if none); the Fig. 3
    #                shared-access check reduces to ``max_reg >= Rw·t``.
    # ``uses_port``— True for global/shared memory instructions (the
    #                single LD/ST port structural constraint).
    gcode: int = field(init=False, repr=False, compare=False)
    regs: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    max_reg: int = field(init=False, repr=False, compare=False)
    uses_port: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op in MEM_OPS:
            if self.mem is None:
                raise ValueError(f"{self.op.name} requires a MemDesc")
            want = MemSpace.GLOBAL if self.op in GLOBAL_OPS else MemSpace.SHARED
            if self.mem.space is not want:
                raise ValueError(
                    f"{self.op.name} descriptor has space {self.mem.space}")
        elif self.mem is not None:
            raise ValueError(f"{self.op.name} cannot carry a MemDesc")
        regs = (*self.dst, *self.src)
        for r in regs:
            if r < 0:
                raise ValueError("register indices must be non-negative")
        group = op_group(self.op)
        object.__setattr__(self, "gcode", GROUPS.index(group))
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "max_reg", max(regs, default=-1))
        object.__setattr__(self, "uses_port",
                           group == "global" or group == "shared")

    def remap(self, mapping: dict[int, int]) -> "Instr":
        """Return a copy with registers renumbered through ``mapping``.

        Used by the unroll-and-reorder pass (Sec. IV-B).  Registers not in
        the mapping are left unchanged.
        """
        return replace(
            self,
            dst=tuple(mapping.get(r, r) for r in self.dst),
            src=tuple(mapping.get(r, r) for r in self.src),
        )
