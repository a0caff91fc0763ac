"""Opcodes, memory spaces and warp access patterns."""

from __future__ import annotations

from enum import Enum, auto

__all__ = ["Op", "MemSpace", "Pattern", "op_group", "GROUPS", "ALU_OPS",
           "SFU_OPS", "LOAD_OPS", "STORE_OPS", "GLOBAL_OPS", "SHARED_OPS",
           "MEM_OPS"]


class Op(Enum):
    """Instruction opcodes.

    The set is deliberately small: the paper's mechanisms depend on the
    *timing class* of an instruction (short ALU, long SFU, scratchpad,
    global memory, barrier, exit), not on its arithmetic semantics.
    """

    # short-latency arithmetic (pipelined ALU)
    IADD = auto()
    IMUL = auto()
    FADD = auto()
    FMUL = auto()
    FFMA = auto()
    MOV = auto()
    SETP = auto()
    # long-latency special function unit
    SFU = auto()
    # memory
    LDG = auto()   # load  from global memory
    STG = auto()   # store to   global memory
    LDS = auto()   # load  from scratchpad (shared memory)
    STS = auto()   # store to   scratchpad
    # synchronisation / control
    BAR = auto()   # __syncthreads()
    EXIT = auto()  # end of thread


class MemSpace(Enum):
    """Address space of a memory instruction."""

    GLOBAL = auto()
    SHARED = auto()


class Pattern(Enum):
    """Warp-level access pattern for a global memory instruction.

    The coalescer maps a pattern to a number of 128-byte transactions and
    to the addresses those transactions touch:

    * ``COALESCED`` — unit-stride, one transaction per warp access.
    * ``STRIDED``   — fixed element stride; ``txn`` transactions per access.
    * ``RANDOM``    — pointer-chasing / hash-scattered; ``txn`` independent
      lines drawn pseudo-randomly from the region (MUM-like divergence).
    * ``BROADCAST`` — all lanes read the same line (lookup tables).
    """

    COALESCED = auto()
    STRIDED = auto()
    RANDOM = auto()
    BROADCAST = auto()


ALU_OPS = frozenset({Op.IADD, Op.IMUL, Op.FADD, Op.FMUL, Op.FFMA, Op.MOV,
                     Op.SETP})
SFU_OPS = frozenset({Op.SFU})
LOAD_OPS = frozenset({Op.LDG, Op.LDS})
STORE_OPS = frozenset({Op.STG, Op.STS})
GLOBAL_OPS = frozenset({Op.LDG, Op.STG})
SHARED_OPS = frozenset({Op.LDS, Op.STS})
MEM_OPS = GLOBAL_OPS | SHARED_OPS

#: The functional groups of :func:`op_group`, in group-code order:
#: ``Instr.gcode`` is an index into this tuple.  The two compute groups
#: come first, so ``gcode < 2`` tests for a compute instruction and a
#: table of their result latencies can be indexed by the code.
GROUPS = ("alu", "sfu", "global", "shared", "bar", "exit")


def op_group(op: Op) -> str:
    """Classify an opcode into its functional group.

    Returns one of ``"alu"``, ``"sfu"``, ``"global"``, ``"shared"``,
    ``"bar"``, ``"exit"``.
    """
    if op in ALU_OPS:
        return "alu"
    if op in SFU_OPS:
        return "sfu"
    if op in GLOBAL_OPS:
        return "global"
    if op in SHARED_OPS:
        return "shared"
    if op is Op.BAR:
        return "bar"
    if op is Op.EXIT:
        return "exit"
    raise ValueError(f"unknown opcode {op!r}")
