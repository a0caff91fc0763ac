"""Warp access → cache-line addresses (the coalescer).

A global memory instruction carries a :class:`~repro.isa.instructions.MemDesc`
describing the warp-level pattern.  :func:`coalesce_lines` turns one
dynamic execution of that instruction — identified by (block linear id,
warp index within the block, loop iteration) — into the set of 128-byte
line addresses the LD/ST unit must fetch.

Address layout
    Each (kernel region, block) pair gets a disjoint address range so that
    *block-private* regions of concurrently resident blocks contend for
    cache capacity — the first-order effect behind the paper's
    "additional blocks increase L1/L2 misses" observations.  Region bases
    are spaced far apart and include a large odd stride so set indices of
    different regions interleave rather than alias systematically.
"""

from __future__ import annotations

from repro.isa.instructions import MemDesc
from repro.isa.opcodes import Pattern

__all__ = ["AddressMap", "coalesce_lines", "mix64"]

_REGION_SPACING = 1 << 34  # bytes between region bases (sparse layout)

# Hot-path aliases: enum member access goes through the Enum metaclass.
_COALESCED = Pattern.COALESCED
_BROADCAST = Pattern.BROADCAST
_STRIDED = Pattern.STRIDED


def mix64(x: int) -> int:
    """SplitMix64 finaliser — a cheap deterministic 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class AddressMap:
    """Assigns stable base addresses to kernel memory regions."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._bases: dict[str, int] = {}
        #: (id(mem), block_linear, line_size) → (mem, line-aligned block
        #: base, line count), filled by :func:`coalesce_lines`.  Each
        #: entry holds its MemDesc, so no other descriptor can take that
        #: id while the key exists.  (Hashing the frozen dataclass itself
        #: costs more than the arithmetic the memo saves.)
        self._lines: dict[tuple[int, int, int], tuple[MemDesc, int, int]] = {}

    def region_base(self, region: str) -> int:
        """Base byte address of ``region`` (assigned on first use)."""
        base = self._bases.get(region)
        if base is None:
            idx = len(self._bases)
            # Sparse, deterministic, and offset by an odd line-multiple so
            # regions don't all start at cache set 0.
            base = idx * _REGION_SPACING + (mix64(self.seed + idx) % 4096) * 128
            self._bases[region] = base
        return base

    def block_base(self, mem: MemDesc, block_linear: int) -> int:
        """Base address of the slice ``block_linear`` walks for ``mem``."""
        base = self.region_base(mem.region)
        if mem.block_private:
            base += block_linear * mem.footprint
        return base


def coalesce_lines(mem: MemDesc, amap: AddressMap, *, block_linear: int,
                   warp_in_block: int, warps_per_block: int, iter_idx: int,
                   line_size: int, seed: int) -> tuple[int, ...]:
    """Line addresses one warp execution of a global instruction touches.

    Returns ``mem.txn`` line addresses (1 for COALESCED/BROADCAST).
    Addresses wrap modulo the region footprint, so small footprints
    produce reuse and large footprints stream.
    """
    key = (id(mem), block_linear, line_size)
    memo = amap._lines.get(key)
    if memo is None:
        base = amap.block_base(mem, block_linear) // line_size * line_size
        n_lines = max(1, mem.footprint // line_size)
        amap._lines[key] = (mem, base, n_lines)
    else:
        base = memo[1]
        n_lines = memo[2]
    pattern = mem.pattern
    if pattern is _COALESCED:
        # Unit-stride streaming: each warp walks consecutive lines of its
        # (or the shared) region, one line per iteration.
        lane = warp_in_block if mem.block_private else (
            block_linear * warps_per_block + warp_in_block)
        return (base + (lane * 17 + iter_idx) % n_lines * line_size,)
    if pattern is _BROADCAST:
        return (base + (iter_idx * 3) % n_lines * line_size,)
    txn = mem.txn
    if pattern is _STRIDED:
        # txn equally spaced lines per access, advancing each iteration.
        stride = max(1, n_lines // txn)
        start = (warp_in_block + iter_idx * txn) % n_lines
        return tuple([base + (start + k * stride) % n_lines * line_size
                      for k in range(txn)])
    # RANDOM: txn pseudo-random lines (MUM-style divergent gather).
    at = (((seed << 1) ^ (block_linear * 0x10001) ^ (warp_in_block << 20))
          + iter_idx * 131)
    return tuple([base + mix64(at + k) % n_lines * line_size
                  for k in range(txn)])
