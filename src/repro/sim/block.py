"""Thread-block context and sharing pairs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.locks import RegisterShareGroup, ScratchpadShareGroup
from repro.core.sharing import SharedResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import WarpContext

__all__ = ["BlockContext", "SharePair"]


class BlockContext:
    """One resident thread block."""

    __slots__ = ("linear_id", "sm_id", "n_warps", "warps", "active_warps",
                 "bar_count", "pair", "side", "launched_cycle")

    def __init__(self, linear_id: int, sm_id: int, n_warps: int,
                 launched_cycle: int) -> None:
        self.linear_id = linear_id
        self.sm_id = sm_id
        self.n_warps = n_warps
        self.warps: list["WarpContext"] = []
        self.active_warps = n_warps
        self.bar_count = 0
        #: SharePair this block belongs to (None → unshared block).
        self.pair: Optional["SharePair"] = None
        #: 0 or 1 — which member of the pair (meaningless when unshared).
        self.side = 0
        self.launched_cycle = launched_cycle

    @property
    def done(self) -> bool:
        """True once every warp has executed EXIT."""
        return self.active_warps == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" pair@{self.side}" if self.pair is not None else ""
        return f"<Block {self.linear_id} sm={self.sm_id}{tag}>"


class SharePair:
    """A two-block sharing group (paper Sec. III).

    Holds either a :class:`RegisterShareGroup` (warp-pair locks) or a
    :class:`ScratchpadShareGroup` (one block-level lock), depending on the
    shared resource.  A side may be temporarily empty while the dispatcher
    launches a replacement block into it.
    """

    __slots__ = ("resource", "blocks", "reg_group", "spad_group",
                 "owner_sticky", "owner")

    def __init__(self, resource: SharedResource, warps_per_block: int) -> None:
        self.resource = resource
        self.blocks: list[Optional[BlockContext]] = [None, None]
        #: Side that first acquired a shared pool; transfers to the
        #: partner when the owning *block* completes (paper Sec. IV-A).
        self.owner_sticky: Optional[int] = None
        #: Which side currently plays the *owner* role (paper Sec. IV-A):
        #: ``owner_sticky`` once set; before any acquisition, the older
        #: (earlier-launched) live block, which is ahead and will acquire
        #: the shared pool first.  Read on every issue and by every OWF
        #: ``select``, so it is a field, re-derived by
        #: :meth:`_update_owner` wherever its inputs change.
        self.owner = 1
        if resource is SharedResource.REGISTERS:
            self.reg_group: Optional[RegisterShareGroup] = \
                RegisterShareGroup(warps_per_block)
            self.spad_group: Optional[ScratchpadShareGroup] = None
        else:
            self.reg_group = None
            self.spad_group = ScratchpadShareGroup()

    # ------------------------------------------------------------------
    def attach(self, block: BlockContext, side: int) -> None:
        """Install ``block`` as member ``side`` of the pair."""
        if self.blocks[side] is not None:
            raise RuntimeError("pair side already occupied")
        self.blocks[side] = block
        block.pair = self
        block.side = side
        self._update_owner()

    def detach(self, block: BlockContext) -> None:
        """Remove a completed block, releasing everything it held."""
        side = block.side
        if self.blocks[side] is not block:
            raise RuntimeError("block not attached to this pair")
        if self.reg_group is not None:
            self.reg_group.reset_side(side)
        if self.spad_group is not None:
            self.spad_group.release(side)
        self.blocks[side] = None
        block.pair = None
        if self.owner_sticky == side:
            # Ownership transfers to the surviving partner (if any).
            other = 1 - side
            self.owner_sticky = other if self.blocks[other] is not None \
                else None
        self._update_owner()

    def note_acquired(self, side: int) -> None:
        """Record the first shared-pool acquisition (fixes ownership)."""
        if self.owner_sticky is None:
            self.owner_sticky = self.owner = side

    # ------------------------------------------------------------------
    def _update_owner(self) -> None:
        if self.owner_sticky is not None:
            self.owner = self.owner_sticky
            return
        a, b = self.blocks
        if a is None:
            self.owner = 1
        elif b is None:
            self.owner = 0
        else:
            self.owner = 0 if a.launched_cycle <= b.launched_cycle else 1

    def live_blocks(self) -> int:
        """Number of occupied sides."""
        return sum(1 for b in self.blocks if b is not None)
