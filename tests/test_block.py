"""BlockContext and SharePair: attachment, ownership, transfer."""

import pytest

from repro.core.sharing import SharedResource
from repro.sim.block import BlockContext, SharePair

REG = SharedResource.REGISTERS
SPAD = SharedResource.SCRATCHPAD


def blk(lid, launched=0):
    return BlockContext(lid, sm_id=0, n_warps=4, launched_cycle=launched)


class TestBlockContext:
    def test_done_tracks_active_warps(self):
        b = blk(0)
        assert not b.done
        b.active_warps = 0
        assert b.done

    def test_defaults_unshared(self):
        b = blk(0)
        assert b.pair is None
        assert b.side == 0


class TestSharePairAttachment:
    def test_attach_sets_backlinks(self):
        p = SharePair(REG, 4)
        a, b = blk(0), blk(1)
        p.attach(a, 0)
        p.attach(b, 1)
        assert a.pair is p and a.side == 0
        assert b.pair is p and b.side == 1
        assert p.live_blocks() == 2

    def test_double_attach_rejected(self):
        p = SharePair(REG, 4)
        p.attach(blk(0), 0)
        with pytest.raises(RuntimeError):
            p.attach(blk(1), 0)

    def test_detach_wrong_block_rejected(self):
        p = SharePair(REG, 4)
        p.attach(blk(0), 0)
        with pytest.raises(RuntimeError):
            p.detach(blk(9))

    def test_resource_selects_group_kind(self):
        assert SharePair(REG, 4).reg_group is not None
        assert SharePair(REG, 4).spad_group is None
        assert SharePair(SPAD, 4).spad_group is not None
        assert SharePair(SPAD, 4).reg_group is None


class TestOwnership:
    def test_older_block_is_default_owner(self):
        p = SharePair(REG, 4)
        p.attach(blk(0, launched=0), 0)
        p.attach(blk(1, launched=5), 1)
        assert p.owner == 0

    def test_acquisition_fixes_ownership(self):
        p = SharePair(REG, 4)
        p.attach(blk(0, launched=0), 0)
        p.attach(blk(1, launched=5), 1)
        p.note_acquired(1)  # the younger block touched shared first
        assert p.owner == 1
        p.note_acquired(0)  # later acquisitions don't steal ownership
        assert p.owner == 1

    def test_ownership_transfers_on_owner_completion(self):
        p = SharePair(SPAD, 4)
        a, b = blk(0), blk(1, launched=3)
        p.attach(a, 0)
        p.attach(b, 1)
        p.note_acquired(0)
        p.detach(a)  # owner block completes
        assert p.owner == 1  # paper Sec. IV-A transfer

    def test_new_partner_is_nonowner(self):
        p = SharePair(SPAD, 4)
        a, b = blk(0), blk(1, launched=3)
        p.attach(a, 0)
        p.attach(b, 1)
        p.note_acquired(0)
        p.detach(a)
        c = blk(2, launched=10)
        p.attach(c, 0)
        assert p.owner == 1  # survivor owns; c is non-owner

    def test_detach_nonowner_keeps_owner(self):
        p = SharePair(REG, 4)
        a, b = blk(0), blk(1)
        p.attach(a, 0)
        p.attach(b, 1)
        p.note_acquired(0)
        p.detach(b)
        assert p.owner == 0

    def test_detach_clears_locks(self):
        p = SharePair(REG, 4)
        a, b = blk(0), blk(1)
        p.attach(a, 0)
        p.attach(b, 1)
        g = p.reg_group
        g.try_acquire(0, 2)
        p.detach(a)
        assert g.held_by_side(0) == 0
        assert g.try_acquire(1, 2)  # pool free for the partner

    def test_single_live_block_owns(self):
        p = SharePair(REG, 4)
        b = blk(1)
        p.attach(b, 1)
        assert p.owner == 1

    def test_spad_detach_releases_region(self):
        p = SharePair(SPAD, 4)
        a, b = blk(0), blk(1)
        p.attach(a, 0)
        p.attach(b, 1)
        p.spad_group.try_acquire(0)
        p.detach(a)
        assert p.spad_group.holder is None
