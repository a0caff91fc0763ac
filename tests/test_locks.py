"""Shared-pool lock managers: direction rule, handoff, deadlock freedom."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locks import RegisterShareGroup, ScratchpadShareGroup


class TestRegisterGroupBasics:
    def test_first_acquire_succeeds(self):
        g = RegisterShareGroup(4)
        assert g.try_acquire(0, 1)
        assert g.holds(0, 1)
        assert g.holder(1) == 0

    def test_reacquire_is_idempotent(self):
        g = RegisterShareGroup(4)
        assert g.try_acquire(0, 1)
        assert g.try_acquire(0, 1)
        assert g.held_by_side(0) == 1

    def test_partner_cannot_take_held_pool(self):
        g = RegisterShareGroup(4)
        g.try_acquire(0, 1)
        assert not g.try_acquire(1, 1)

    def test_direction_rule_blocks_other_side(self):
        # Fig. 5: while side 0 has live holders, side 1 cannot initiate
        # even on a *different* free slot.
        g = RegisterShareGroup(4)
        g.try_acquire(0, 0)
        assert not g.try_acquire(1, 2)

    def test_same_side_can_take_more_slots(self):
        g = RegisterShareGroup(4)
        g.try_acquire(0, 0)
        assert g.try_acquire(0, 3)
        assert g.held_by_side(0) == 2

    def test_invalid_side_rejected(self):
        g = RegisterShareGroup(2)
        with pytest.raises(ValueError):
            g.try_acquire(2, 0)

    def test_needs_slots(self):
        with pytest.raises(ValueError):
            RegisterShareGroup(0)


class TestHandoff:
    def test_pool_passes_on_warp_finish(self):
        # Paper: "only after W20 finishes execution, W30 can access".
        g = RegisterShareGroup(4)
        g.try_acquire(0, 1)
        g.try_acquire(0, 2)       # side 0 holds two pools
        assert not g.try_acquire(1, 1)
        g.warp_finished(0, 1)     # W20 finishes
        assert g.try_acquire(1, 1)   # W30 inherits slot 1
        # ...but slot 2's pool is still held by a live side-0 warp
        assert not g.try_acquire(1, 2)

    def test_handoff_does_not_open_other_slots(self):
        g = RegisterShareGroup(4)
        g.try_acquire(0, 0)
        g.warp_finished(0, 0)
        # slot 0 partner may inherit; slot 3 has a live... no holders at
        # all now, so side 1 may initiate anywhere.
        assert g.try_acquire(1, 3)

    def test_finished_without_holding(self):
        g = RegisterShareGroup(2)
        g.warp_finished(0, 1)  # never held: only records the finish
        assert g.try_acquire(1, 1)

    def test_release_callback_fires(self):
        g = RegisterShareGroup(2)
        calls = []
        g.on_release = lambda: calls.append(1)
        g.try_acquire(0, 0)
        g.warp_finished(0, 0)
        assert calls == [1]

    def test_reset_side_clears_holds_and_finishes(self):
        g = RegisterShareGroup(3)
        g.try_acquire(0, 0)
        g.warp_finished(0, 1)
        g.reset_side(0)
        assert g.held_by_side(0) == 0
        assert not g.partner_finished(1, 1)
        # a fresh side-0 block can acquire again
        assert g.try_acquire(1, 0)


class TestScratchpadGroup:
    def test_first_touch_wins(self):
        g = ScratchpadShareGroup()
        assert g.try_acquire(1)
        assert g.holder == 1
        assert not g.try_acquire(0)
        assert g.try_acquire(1)  # idempotent

    def test_release_only_by_holder(self):
        g = ScratchpadShareGroup()
        g.try_acquire(0)
        g.release(1)
        assert g.holder == 0
        g.release(0)
        assert g.holder is None

    def test_release_callback(self):
        g = ScratchpadShareGroup()
        calls = []
        g.on_release = lambda: calls.append(1)
        g.try_acquire(0)
        g.release(0)
        assert calls == [1]

    def test_partner_acquires_after_release(self):
        g = ScratchpadShareGroup()
        g.try_acquire(0)
        g.release(0)
        assert g.try_acquire(1)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            ScratchpadShareGroup().try_acquire(5)


class TestDeadlockFreedom:
    """Model-check the invariant behind Fig. 5: with the direction rule,
    some live lock-holding warp can always finish (it never waits on a
    lock itself), so the system always drains."""

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)),
                    min_size=1, max_size=60),
           st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_holders_never_blocked(self, ops, n_slots):
        g = RegisterShareGroup(n_slots)
        live = {(s, k) for s in (0, 1) for k in range(n_slots)}
        held = {}
        for side, slot in ops:
            slot %= n_slots
            if (side, slot) not in live:
                continue
            if g.try_acquire(side, slot):
                held[slot] = side
                # a holder can always finish: simulate it finishing
                if len(held) > 2:
                    fs, fk = held[slot], slot
                    g.warp_finished(fs, fk)
                    live.discard((fs, fk))
                    del held[fk]
        # At most one side has live *initiated* holders at any point;
        # remaining holders can all finish without blocking.
        for slot, side in list(held.items()):
            g.warp_finished(side, slot)
        assert g.held_by_side(0) == 0 and g.held_by_side(1) == 0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_at_most_one_initiating_side(self, ops):
        """While no handoffs have happened, holders are all one side."""
        g = RegisterShareGroup(4)
        for side, slot in ops:
            g.try_acquire(side, slot)
        assert g.held_by_side(0) == 0 or g.held_by_side(1) == 0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3),
                              st.booleans()), min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_pool_exclusivity_always(self, ops):
        """No pool is ever held by both sides, under any interleaving of
        acquires and finishes."""
        g = RegisterShareGroup(4)
        finished = set()
        for side, slot, finish in ops:
            if (side, slot) in finished:
                continue
            if finish:
                g.warp_finished(side, slot)
                finished.add((side, slot))
            else:
                g.try_acquire(side, slot)
            holders = [g.holder(k) for k in range(4)]
            assert all(h in (None, 0, 1) for h in holders)
            assert g.held_by_side(0) == sum(1 for h in holders if h == 0)
            assert g.held_by_side(1) == sum(1 for h in holders if h == 1)
