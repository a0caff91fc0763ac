"""Event queue determinism and ordering."""

import pytest

from repro.events import EventQueue


class TestOrdering:
    def test_fires_in_cycle_order(self):
        ev = EventQueue()
        out = []
        ev.push(5, lambda c: out.append("a"))
        ev.push(2, lambda c: out.append("b"))
        ev.push(9, lambda c: out.append("c"))
        ev.run_due(10)
        assert out == ["b", "a", "c"]

    def test_same_cycle_insertion_order(self):
        ev = EventQueue()
        out = []
        for tag in "abcde":
            ev.push(3, lambda c, t=tag: out.append(t))
        ev.run_due(3)
        assert out == list("abcde")

    def test_run_due_respects_boundary(self):
        ev = EventQueue()
        out = []
        ev.push(4, lambda c: out.append(4))
        ev.push(5, lambda c: out.append(5))
        assert ev.run_due(4) == 1
        assert out == [4]
        assert ev.next_cycle() == 5

    def test_cascading_events_same_cycle(self):
        ev = EventQueue()
        out = []

        def first(c):
            out.append("first")
            ev.push(c, lambda c2: out.append("second"))

        ev.push(1, first)
        ev.run_due(1)
        assert out == ["first", "second"]

    def test_cascading_event_in_future(self):
        ev = EventQueue()
        out = []
        ev.push(1, lambda c: ev.push(c + 10, lambda c2: out.append(c2)))
        ev.run_due(1)
        assert out == []
        ev.run_due(11)
        assert out == [11]

    def test_next_cycle_empty(self):
        assert EventQueue().next_cycle() is None

    def test_len(self):
        ev = EventQueue()
        assert len(ev) == 0
        ev.push(1, lambda c: None)
        assert len(ev) == 1
        ev.run_due(1)
        assert len(ev) == 0

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, lambda c: None)

    def test_callback_receives_firing_cycle(self):
        # A late-fired event sees the current simulation time, not its
        # original schedule - "now" is what timing code needs.
        ev = EventQueue()
        got = []
        ev.push(7, got.append)
        ev.run_due(100)
        assert got == [100]


class _FakeSM:
    """Duck-typed SMCore stand-in for wake-record dispatch."""

    def __init__(self):
        self.now = -1
        self.woken = []

    def _set_state(self, warp, state):
        warp.state = state
        warp.wake_token += 1
        self.woken.append(warp)


class _FakeWarp:
    def __init__(self):
        self.state = "blocked"
        self.wake_token = 0


class TestWakeRecords:
    def test_valid_wake_makes_warp_ready(self):
        from repro.sim.warp import WarpState
        ev = EventQueue()
        sm, warp = _FakeSM(), _FakeWarp()
        ev.push_wake(9, sm, warp)
        ev.run_due(9)
        assert warp.state is WarpState.READY
        assert sm.now == 9
        assert sm.woken == [warp]

    def test_stale_token_drops_wake(self):
        ev = EventQueue()
        sm, warp = _FakeSM(), _FakeWarp()
        ev.push_wake(9, sm, warp)
        warp.wake_token += 1  # state changed since the wake was pushed
        ev.run_due(9)
        assert warp.state == "blocked"
        assert sm.woken == []

    def test_wake_pushed_by_callback_fires_same_call(self):
        # A wake a callback pushes for the current cycle fires in the
        # same run_due call, after the entries already due at that cycle.
        from repro.sim.warp import WarpState
        ev = EventQueue()
        sm, warp = _FakeSM(), _FakeWarp()
        out = []

        def first(c):
            out.append("first")
            ev.push_wake(c, sm, warp)

        ev.push(5, first)
        ev.push(5, lambda c: out.append("second"))

        orig = sm._set_state

        def record(w, s):
            out.append("wake")
            orig(w, s)

        sm._set_state = record
        assert ev.run_due(5) == 3
        assert out == ["first", "second", "wake"]
        assert warp.state is WarpState.READY
        assert len(ev) == 0

    def test_wakes_and_callbacks_share_one_order(self):
        # Wake records and callback events at the same cycle must fire in
        # insertion order: the fast core relies on heap order matching
        # the reference core's closure-based events exactly.
        from repro.sim.warp import WarpState
        ev = EventQueue()
        sm, warp = _FakeSM(), _FakeWarp()
        out = []
        ev.push(5, lambda c: out.append("before"))
        ev.push_wake(5, sm, warp)
        ev.push(5, lambda c: out.append("after"))

        orig = sm._set_state

        def record(w, s):
            out.append("wake")
            orig(w, s)

        sm._set_state = record
        ev.run_due(5)
        assert out == ["before", "wake", "after"]
        assert warp.state is WarpState.READY
