"""Warp scheduling policies (unit level, with minimal stub warps)."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.base import SCHEDULERS, make_scheduler
from repro.sim.warp import WarpContext, WarpState


class StubPair:
    """A sharing pair whose owner is side 0."""

    owner = 0


PAIR = StubPair()


class StubWarp:
    """Minimal stand-in carrying just what schedulers consume.

    ``cls`` is the OWF class (0 owner, 1 unshared, 2 non-owner), encoded
    the way the simulator does: through ``block.pair`` and
    ``block.side``.  ``port`` marks a next instruction that needs the
    LD/ST port.
    """

    owf_class = WarpContext.owf_class

    def __init__(self, dynamic_id, cls=1, port=False):
        self.dynamic_id = dynamic_id
        self.state = WarpState.READY
        self.instr = SimpleNamespace(uses_port=port)
        self.block = SimpleNamespace(pair=None if cls == 1 else PAIR,
                                     side=1 if cls == 2 else 0)

    def __repr__(self):
        return f"W{self.dynamic_id}"


def scheduler(name, warps, **kw):
    """A scheduler whose partition holds ``warps`` (ascending ids)."""
    s = make_scheduler(name, 0, **kw)
    for w in warps:
        s.on_ready(w)
    return s


def block(w):
    w.state = WarpState.BLOCK_MEM


class TestFactory:
    def test_known_names(self):
        assert set(SCHEDULERS) == {"lrr", "gto", "two_level", "owf"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", 0)


class TestLRR:
    def test_rotates(self):
        s = scheduler("lrr", [StubWarp(i) for i in range(3)])
        picked = []
        for _ in range(6):
            w = s.select(True)
            picked.append(w.dynamic_id)
            s.on_issued(w)
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_skips_unissuable(self):
        ws = [StubWarp(0, port=True), StubWarp(1, port=True), StubWarp(2)]
        s = scheduler("lrr", ws)
        assert s.select(False) is ws[2]

    def test_none_when_empty(self):
        assert make_scheduler("lrr", 0).select(True) is None


class TestGTO:
    def test_greedy_sticks_with_last(self):
        s = scheduler("gto", [StubWarp(i) for i in range(3)])
        w = s.select(True)
        assert w.dynamic_id == 0  # oldest first
        s.on_issued(w)
        assert s.select(True) is w  # greedy

    def test_falls_back_to_oldest(self):
        ws = [StubWarp(i) for i in range(3)]
        s = scheduler("gto", ws)
        s.on_issued(ws[0])
        block(ws[0])
        assert s.select(True) is ws[1]

    def test_ignores_unissuable_last(self):
        ws = [StubWarp(0, port=True), StubWarp(1)]
        s = scheduler("gto", ws)
        s.on_issued(ws[0])
        assert s.select(False) is ws[1]


class TestTwoLevel:
    def test_stays_in_active_group(self):
        s = scheduler("two_level", [StubWarp(i) for i in range(4)],
                      fetch_group_size=2)  # groups {0,1}, {2,3}
        picked = []
        for _ in range(4):
            w = s.select(True)
            picked.append(w.dynamic_id)
            s.on_issued(w)
        assert picked == [0, 1, 0, 1]  # round robin inside group 0

    def test_switches_group_when_active_stalls(self):
        ws = [StubWarp(i) for i in range(4)]
        s = scheduler("two_level", ws, fetch_group_size=2)
        s.on_issued(s.select(True))
        for w in ws[:2]:
            block(w)
        w = s.select(True)
        assert w is ws[2]  # oldest warp of the next group
        s.on_issued(w)
        ws[0].state = WarpState.READY
        # now sticks with group 1 although group 0 is ready again
        assert s.select(True) is ws[3]

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("two_level", 0, fetch_group_size=0)


class TestOWF:
    def test_class_priority(self):
        nonowner = StubWarp(0, cls=2)
        unshared = StubWarp(1, cls=1)
        owner = StubWarp(5, cls=0)
        s = scheduler("owf", [nonowner, unshared, owner])
        assert s.select(True) is owner

    def test_unshared_beats_nonowner(self):
        nonowner = StubWarp(0, cls=2)
        unshared = StubWarp(9, cls=1)
        s = scheduler("owf", [nonowner, unshared])
        assert s.select(True) is unshared

    def test_nonowner_used_as_last_resort(self):
        nonowner = StubWarp(0, cls=2)
        s = scheduler("owf", [nonowner])
        assert s.select(True) is nonowner

    def test_oldest_within_class(self):
        ws = [StubWarp(0, cls=2)] + [StubWarp(i, cls=1) for i in (2, 4, 7)]
        s = scheduler("owf", ws)
        assert s.select(True).dynamic_id == 2

    def test_greedy_within_class(self):
        a, b = StubWarp(1, cls=1), StubWarp(2, cls=1)
        s = scheduler("owf", [a, b])
        s.on_issued(b)
        assert s.select(True) is b  # sticks with last, same class

    def test_greedy_never_crosses_class(self):
        last = StubWarp(2, cls=1)
        owner = StubWarp(5, cls=0)
        s = scheduler("owf", [last, owner])
        s.on_issued(last)
        assert s.select(True) is owner

    def test_equals_gto_when_all_unshared(self):
        ws_o = [StubWarp(i, cls=1, port=i % 3 == 0) for i in range(6)]
        ws_g = [StubWarp(i, cls=1, port=i % 3 == 0) for i in range(6)]
        owf = scheduler("owf", ws_o)
        gto = scheduler("gto", ws_g)
        rng = random.Random(7)
        for _ in range(200):
            port_free = rng.random() < 0.7
            po = owf.select(port_free)
            pg = gto.select(port_free)
            assert (po.dynamic_id if po else None) == \
                (pg.dynamic_id if pg else None)
            if po is None:
                for a, b in zip(ws_o, ws_g):
                    a.state = b.state = WarpState.READY
                continue
            owf.on_issued(po)
            gto.on_issued(pg)
            if rng.random() < 0.4:  # randomly block the issued warp
                block(po)
                block(pg)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
class TestPortTaken:
    """``select(False)``: the LD/ST port already issued this cycle."""

    def test_never_returns_port_user(self, name):
        rng = random.Random(name)
        ws = [StubWarp(i, cls=i % 3, port=i % 2 == 0) for i in range(12)]
        s = scheduler(name, ws, fetch_group_size=4)
        for _ in range(200):
            for w in ws:
                w.state = (WarpState.READY if rng.random() < 0.5
                           else WarpState.BLOCK_MEM)
            w = s.select(False)
            if w is None:
                assert all(c.state is not WarpState.READY
                           or c.instr.uses_port for c in ws)
            else:
                assert w.state is WarpState.READY
                assert not w.instr.uses_port
                s.on_issued(w)

    def test_none_when_only_port_users_ready(self, name):
        ws = [StubWarp(0, port=True), StubWarp(1), StubWarp(2, port=True)]
        s = scheduler(name, ws, fetch_group_size=2)
        block(ws[1])
        assert s.select(False) is None
        assert s.select(True) is not None

    def test_stickiness_skips_port_using_last(self, name):
        ws = [StubWarp(0), StubWarp(1), StubWarp(2)]
        s = scheduler(name, ws, fetch_group_size=4)
        s.on_issued(ws[1])
        ws[1].instr.uses_port = True
        w = s.select(False)
        assert w is not None and w is not ws[1]
        if name in ("gto", "owf"):
            assert w is ws[0]               # the oldest candidate instead
            assert s.select(True) is ws[1]  # greedy once the port frees

    def test_group_switch_only_to_non_port_warp(self, name):
        # groups {0,1}, {2,3}, {4,5}: group 0 blocked, group 1 needs
        # the port, so a port-taken switch must skip to group 2.
        ws = [StubWarp(0), StubWarp(1), StubWarp(2, port=True),
              StubWarp(3, port=True), StubWarp(4, port=True), StubWarp(5)]
        s = scheduler(name, ws, fetch_group_size=2)
        s.on_issued(ws[0])
        block(ws[0])
        block(ws[1])
        assert s.select(False) is ws[5]
        if name == "two_level":
            assert s._active_group == 2
            assert s.select(True) is ws[4]  # stays in the new group


# ----------------------------------------------------------------------
# Every policy against a naive statement of it
# ----------------------------------------------------------------------

class NaivePolicy:
    """Each policy restated over sorted candidate lists.

    ``cands`` are the partition's READY warps that may issue (the port
    filter applied), in ascending id order.  The model keeps its own
    ``last`` and, for two-level, its own active group and rotation
    point, updated exactly where the policy says.
    """

    def __init__(self, name, group_size):
        self.name = name
        self.gs = group_size
        self.last = None
        self.group = 0
        self.after = -1

    @staticmethod
    def eligible(w, port_free):
        return w.state is WarpState.READY and (port_free
                                               or not w.instr.uses_port)

    def select(self, warps, port_free):
        cands = sorted((w for w in warps if self.eligible(w, port_free)),
                       key=lambda w: w.dynamic_id)
        if not cands:
            return None
        last = self.last
        sticky = last is not None and self.eligible(last, port_free)
        if self.name == "lrr":
            after = -1 if last is None else last.dynamic_id
            later = [w for w in cands if w.dynamic_id > after]
            return (later or cands)[0]
        if self.name == "gto":
            return last if sticky else cands[0]
        if self.name == "owf":
            top = min(w.owf_class() for w in cands)
            if sticky and last.owf_class() == top:
                return last
            return [w for w in cands if w.owf_class() == top][0]
        in_group = [w for w in cands if w.dynamic_id // self.gs == self.group]
        if in_group:
            later = [w for w in in_group if w.dynamic_id > self.after]
            return (later or in_group)[0]
        self.group = cands[0].dynamic_id // self.gs
        return cands[0]

    def on_issued(self, w):
        self.last = w
        self.after = w.dynamic_id
        self.group = w.dynamic_id // self.gs


class OwnedPair:
    def __init__(self, owner):
        self.owner = owner


_warp_spec = st.tuples(st.integers(1, 3),        # id gap to the previous
                       st.sampled_from([None, 0, 1]),  # pair owner
                       st.integers(0, 1),        # block side
                       st.booleans(),            # uses the port
                       st.booleans())            # READY


@given(name=st.sampled_from(sorted(SCHEDULERS)),
       spec=st.lists(_warp_spec, min_size=0, max_size=12),
       group_size=st.integers(1, 4),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_select_matches_naive_policy(name, spec, group_size, data):
    warps, wid = [], -1
    for gap, owner, side, port, ready in spec:
        wid += gap
        w = StubWarp(wid, port=port)
        w.block = SimpleNamespace(
            pair=None if owner is None else OwnedPair(owner), side=side)
        w.state = WarpState.READY if ready else WarpState.BLOCK_MEM
        warps.append(w)
    s = scheduler(name, warps, fetch_group_size=group_size)
    model = NaivePolicy(name, group_size)
    if warps and data.draw(st.booleans(), label="has last"):
        # ``last`` may be any warp, READY or not (also one that left).
        last = data.draw(st.sampled_from(warps), label="last")
        s.on_issued(last)
        model.on_issued(last)
    for _ in range(data.draw(st.integers(1, 8), label="rounds")):
        port_free = data.draw(st.booleans(), label="port_free")
        got = s.select(port_free)
        want = model.select(warps, port_free)
        assert got is want
        if got is not None and data.draw(st.booleans(), label="issue"):
            s.on_issued(got)
            model.on_issued(got)
        for w in warps:  # ownership moves and warps block or wake
            if data.draw(st.integers(0, 3), label="flip") == 0:
                w.state = (WarpState.BLOCK_SB if w.state is WarpState.READY
                           else WarpState.READY)
            if w.block.pair is not None and data.draw(
                    st.integers(0, 5), label="move owner") == 0:
                w.block.pair.owner = 1 - w.block.pair.owner
