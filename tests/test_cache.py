"""Set-associative LRU cache with MSHRs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache


def mk(size=1024, assoc=2, line=64, mshrs=4):
    return Cache(size=size, assoc=assoc, line_size=line, mshrs=mshrs)


class TestBasics:
    def test_geometry(self):
        c = mk()
        assert c.n_sets == 1024 // (2 * 64) == 8

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(size=1000, assoc=3, line_size=64, mshrs=4)

    def test_cold_miss_then_hit(self):
        c = mk()
        assert c.lookup(0, "w") == "miss"
        c.fill(0)
        assert c.lookup(0, "w2") == "hit"
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_fill_returns_waiters_in_order(self):
        c = mk()
        c.lookup(0, "a")
        assert c.lookup(0, "b") == "merge"
        assert c.fill(0) == ["a", "b"]

    def test_merge_counts_as_miss(self):
        c = mk()
        c.lookup(0, "a")
        c.lookup(0, "b")
        assert c.stats.misses == 2
        assert c.stats.mshr_merges == 1

    def test_mshr_reject_when_full(self):
        c = mk(mshrs=2)
        assert c.lookup(0 * 64, "a") == "miss"
        assert c.lookup(1 * 64, "b") == "miss"
        assert c.lookup(2 * 64, "c") == "reject"
        assert c.stats.mshr_rejects == 1
        # rejected access is not counted as an access
        assert c.stats.accesses == 2

    def test_mshr_free(self):
        c = mk(mshrs=3)
        assert c.mshr_free == 3
        c.lookup(0, "a")
        assert c.mshr_free == 2
        c.fill(0)
        assert c.mshr_free == 3

    def test_probe_no_side_effects(self):
        c = mk()
        assert not c.probe(0)
        assert c.stats.accesses == 0
        c.lookup(0, "a")
        c.fill(0)
        assert c.probe(0)

    def test_bypass_store_path(self):
        c = mk()
        assert c.lookup(0, None, allocate=False) == "bypass"
        assert c.stats.misses == 1
        assert c.mshr_free == c.n_mshrs
        c.lookup(0, "a")
        c.fill(0)
        assert c.lookup(0, None, allocate=False) == "hit"


class TestLRU:
    def test_eviction_order(self):
        c = mk(size=256, assoc=2, line=64, mshrs=8)  # 2 sets
        # lines 0, 2, 4 all map to set 0 (line_addr//64 % 2 == 0)
        for ln in (0, 128, 256):
            c.lookup(ln, "w")
            c.fill(ln)
        assert not c.probe(0)       # LRU evicted
        assert c.probe(128) and c.probe(256)
        assert c.stats.evictions == 1

    def test_hit_refreshes_lru(self):
        c = mk(size=256, assoc=2, line=64, mshrs=8)
        for ln in (0, 128):
            c.lookup(ln, "w")
            c.fill(ln)
        c.lookup(0, "w")            # refresh 0
        c.lookup(256, "w")
        c.fill(256)
        assert c.probe(0)
        assert not c.probe(128)

    def test_fill_unrequested_line_installs(self):
        c = mk()
        assert c.fill(0) == []
        assert c.probe(0)


class ReferenceLRU:
    """Simple dict-based LRU model for differential testing."""

    def __init__(self, n_sets, assoc, line):
        self.n_sets, self.assoc, self.line = n_sets, assoc, line
        self.sets = [dict() for _ in range(n_sets)]  # insertion-ordered

    def _set(self, addr):
        return self.sets[(addr // self.line) % self.n_sets]

    def access(self, addr):
        s = self._set(addr)
        if addr in s:
            del s[addr]
            s[addr] = None
            return True
        if len(s) >= self.assoc:
            del s[next(iter(s))]
        s[addr] = None
        return False


@given(st.lists(st.integers(0, 31), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_property_matches_reference_lru(line_ids):
    """Fill-immediately cache behaves exactly like a textbook LRU."""
    c = Cache(size=4 * 4 * 64, assoc=4, line_size=64, mshrs=64)
    ref = ReferenceLRU(n_sets=4, assoc=4, line=64)
    for lid in line_ids:
        addr = lid * 64
        ref_hit = ref.access(addr)
        got = c.lookup(addr, "w")
        if got == "miss":
            c.fill(addr)
        assert (got == "hit") == ref_hit


@given(st.lists(st.integers(0, 15), max_size=40),
       st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True))
@settings(max_examples=200, deadline=None)
def test_rejects_matches_mshr_demand(ops, load):
    """``rejects`` (with its one-line shortcut) agrees with the count:
    a load is rejected exactly when it needs more MSHRs than are free.
    ``ops`` drives the cache: even ids miss or merge, odd ids fill."""
    c = Cache(size=2 * 2 * 64, assoc=2, line_size=64, mshrs=3)
    for op in ops:
        line = op // 2 * 64
        if op % 2 == 0:
            c.lookup(line, "w")
        elif line in c.mshr:
            c.fill(line)
    lines = tuple(i * 64 for i in load)
    assert c.rejects(lines) == (c.mshr_demand(lines) > c.mshr_free)
    if len(lines) == 1:
        # One line: rejected exactly when its lookup would be.
        assert c.rejects(lines) == (c.lookup(lines[0], "w") == "reject")
