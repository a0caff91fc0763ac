"""Coalescer and address map."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import MemDesc
from repro.isa.opcodes import MemSpace, Pattern
from repro.mem.request import AddressMap, coalesce_lines, mix64

LINE = 128


def desc(pattern=Pattern.COALESCED, txn=1, footprint=16 * 1024,
         block_private=True, region="r"):
    return MemDesc(MemSpace.GLOBAL, pattern=pattern, txn=txn,
                   footprint=footprint, block_private=block_private,
                   region=region)


def lines(mem, block=0, warp=0, it=0, amap=None, seed=0):
    return coalesce_lines(mem or desc(), amap or AddressMap(),
                          block_linear=block, warp_in_block=warp,
                          warps_per_block=8, iter_idx=it, line_size=LINE,
                          seed=seed)


class TestAddressMap:
    def test_region_bases_distinct(self):
        a = AddressMap()
        assert a.region_base("a") != a.region_base("b")

    def test_region_base_stable(self):
        a = AddressMap()
        assert a.region_base("x") == a.region_base("x")

    def test_block_private_slices_disjoint(self):
        a = AddressMap()
        m = desc(footprint=4096)
        b0 = a.block_base(m, 0)
        b1 = a.block_base(m, 1)
        assert abs(b1 - b0) >= m.footprint

    def test_shared_region_same_base(self):
        a = AddressMap()
        m = desc(block_private=False)
        assert a.block_base(m, 0) == a.block_base(m, 7)

    def test_line_alignment(self):
        for pat, txn in [(Pattern.COALESCED, 1), (Pattern.STRIDED, 4),
                         (Pattern.RANDOM, 4), (Pattern.BROADCAST, 1)]:
            for ln in lines(desc(pattern=pat, txn=txn)):
                assert ln % LINE == 0


class TestPatterns:
    def test_coalesced_single_transaction(self):
        assert len(lines(desc())) == 1

    def test_broadcast_single_transaction(self):
        assert len(lines(desc(pattern=Pattern.BROADCAST, txn=4))) == 1

    def test_strided_txn_count(self):
        out = lines(desc(pattern=Pattern.STRIDED, txn=4))
        assert len(out) == 4
        assert len(set(out)) == 4  # distinct lines

    def test_random_txn_count(self):
        out = lines(desc(pattern=Pattern.RANDOM, txn=8))
        assert len(out) == 8

    def test_coalesced_advances_with_iteration(self):
        m = desc()
        assert lines(m, it=0) != lines(m, it=1)

    def test_coalesced_wraps_in_footprint(self):
        m = desc(footprint=4 * LINE)
        base = AddressMap().block_base(m, 0)
        for it in range(20):
            (ln,) = lines(m, it=it)
            assert base // LINE * LINE <= ln < base + 4 * LINE

    def test_warps_get_different_lines(self):
        m = desc()
        assert lines(m, warp=0) != lines(m, warp=1)

    def test_random_deterministic(self):
        m = desc(pattern=Pattern.RANDOM, txn=4)
        a = AddressMap(seed=3)
        b = AddressMap(seed=3)
        assert coalesce_lines(m, a, block_linear=1, warp_in_block=2,
                              warps_per_block=8, iter_idx=5, line_size=LINE,
                              seed=9) == \
            coalesce_lines(m, b, block_linear=1, warp_in_block=2,
                           warps_per_block=8, iter_idx=5, line_size=LINE,
                           seed=9)

    def test_random_varies_with_seed(self):
        m = desc(pattern=Pattern.RANDOM, txn=4, footprint=1 << 20)
        assert lines(m, seed=1) != lines(m, seed=2)


class TestMix64:
    def test_deterministic(self):
        assert mix64(42) == mix64(42)

    def test_64bit(self):
        for x in (0, 1, 1 << 63, (1 << 64) - 1):
            assert 0 <= mix64(x) < (1 << 64)

    def test_avalanche(self):
        # neighbouring inputs should differ in many bits
        diff = bin(mix64(1000) ^ mix64(1001)).count("1")
        assert diff > 10


@given(pat=st.sampled_from(list(Pattern)), txn=st.integers(1, 32),
       block=st.integers(0, 200), warp=st.integers(0, 15),
       it=st.integers(0, 500),
       footprint=st.integers(LINE, 1 << 22))
@settings(max_examples=200, deadline=None)
def test_property_lines_always_inside_region(pat, txn, block, warp, it,
                                             footprint):
    m = desc(pattern=pat, txn=txn, footprint=footprint)
    amap = AddressMap()
    base = amap.block_base(m, block)
    lo = base // LINE * LINE
    hi = base + footprint + LINE
    out = coalesce_lines(m, amap, block_linear=block, warp_in_block=warp,
                         warps_per_block=16, iter_idx=it, line_size=LINE,
                         seed=7)
    n_expected = 1 if pat in (Pattern.COALESCED, Pattern.BROADCAST) else txn
    assert len(out) == n_expected
    for ln in out:
        assert ln % LINE == 0
        assert lo <= ln <= hi


def test_reused_map_matches_fresh_maps_across_dropped_descs():
    # MemDescs are made and dropped in a loop, so a new descriptor can
    # take the memory (and the id) of a dropped one with other fields;
    # one long-lived map must still give what a fresh map gives.
    regions = ("a", "b", "c")
    shared = AddressMap(seed=5)
    for r in regions:
        shared.region_base(r)
    rng = random.Random(11)
    for i in range(400):
        m = desc(pattern=rng.choice(list(Pattern)), txn=rng.randint(1, 8),
                 footprint=rng.choice((LINE, 3 * LINE, 4096, 1 << 16))
                 + rng.randrange(0, LINE),
                 block_private=rng.random() < 0.5,
                 region=rng.choice(regions))
        fresh = AddressMap(seed=5)
        for r in regions:
            fresh.region_base(r)
        for _ in range(3):
            kw = dict(block=rng.randrange(0, 40), warp=rng.randrange(0, 8),
                      it=rng.randrange(0, 100), seed=i)
            assert lines(m, amap=shared, **kw) == lines(m, amap=fresh, **kw)
        del m
