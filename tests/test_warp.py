"""WarpContext trace navigation, scoreboard, work variance."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.builder import KernelBuilder
from repro.sim.block import BlockContext
from repro.sim.warp import REG_PENDING, WarpContext, WarpState, _warp_repeats


def kernel(loops=3, body=2, variance=0.0):
    b = KernelBuilder("t", block_size=64, regs=16, variance=variance)
    with b.loop(loops):
        b.alu_indep(body)
    b.alu_indep(1)
    return b.build()


def warp(k, block_id=0, slot=0, wid=0):
    blk = BlockContext(block_id, 0, k.warps_per_block, 0)
    return WarpContext(wid, slot, blk, k)


class TestTrace:
    def test_walks_full_trace(self):
        k = kernel()
        w = warp(k)
        seen = []
        for _ in range(k.dynamic_count):
            seen.append(w.current_instr.op)
            if seen[-1].name == "EXIT":
                break
            w.advance()
        assert len(seen) == k.dynamic_count
        assert seen[-1].name == "EXIT"

    def test_iter_idx_tracks_repetition(self):
        k = kernel(loops=3, body=2)
        w = warp(k)
        reps = []
        for _ in range(6):
            reps.append(w.iter_idx)
            w.advance()
        assert reps == [0, 0, 1, 1, 2, 2]

    def test_expected_instructions_no_variance(self):
        k = kernel()
        assert warp(k).expected_instructions == k.dynamic_count


class TestScoreboard:
    def test_initially_ready(self):
        w = warp(kernel())
        assert w.earliest_issue() == 0
        assert w.state is WarpState.READY

    def test_earliest_issue_max_of_regs(self):
        k = kernel()
        w = warp(k)
        ins = w.current_instr
        w.reg_ready[ins.dst[0]] = 100
        w.reg_ready[ins.src[0]] = 50
        assert w.earliest_issue() == 100

    def test_pending_sentinel_dominates(self):
        k = kernel()
        w = warp(k)
        w.reg_ready[w.current_instr.src[0]] = REG_PENDING
        assert w.earliest_issue() >= REG_PENDING


class TestVariance:
    def test_zero_variance_identical_repeats(self):
        k = kernel(variance=0.0)
        assert warp(k, 0, 0).repeats == warp(k, 9, 3).repeats

    def test_variance_spreads_work(self):
        k = kernel(loops=50, variance=0.5)
        counts = {warp(k, b, s).expected_instructions
                  for b in range(8) for s in range(2)}
        assert len(counts) > 3  # genuinely heterogeneous

    def test_variance_bounds(self):
        k = kernel(loops=100, variance=0.4)
        for b in range(20):
            reps = _warp_repeats(k, b, 0)
            assert 60 <= reps[0] <= 140
            assert reps[-1] == 1  # non-loop segment untouched

    def test_variance_deterministic(self):
        k = kernel(loops=50, variance=0.5)
        assert _warp_repeats(k, 3, 1) == _warp_repeats(k, 3, 1)

    def test_variance_differs_across_blocks(self):
        k = kernel(loops=50, variance=0.5)
        reps = {_warp_repeats(k, b, 0) for b in range(10)}
        assert len(reps) > 1

    @given(b=st.integers(0, 10_000), s=st.integers(0, 47),
           v=st.floats(0.0, 0.89))
    @settings(max_examples=200, deadline=None)
    def test_property_repeats_within_bounds(self, b, s, v):
        bld = KernelBuilder("t", block_size=64, regs=8, variance=v)
        with bld.loop(40):
            bld.alu_indep(1)
        k = bld.build()
        reps = _warp_repeats(k, b, s)
        assert 1 <= reps[0] <= round(40 * (1 + v)) + 1


class TestOwfClass:
    def test_unshared_block_is_class_1(self):
        assert warp(kernel()).owf_class() == 1
