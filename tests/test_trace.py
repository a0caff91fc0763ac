"""Trace recorder."""

from repro.config import GPUConfig
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.isa.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.trace import TraceRecorder

CFG = GPUConfig().scaled(num_clusters=1)


def kernel(loops=3):
    b = KernelBuilder("t", block_size=64, regs=8, alloc="low_first")
    with b.loop(loops):
        b.alu_chain(1)
        b.alu_indep(1)
    return b.build().with_grid(2)


def traced(k, max_events=1_000_000, **gpu_kw):
    """Run ``k`` with a fresh recorder attached; (recorder, result)."""
    tr = TraceRecorder(max_events=max_events)
    return tr, GPU(k, CFG, obs=tr, **gpu_kw).run()


class TestRecorder:
    def test_records_every_issue(self):
        tr, r = traced(kernel())
        assert len(tr.events) == r.instructions
        assert not tr.truncated

    def test_result_matches_untraced_run(self):
        k = kernel()
        for core in ("fast", "reference"):
            plain = GPU(k, CFG, core=core).run()
            _tr, res = traced(k, core=core)
            assert res == plain, core

    def test_cycles_monotone_per_warp(self):
        tr, _r = traced(kernel(6))
        for w in {e.warp for e in tr.events}:
            cycles = [e.cycle for e in tr.for_warp(0, w)]
            assert cycles == sorted(cycles)
            assert len(set(cycles)) == len(cycles)  # 1 issue/cycle/warp

    def test_ops_recorded(self):
        tr, _r = traced(kernel())
        ops = {e.op for e in tr.events}
        assert "EXIT" in ops and "FFMA" in ops

    def test_issue_gaps(self):
        tr, _r = traced(kernel(6))
        gaps = tr.issue_gaps(0, 0)
        assert all(g >= 1 for g in gaps)

    def test_truncation_cap(self):
        tr, r = traced(kernel(10), max_events=5)
        assert len(tr.events) == 5
        assert tr.truncated
        assert r.instructions > 5  # run itself unaffected

    def test_timeline_render(self):
        tr, _r = traced(kernel())
        text = tr.timeline(sm=0, first=10)
        assert "cycle" in text and "UNS" in text

    def test_warp_classes_with_sharing(self):
        b = KernelBuilder("rs", block_size=256, regs=36, alloc="low_first")
        with b.loop(4):
            b.alu_chain(2)
            b.alu_indep(2)
        k = b.build().with_grid(6)
        plan = plan_sharing(k, CFG, SharingSpec(SharedResource.REGISTERS,
                                                0.1))
        tr, _r = traced(k, scheduler="owf", plan=plan)
        classes = {e.warp_class for e in tr.events}
        assert 0 in classes  # owner issues observed
        assert 1 not in classes  # hotspot geometry: every block paired
