"""Focused SM behaviours: bank conflicts, Dyn paths, classification."""

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.isa.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.warp import WarpState

CFG1 = GPUConfig().scaled(num_clusters=1)


class TestBankConflicts:
    def _cycles(self, conflicts):
        b = KernelBuilder("bc", block_size=32, regs=8, smem=1024)
        with b.loop(10):
            b.lds(offset=0, conflicts=conflicts)
            b.alu_chain(1)  # depend on the load
        k = b.build().with_grid(1)
        return GPU(k, CFG1).run().cycles

    def test_conflicts_serialize(self):
        c1 = self._cycles(1)
        c4 = self._cycles(4)
        c16 = self._cycles(16)
        assert c1 < c4 < c16

    def test_conflict_magnitude(self):
        # each extra way adds a fixed bank re-access cost per load
        c1 = self._cycles(1)
        c9 = self._cycles(9)
        assert c9 - c1 >= 10 * 8 * 4  # 10 loads x 8 ways x >=4 cycles... scaled

    def test_builder_validation(self):
        b = KernelBuilder("bc", block_size=32, regs=8, smem=256)
        with pytest.raises(ValueError):
            b.lds(offset=0, conflicts=0)
        with pytest.raises(ValueError):
            b.lds(offset=0, conflicts=33)


class TestMemPort:
    def test_one_memory_issue_per_cycle(self):
        # Two schedulers, all-memory kernel: IPC can exceed 1 only via
        # the non-memory EXIT; the LD/ST port caps memory issue at 1.
        b = KernelBuilder("mp", block_size=256, regs=8, smem=1024)
        with b.loop(20):
            b.lds(offset=0)
        k = b.build().with_grid(1)
        r = GPU(k, CFG1).run()
        mem_instrs = r.sm_stats[0].mem_instructions
        assert mem_instrs / r.cycles <= 1.0 + 1e-9


class TestDynPaths:
    def _gpu(self):
        b = KernelBuilder("dy", block_size=256, regs=36, alloc="low_first")
        with b.loop(8):
            b.ldg(footprint=64 * 1024, block_private=False)
            b.alu_chain(1)
            b.alu_indep(2)
        k = b.build().with_grid(10)
        plan = plan_sharing(k, CFG1, SharingSpec(SharedResource.REGISTERS,
                                                 0.1))
        return GPU(k, CFG1, scheduler="owf", plan=plan, dyn=True)

    def test_sm0_refuses_nonowner_memory(self):
        gpu = self._gpu()
        r = gpu.run()
        # single SM machine == SM0: non-owner loads always refused
        assert r.sm_stats[0].dyn_refusals > 0

    def test_dyn_refused_warps_eventually_run(self):
        gpu = self._gpu()
        assert gpu.dispatcher is not None
        gpu.run()
        assert gpu.dispatcher.completed == 10  # no livelock

    def test_controller_absent_without_flag(self):
        b = KernelBuilder("dy", block_size=256, regs=36)
        with b.loop(4):
            b.alu_indep(2)
        k = b.build().with_grid(2)
        plan = plan_sharing(k, CFG1, SharingSpec(SharedResource.REGISTERS,
                                                 0.1))
        gpu = GPU(k, CFG1, plan=plan, dyn=False)
        assert gpu.dyn is None

    def test_controller_absent_without_sharing(self):
        b = KernelBuilder("dy", block_size=256, regs=36)
        with b.loop(4):
            b.alu_indep(2)
        gpu = GPU(b.build().with_grid(2), CFG1, dyn=True)  # no plan
        assert gpu.dyn is None


class TestClassification:
    def test_stall_states(self):
        from repro.sim.sm import _STALL_STATES, _IDLE_STATES
        assert WarpState.BLOCK_MEM in _STALL_STATES
        assert WarpState.BLOCK_SB in _STALL_STATES
        assert WarpState.BLOCK_RETRY in _STALL_STATES
        assert WarpState.BLOCK_BAR in _IDLE_STATES
        assert WarpState.BLOCK_LOCK in _IDLE_STATES
        assert WarpState.BLOCK_DYN in _IDLE_STATES
        assert not _STALL_STATES & _IDLE_STATES

    def test_lock_wait_counts_as_idle(self):
        # All-shared pairs with immediate shared access: the waiting
        # block's warps are BLOCK_LOCK -> idle cycles, not stalls.
        b = KernelBuilder("cl", block_size=256, regs=36, alloc="low_first")
        with b.loop(30):
            b.alu(dst=35, src=(35,))  # shared register from the start
        k = b.build().with_grid(6)
        plan = plan_sharing(k, CFG1, SharingSpec(SharedResource.REGISTERS,
                                                 0.1))
        r = GPU(k, CFG1, plan=plan).run()
        assert r.sm_stats[0].lock_waits > 0

    def test_empty_cycles_at_tail(self):
        b = KernelBuilder("e", block_size=32, regs=8)
        b.ldg(footprint=1 << 20)
        b.alu_chain(1)
        k = b.build().with_grid(1)
        r = GPU(k, GPUConfig().scaled(num_clusters=2)).run()
        # the second SM never receives work: all empty
        empty_sm = r.sm_stats[1]
        assert empty_sm.empty_cycles == r.cycles
        assert empty_sm.instructions == 0


@pytest.mark.parametrize("core", ["fast", "reference"])
def test_sm_core_keeps_shared_attribute_keys(core):
    # CPython shares one key table among a class's instances only up to
    # 30 attributes; past that every attribute read in SMCore.step and
    # _gate gets slower (see the SMCore docstring).
    from repro.obs import Observer
    from repro.workloads.apps import APPS

    kernel = APPS["MUM"].kernel(0.1).with_grid(4)
    plan = plan_sharing(kernel, CFG1, SharingSpec(SharedResource.REGISTERS,
                                                  0.1))
    gpu = GPU(kernel, CFG1, plan=plan, dyn=True, early_release=True,
              sanitize=True, core=core, obs=Observer())
    gpu.run()
    assert max(len(vars(sm)) for sm in gpu.sms) <= 30
