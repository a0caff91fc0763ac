"""Differential tests: fast core ≡ reference core ≡ committed goldens.

The event-driven fast core (default) and the scan-based reference core
(``core="reference"``) must produce bit-identical
:class:`RunResult`\\ s on every configuration.  ``golden_core.json``
pins the full :func:`~repro.harness.golden.core_matrix` — small kernels
× {baseline, register sharing, scratchpad sharing} × {lrr, gto,
two_level, owf} × {Dyn on/off} plus unroll/early-release cells — to
fingerprints captured from the pristine pre-optimisation core, so the
two implementations cannot drift jointly either.

The full matrix (56 cells × 2 cores) runs in ``test_no_drift_*``; a
smaller slice re-runs under ``sanitize=True`` to prove the fast core
upholds the DESIGN.md §6 invariants, not just the final counters, and
another is traced on both cores to pin the issue order itself.
``TestGeneratedKernels`` compares the two cores directly on seeded
random kernels, outside the curated apps the goldens cover.
``TestParking`` checks that the fast core parks MSHR-rejected warps
where it should, and that parked warps keep both cores in step.
"""

import dataclasses
import json

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.core.unroll import reorder_registers
from repro.events import EventQueue
from repro.harness.golden import (CORE_APPS, check_core_goldens,
                                  core_config, core_key,
                                  core_matrix, golden_core_path)
from repro.harness.runner import run, shared, unshared
from repro.isa.builder import KernelBuilder
from repro.isa.opcodes import Pattern
from repro.obs import Observer
from repro.obs.sink import NULL_SINK
from repro.sim.gpu import GPU, SimulationLimitExceeded
from repro.sim.sm import SMCore
from repro.sim.trace import TraceRecorder
from repro.sim.warp import WarpState
from repro.workloads.apps import APPS
from repro.workloads.generator import GeneratorParams, generate_kernel


class TestGoldenFile:
    def test_golden_core_file_exists(self):
        assert golden_core_path().is_file()

    def test_covers_exact_matrix(self):
        data = json.loads(golden_core_path().read_text())
        assert set(data) == {core_key(a, m) for a, m in core_matrix()}

    def test_matrix_exercises_all_schedulers_and_resources(self):
        labels = {m.label for _, m in core_matrix()}
        for tag in ("LRR", "GTO", "2LV", "OWF"):
            assert any(tag in lbl for lbl in labels)
        assert any("Dyn" in lbl for lbl in labels)
        assert any("Unroll" in lbl for lbl in labels)
        assert any("ER" in lbl for lbl in labels)


class TestNoDrift:
    def test_no_drift_fast(self):
        assert check_core_goldens("fast") == []

    def test_no_drift_reference(self):
        assert check_core_goldens("reference") == []


class TestSanitized:
    """A matrix slice under the runtime invariant sanitizer.

    ``sanitize=True`` must not change results, and neither core may
    trip a DESIGN.md §6 invariant on any cell.  One storm-heavy app
    (BFS) and one sharing-heavy app (MUM) cover the paths where the
    fast core diverges most from the reference implementation.
    """

    _SLICE = ("MUM", "BFS")

    @pytest.mark.parametrize("core", ["fast", "reference"])
    def test_sanitized_slice_matches_golden(self, core):
        want = json.loads(golden_core_path().read_text())
        cfg = core_config()
        for app, mode in core_matrix():
            if app not in self._SLICE:
                continue
            res = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                      waves=1.0, sanitize=True, core=core)
            assert res.to_dict() == want[core_key(app, mode)], \
                f"{core} core diverged under sanitizer on " \
                f"{core_key(app, mode)}"


def _issue_order_slice():
    """First matrix cell of each scheduler × sharing-resource pair."""
    seen = {}
    for app, mode in core_matrix():
        seen.setdefault((mode.scheduler, mode.sharing), (app, mode))
    return list(seen.values())


class TestIssueOrder:
    """Both cores issue the same instructions in the same order, not
    just to the same aggregate fingerprints: one traced cell per
    scheduler × sharing resource, issue logs compared event by event."""

    def test_slice_covers_every_scheduler_and_resource(self):
        assert len(_issue_order_slice()) == 4 * 3

    @pytest.mark.parametrize("app,mode", _issue_order_slice(),
                             ids=lambda c: getattr(c, "label", c))
    def test_issue_logs_identical(self, app, mode):
        logs = []
        for core in ("fast", "reference"):
            tr = TraceRecorder()
            res = run(APPS[app], mode, config=core_config(),
                      scale=CORE_APPS[app], waves=1.0, core=core, obs=tr)
            assert len(tr.events) == res.instructions
            logs.append(tr.events)
        assert logs[0] == logs[1], \
            f"issue order diverged on {core_key(app, mode)}"


#: Register-heavy generated kernels (4-8 warps, 24-64 registers per
#: thread), so register sharing is usually enabled, with loops kept short.
_GEN_PARAMS = GeneratorParams(min_warps=4, max_warps=8, min_regs=24,
                              max_regs=64, max_loops=2, max_loop_trip=8,
                              max_body=6)
_REG = SharedResource.REGISTERS
_SPAD = SharedResource.SCRATCHPAD

#: (kernel seed, mode, clusters).  The seeds were picked so that every
#: sharing cell has a sharing plan, and the slice covers the
#: edges of the fast core's compute fast path: compute instructions on
#: both sides of Rw·t at t = 0.1 and 0.5, early release, Dyn, the
#: stateful two-level ``on_issued``, GTO, scratchpad sharing, unshared
#: blocks, and 1 and 2 clusters (``test_slice_covers_fast_path_edges``).
#: The last cell draws Dyn decisions on SM1 for non-owner warps that the
#: fast core must never park (``SMCore._retry_rejected``).
_GEN_CELLS = [
    (20, shared(_REG, "lrr", t=0.1), 1),
    (5, shared(_REG, "owf", t=0.5, unroll=True, dyn=True), 1),
    (5, shared(_REG, "owf", t=0.1, unroll=True, dyn=True), 2),
    (17, shared(_REG, "gto", t=0.1, unroll=True), 1),
    (8, shared(_REG, "two_level", t=0.1), 2),
    (26, shared(_REG, "lrr", t=0.1, early_release=True), 1),
    (0, shared(_REG, "owf", t=0.1, unroll=True, early_release=True), 2),
    (28, shared(_REG, "two_level", t=0.5, unroll=True, dyn=True), 1),
    (27, shared(_REG, "gto", t=0.1, early_release=True), 2),
    (11, shared(_SPAD, "owf"), 1),
    (36, shared(_SPAD, "two_level", t=0.5), 2),
    (29, shared(_SPAD, "gto"), 1),
    (3, unshared("gto"), 2),
    (18, unshared("two_level"), 1),
    (10, unshared("owf"), 1),
    (2, unshared("lrr"), 2),
    (31, shared(_REG, "lrr", t=0.5, unroll=True, dyn=True), 2),
]


def _gen_cell(seed, mode, clusters):
    cfg = GPUConfig().scaled(num_clusters=clusters)
    return generate_kernel(seed, _GEN_PARAMS, config=cfg), cfg


class TestGeneratedKernels:
    """Fast ≡ reference on seeded generated kernels: equal results and
    equal issue logs, both cores under the sanitizer."""

    def test_slice_covers_fast_path_edges(self):
        below, above = set(), set()
        for seed, mode, clusters in _GEN_CELLS:
            if mode.sharing is None:
                continue
            kernel, cfg = _gen_cell(seed, mode, clusters)
            if mode.unroll:
                kernel = reorder_registers(kernel)
            plan = plan_sharing(kernel, cfg, SharingSpec(mode.sharing,
                                                         mode.t))
            assert plan.enabled, f"seed {seed}: no {mode.label} plan"
            if mode.sharing is _SPAD:
                continue
            pr = plan.private_regs_per_thread
            for seg in kernel.segments:
                for ins in seg.instrs:
                    if ins.gcode < 2:  # alu, sfu
                        (below if ins.max_reg < pr else above).add(mode.t)
        assert below == above == {0.1, 0.5}
        modes = [m for _, m, _ in _GEN_CELLS]
        assert any(m.early_release for m in modes)
        assert any(m.dyn for m in modes)
        assert {m.scheduler for m in modes} == {"lrr", "gto", "two_level",
                                                "owf"}
        assert {m.sharing for m in modes} == {None, _REG, _SPAD}
        assert {c for _, _, c in _GEN_CELLS} == {1, 2}

    def test_slice_parks_warps(self, monkeypatch):
        # No result can show whether the fast core parked a warp, so
        # spy on it: under the TraceRecorder and sanitizer of
        # test_cores_agree, the slice must park warps on 1 and on 2
        # clusters, under two-level and under Dyn.
        parks = []
        park = SMCore._park

        def spy(sm, warps, cycle):
            parks.append(len(warps))
            park(sm, warps, cycle)

        monkeypatch.setattr(SMCore, "_park", spy)
        parked = []
        for seed, mode, clusters in _GEN_CELLS:
            kernel, cfg = _gen_cell(seed, mode, clusters)
            n = len(parks)
            run(kernel, mode, config=cfg, waves=3.0, sanitize=True,
                core="fast", obs=TraceRecorder())
            if len(parks) > n:
                parked.append((mode, clusters))
        assert {c for _, c in parked} == {1, 2}
        assert any(m.scheduler == "two_level" for m, _ in parked)
        assert any(m.dyn for m, _ in parked)

    @pytest.mark.parametrize(
        "seed,mode,clusters", _GEN_CELLS,
        ids=[f"gen{s}-{m.label}-t{m.t}-{c}cl" for s, m, c in _GEN_CELLS])
    def test_cores_agree(self, seed, mode, clusters):
        kernel, cfg = _gen_cell(seed, mode, clusters)
        results, logs = [], []
        for core in ("fast", "reference"):
            tr = TraceRecorder()
            res = run(kernel, mode, config=cfg, waves=3.0, sanitize=True,
                      core=core, obs=tr)
            assert len(tr.events) == res.instructions
            results.append(res.to_dict())
            logs.append(tr.events)
        assert results[0] == results[1], "fast and reference results differ"
        assert logs[0] == logs[1], "fast and reference issue order differ"


class TestObservedCoresAgree:
    """With metrics on, both cores report equal ``metrics`` dicts.

    The backprop cell makes hundreds of MSHR rejections, most of which
    the fast core replays in O(1); each must still reach the observer.
    """

    def test_mshr_replay_cell(self):
        cfg = GPUConfig().scaled(num_clusters=1)
        metrics = [run(APPS["backprop"], unshared("lrr"), config=cfg,
                       scale=0.3, waves=1.0, core=core,
                       obs=Observer(metrics=True)).metrics
                   for core in ("fast", "reference")]
        assert metrics[0]["counters"]["mshr_rejects{sm=0}"] > 100
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize(
        "seed,mode,clusters", [_GEN_CELLS[i] for i in (1, 4, 9, 13)],
        ids=lambda v: getattr(v, "label", str(v)))
    def test_generated_cells(self, seed, mode, clusters):
        kernel, cfg = _gen_cell(seed, mode, clusters)
        metrics = [run(kernel, mode, config=cfg, waves=3.0, core=core,
                       obs=Observer(metrics=True)).metrics
                   for core in ("fast", "reference")]
        assert metrics[0] == metrics[1]


#: One SM whose L1 has two MSHRs.
_TWO_MSHRS = dataclasses.replace(GPUConfig().scaled(num_clusters=1),
                                 l1_mshrs=2)


def _strided_load_kernel(block_size: int, txn: int):
    """Each warp loads ``txn`` distinct lines, then uses the result."""
    b = KernelBuilder(f"ld{txn}", block_size=block_size, regs=8)
    d = b.ldg(region="a", footprint=64 * 1024, pattern=Pattern.STRIDED,
              txn=txn)
    b.alu(src=(d,))
    return b.build()


class TestParking:
    """The fast core parks a warp whose MSHR retries could only be
    rejected, and counts the attempts it skipped when it lets it go."""

    @pytest.mark.parametrize("observed", [False, True])
    def test_backprop_retry_wakes(self, monkeypatch, observed):
        # The TestObservedCoresAgree cell.  Without a sink, most
        # attempts are counted at release, with no wake of their own;
        # an Observer sees every attempt, so each pushes its wake.
        wakes = 0
        push_wake = EventQueue.push_wake

        def spy(ev, cycle, sm, warp):
            nonlocal wakes
            wakes += warp.state is WarpState.BLOCK_RETRY
            return push_wake(ev, cycle, sm, warp)

        monkeypatch.setattr(EventQueue, "push_wake", spy)
        res = run(APPS["backprop"], unshared("lrr"),
                  config=GPUConfig().scaled(num_clusters=1), scale=0.3,
                  waves=1.0, obs=Observer() if observed else NULL_SINK)
        stalls = sum(s.mshr_stalls for s in res.sm_stats)
        assert stalls > 100
        if observed:
            assert wakes == stalls
        else:
            assert wakes < stalls

    def test_parked_warp_through_fills(self, monkeypatch):
        # Two warps on one SM with two MSHRs: warp 0's two-line load
        # takes both, warp 1's is rejected and parks.  The fill of warp
        # 0's first line leaves one MSHR, still too few; the second
        # admits the load and releases the warp.  Shifting the DRAM
        # latency by 0-3 cycles puts the release on every residue of
        # the 4-cycle retry chain, so it lands on a retry cycle once.
        kernel = _strided_load_kernel(64, 2)
        calls, phases = [], set()
        recheck, unpark = SMCore._recheck_parked, SMCore._unpark

        def spy_recheck(sm, cycle):
            recheck(sm, cycle)
            calls.append("release" if not sm._parked else "keep")

        def spy_unpark(sm, cycle):
            phases.update((cycle - r) % 4 for _, r in sm._parked)
            unpark(sm, cycle)

        monkeypatch.setattr(SMCore, "_recheck_parked", spy_recheck)
        monkeypatch.setattr(SMCore, "_unpark", spy_unpark)
        for extra in range(4):
            lat = _TWO_MSHRS.latency
            cfg = dataclasses.replace(_TWO_MSHRS, latency=dataclasses.replace(
                lat, dram_fixed=lat.dram_fixed + extra))
            calls.clear()
            fast, ref = (GPU(kernel, cfg, core=core).run()
                         for core in ("fast", "reference"))
            assert calls == ["keep", "release"]
            assert fast.to_dict() == ref.to_dict()
            assert fast.sm_stats[0].mshr_stalls > 10
        assert phases == {0, 1, 2, 3}

    def test_load_wider_than_mshrs_hits_cycle_limit(self, monkeypatch):
        # Four lines never fit two MSHRs.  The parked warp has no fill
        # to wait for, so the fast core releases it whenever the event
        # queue runs dry, and both cores run into the cycle limit
        # instead of reporting a deadlock.
        kernel = _strided_load_kernel(32, 4)
        parks = []
        park = SMCore._park
        monkeypatch.setattr(SMCore, "_park",
                            lambda sm, w, c: parks.append(c) or park(sm, w, c))
        errors = []
        for core in ("fast", "reference"):
            with pytest.raises(SimulationLimitExceeded) as exc:
                GPU(kernel, _TWO_MSHRS, core=core).run(max_cycles=2000)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert len(parks) > 100


class TestCoreSelection:
    def test_invalid_core_rejected(self):
        from repro.sim.gpu import GPU
        from repro.config import GPUConfig
        kernel = APPS["MUM"].kernel(0.1).with_grid(2)
        with pytest.raises(ValueError):
            GPU(kernel, GPUConfig(), core="turbo")

    def test_collect_core_deterministic(self):
        # Two fresh fast-core runs of one cell must agree exactly —
        # nothing in the fast path may depend on wall-clock or dict
        # iteration order.
        app, mode = next(core_matrix())
        cfg = core_config()
        a = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                waves=1.0, core="fast")
        b = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                waves=1.0, core="fast")
        assert a.to_dict() == b.to_dict()
