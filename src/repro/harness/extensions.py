"""Experiments beyond the paper's evaluation (ablations & future work).

* ``ext_early_release`` — the Sec. VIII future-work feature: live-range
  based early handoff of shared register pools.  Evaluated on a kernel
  with a long register-light *tail phase* (compute loop, then a
  scratchpad-staged writeback loop that reuses only the first two
  registers), where the pool can be handed over long before warp exit.
* ``ext_threshold_frontier`` — an ablation the paper only samples: the
  full IPC-vs-t frontier at fine granularity for one app per resource,
  exposing the step structure Eq. 4 imposes on block counts.
* ``ext_cache_sensitivity`` and ``ext_variance_sensitivity`` — the
  sharing gain against L1 capacity and against per-warp work imbalance.

They register like the paper's figures (``experiments._register``) and
render a failed run as a ``FAIL:<category>`` cell.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.sharing import SharingSpec, plan_sharing
from repro.harness.engine import RunSpec
from repro.harness.experiments import (LRR, REG, SPAD, Rows, _fail, _impr,
                                       _ipc, _register, _Setting)
from repro.harness.runner import shared
from repro.isa.builder import KernelBuilder
from repro.workloads.apps import APPS, App

__all__ = ["tail_heavy_kernel"]

KB = 1024


def tail_heavy_kernel(scale: float = 1.0):
    """Compute loop over the full register set, then a long tail loop
    that provably touches only the two first-used registers.

    After the unroll pass the tail registers get sequence numbers 0 and
    1, i.e. they are private at any threshold, so live-range analysis
    proves the shared pool dead for the entire tail.
    """
    b = KernelBuilder("tailheavy", block_size=256, regs=36, seed=404,
                      alloc="high_first", variance=0.3)
    # rA/rB are allocated first -> lowest sequence numbers post-unroll.
    rA = b.ldg(region="in", footprint=128 * KB, block_private=False)
    rB = b.alu(src=(rA,))
    with b.loop(max(2, round(24 * scale))):
        b.ldg(region="in", footprint=128 * KB, block_private=False)
        b.alu_chain(3)
        b.alu_indep(3)
    with b.loop(max(2, round(40 * scale))):  # register-light ALU tail
        b.alu(dst=rA, src=(rB,))
        b.alu(dst=rB, src=(rA,))
        b.alu(dst=rA, src=(rB,))
        b.alu(dst=rB, src=(rA,))
    b.stg(region="out", footprint=256 * KB, src=rB)
    return b.build()


#: Registered as a plain App so the runner treats it like any workload.
TAIL_APP = App("tailheavy", "extension", 1, "registers", tail_heavy_kernel)


def _early_release(s: _Setting) -> Rows:
    apps = [TAIL_APP, APPS["hotspot"], APPS["sgemm"]]
    modes = [LRR, shared(REG, "owf", unroll=True),
             shared(REG, "owf", unroll=True, early_release=True)]
    return [{"app": app.name, "ipc_base": _ipc(base),
             "ipc_shared": _ipc(plain), "ipc_shared_er": _ipc(er),
             "impr_shared_pct": _impr(base, plain),
             "impr_er_pct": _impr(base, er),
             "early_releases": _fail(er) or sum(x.early_releases
                                                for x in er.sm_stats)}
            for app, (base, plain, er) in zip(apps, s.grid(apps, modes))]


def _threshold_frontier(s: _Setting) -> Rows:
    cases = [(APPS["hotspot"], REG), (APPS["lavaMD"], SPAD)]
    ts = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05)
    runs = iter(s.run([s.spec(app, shared(resource, "owf", t=t,
                                          unroll=resource is REG))
                       for app, resource in cases for t in ts]))
    return [{"app": app.name, "resource": resource.value, "t": t,
             "sharing_pct": round((1 - t) * 100, 1),
             "blocks": plan_sharing(app.kernel(s.scale), s.cfg,
                                    SharingSpec(resource, t)).total,
             "ipc": _ipc(next(runs))}
            for app, resource in cases for t in ts]


def _cache_sensitivity(s: _Setting) -> Rows:
    """L1 capacity vs the sharing win/loss of cache-bound apps.

    The paper attributes mri-q's slowdown and LIB's flat result to L1/L2
    misses caused by the extra blocks.  Sweeping the L1 size moves that
    crossover: with a large enough L1 the extra blocks stop thrashing and
    sharing turns positive.
    """
    cases = [(APPS[name], l1_kb) for name in ("mri-q", "LIB")
             for l1_kb in (8, 16, 32, 64)]
    modes = (LRR, shared(REG, "owf", unroll=True))
    runs = iter(s.run(
        [RunSpec.create(app, m, config=replace(s.cfg, l1_size=l1_kb * KB),
                        scale=s.scale, waves=s.waves)
         for app, l1_kb in cases for m in modes]))
    rows = []
    for app, l1_kb in cases:
        base, best = next(runs), next(runs)
        rows.append({
            "app": app.name, "l1_kb": l1_kb, "ipc_base": _ipc(base),
            "ipc_shared": _ipc(best), "improvement_pct": _impr(base, best),
            "l1_miss_base": _fail(base) or round(
                float(base.mem["l1_miss_rate"]), 3),
            "l1_miss_shared": _fail(best) or round(
                float(best.mem["l1_miss_rate"]), 3)})
    return rows


def _hotspot_like(v: float) -> App:
    """A hotspot-shaped kernel with per-warp work variance ``v``."""
    def build(s: float):
        b = KernelBuilder("hotspot-v", block_size=256, regs=36, seed=103,
                          variance=v)
        with b.loop(max(2, round(50 * s))):
            b.ldg(region="temp", footprint=256 * KB, block_private=False)
            b.alu_chain(2)
            b.alu_indep(4)
        b.stg(region="out", footprint=256 * KB)
        return b.build()
    return App(f"hotspot-v{v}", "extension", 1, "registers", build)


def _variance_sensitivity(s: _Setting) -> Rows:
    """Sharing gain vs per-warp work imbalance.

    Warp-level register handoff converts the block-drain phase (fast
    warps done, block still holding all resources) into useful overlap.
    With perfectly uniform warps there is almost no drain to reclaim;
    gains grow with imbalance.  This isolates the work_variance modelling
    decision documented in DESIGN.md §4.
    """
    variances = (0.0, 0.15, 0.3, 0.45, 0.6)
    apps = [_hotspot_like(v) for v in variances]
    grid = s.grid(apps, [LRR, shared(REG, "owf", unroll=True)])
    return [{"variance": v, "ipc_base": _ipc(base),
             "ipc_shared": _ipc(best), "improvement_pct": _impr(base, best)}
            for v, (base, best) in zip(variances, grid)]


_register("ext_early_release",
          "Extension (Sec. VIII): live-range early release of shared "
          "registers", _early_release,
          "Early release only pays off when warps have a long "
          "shared-register-free tail (tailheavy); for loop-dominated "
          "kernels like hotspot the pool is live until the last "
          "iteration and ER matches plain sharing.", waves=6.0)
_register("ext_threshold_frontier",
          "Ablation: fine-grained sharing-threshold frontier",
          _threshold_frontier,
          "Block counts move in Eq. 4 steps; IPC follows the block "
          "count, not t itself — the paper's Tables V-VIII sampled "
          "this frontier at six points.", waves=6.0)
_register("ext_cache_sensitivity",
          "Ablation: register-sharing gain vs L1 capacity (cache-bound apps)",
          _cache_sensitivity,
          "16 KB is the paper's Table I configuration; the crossover "
          "confirms the cache-contention explanation for mri-q/LIB.",
          waves=6.0)
_register("ext_variance_sensitivity",
          "Ablation: register-sharing gain vs work variance (hotspot body)",
          _variance_sensitivity,
          "The workloads use v=0.15-0.6 calibrated per app "
          "(docs/workloads.md); the paper's real benchmarks carry this "
          "imbalance intrinsically.", waves=6.0)
