"""Per-application synthetic kernels (paper Tables II, III, IV).

Resource signatures (threads/block, registers/thread, scratchpad/block)
are copied from the paper's tables, so occupancy, Eq. 4 block counts and
pairing decisions are *exact* reproductions.  Instruction bodies are
synthetic stand-ins tuned to the behaviour class the paper describes for
each app — see DESIGN.md §2 for the substitution argument.

The ``paper`` dict on each app records the numbers the paper reports
(baseline/shared resident blocks, Fig. 8 IPC improvement, the Table
VI/VIII resident blocks at 0/10/30/50/70/90 % sharing, the Sec. I-A
waste examples).  It is the one copy of them: EXPERIMENTS.md and the
claims in ``repro.harness.claims`` read it.  Where the paper's prose
and figures disagree (CONV1/CONV2 and SRAD2 percentages are quoted
differently in Sec. VI-B), the Fig. 8 values are stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.isa.builder import KernelBuilder
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Pattern

__all__ = ["App", "APPS", "build_app"]

KB = 1024


@dataclass(frozen=True)
class App:
    """A named synthetic application."""

    name: str
    suite: str
    set_id: int                      # 1, 2 or 3 (paper table membership)
    limiter: str                     # expected occupancy limiter
    build: Callable[[float], Kernel]
    paper: dict = field(default_factory=dict)

    def kernel(self, scale: float = 1.0) -> Kernel:
        """Build the kernel (``grid_blocks`` is a placeholder of 1; the
        harness sizes the grid to the machine).

        Built once per ``(build, scale)`` per process and shared: a
        kernel is immutable, and ``build`` must be a pure function of
        ``scale``."""
        return _build_kernel(self.build, scale)


@lru_cache(maxsize=128)
def _build_kernel(build: Callable[[float], Kernel], scale: float) -> Kernel:
    """The kernel memo behind :meth:`App.kernel`, keyed on ``build``
    because ``App`` itself is unhashable (its ``paper`` dict)."""
    return build(scale)


def _L(base: int, scale: float) -> int:
    """Scaled loop trip count (≥ 2 so loops stay loops)."""
    return max(2, round(base * scale))


# ----------------------------------------------------------------------
# Set-1: register-limited (Table II)
# ----------------------------------------------------------------------

def _backprop(scale: float) -> Kernel:
    # bpnn_adjust_weights_cuda: streaming weight update, high baseline
    # occupancy (5 blocks), small headroom -> small sharing gain.
    b = KernelBuilder("backprop", block_size=256, regs=24, seed=101,
                      variance=0.15)
    with b.loop(_L(48, scale)):
        b.ldg(region="w", footprint=64 * KB, block_private=False)
        b.alu_chain(1)
        b.alu_indep(2)
    b.stg(region="out", footprint=512 * KB)
    return b.build()


def _btree(scale: float) -> Kernel:
    # findRangeK: pointer-chasing tree search, mildly divergent loads.
    b = KernelBuilder("b+tree", block_size=508, regs=24, seed=102,
                      variance=0.45)
    with b.loop(_L(40, scale)):
        b.ldg(region="tree", footprint=256 * KB, block_private=False,
              pattern=Pattern.RANDOM, txn=1)
        b.alu_chain(2)
        b.alu_indep(3)
    b.stg(region="out", footprint=256 * KB)
    return b.build()


def _hotspot(scale: float) -> Kernel:
    # calculate_temp: compute-heavy grid stencil, L2-resident input; the
    # paper's flagship register-sharing win (3 -> 6 blocks).
    b = KernelBuilder("hotspot", block_size=256, regs=36, seed=103,
                      variance=0.35)
    with b.loop(_L(50, scale)):
        b.ldg(region="temp", footprint=256 * KB, block_private=False)
        b.alu_chain(2)
        b.alu_indep(4)
    b.stg(region="out", footprint=256 * KB)
    return b.build()


def _lib(scale: float) -> Kernel:
    # Pathcalc_Portfolio_KernelGPU: Monte-Carlo path walk whose per-block
    # state just fits L2 at 4 blocks/SM; extra blocks thrash L2 (paper:
    # +0.84% only, "increase in L2 cache misses").
    b = KernelBuilder("LIB", block_size=192, regs=36, seed=104,
                      variance=0.25)
    with b.loop(_L(56, scale)):
        b.ldg(region="paths", footprint=8 * KB, block_private=True)
        b.alu_chain(1)
        b.alu_indep(2)
    b.stg(region="out", footprint=64 * KB)
    return b.build()


def _mum(scale: float) -> Kernel:
    # mummergpuKernel: divergent suffix-tree walk (RANDOM, 4 txn/access)
    # plus a small L1-resident node cache that extra blocks thrash; the
    # paper's flagship Dyn+OWF case (-0.15% unoptimised, +24% full stack).
    b = KernelBuilder("MUM", block_size=256, regs=28, seed=105,
                      variance=0.6)
    with b.loop(_L(36, scale)):
        b.ldg(region="nodecache", footprint=2 * KB, block_private=False)
        b.alu_chain(1)
        b.ldg(region="suffix", footprint=384 * KB, block_private=False,
              pattern=Pattern.RANDOM, txn=1)
        b.alu_chain(2)
        b.alu_indep(3)
    b.stg(region="out", footprint=256 * KB)
    return b.build()


def _mriq(scale: float) -> Kernel:
    # ComputeQ_GPU: trigonometry-heavy (SFU) with an L1-resident lookup
    # slice per block; 5 blocks fit L1, 6 thrash it (paper: -0.72%).
    b = KernelBuilder("mri-q", block_size=256, regs=24, seed=106,
                      variance=0.15)
    with b.loop(_L(40, scale)):
        b.ldg(region="traj", footprint=3328, block_private=True)
        b.sfu(1)
        b.ldg(region="traj", footprint=3328, block_private=True)
        b.alu_chain(3)
        b.alu_indep(3)
    b.stg(region="out", footprint=128 * KB)
    return b.build()


def _sgemm(scale: float) -> Kernel:
    # mysgemmNT: tile-broadcast loads + long FFMA chains.  Declaration
    # order matters here: the paper's Fig. 7 unroll example is sgemm, so
    # the builder's high_first allocation makes the first instructions
    # touch late-declared (shared) registers until the pass fixes it.
    b = KernelBuilder("sgemm", block_size=128, regs=48, seed=107,
                      alloc="high_first", variance=0.15)
    with b.loop(_L(44, scale)):
        b.ldg(region="tileA", footprint=4 * KB, block_private=False,
              pattern=Pattern.BROADCAST)
        b.ldg(region="tileB", footprint=1536, block_private=True)
        b.alu_chain(5)
        b.alu_indep(3)
    b.stg(region="C", footprint=256 * KB)
    return b.build()


def _stencil(scale: float) -> Kernel:
    # block2D_hybrid_coarsen_x: 2 halo reads + compute per point, only 2
    # resident blocks at baseline -> large latency-hiding headroom.
    b = KernelBuilder("stencil", block_size=512, regs=28, seed=108,
                      variance=0.3)
    with b.loop(_L(36, scale)):
        b.ldg(region="in0", footprint=384 * KB, block_private=False)
        b.alu_chain(2)
        b.alu_indep(3)
    b.stg(region="out", footprint=384 * KB)
    return b.build()


# ----------------------------------------------------------------------
# Set-2: scratchpad-limited (Table III)
# ----------------------------------------------------------------------

def _spad_sweep(b: KernelBuilder, smem: int, loops: int, *,
                alu_chain: int, alu_indep: int, footprint: int,
                shared_input: bool = True, barrier_in_loop: bool = False,
                touched: int | None = None) -> None:
    """Common Set-2 body: global load, scratchpad offsets sweeping
    0 → smem across the loop (so the sharing threshold ``t`` directly
    controls how many iterations stay in the private partition), compute,
    and a final store."""
    wrap = touched if touched is not None else smem
    stride = max(1, wrap // max(2, loops))
    b.ldg(region="in", footprint=footprint, block_private=not shared_input)
    b.sts(offset=0, stride=stride, wrap=wrap)
    b.bar()
    with b.loop(loops):
        b.lds(offset=0, stride=stride, wrap=wrap)
        b.alu_chain(alu_chain)
        b.alu_indep(alu_indep)
        b.sts(offset=1, stride=stride, wrap=wrap)
        if barrier_in_loop:
            b.bar()
    b.bar()
    b.stg(region="out", footprint=footprint)


def _conv1(scale: float) -> Kernel:
    # convolutionRowsKernel: small blocks (2 warps), 6 -> 8 resident.
    b = KernelBuilder("CONV1", block_size=64, regs=16, smem=2560, seed=201)
    _spad_sweep(b, 2560, _L(36, scale), alu_chain=4, alu_indep=4,
                footprint=256 * KB)
    return b.build()


def _conv2(scale: float) -> Kernel:
    # convolutionColumnsKernel: 3 -> 4 resident blocks.
    b = KernelBuilder("CONV2", block_size=128, regs=16, smem=5184, seed=202)
    _spad_sweep(b, 5184, _L(36, scale), alu_chain=4, alu_indep=5,
                footprint=256 * KB)
    return b.build()


def _lavamd(scale: float) -> Kernel:
    # kernel_gpu_cuda: declares 7200 B but the simulated input touches
    # only a small prefix, so *no* access lands in the shared region
    # (paper Sec. VI-B) and both shared blocks run unhindered: 2 -> 4
    # blocks, the paper's biggest scratchpad win (+30%).
    b = KernelBuilder("lavaMD", block_size=128, regs=16, smem=7200, seed=203)
    b.ldg(region="box", footprint=128 * KB, block_private=True)
    b.sts(offset=0, stride=64, wrap=640)
    b.bar()
    with b.loop(_L(30, scale)):
        b.ldg(region="pos", footprint=12 * KB, block_private=False)
        b.alu_chain(9)
        b.lds(offset=0, stride=96, wrap=640)
        b.alu_chain(8)
        b.alu_indep(8)
        b.sts(offset=32, stride=96, wrap=640)
    b.bar()
    b.stg(region="out", footprint=128 * KB)
    return b.build()


def _nw(which: int) -> Callable[[float], Kernel]:
    # needle_cuda_shared_1/2: 16-thread blocks (one warp), wavefront with
    # barriers; gains come purely from the 8th resident block.
    def build(scale: float) -> Kernel:
        b = KernelBuilder(f"NW{which}", block_size=16, regs=16, smem=2180,
                          seed=210 + which)
        _spad_sweep(b, 2180, _L(28, scale), alu_chain=3, alu_indep=3,
                    footprint=128 * KB, barrier_in_loop=(which == 1))
        return b.build()
    return build


def _srad1(scale: float) -> Kernel:
    # srad_cuda_1: only 2 resident blocks at baseline -> headroom, but
    # the scratchpad sweep crosses into the shared region mid-kernel.
    b = KernelBuilder("SRAD1", block_size=256, regs=16, smem=6144, seed=221)
    _spad_sweep(b, 6144, _L(32, scale), alu_chain=3, alu_indep=4,
                footprint=512 * KB)
    return b.build()


def _srad2(scale: float) -> Kernel:
    # srad_cuda_2: a barrier sits right next to the scratchpad access
    # (paper Sec. VI-B), so non-owner progress stops at the first shared
    # offset and the whole block gates on it.
    b = KernelBuilder("SRAD2", block_size=256, regs=16, smem=5120, seed=222)
    _spad_sweep(b, 5120, _L(32, scale), alu_chain=3, alu_indep=3,
                footprint=512 * KB, barrier_in_loop=True)
    return b.build()


# ----------------------------------------------------------------------
# Set-3: limited by threads or blocks (Table IV)
# ----------------------------------------------------------------------

def _backprop_lf(scale: float) -> Kernel:
    # bpnn_layerforward_CUDA: thread-limited (6 blocks by threads, 8 by
    # registers) -> sharing launches nothing extra.
    b = KernelBuilder("backprop-lf", block_size=256, regs=16, smem=1024,
                      seed=301)
    b.ldg(region="in", footprint=256 * KB, block_private=False)
    b.sts(offset=0, stride=32, wrap=1024)
    b.bar()
    with b.loop(_L(40, scale)):
        b.lds(offset=0, stride=32, wrap=1024)
        b.alu_chain(2)
        b.alu_indep(2)
    b.stg(region="out", footprint=256 * KB)
    return b.build()


def _bfs(scale: float) -> Kernel:
    # BFS Kernel: thread-limited (512-thread blocks), divergent frontier
    # loads, very little compute.
    b = KernelBuilder("BFS", block_size=512, regs=12, seed=302)
    with b.loop(_L(28, scale)):
        b.ldg(region="frontier", footprint=1024 * KB, block_private=False,
              pattern=Pattern.RANDOM, txn=3)
        b.alu_chain(1)
        b.alu_indep(2)
    b.stg(region="out", footprint=256 * KB)
    return b.build()


def _gaussian(scale: float) -> Kernel:
    # FAN2: block-limited (64-thread blocks, 8-block cap), streaming row
    # elimination.
    b = KernelBuilder("gaussian", block_size=64, regs=10, seed=303)
    with b.loop(_L(36, scale)):
        b.ldg(region="mat", footprint=512 * KB, block_private=False)
        b.alu_chain(2)
        b.alu_indep(2)
        b.stg(region="mat2", footprint=512 * KB)
    return b.build()


def _nn(scale: float) -> Kernel:
    # executeSecondLayer: block-limited tiny blocks.
    b = KernelBuilder("NN", block_size=32, regs=12, seed=304)
    with b.loop(_L(32, scale)):
        b.ldg(region="weights", footprint=128 * KB, block_private=False)
        b.alu_chain(3)
        b.alu_indep(2)
    b.stg(region="out", footprint=64 * KB)
    return b.build()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

APPS: dict[str, App] = {}


def _register(app: App) -> None:
    if app.name in APPS:
        raise ValueError(f"duplicate app {app.name}")
    APPS[app.name] = app


for _app in [
    App("backprop", "GPGPU-Sim", 1, "registers", _backprop,
        paper={"blocks_base": 5, "blocks_shared": 6, "fig8_impr": 5.82,
               "ipc_0": 389.9, "ipc_90": 392.8,
               "blocks_sweep": (5, 5, 5, 5, 6, 6)}),
    App("b+tree", "GPGPU-Sim", 1, "registers", _btree,
        paper={"blocks_base": 2, "blocks_shared": 3, "fig8_impr": 11.98,
               "ipc_0": 318.5, "ipc_90": 326.1,
               "blocks_sweep": (2, 2, 2, 3, 3, 3)}),
    App("hotspot", "RODINIA", 1, "registers", _hotspot,
        paper={"blocks_base": 3, "blocks_shared": 6, "fig8_impr": 21.76,
               "ipc_0": 489.5, "ipc_90": 503.59, "reg_waste_pct": 15.62,
               "blocks_sweep": (3, 3, 3, 4, 4, 6)}),
    App("LIB", "RODINIA", 1, "registers", _lib,
        paper={"blocks_base": 4, "blocks_shared": 8, "fig8_impr": 0.84,
               "ipc_0": 218.0, "ipc_90": 223.3,
               "blocks_sweep": (4, 4, 5, 5, 6, 8)}),
    App("MUM", "RODINIA", 1, "registers", _mum,
        paper={"blocks_base": 4, "blocks_shared": 6, "fig8_impr": 24.14,
               "ipc_0": 190.5, "ipc_90": 194.9,
               "blocks_sweep": (4, 4, 4, 5, 5, 6)}),
    App("mri-q", "PARBOIL", 1, "registers", _mriq,
        paper={"blocks_base": 5, "blocks_shared": 6, "fig8_impr": -0.72,
               "ipc_0": 303.7, "ipc_90": 305.0,
               "blocks_sweep": (5, 5, 5, 5, 6, 6)}),
    App("sgemm", "PARBOIL", 1, "registers", _sgemm,
        paper={"blocks_base": 5, "blocks_shared": 8, "fig8_impr": 4.06,
               "ipc_0": 490.6, "ipc_90": 496.7,
               "blocks_sweep": (5, 5, 5, 5, 6, 8)}),
    App("stencil", "PARBOIL", 1, "registers", _stencil,
        paper={"blocks_base": 2, "blocks_shared": 3, "fig8_impr": 23.45,
               "ipc_0": 448.2, "ipc_90": 440.8,
               "blocks_sweep": (2, 2, 2, 2, 2, 3)}),
    App("CONV1", "CUDA-SDK", 2, "scratchpad", _conv1,
        paper={"blocks_base": 6, "blocks_shared": 8, "fig8_impr": 15.85,
               "ipc_0": 280.33, "ipc_90": 292.24,
               "blocks_sweep": (6, 6, 6, 6, 7, 8)}),
    App("CONV2", "CUDA-SDK", 2, "scratchpad", _conv2,
        paper={"blocks_base": 3, "blocks_shared": 4, "fig8_impr": 4.33,
               "ipc_0": 119.29, "ipc_90": 124.6,
               "blocks_sweep": (3, 3, 3, 3, 3, 4)}),
    App("lavaMD", "RODINIA", 2, "scratchpad", _lavamd,
        paper={"blocks_base": 2, "blocks_shared": 4, "fig8_impr": 29.96,
               "ipc_0": 452.29, "ipc_90": 578.85, "smem_waste_pct": 12.11,
               "blocks_sweep": (2, 2, 2, 2, 2, 4)}),
    App("NW1", "RODINIA", 2, "scratchpad", _nw(1),
        paper={"blocks_base": 7, "blocks_shared": 8, "fig8_impr": 5.62,
               "ipc_0": 39.96, "ipc_90": 38.37,
               "blocks_sweep": (7, 7, 7, 8, 8, 8)}),
    App("NW2", "RODINIA", 2, "scratchpad", _nw(2),
        paper={"blocks_base": 7, "blocks_shared": 8, "fig8_impr": 9.03,
               "ipc_0": 41.93, "ipc_90": 39.72,
               "blocks_sweep": (7, 7, 7, 8, 8, 8)}),
    App("SRAD1", "RODINIA", 2, "scratchpad", _srad1,
        paper={"blocks_base": 2, "blocks_shared": 4, "fig8_impr": 11.1,
               "ipc_0": 188.13, "ipc_90": 204.32,
               "blocks_sweep": (2, 2, 2, 3, 4, 4)}),
    App("SRAD2", "RODINIA", 2, "scratchpad", _srad2,
        paper={"blocks_base": 3, "blocks_shared": 5, "fig8_impr": 25.73,
               "ipc_0": 63.48, "ipc_90": 68.29,
               "blocks_sweep": (3, 3, 3, 3, 3, 5)}),
    App("backprop-lf", "RODINIA", 3, "threads", _backprop_lf,
        paper={"limited_by": "Threads"}),
    App("BFS", "GPGPU-Sim", 3, "threads", _bfs,
        paper={"limited_by": "Threads"}),
    App("gaussian", "RODINIA", 3, "blocks", _gaussian,
        paper={"limited_by": "Blocks"}),
    App("NN", "GPGPU-Sim", 3, "blocks", _nn,
        paper={"limited_by": "Blocks"}),
]:
    _register(_app)


def build_app(name: str, scale: float = 1.0) -> Kernel:
    """Build an app's kernel by name."""
    try:
        app = APPS[name]
    except KeyError:
        raise ValueError(
            f"unknown app {name!r}; available: {sorted(APPS)}") from None
    return app.kernel(scale)
