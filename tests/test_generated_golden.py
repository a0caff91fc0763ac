"""Pinned results of seeded generated kernels.

The curated goldens (``golden_core.json``, ``golden_data.json``) pin the
registry apps only, and the fast-vs-reference checks share the memory
system (``repro/mem``) and the event queue between both cores, so they
cannot see a change there.  These digests pin 24 generated kernels,
each with a grid of about 600 warp-instructions, over the 4 schedulers
× {Unshared, Shared-REG Unroll+Dyn, Shared-REG ER, Shared-SPAD} × 1-2
clusters at t = 0.5: any change to a simulated number changes a digest.
"""

import hashlib
import json

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.runner import run, shared, unshared
from repro.isa.opcodes import Op
from repro.workloads.generator import GeneratorParams, generate_kernel

_PARAMS = GeneratorParams(max_warps=8, max_loops=2, max_loop_trip=8,
                          max_body=6)
_OP_INSTR = 600
_SCHEDULERS = ("lrr", "gto", "two_level", "owf")
_T = 0.5


def _mode(kind, scheduler):
    if kind == 0:
        return unshared(scheduler)
    if kind == 1:
        return shared(SharedResource.REGISTERS, scheduler, t=_T,
                      unroll=True, dyn=True)
    if kind == 2:
        return shared(SharedResource.REGISTERS, scheduler, t=_T,
                      early_release=True)
    return shared(SharedResource.SCRATCHPAD, scheduler, t=_T)


def _ops():
    """(kernel seed, mode, clusters) of op ``i`` = seed ``i``."""
    return [(i, _mode((i // 4) % 4, _SCHEDULERS[i % 4]), 1 + (i // 16) % 2)
            for i in range(24)]


def _run(seed, mode, clusters):
    kernel = generate_kernel(seed, _PARAMS)
    per_block = kernel.warps_per_block * kernel.dynamic_count
    grid = max(1, round(_OP_INSTR / per_block))
    cfg = GPUConfig().scaled(num_clusters=clusters)
    return kernel, run(kernel, mode, config=cfg, grid_blocks=grid)


def _digest(result):
    blob = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


#: ``sha256(json.dumps(r.to_dict(), sort_keys=True))`` of each op.
_DIGESTS = {
    0: "80822e8e51b4603ed67005ea44dba8c51b20c1a492e91345c58dda11a5680f38",
    1: "257769fbd63724175d22a38bf20a5ea69daed17d2974ee5036ba30f055d82719",
    2: "20f37bf83ffe5565a016568f17f4e1e93d35f31849b2b8a61c7ebec0fb963a6e",
    3: "0284c4239abb4f2088521b5da26f411dbbcf9b8fe4b7ee7fda53854c21e3cf01",
    4: "0eab919f1a92cfff815cd813f214911a7d2ccc7f953fdd39df0dda66c6607d36",
    5: "c7330366828233e2f278bdbe4f707174fae61ecb2008ab999295778e6d76889c",
    6: "95864f967e82d63eb4fec4341060109a389badb187e42263c02c8d03aeb9ad3b",
    7: "91ec7fa78514ff24b2adb1a6a15582ec52a9fcb7498020ab98ad60f14fb90c4b",
    8: "5eea1b59aeb4dc8d2d3dcb78e141cda907b491f5fe72ce1100752e3f54dbcc3f",
    9: "6f4da564f1d90829de01a5c69b15ac14d898909705a9c656253f1ca9620c107d",
    10: "60c98f02884725f3d62d287ba2578276f4e9576c8ad62b486fb4d9959adf1187",
    11: "bf00927f43c2348a5713cc8a02792df303b1ad5ded32d45171e33d752119e552",
    12: "af1d9dcb5ba03183b1e45ba4e6090d843bcd340408681024894b08e94036cff5",
    13: "9ec7ae825230181fe52dcd64b89c450465b3e6951d31174f5321b38bc9ba1797",
    14: "db527d692dbebc2a1c0cb691dd73fa097b493e7be0927271931caafa6700c8b0",
    15: "efbfeea26a88dc5558fca1d79b9a42d235a494dbc73669328f682f9343fe0513",
    16: "860bd8e233dffdee965d460043b01266cf60eb438a3fb14b8d68e60533bdf968",
    17: "424b9d75877c07198329db11d42672818a5a5304cf88d8f151e3d3a4432a2dff",
    18: "e0ea59b8528c1e2f76ca4b920e36e31c1e3947d047a303734c7693199a02aa7f",
    19: "b67e1d1fb7ef97682b2464ea775937137ec084f6faf93c413f58263567d86765",
    20: "06d7f52497f3039d0c8459d30cd30c889fadb1255dd4cfe116eeafe2e9ba13bc",
    21: "fca4f2ac1571fb97ebdb7db65c30d68960f3d3c86c93e52e5ba2bde3941c6dc5",
    22: "fc32dad5cd7df5beab267637137f4ea9aafa371036b82714ab3f736fc38121d4",
    23: "aee7db9f2523d53801c591bcaa82ccdfe24fa40f4aebfd4b698f872b81ccca50",
}


@pytest.fixture(scope="module")
def results():
    return {op[0]: (op, *_run(*op)) for op in _ops()}


@pytest.mark.parametrize("seed", range(24))
def test_result_pinned(results, seed):
    (_, mode, clusters), _, r = results[seed]
    assert _digest(r) == _DIGESTS[seed], f"{mode.label} x{clusters}"


def test_ops_reach_the_memory_paths(results):
    # The pins only guard the memory system if the ops drive it: MSHR
    # rejections, loads of several lines and DRAM row misses.
    rs = [r for _, _, r in results.values()]
    assert any(sum(s.mshr_stalls for s in r.sm_stats) > 0 for r in rs)
    assert any(r.mem["dram_row_hit_rate"] < 1 for r in rs)
    assert any(ins.op is Op.LDG and ins.mem.txn > 1
               for _, kernel, _ in results.values()
               for seg in kernel.segments for ins in seg.instrs)
