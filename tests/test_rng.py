"""The in-repo PCG64 stream (``repro.rng``) against numpy's.

``data/pcg64_vectors.json`` holds the outputs of
``numpy.random.Generator(numpy.random.PCG64(seed))`` for a fixed
script of interleaved calls, so the replica is checked without numpy;
``TestNumpyDifferential`` regenerates them and compares many more
seeds when numpy is installed.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.runner import run, shared
from repro.rng import PCG64
from repro.workloads.apps import APPS
from repro.workloads.generator import generate_kernel

VECTORS = json.loads(
    (Path(__file__).parent / "data" / "pcg64_vectors.json").read_text())


def play(gen, script):
    return [getattr(gen, name)(*args) for name, *args in script]


def dyn_cell():
    """A Shared-OWF-Unroll-Dyn cell on two SMs, long enough that the
    throttle draws (``test_dyn_cell_draws``); ``_NO_NUMPY`` runs the same."""
    return run(APPS["MUM"],
               shared(SharedResource.REGISTERS, "owf", t=0.1, unroll=True,
                      dyn=True),
               config=GPUConfig().scaled(num_clusters=2), scale=0.3,
               waves=2.0)


class TestVectors:
    @pytest.mark.parametrize("vec", VECTORS["vectors"],
                             ids=lambda v: str(v["seed"]))
    def test_replays_numpy(self, vec):
        out = play(PCG64(vec["seed"]), VECTORS["script"])
        assert out == vec["out"]
        assert [type(x) for x in out] == [type(x) for x in vec["out"]]

    def test_empty_range_makes_no_draw(self):
        a, b = PCG64(3), PCG64(3)
        assert a.integers(5, 6) == 5
        assert a.random() == b.random()

    def test_high_half_survives_random(self):
        a, b = PCG64(3), PCG64(3)
        lo = a.integers(0, 2**32)
        u = b._next64()
        assert lo == u & 0xFFFF_FFFF
        a.random()
        assert a.integers(0, 2**32) == u >> 32

    @pytest.mark.parametrize("seed", [-1, -2**70])
    def test_negative_seed_raises(self, seed):
        with pytest.raises(ValueError, match="non-negative"):
            PCG64(seed)

    def test_non_integer_seed_raises(self):
        with pytest.raises(TypeError):
            PCG64(1.5)

    @pytest.mark.parametrize("lo,hi", [(0, 2**32 + 1), (-1, 2**32),
                                       (0, 2**64)])
    def test_wide_range_raises(self, lo, hi):
        with pytest.raises(ValueError, match="wider than"):
            PCG64(1).integers(lo, hi)

    @pytest.mark.parametrize("lo,hi", [(3, 3), (4, 3)])
    def test_empty_interval_raises(self, lo, hi):
        with pytest.raises(ValueError, match="low >= high"):
            PCG64(1).integers(lo, hi)


class TestNumpyDifferential:
    """Skipped without numpy: the replica against the real thing."""

    @pytest.fixture(scope="class")
    def np(self):
        return pytest.importorskip("numpy")

    def test_numpy_makes_the_vectors(self, np):
        for vec in VECTORS["vectors"]:
            gen = np.random.Generator(np.random.PCG64(vec["seed"]))
            assert play(gen, VECTORS["script"]) == vec["out"]

    def test_interleaved_draws_over_many_seeds(self, np):
        r = random.Random(26)
        seeds = ([12345 + 977 * i for i in range(64)]
                 + [r.getrandbits(r.randint(1, 200)) for _ in range(200)])
        widths = [1, 2, 3, 64, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32]
        for seed in seeds:
            ours = PCG64(seed)
            theirs = np.random.Generator(np.random.PCG64(seed))
            for _ in range(100):
                kind = r.randrange(3)
                if kind == 0:
                    call = ("random",)
                elif kind == 1:
                    lo = r.randrange(-50, 50)
                    call = ("integers", lo, lo + r.choice(
                        widths + [r.randrange(1, 2**32)]))
                else:
                    call = ("uniform", r.uniform(-5, 5), r.uniform(5, 9))
                assert play(ours, [call]) == play(theirs, [call]), \
                    (seed, call)


#: Imports every entry point with numpy blocked, then prints
#: ``generate_kernel(7)``'s fingerprint and ``dyn_cell()``'s result.
_NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None
import repro, repro.__main__, repro.harness.__main__, repro.service
from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.runner import run, shared
from repro.workloads.apps import APPS
from repro.workloads.generator import generate_kernel
cell = run(APPS["MUM"], shared(SharedResource.REGISTERS, "owf", t=0.1,
                               unroll=True, dyn=True),
           config=GPUConfig().scaled(num_clusters=2), scale=0.3, waves=2.0)
print(json.dumps({"kernel": generate_kernel(7).fingerprint,
                  "cell": cell.to_dict()}))
"""


def test_package_runs_without_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["kernel"] == generate_kernel(7).fingerprint
    assert got["cell"] == json.loads(json.dumps(dyn_cell().to_dict()))


def test_dyn_cell_draws(monkeypatch):
    draws = []
    real = PCG64.random
    monkeypatch.setattr(PCG64, "random",
                        lambda self: draws.append(1) or real(self))
    dyn_cell()
    assert draws
