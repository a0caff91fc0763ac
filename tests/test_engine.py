"""Execution engine: RunSpec digests, result cache, parallel equality."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness import engine as engine_mod
from repro.harness.engine import Engine, ResultCache, RunSpec, code_salt
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import run, shared, unshared
from repro.workloads.apps import APPS

CFG = GPUConfig().scaled(num_clusters=1)
FAST = dict(config=CFG, scale=0.15, waves=1.0)


def spec(app="gaussian", mode=None, **kw):
    params = {**FAST, **kw}
    return RunSpec.create(APPS[app], mode or unshared("lrr"), **params)


class TestRunSpec:
    def test_hashable_and_equal(self):
        assert spec() == spec()
        assert hash(spec()) == hash(spec())
        assert spec() != spec(mode=unshared("gto"))

    def test_digest_stable_within_process(self):
        assert spec().digest() == spec().digest()

    def test_digest_distinguishes_every_knob(self):
        base = spec()
        variants = [
            spec(app="hotspot"),
            spec(mode=unshared("gto")),
            spec(mode=shared(SharedResource.REGISTERS, "owf", unroll=True)),
            spec(scale=0.2),
            spec(waves=2.0),
            spec(config=GPUConfig().scaled(num_clusters=2)),
            spec(grid_blocks=7),
            spec(max_cycles=1000),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_stable_across_processes(self):
        d = spec(mode=shared(SharedResource.SCRATCHPAD, "owf", t=0.3)).digest()
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "from repro.config import GPUConfig\n"
            "from repro.core.sharing import SharedResource\n"
            "from repro.harness.engine import RunSpec\n"
            "from repro.harness.runner import shared\n"
            "from repro.workloads.apps import APPS\n"
            "print(RunSpec.create(APPS['gaussian'],"
            " shared(SharedResource.SCRATCHPAD, 'owf', t=0.3),"
            " config=GPUConfig().scaled(num_clusters=1),"
            " scale=0.15, waves=1.0).digest())\n")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == d

    def test_dict_round_trip(self):
        s = spec(mode=shared(SharedResource.REGISTERS, "owf", t=0.5,
                             unroll=True, dyn=True))
        restored = RunSpec.from_dict(json.loads(json.dumps(s.to_dict())))
        assert restored == s
        assert restored.digest() == s.digest()

    def test_execute_matches_runner(self):
        s = spec()
        assert s.execute() == run(APPS["gaussian"], unshared("lrr"), **FAST)

    def test_adhoc_kernel_spec(self):
        kernel = APPS["gaussian"].kernel(FAST["scale"])
        s = RunSpec.create(kernel, unshared("lrr"), config=CFG, waves=1.0)
        assert s.app is None and s.kernel is kernel
        assert s.kernel_fp == kernel.fingerprint

    def test_deserialized_adhoc_spec_not_runnable(self):
        kernel = APPS["gaussian"].kernel(FAST["scale"])
        s = RunSpec.create(kernel, unshared("lrr"), config=CFG)
        restored = RunSpec.from_dict(s.to_dict())
        with pytest.raises(ValueError, match="ad-hoc"):
            restored.target()

    def test_code_salt_in_digest(self):
        # digest == sha256 over {salt, spec}; same spec + same tree → same
        # digest, and the salt is a fixed-size hex string
        assert len(code_salt()) == 16
        int(code_salt(), 16)


#: ``Kernel.fingerprint`` of every registry app at scales 0.15 and 1.0.
#: Part of every digest: a change here orphans every cached result.
PINNED_FINGERPRINTS = {
    "backprop": ("6c16f742a7be6922", "c78bc3623a6b673d"),
    "b+tree": ("11865f7f9468e548", "150fbfdd76e2fc58"),
    "hotspot": ("7c6cfff459a51608", "db158a0f7d49997c"),
    "LIB": ("58253d97c035fc7f", "e8cc7963c99ce9fa"),
    "MUM": ("29fd17bcb136586d", "967a5444b06e8ce8"),
    "mri-q": ("d43903d37ad13b71", "d8ca97729ed3813e"),
    "sgemm": ("d7105fa5f653082c", "a2ac701d11143f54"),
    "stencil": ("5114b475f43ee20b", "ad5b0b9e4659989b"),
    "CONV1": ("24f8fe24ce267c2c", "4bffe843a2b88632"),
    "CONV2": ("93e46b1178e27fc1", "322d4ec9bed05dba"),
    "lavaMD": ("24da3ee4f4a5a1a6", "e036e8e2d218b215"),
    "NW1": ("ee4109014b713a47", "ba41b300bdf77e41"),
    "NW2": ("10e247443924d8d1", "f7934928e1833b89"),
    "SRAD1": ("caa7f6c6a0b1af7c", "626233ce055f33ff"),
    "SRAD2": ("992d23110e26682f", "e6fba1bdf2688c00"),
    "backprop-lf": ("28631991bc48ed11", "d07bc7ba47ff817d"),
    "BFS": ("924f224beb0ef366", "a49f57666c326301"),
    "gaussian": ("0cef1c31bf4328df", "23183ae0e5dcd977"),
    "NN": ("764ee70b804dacd9", "58bd633836595410"),
}

#: ``json.dumps(spec.to_dict(), sort_keys=True)`` of the spec built in
#: ``test_spec_json_pinned``: the digest's input apart from the salt.
PINNED_SPEC_JSON = (
    '{"app": "hotspot", "config": {"banks_per_partition": 8, '
    '"cores_per_cluster": 1, "dram_queue_depth": 32, '
    '"dram_row_size": 2048, "fetch_group_size": 8, "l1_assoc": 4, '
    '"l1_mshrs": 32, "l1_size": 16384, "l2_assoc": 8, "l2_mshrs": 64, '
    '"l2_size": 786432, "latency": {"alu": 4, "dram_clock_ratio": 2, '
    '"dram_fixed": 20, "interconnect": 24, "l1_hit": 28, "l2_hit": 48, '
    '"scratchpad": 24, "sfu": 20}, "line_size": 128, '
    '"max_blocks_per_sm": 8, "max_threads_per_sm": 1536, '
    '"num_clusters": 1, "num_mem_partitions": 6, "num_schedulers": 2, '
    '"registers_per_sm": 32768, "scratchpad_per_sm": 16384, '
    '"timings": {"burst": 4, "tCDLR": 5, "tCL": 12, "tRAS": 28, '
    '"tRC": 40, "tRCD": 12, "tRP": 12, "tRRD": 6, "tWR": 12}}, '
    '"grid_blocks": null, "kernel_fp": "7c6cfff459a51608", '
    '"max_cycles": 2000000, "metrics": false, "mode": {"dyn": true, '
    '"early_release": false, "label": "Shared-OWF-Unroll-Dyn", '
    '"scheduler": "owf", "sharing": "registers", "t": 0.3, '
    '"unroll": true}, "scale": 0.15, "trace": null, "waves": 1.0}')


class TestWarmPath:
    """Kernels, fingerprints and config dicts are computed once per
    process, and the digest inputs are unchanged by the memoization."""

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprints_pinned(self, name):
        small, full = PINNED_FINGERPRINTS[name]
        assert APPS[name].kernel(0.15).fingerprint == small
        assert APPS[name].kernel(1.0).fingerprint == full

    def test_every_registry_app_pinned(self):
        assert set(PINNED_FINGERPRINTS) == set(APPS)

    def test_spec_json_pinned(self):
        s = RunSpec.create(
            APPS["hotspot"],
            shared(SharedResource.REGISTERS, "owf", t=0.3, unroll=True,
                   dyn=True), **FAST)
        assert json.dumps(s.to_dict(), sort_keys=True) == PINNED_SPEC_JSON

    def test_kernel_built_once(self):
        app = APPS["hotspot"]
        assert app.kernel(0.15) is app.kernel(0.15)

    def test_mutating_to_dict_leaves_digest(self):
        s = spec()
        digest = s.digest()
        d = s.to_dict()
        d["config"]["l1_mshrs"] = 1
        d["config"]["timings"]["tCL"] = 1
        assert s.digest() == digest
        assert s.to_dict()["config"]["timings"]["tCL"] == 12

    def test_warm_pass_builds_each_kernel_at_most_once(self, tmp_path,
                                                       monkeypatch):
        tiny = dict(config=CFG, scale=0.1, waves=0.5)
        cold = Engine(jobs=1, cache_dir=tmp_path)
        for exp_id in EXPERIMENTS:
            run_experiment(exp_id, engine=cold, **tiny)
        builds = Counter()
        for name, app in list(APPS.items()):
            def counted(scale, name=name, build=app.build):
                builds[name, scale] += 1
                return build(scale)
            monkeypatch.setitem(APPS, name, replace(app, build=counted))
        warm = Engine(jobs=1, cache_dir=tmp_path)
        for exp_id in EXPERIMENTS:
            run_experiment(exp_id, engine=warm, **tiny)
        assert warm.stats.sims == 0 and warm.stats.hits > 0
        assert builds and max(builds.values()) == 1


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        res = s.execute()
        cache.put(s.digest(), s, res, 0.5)
        assert cache.get(s.digest()) == res

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        d = spec().digest()
        cache.path(d).parent.mkdir(parents=True)
        cache.path(d).write_text("{not json")
        assert cache.get(d) is None

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s.digest(), s, s.execute(), 0.0)
        payload = json.loads(cache.path(s.digest()).read_text())
        payload["schema"] = 999
        cache.path(s.digest()).write_text(json.dumps(payload))
        assert cache.get(s.digest()) is None

    def test_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        d = "ab" + "0" * 62
        assert cache.path(d) == tmp_path / "ab" / f"{d}.json"


class TestEngine:
    def test_hit_miss_counters(self, tmp_path):
        eng = Engine(jobs=1, cache_dir=tmp_path)
        s = spec()
        r1 = eng.run_one(s)
        assert (eng.stats.sims, eng.stats.hits, eng.stats.misses) == (1, 0, 1)
        r2 = eng.run_one(s)
        assert (eng.stats.sims, eng.stats.hits) == (1, 1)
        assert r1 == r2

    def test_cache_shared_between_engines(self, tmp_path):
        s = spec()
        Engine(jobs=1, cache_dir=tmp_path).run_one(s)
        eng2 = Engine(jobs=1, cache_dir=tmp_path)
        eng2.run_one(s)
        assert eng2.stats.sims == 0 and eng2.stats.hits == 1

    def test_no_cache(self, tmp_path):
        eng = Engine(jobs=1, cache=False)
        eng.run_one(spec())
        eng.run_one(spec())
        assert eng.stats.sims == 2 and eng.stats.hits == 0

    def test_batch_dedupes(self):
        eng = Engine(jobs=1, cache=False)
        a, b = spec(), spec(mode=unshared("gto"))
        results = eng.run_batch([a, b, a, a])
        assert eng.stats.sims == 2 and eng.stats.deduped == 2
        assert results[0] == results[2] == results[3]
        assert results[0] != results[1]

    def test_progress_events(self, tmp_path):
        events = []
        eng = Engine(jobs=1, cache_dir=tmp_path, progress=events.append)
        eng.run_batch([spec(), spec(mode=unshared("gto"))])
        assert [e.index for e in events] == [1, 2]
        assert all(e.total == 2 and not e.cached and e.elapsed > 0
                   for e in events)
        eng.run_one(spec())
        assert events[-1].cached and events[-1].elapsed == 0.0

    def test_cached_result_equals_fresh(self, tmp_path):
        s = spec(mode=shared(SharedResource.REGISTERS, "owf", unroll=True))
        eng = Engine(jobs=1, cache_dir=tmp_path)
        fresh = eng.run_one(s)
        via_cache = Engine(jobs=1, cache_dir=tmp_path).run_one(s)
        assert via_cache == fresh          # dataclass deep equality
        assert via_cache.to_dict() == fresh.to_dict()

    def test_parallel_bit_identical_to_sequential(self):
        # two SET1 apps × two modes, jobs=2 forces the process pool
        specs = [spec(app=a, mode=m)
                 for a in ("gaussian", "hotspot")
                 for m in (unshared("lrr"),
                           shared(SharedResource.REGISTERS, "owf",
                                  unroll=True))]
        seq = Engine(jobs=1, cache=False).run_batch(specs)
        par = Engine(jobs=2, cache=False).run_batch(specs)
        assert par == seq
        assert [r.to_dict() for r in par] == [r.to_dict() for r in seq]

    def test_pool_flag_sends_a_lone_spec_to_a_worker(self, monkeypatch):
        made = []
        real = engine_mod.ProcessPoolExecutor

        def counted(**kw):
            made.append(kw)
            return real(**kw)
        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", counted)
        s = spec()
        eng = Engine(jobs=2, cache=False)
        in_process = eng.run_batch([s])
        assert made == []
        assert eng.run_batch([s], pool=True) == in_process
        assert made == [{"max_workers": 1}]

    def test_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert Engine(cache=False).jobs == 3
        assert Engine(jobs=1, cache=False).jobs == 1


class TestExperimentIntegration:
    """The acceptance criteria: warm cache ⇒ zero simulations."""

    def _fig8c(self, engine):
        from repro.harness.experiments import run_experiment
        return run_experiment("fig8c", config=CFG, scale=0.15, waves=1.0,
                              engine=engine)

    def test_fig8c_second_run_zero_sims(self, tmp_path):
        cold = Engine(jobs=1, cache_dir=tmp_path)
        first = self._fig8c(cold)
        assert cold.stats.sims > 0

        warm = Engine(jobs=1, cache_dir=tmp_path)
        second = self._fig8c(warm)
        assert warm.stats.sims == 0
        assert warm.stats.hits == cold.stats.sims
        assert second.rows == first.rows

    def test_experiment_rows_independent_of_jobs(self, tmp_path):
        seq = self._fig8c(Engine(jobs=1, cache=False))
        par = self._fig8c(Engine(jobs=2, cache=False))
        assert par.rows == seq.rows


class TestCancellation:
    def _specs(self, n):
        return [spec(max_cycles=10_000_000 + i) for i in range(n)]

    def test_preset_token_cancels_everything(self):
        import threading
        eng = Engine(jobs=1, cache=False)
        cancel = threading.Event()
        cancel.set()
        results = eng.run_batch(self._specs(3), cancel=cancel)
        assert all(r.category == "cancelled" for r in results)
        assert all(r.attempts == 0 for r in results)
        assert eng.stats.cancelled == 3 and eng.stats.sims == 0

    def test_cancel_mid_batch_keeps_finished_work(self):
        import threading
        eng = Engine(jobs=1, cache=False)
        cancel = threading.Event()
        results = eng.run_batch(self._specs(3), cancel=cancel,
                                progress=lambda ev: cancel.set())
        from repro.sim.stats import RunResult
        assert isinstance(results[0], RunResult)
        assert [r.category for r in results[1:]] == ["cancelled"] * 2
        assert eng.stats.sims == 1 and eng.stats.cancelled == 2

    def test_preset_token_cancels_pool_batch(self):
        import threading
        eng = Engine(jobs=2, cache=False)
        cancel = threading.Event()
        cancel.set()
        results = eng.run_batch(self._specs(4), cancel=cancel)
        assert all(r.category == "cancelled" for r in results)
        assert eng.stats.cancelled == 4 and eng.stats.sims == 0

    def test_cancelled_runs_not_failures_not_cached(self, tmp_path):
        import threading
        cancel = threading.Event()
        cancel.set()
        eng = Engine(jobs=1, cache_dir=tmp_path)
        s = spec()
        eng.run_batch([s], cancel=cancel)
        assert eng.failures == [] and eng.stats.failures == 0
        fresh = Engine(jobs=1, cache_dir=tmp_path)
        fresh.run_one(s)
        assert fresh.stats.sims == 1  # nothing was cached for it


class TestOnComplete:
    """``progress`` fires on completion of every slot, however it
    settles: the service persists results from it."""

    def test_fires_for_sim_hit_and_cancelled(self, tmp_path):
        import threading
        events = []
        eng = Engine(jobs=1, cache_dir=tmp_path)
        eng.run_batch([spec()], progress=events.append)
        assert len(events) == 1 and not events[0].cached
        eng.run_batch([spec()], progress=events.append)
        assert len(events) == 2 and events[1].cached
        cancel = threading.Event()
        cancel.set()
        eng.run_batch([spec(app="hotspot")], cancel=cancel,
                      progress=events.append)
        assert events[2].result.category == "cancelled"

    def test_fires_once_per_unique_digest(self):
        events = []
        eng = Engine(jobs=1, cache=False)
        s = spec()
        eng.run_batch([s, s, s], progress=events.append)
        assert len(events) == 1
        assert eng.stats.deduped == 2

    def test_fires_for_failures(self):
        from repro.harness.faults import FaultInjector
        s = spec()
        inj = FaultInjector().add(s.digest(), "error")
        events = []
        eng = Engine(jobs=1, cache=False, faults=inj)
        eng.run_batch([s], progress=events.append)
        assert events[0].result.category == "error"


class TestQuarantinePrune:
    def _corrupt(self, cache, s):
        d = s.digest()
        cache.path(d).parent.mkdir(parents=True, exist_ok=True)
        cache.path(d).write_text("{definitely not json")
        return d

    def test_prunes_oldest_beyond_file_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ResultCache, "QUARANTINE_MAX_FILES", 2)
        cache = ResultCache(tmp_path)
        digests = [self._corrupt(cache, spec(max_cycles=1000 + i))
                   for i in range(5)]
        for i, d in enumerate(digests):
            os.utime(cache.path(d), (i, i))  # deterministic age order
            assert cache.get(d) is None
        assert cache.quarantined == 5
        assert cache.pruned == 3
        left = sorted(p.name for p in cache.quarantine_dir().iterdir())
        assert left == sorted(f"{d}.json" for d in digests[-2:])

    def test_prunes_beyond_byte_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ResultCache, "QUARANTINE_MAX_BYTES", 30)
        cache = ResultCache(tmp_path)
        for i in range(3):
            d = self._corrupt(cache, spec(max_cycles=2000 + i))
            cache.get(d)
        files = list(cache.quarantine_dir().iterdir())
        assert sum(p.stat().st_size for p in files) <= 30
        assert cache.pruned >= 1

    def test_engine_surfaces_pruned_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ResultCache, "QUARANTINE_MAX_FILES", 0)
        cache = ResultCache(tmp_path)
        s = spec()
        self._corrupt(cache, s)
        eng = Engine(jobs=1, cache=cache)
        eng.run_one(s)
        assert eng.stats.quarantined == 1
        assert eng.stats.quarantine_pruned == 1
        assert not list(cache.quarantine_dir().iterdir())
