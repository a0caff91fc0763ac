"""Execution engine: RunSpec digests, result cache, parallel equality."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness import engine as engine_mod
from repro.harness.engine import Engine, ResultCache, RunSpec, code_salt
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.faults import corrupt_cache_entry
from repro.harness.runner import run, shared, unshared
from repro.sim.stats import RunResult, SMStats
from repro.workloads.apps import APPS, _build_kernel
from repro.workloads.generator import generate_kernel

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


#: ``digest()`` of the spec of ``test_spec_json_pinned`` and of an
#: ad-hoc ``generate_kernel(7)`` spec, under the salt
#: ``0123456789abcdef``: the bytes the digest memo must not change.
PINNED_DIGEST = (
    "82a6d64c8100cd31779dd8821e6773f335e450ea456088a2f424d28f8f55c99d")
PINNED_ADHOC_DIGEST = (
    "7c8ac86ade5758a600d5c956ac4793d27093520d28db12b1d4050d51945282ac")


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

    def test_digest_pinned(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "code_salt",
                            lambda: "0123456789abcdef")
        s = RunSpec.create(
            APPS["hotspot"],
            shared(SharedResource.REGISTERS, "owf", t=0.3, unroll=True,
                   dyn=True), **FAST)
        assert s.digest() == PINNED_DIGEST
        adhoc = RunSpec.create(generate_kernel(7), unshared("lrr"),
                               config=CFG, waves=1.0)
        assert adhoc.digest() == PINNED_ADHOC_DIGEST

    @pytest.mark.parametrize("adhoc", [False, True])
    def test_digest_is_the_canonical_json_hash(self, adhoc):
        target = generate_kernel(11) if adhoc else APPS["hotspot"]
        s = RunSpec.create(target, unshared("gto"), **FAST)
        for variant in (s, replace(s, scale=1), replace(s, scale=1.0),
                        replace(s, mode=replace(s.mode, t=0)),
                        replace(s, mode=replace(s.mode, t=0.0))):
            payload = json.dumps({"salt": code_salt(),
                                  "spec": variant.to_dict()},
                                 sort_keys=True, separators=(",", ":"))
            assert variant.digest() \
                == hashlib.sha256(payload.encode()).hexdigest()

    def test_digest_follows_the_salt(self, monkeypatch):
        s = spec()
        before = s.digest()
        monkeypatch.setattr(engine_mod, "code_salt", lambda: "upgraded")
        assert s.digest() != before
        monkeypatch.undo()
        assert s.digest() == before

    def test_digest_memo_keeps_no_adhoc_kernel(self):
        kernel = generate_kernel(13)
        s = RunSpec.create(kernel, unshared("lrr"), config=CFG, waves=1.0)
        s.digest()
        ref = weakref.ref(kernel)
        del kernel, s
        gc.collect()
        assert ref() is None

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

    def test_warm_variance_sensitivity_builds_nothing(self, tmp_path):
        # Its five hotspot variants are built once, not on every call.
        tiny = dict(config=CFG, scale=0.1, waves=0.5)
        eng = Engine(jobs=1, cache_dir=tmp_path)
        run_experiment("ext_variance_sensitivity", engine=eng, **tiny)
        misses = _build_kernel.cache_info().misses
        run_experiment("ext_variance_sensitivity", engine=eng, **tiny)
        assert eng.stats.hits == 10
        assert _build_kernel.cache_info().misses == misses


_numbers = st.integers(0, 10**12) | st.floats(allow_nan=False)
_results = st.builds(
    RunResult, kernel=st.text(max_size=12), mode=st.text(max_size=12),
    cycles=st.integers(0, 10**12), instructions=st.integers(0, 10**12),
    sm_stats=st.lists(st.builds(
        SMStats, *[st.integers(0, 10**9)] * len(fields(SMStats))),
        min_size=1, max_size=3),
    mem=st.dictionaries(st.text(min_size=1, max_size=12), _numbers,
                        max_size=6),
    blocks_baseline=st.integers(0, 64), blocks_total=st.integers(0, 64),
    metrics=st.none() | st.dictionaries(
        st.text(max_size=8),
        st.dictionaries(st.text(max_size=8), _numbers, max_size=3),
        max_size=3))


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        res = s.execute()
        cache.put(s.digest(), res)
        assert cache.get([s.digest()]) == {s.digest(): res}

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get(["0" * 64]) == {}

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        d = spec().digest()
        corrupt_cache_entry(cache, d, "garbage")
        assert cache.get([d]) == {}
        assert cache.quarantined == 1

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s.digest(), s.execute())
        corrupt_cache_entry(cache, s.digest(), "schema")
        assert cache.get([s.digest()]) == {}
        assert cache.quarantined == 0

    def test_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        res = s.execute()
        cache.put(s.digest(), res)
        assert cache.path == tmp_path / "results.db"
        assert sorted(p.name for p in tmp_path.iterdir()
                      if not p.name.startswith("results.db-")) \
            == ["results.db"]
        (digest, schema, payload), = cache.connection().execute(
            "SELECT digest, schema, payload FROM results")
        assert (digest, schema) == (s.digest(), 2)
        row = json.loads(payload)
        assert row == [
            res.kernel, res.mode, res.cycles, res.instructions,
            [[getattr(sm, f.name) for f in fields(SMStats)]
             for sm in res.sm_stats],
            [list(kv) for kv in res.mem.items()],
            res.blocks_baseline, res.blocks_total, None]
        assert engine_mod._from_row(row) == res

    def test_one_query_per_batch(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        eng = Engine(jobs=1, cache=cache)
        specs = [spec(app) for app in ("gaussian", "hotspot", "BFS")]
        eng.run_batch(specs)
        calls = []
        get = ResultCache.get
        monkeypatch.setattr(ResultCache, "get",
                            lambda self, ds: calls.append(ds) or get(self, ds))
        eng.run_batch(specs + specs[:1])
        assert calls == [[s.digest() for s in specs]]
        assert eng.stats.hits == 3

    @settings(max_examples=60, deadline=None)
    @given(_results)
    def test_row_round_trip(self, r):
        """A row read back from its JSON gives the same ``to_dict`` with
        the same value types: ints stay ints, floats floats."""
        back = engine_mod._from_row(json.loads(json.dumps(
            engine_mod._to_row(r))))
        assert back == r

        def typed(v):
            if isinstance(v, dict):
                return {k: typed(x) for k, x in v.items()}
            if isinstance(v, list):
                return [typed(x) for x in v]
            return type(v), v
        assert typed(back.to_dict()) == typed(r.to_dict())
        assert list(back.mem) == list(r.mem)

    def test_lookup_larger_than_one_query(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_mod, "_IN_MAX", 2)
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s.digest(), s.execute())
        ds = ["0" * 64, "1" * 64, s.digest(), "2" * 64]
        assert list(cache.get(ds)) == [s.digest()]

    def test_old_json_layout_ignored(self, tmp_path):
        s = spec()
        d = s.digest()
        (tmp_path / d[:2]).mkdir()
        (tmp_path / d[:2] / f"{d}.json").write_text(json.dumps(
            {"schema": 1, "result": s.execute().to_dict()}))
        eng = Engine(jobs=1, cache_dir=tmp_path)
        eng.run_one(s)
        assert (eng.stats.hits, eng.stats.sims) == (0, 1)

    def test_unwritable_root_is_a_miss(self, tmp_path):
        root = tmp_path / "file"
        root.write_text("not a directory")
        cache = ResultCache(root)
        s = spec()
        cache.put(s.digest(), s.execute())
        assert cache.get([s.digest()]) == {}
        assert Engine(jobs=1, cache=cache).run_one(s).ok


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

    def test_sanitize_is_outside_the_identity(self):
        s = spec()
        twin = replace(s, sanitize=True)
        assert twin == s and hash(twin) == hash(s)
        assert twin.to_dict() == s.to_dict() and twin.digest() == s.digest()
        assert not RunSpec.from_dict(twin.to_dict()).sanitize
        assert Engine(jobs=1, cache=False, sanitize=True) \
            ._observed(s).sanitize

    @pytest.mark.parametrize("sanitized_first", [False, True])
    def test_sanitized_twin_shares_one_uncached_run(
            self, tmp_path, sanitizers_made, sanitized_first):
        s = spec()
        cached = Engine(jobs=1, cache_dir=tmp_path).run_one(s)
        assert sanitizers_made == []
        batch = [s, replace(s, sanitize=True)]
        if sanitized_first:
            batch.reverse()
        eng = Engine(jobs=1, cache_dir=tmp_path)
        first, second = eng.run_batch(batch)
        assert (eng.stats.hits, eng.stats.sims, eng.stats.deduped) \
            == (0, 1, 1)
        assert len(sanitizers_made) == 1
        assert first == second == cached

    def test_counters_settle_before_each_progress_hook(self, tmp_path):
        a, b, c = spec(), spec(mode=unshared("gto")), spec(app="hotspot")
        Engine(jobs=1, cache_dir=tmp_path).run_one(a)
        eng, seen = Engine(jobs=1, cache_dir=tmp_path), []
        eng.run_batch([a, b, c], progress=lambda ev: seen.append(
            (ev.cached, eng.stats.hits, eng.stats.sims)))
        assert seen == [(True, 1, 0), (False, 1, 1), (False, 1, 2)]

    def test_threads_share_one_engine(self, monkeypatch):
        """Four threads run batches on one engine at once: every counter
        update lands."""
        res = spec().execute()
        monkeypatch.setattr(RunSpec, "execute", lambda self: res)
        eng = Engine(jobs=1, cache=False)
        pairs = [(spec(mode=unshared(sched)), spec(app="hotspot",
                                                   mode=unshared(sched)))
                 for sched in ("lrr", "gto", "two_level", "owf")]
        errors = []

        def worker(a, b):
            try:
                for _ in range(50):
                    assert eng.run_batch([a, b, a]) == [res] * 3
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=pair)
                       for pair in pairs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        st = eng.stats
        assert (st.submitted, st.deduped, st.sims) == (600, 200, 400)


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


class TestCorruptRows:
    """A corrupt row is a miss, is deleted and counted, and its spec is
    re-simulated: no bad row outlives the lookup that found it."""

    def test_every_corrupt_row_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        digests = [spec(max_cycles=1000 + i).digest() for i in range(5)]
        for d in digests:
            corrupt_cache_entry(cache, d, "garbage")
            assert cache.get([d]) == {}
        assert cache.quarantined == 5
        assert cache.connection().execute(
            "SELECT COUNT(*) FROM results").fetchone() == (0,)

    def test_one_lookup_deletes_bad_rows_keeps_good(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = spec()
        cache.put(good.digest(), good.execute())
        bad = [spec(max_cycles=2000 + i).digest() for i in range(3)]
        for d, mode in zip(bad, ("garbage", "missing-key", "garbage")):
            corrupt_cache_entry(cache, d, mode)
        found = cache.get(bad + [good.digest()])
        assert list(found) == [good.digest()]
        assert cache.quarantined == 3
        assert [d for d, in cache.connection().execute(
            "SELECT digest FROM results")] == [good.digest()]

    @pytest.mark.parametrize("bad", ["nine-key object", "8-item list",
                                     "short SM row"])
    def test_misshapen_row_deleted_and_resimulated(self, tmp_path, bad):
        cache = ResultCache(tmp_path)
        s = spec()
        expected = s.execute()
        row = engine_mod._to_row(expected)
        if bad == "nine-key object":
            row = dict(zip("abcdefghi", row))
        elif bad == "8-item list":
            row = row[:8]
        else:
            row[4][0] = list(row[4][0])[:-1]
        cache.connection().execute(
            "INSERT INTO results VALUES (?, ?, ?)",
            (s.digest(), engine_mod.CACHE_SCHEMA, json.dumps(row)))
        eng = Engine(jobs=1, cache=cache)
        assert eng.run_one(s) == expected
        assert (eng.stats.quarantined, eng.stats.sims) == (1, 1)
        assert cache.get([s.digest()]) == {s.digest(): expected}

    def test_engine_surfaces_deleted_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        corrupt_cache_entry(cache, s.digest(), "garbage")
        eng = Engine(jobs=1, cache=cache)
        res = eng.run_one(s)
        assert eng.stats.quarantined == 1 and eng.stats.sims == 1
        assert cache.get([s.digest()]) == {s.digest(): res}


class TestCorruptStore:
    """A ``results.db`` SQLite cannot read is moved aside once and the
    store recreated, instead of turning the cache off."""

    def test_random_bytes_store_recreated(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main
        (tmp_path / "results.db").write_bytes(
            random.Random(5).randbytes(5000))
        argv = ["fig8c", "--clusters", "1", "--scale", "0.15", "--waves",
                "1", "--jobs", "1", "--cache-dir", str(tmp_path)]
        footers = []
        for _ in range(2):
            assert harness_main(argv) == 0
            footers.append(capsys.readouterr().out.strip().splitlines()[-1])
        assert "16 sims, 0 cache hits" in footers[0]
        assert "1 quarantined" in footers[0]
        assert "0 sims, 16 cache hits" in footers[1]
        assert (tmp_path / "results.db.corrupt").read_bytes() == \
            random.Random(5).randbytes(5000)

    def test_moved_aside_once_and_counted(self, tmp_path):
        (tmp_path / "results.db").write_bytes(b"x" * 5000)
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s.digest(), s.execute())
        assert cache.quarantined == 1
        assert (tmp_path / "results.db.corrupt").read_bytes() == b"x" * 5000
        assert list(cache.get([s.digest()])) == [s.digest()]
        assert cache.quarantined == 1

    def test_unwritable_root_is_still_a_plain_miss(self, tmp_path):
        root = tmp_path / "file"
        root.write_text("not a directory")
        cache = ResultCache(root)
        s = spec()
        cache.put(s.digest(), s.execute())
        assert cache.get([s.digest()]) == {}
        assert cache.quarantined == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


#: Writer process of ``test_two_processes_write_one_root``: waits for
#: "go" on stdin, then stores one result per digest index in its range
#: into each of the given roots in turn.
_WRITER = """
import json, sys
from repro.harness.engine import ResultCache
from repro.sim.stats import RunResult
base, lo, hi, *roots = sys.argv[1:]
template = RunResult.from_dict(json.loads(open(base).read()))
print("ready", flush=True)
sys.stdin.readline()
for root in roots:
    cache = ResultCache(root)
    for i in range(int(lo), int(hi)):
        template.cycles = i
        cache.put(f"{i:064x}", template)
"""


class TestStoreConcurrency:
    def test_two_processes_write_one_root(self, tmp_path):
        """Both writers create each new store at the same moment (the
        set-up race) and then write overlapping digests."""
        res = spec().execute()
        base = tmp_path / "result.json"
        base.write_text(json.dumps(res.to_dict()))
        roots = [str(tmp_path / f"cache{i}") for i in range(4)]
        src = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        procs = [subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(base), lo, hi, *roots],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env) for lo, hi in (("0", "100"), ("50", "150"))]
        for p in procs:
            assert p.stdout.readline().strip() == "ready"
        for p in procs:  # both start writing at once
            p.stdin.write("go\n")
            p.stdin.flush()
        for p in procs:
            p.stdin.close()
            assert p.wait(timeout=60) == 0
            p.stdout.close()
        for root in roots:
            found = ResultCache(root).get([f"{i:064x}" for i in range(150)])
            assert len(found) == 150, root
            for i in range(150):
                assert found[f"{i:064x}"] == replace(res, cycles=i)

    def test_warm_read_then_pool_then_warm_read(self, tmp_path):
        eng = Engine(jobs=2, cache_dir=tmp_path)
        first = spec()
        rest = [spec(app) for app in ("hotspot", "BFS", "NW1")]
        expected = eng.run_one(first)
        assert eng.run_one(first) == expected           # warm read
        assert eng.stats.hits == 1
        cold = eng.run_batch(rest)                      # forks the pool
        assert eng.stats.sims == 1 + len(rest)
        sims, hits = eng.stats.sims, eng.stats.hits
        warm = eng.run_batch([first] + rest)
        assert eng.stats.sims == sims
        assert eng.stats.hits == hits + 1 + len(rest)
        assert warm == [expected] + cold

    def test_forked_child_opens_its_own_connection(self, tmp_path):
        cache = ResultCache(tmp_path)
        inherited = cache.connection()
        pid = os.fork()
        if pid == 0:  # child: never use the parent's handle
            code = 1
            try:
                own = cache.connection()
                code = 0 if own is not inherited and \
                    cache.get(["0" * 64]) == {} else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert inherited.execute("SELECT COUNT(*) FROM results").fetchone() \
            == (0,)

    def test_threads_write_and_read_one_root(self, tmp_path):
        """More threads than cores, switching often: every put lands and
        every thread reads back every digest."""
        res = spec().execute()
        errors, found = [], []

        def worker(k):
            try:
                cache = ResultCache(tmp_path)
                for i in range(k * 20, k * 20 + 40):  # overlaps k + 1
                    cache.put(f"{i:064x}", replace(res, cycles=i))
                found.append(cache.get([f"{i:064x}" for i in range(140)]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        final = ResultCache(tmp_path).get([f"{i:064x}" for i in range(140)])
        assert final == {f"{i:064x}": replace(res, cycles=i)
                         for i in range(140)}
        assert len(found) == 6

    def test_connection_per_thread(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s.digest(), s.execute())
        seen = {}

        def worker():
            seen["db"] = cache.connection()
            seen["found"] = ResultCache(tmp_path).get([s.digest()])

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["db"] is not cache.connection()
        assert list(seen["found"]) == [s.digest()]
        assert ResultCache(tmp_path).connection() is cache.connection()
