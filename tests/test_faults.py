"""Fault-injection harness + the chaos acceptance scenario."""

import pytest

from repro.config import GPUConfig
from repro.harness.engine import Engine, ResultCache, RunSpec
from repro.harness.faults import (CRASH_EXIT_CODE, FAULT_KINDS,
                                  FaultInjector, FaultSpec, InjectedCrash,
                                  InjectedError, corrupt_cache_entry)
from repro.harness.resilience import RetryPolicy, RunFailure
from repro.harness.runner import unshared
from repro.sim.gpu import SimulationDeadlock
from repro.workloads.apps import APPS

CFG = GPUConfig().scaled(num_clusters=1)
FAST = dict(config=CFG, scale=0.15, waves=1.0)

CHAOS_APPS = ("gaussian", "SRAD1", "backprop", "hotspot", "MUM", "BFS",
              "NW1", "b+tree")


def spec(app="gaussian", **kw):
    params = {**FAST, **kw}
    return RunSpec.create(APPS[app], unshared("lrr"), **params)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor")
        with pytest.raises(ValueError):
            FaultSpec("crash", until_attempt=0)
        assert FaultSpec("hang", seconds=2.0).seconds == 2.0

    def test_kinds_frozen(self):
        assert set(FAULT_KINDS) == {"crash", "hang", "error", "deadlock"}
        assert CRASH_EXIT_CODE == 70


class TestFaultInjector:
    def test_noop_without_plan(self):
        FaultInjector().fire("deadbeef", 1, hard=False)  # must not raise

    def test_until_attempt_gates(self):
        inj = FaultInjector().add("d1", "error", until_attempt=2)
        with pytest.raises(InjectedError):
            inj.fire("d1", 1, hard=False)
        with pytest.raises(InjectedError):
            inj.fire("d1", 2, hard=False)
        inj.fire("d1", 3, hard=False)  # past the gate: no-op

    def test_soft_crash_raises(self):
        inj = FaultInjector().add("d1", "crash")
        with pytest.raises(InjectedCrash):
            inj.fire("d1", 1, hard=False)

    def test_deadlock_raises_simulation_deadlock(self):
        inj = FaultInjector().add("d1", "deadlock")
        with pytest.raises(SimulationDeadlock, match="injected"):
            inj.fire("d1", 1, hard=False)

    def test_hang_returns_after_sleep(self):
        inj = FaultInjector().add("d1", "hang", seconds=0.01)
        inj.fire("d1", 1, hard=False)  # returns

    def test_picklable(self):
        import pickle
        inj = FaultInjector().add("d1", "crash", until_attempt=2)
        clone = pickle.loads(pickle.dumps(inj))
        assert clone.plan == inj.plan

    def test_seeded_deterministic(self):
        digests = [f"{i:064x}" for i in range(200)]
        a = FaultInjector.seeded(7, digests, rate=0.2)
        b = FaultInjector.seeded(7, digests, rate=0.2)
        c = FaultInjector.seeded(8, digests, rate=0.2)
        assert a.plan == b.plan
        assert a.plan != c.plan
        assert 10 < len(a.plan) < 80  # ~20% of 200
        assert all(f.until_attempt == 1 for f in a.plan.values())


class TestCorruptCacheEntry:
    def test_unknown_mode_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            corrupt_cache_entry(cache, "0" * 64, "sledgehammer")

    def test_garbage_creates_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        corrupt_cache_entry(cache, "ab" * 32, "garbage")
        rows = "SELECT COUNT(*) FROM results WHERE digest = ?"
        db = cache.connection()
        assert db.execute(rows, ("ab" * 32,)).fetchone() == (1,)
        assert cache.get(["ab" * 32]) == {}
        assert cache.quarantined == 1
        assert db.execute(rows, ("ab" * 32,)).fetchone() == (0,)

    def test_row_modes_need_a_row(self, tmp_path):
        cache = ResultCache(tmp_path)
        for mode in ("truncate", "schema"):
            with pytest.raises(KeyError):
                corrupt_cache_entry(cache, "0" * 64, mode)


class TestChaosAcceptance:
    """ISSUE.md acceptance scenario, on the real process pool.

    A batch of 8 specs with one persistent crash, one hang (tripping
    the watchdog), one injected deadlock, one *transient* crash and one
    corrupted cache entry must complete the 5 healthy runs, return
    exactly 3 RunFailures with the right categories, retry the
    transient crash to success, and delete + re-simulate the corrupted
    entry.
    """

    def test_chaos_batch(self, tmp_path):
        specs = [spec(a) for a in CHAOS_APPS]
        ds = [s.digest() for s in specs]
        cache = ResultCache(tmp_path / "cache")

        # Pre-cache the last (healthy) spec, then corrupt its entry.
        warm = Engine(jobs=1, cache=cache)
        expected_last = warm.run_one(specs[-1])
        corrupt_cache_entry(cache, ds[-1], "truncate")

        inj = (FaultInjector()
               .add(ds[0], "crash")                    # persistent
               .add(ds[1], "hang", seconds=10.0)       # -> watchdog
               .add(ds[2], "deadlock")
               .add(ds[3], "crash", until_attempt=1))  # transient
        eng = Engine(jobs=4, cache=cache, faults=inj, timeout=1.5,
                     retry=RetryPolicy(backoff_base=0.01))
        results = eng.run_batch(specs)

        failures = {i: r for i, r in enumerate(results)
                    if isinstance(r, RunFailure)}
        assert set(failures) == {0, 1, 2}
        assert failures[0].category == "crash"
        assert failures[1].category == "timeout"
        assert failures[2].category == "deadlock"
        assert failures[2].exception_type == "SimulationDeadlock"
        assert "injected" in failures[2].message

        # The other 5 runs completed despite the carnage.
        for i in range(3, len(specs)):
            assert results[i].ok, f"spec {i} should have succeeded"
        # Transient crash retried within the backoff budget.
        assert eng.stats.retries > 0
        assert eng.stats.timeouts == 1
        assert eng.stats.failures == 3
        # Corrupted entry was deleted and re-simulated bit-identically,
        # and the store now holds the good result in its place.
        assert eng.stats.quarantined == 1
        assert results[-1].to_dict() == expected_last.to_dict()
        assert cache.get([ds[-1]]) == {ds[-1]: expected_last}

    def test_pool_transient_crash_blamed_precisely(self):
        # A hard (os._exit) crash kills the whole pool; innocent
        # co-scheduled specs must NOT be charged retry attempts.
        specs = [spec(a) for a in CHAOS_APPS[:4]]
        inj = FaultInjector().add(specs[0].digest(), "crash",
                                  until_attempt=1)
        eng = Engine(jobs=4, cache=False, faults=inj,
                     retry=RetryPolicy(max_attempts=2, backoff_base=0.01))
        results = eng.run_batch(specs)
        assert all(r.ok for r in results)
        assert eng.stats.failures == 0


class TestNoFaultBitIdentity:
    def test_jobs1_no_faults_identical_to_plain_run(self):
        from repro.harness.runner import run
        s = spec()
        eng = Engine(jobs=1, cache=False, timeout=None)
        res = eng.run_one(s)
        direct = run(APPS["gaussian"], unshared("lrr"), **FAST)
        assert res.to_dict() == direct.to_dict()

    def test_resilient_engine_matches_plain_engine(self):
        s = spec(app="hotspot")
        plain = Engine(jobs=1, cache=False).run_one(s)
        armed = Engine(jobs=1, cache=False, timeout=600.0,
                       retry=RetryPolicy(max_attempts=5),
                       faults=FaultInjector()).run_one(s)
        assert plain.to_dict() == armed.to_dict()
