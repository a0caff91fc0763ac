"""Resilience layer: RunFailure records, retries, timeouts, quarantine."""

import json

import pytest

from repro.config import GPUConfig
from repro.harness.engine import (CACHE_SCHEMA, Engine, ResultCache, RunSpec,
                                  code_salt)
from repro.harness.faults import (FaultInjector, InjectedCrash, InjectedError,
                                  corrupt_cache_entry)
from repro.harness.resilience import (CATEGORIES, BatchReport, RetryPolicy,
                                      RunCancelled, RunFailure,
                                      RunTimeoutError, categorize,
                                      split_results)
from repro.harness.runner import unshared
from repro.sim.gpu import SimulationDeadlock, SimulationLimitExceeded
from repro.sim.sanitizer import SanitizerViolation
from repro.workloads.apps import APPS

CFG = GPUConfig().scaled(num_clusters=1)
FAST = dict(config=CFG, scale=0.15, waves=1.0)


def spec(app="gaussian", mode=None, **kw):
    params = {**FAST, **kw}
    return RunSpec.create(APPS[app], mode or unshared("lrr"), **params)


class TestCategorize:
    def test_mapping(self):
        assert categorize(SimulationDeadlock("x")) == "deadlock"
        assert categorize(SimulationLimitExceeded("x")) == "limit"
        assert categorize(SanitizerViolation("x")) == "sanitizer"
        assert categorize(RunTimeoutError("x")) == "timeout"
        assert categorize(InjectedCrash("x")) == "crash"
        assert categorize(InjectedError("x")) == "error"
        assert categorize(RunCancelled("x")) == "cancelled"
        assert categorize(ValueError("x")) == "error"

    def test_every_category_reachable(self):
        excs = [SimulationDeadlock("x"), SimulationLimitExceeded("x"),
                SanitizerViolation("x"), RunTimeoutError("x"),
                InjectedCrash("x"), ValueError("x"),
                RunCancelled("x")]
        assert {categorize(e) for e in excs} == set(CATEGORIES)


class TestRunFailure:
    def _failure(self):
        s = spec()
        try:
            raise SimulationDeadlock("no ready warps, no events")
        except SimulationDeadlock as exc:
            return RunFailure.from_exception(s, s.digest(), exc,
                                             attempts=2, elapsed=1.5)

    def test_from_exception_fields(self):
        f = self._failure()
        assert f.category == "deadlock"
        assert f.exception_type == "SimulationDeadlock"
        assert f.app == "gaussian"
        assert f.mode == "Unshared-LRR"
        assert f.attempts == 2
        assert not f.ok
        assert "SimulationDeadlock" in f.traceback_tail

    def test_json_round_trip(self):
        f = self._failure()
        blob = json.dumps(f.to_dict())
        assert RunFailure.from_dict(json.loads(blob)) == f

    def test_describe_one_line(self):
        d = self._failure().describe()
        assert "\n" not in d
        assert "gaussian" in d and "deadlock" in d


class TestRetryPolicy:
    def test_exponential_backoff_capped(self):
        p = RetryPolicy(backoff_base=0.05, backoff_factor=4.0,
                        backoff_max=2.0)
        assert p.delay(1) == pytest.approx(0.05)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.8)
        assert p.delay(4) == 2.0  # capped
        assert p.delay(0) == 0.0

    def test_only_transient_categories_retry(self):
        p = RetryPolicy()
        assert p.retryable("crash")
        for cat in ("deadlock", "limit", "sanitizer", "error", "timeout"):
            assert not p.retryable(cat)

    def test_retry_timeouts_opt_in(self):
        assert RetryPolicy(retry_timeouts=True).retryable("timeout")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestBatchReport:
    def test_partition_and_summary(self):
        s = spec()
        f = RunFailure.from_exception(s, s.digest(), ValueError("boom"),
                                      attempts=1)
        eng = Engine(jobs=1, cache=False)
        (ok,) = eng.run_batch([s])
        rep = BatchReport.from_results([ok, f, f])
        assert len(rep.results) == 1 and len(rep.failures) == 2
        assert not rep.ok
        assert rep.by_category() == {"error": 2}
        assert "2 failed" in rep.summary()
        oks, fails = split_results([ok, f])
        assert oks == [ok] and fails == [f]

    def test_all_ok(self):
        assert BatchReport.from_results([]).ok
        assert BatchReport.from_results([]).summary() == "all ok"


class TestInProcessIsolation:
    """Each failure rule, on the inline executor (``jobs=1``).

    :class:`TestPoolIsolation` runs the same bodies on the process
    pool: both executors go through one scheduling loop.
    """

    pool = False

    def run(self, eng, *specs):
        return eng.run_batch(list(specs), pool=self.pool)

    def test_limit_failure_isolated(self):
        eng = Engine(jobs=1, cache=False)
        bad, good = self.run(eng, spec(max_cycles=10), spec(app="hotspot"))
        assert isinstance(bad, RunFailure) and bad.category == "limit"
        assert good.ok and good.cycles > 0
        assert eng.stats.failures == 1
        assert eng.failures == [bad]

    def test_fail_fast_reraises(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "error")
        eng = Engine(jobs=1, cache=False, faults=inj, fail_fast=True)
        with pytest.raises(InjectedError):
            self.run(eng, s)

    def test_transient_crash_retries_to_success(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "crash", until_attempt=1)
        eng = Engine(jobs=1, cache=False, faults=inj,
                     retry=RetryPolicy(backoff_base=0.0))
        (res,) = self.run(eng, s)
        assert res.ok
        assert eng.stats.retries == 1
        assert eng.stats.failures == 0

    def test_persistent_crash_exhausts_budget(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "crash")
        eng = Engine(jobs=1, cache=False, faults=inj,
                     retry=RetryPolicy(max_attempts=3, backoff_base=0.0))
        (res,) = self.run(eng, s)
        assert isinstance(res, RunFailure)
        assert res.category == "crash" and res.attempts == 3
        assert eng.stats.retries == 2

    def test_posthoc_timeout(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "hang", seconds=0.2)
        eng = Engine(jobs=1, cache=False, faults=inj, timeout=0.05)
        (res,) = self.run(eng, s)
        assert isinstance(res, RunFailure) and res.category == "timeout"
        assert eng.stats.timeouts == 1

    def test_timeout_retry_opt_in(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "hang", seconds=0.2,
                                  until_attempt=1)
        eng = Engine(jobs=1, cache=False, faults=inj, timeout=0.1,
                     retry=RetryPolicy(retry_timeouts=True,
                                       retry_categories=frozenset(),
                                       backoff_base=0.0))
        (res,) = self.run(eng, s)
        assert res.ok
        assert eng.stats.retries == 1 and eng.stats.timeouts == 1

    def test_injected_deadlock_not_retried(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "deadlock")
        eng = Engine(jobs=1, cache=False, faults=inj)
        (res,) = self.run(eng, s)
        assert isinstance(res, RunFailure)
        assert res.category == "deadlock"
        assert res.exception_type == "SimulationDeadlock"
        assert "injected" in res.message
        assert res.attempts == 1

    def test_retry_waits_its_backoff_not_a_tick(self, monkeypatch):
        import time
        slept = []
        real_sleep = time.sleep

        def sleep(seconds):
            slept.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)
        s = spec()
        inj = FaultInjector().add(s.digest(), "crash", until_attempt=1)
        eng = Engine(jobs=1, cache=False, faults=inj,
                     retry=RetryPolicy(backoff_base=0.05))
        (res,) = self.run(eng, s)
        assert res.ok and eng.stats.retries == 1
        assert 0.03 < sum(slept) <= 0.05


class TestPoolIsolation(TestInProcessIsolation):
    """The failure rules again, each spec in a worker process."""

    pool = True

    def test_pool_broken_before_submit(self, monkeypatch):
        # A worker can die between the loop's wait and its next submit:
        # the spec is retried on a new pool, not the batch aborted.
        from concurrent.futures.process import BrokenProcessPool

        import repro.harness.engine as engine_mod
        real = engine_mod.ProcessPoolExecutor
        submits = []

        class BrokenOnce(real):
            def submit(self, *args):
                submits.append(args)
                if len(submits) == 1:
                    raise BrokenProcessPool("a worker died")
                return super().submit(*args)

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", BrokenOnce)
        eng = Engine(jobs=2, cache=False,
                     retry=RetryPolicy(backoff_base=0.0))
        (res,) = self.run(eng, spec())
        assert res.ok
        assert len(submits) == 2 and eng.stats.retries == 1


class TestInlineElapsed:
    def test_failure_elapsed_is_its_run_time(self):
        s = spec()
        inj = FaultInjector().add(s.digest(), "hang", seconds=0.2)
        eng = Engine(jobs=1, cache=False, faults=inj, timeout=0.05)
        (res,) = eng.run_batch([s])
        assert res.category == "timeout"
        assert res.elapsed > 0.15  # the 0.2 s hang, not about 0


class TestMaxCyclesOverride:
    def test_engine_override_applies(self):
        eng = Engine(jobs=1, cache=False, max_cycles=10)
        res = eng.run_one(spec())  # spec says 2M; engine clamps to 10
        assert isinstance(res, RunFailure) and res.category == "limit"

    def test_override_reflected_in_digest(self):
        s = spec()
        from dataclasses import replace
        assert replace(s, max_cycles=10).digest() != s.digest()


class TestQuarantine:
    def _cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        eng = Engine(jobs=1, cache=cache)
        s = spec()
        eng.run_one(s)
        assert cache.path(s.digest()).is_file()
        return cache, eng, s

    def test_corrupt_entry_quarantined_and_resimulated(self, tmp_path):
        cache, eng, s = self._cached(tmp_path)
        corrupt_cache_entry(cache, s.digest(), "garbage")
        res = eng.run_one(s)
        assert res.ok
        assert cache.quarantined == 1
        assert eng.stats.quarantined == 1
        assert not cache.path(s.digest()).is_file() or \
            cache.get(s.digest()) is not None  # re-cached after re-sim
        qfiles = list(cache.quarantine_dir().iterdir())
        assert len(qfiles) == 1
        assert qfiles[0].name == cache.path(s.digest()).name

    def test_truncated_entry_quarantined(self, tmp_path):
        cache, eng, s = self._cached(tmp_path)
        corrupt_cache_entry(cache, s.digest(), "truncate")
        assert cache.get(s.digest()) is None
        assert cache.quarantined == 1

    def test_wrong_shape_quarantined(self, tmp_path):
        cache, eng, s = self._cached(tmp_path)
        corrupt_cache_entry(cache, s.digest(), "missing-key")
        assert cache.get(s.digest()) is None
        assert cache.quarantined == 1

    def test_schema_mismatch_is_plain_miss(self, tmp_path):
        cache, eng, s = self._cached(tmp_path)
        path = cache.path(s.digest())
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        assert cache.get(s.digest()) is None
        assert cache.quarantined == 0  # other-version entry, not corrupt
        assert path.is_file()

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("0" * 64) is None
        assert cache.quarantined == 0


class TestDeadlockReport:
    def test_report_names_blocked_warp_and_holder(self):
        from repro.core.occupancy import occupancy
        from repro.core.sharing import (SharedResource, SharingSpec,
                                        plan_sharing)
        from repro.sim.gpu import GPU
        from repro.sim.warp import WarpState

        kernel = APPS["hotspot"].kernel(0.15)
        plan = plan_sharing(kernel, CFG,
                            SharingSpec(SharedResource.REGISTERS, 0.1))
        assert plan.enabled and plan.pairs >= 1
        kernel = kernel.with_grid(CFG.num_sms * plan.total)
        gpu = GPU(kernel, CFG, scheduler="lrr", plan=plan)
        gpu.dispatcher.initial_fill(0)

        pair = next(gpu.dispatcher.share_pairs())
        assert pair.blocks[0] is not None and pair.blocks[1] is not None
        # Side 0 grabs pool slot 0; the side-1 warp of the same slot
        # index is then (synthetically) blocked waiting on it.
        assert pair.reg_group.try_acquire(0, 0)
        sm = gpu.sms[pair.blocks[1].sm_id]
        w = next(w for w in sm.warps
                 if w.block is pair.blocks[1] and w.slot == 0)
        sm._set_state(w, WarpState.BLOCK_LOCK)

        report = gpu._deadlock_report(123)
        assert "deadlock at cycle 123" in report
        assert f"W{w.dynamic_id}" in report
        assert "shared reg pool slot 0" in report
        assert "held by side 0" in report

    def test_barrier_waits_reported(self):
        from repro.core.occupancy import occupancy
        from repro.sim.gpu import GPU
        from repro.sim.warp import WarpState

        kernel = APPS["gaussian"].kernel(0.15)
        base = occupancy(kernel, CFG).blocks
        kernel = kernel.with_grid(CFG.num_sms * base)
        gpu = GPU(kernel, CFG, scheduler="lrr")
        gpu.dispatcher.initial_fill(0)
        sm = gpu.sms[0]
        w = sm.warps[0]
        w.block.bar_count = 1
        sm._set_state(w, WarpState.BLOCK_BAR)
        report = gpu._deadlock_report(7)
        assert "waits at barrier" in report
        assert f"1/{w.block.n_warps} arrived" in report


class TestSaltCoversResilience:
    def test_sim_sources_salted(self):
        # The sanitizer lives under sim/ and the dyn escape hatch under
        # sim/sm.py — both already inside the code-salt tree; this guards
        # against the salt losing them in a refactor.
        import repro.sim.sanitizer  # noqa: F401
        assert isinstance(code_salt(), str) and len(code_salt()) == 16
