"""SMStats / RunResult accounting and serialization."""

import json
from dataclasses import asdict, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import RunResult, SMStats


def sm(i=0, **kw):
    s = SMStats(sm_id=i)
    for k, v in kw.items():
        setattr(s, k, v)
    return s


class TestSMStats:
    def test_total_cycles(self):
        s = sm(active_cycles=10, stall_cycles=5, idle_cycles=3,
               empty_cycles=2)
        assert s.total_cycles == 20

    def test_idle_like(self):
        s = sm(idle_cycles=3, empty_cycles=2)
        assert s.idle_like_cycles == 5

    def test_defaults_zero(self):
        s = SMStats()
        assert s.instructions == 0
        assert s.total_cycles == 0
        assert s.early_releases == 0


class TestRunResult:
    def mk(self):
        return RunResult(
            kernel="k", mode="m", cycles=100, instructions=250,
            sm_stats=[sm(0, stall_cycles=10, idle_cycles=5, empty_cycles=1,
                         max_resident_blocks=3),
                      sm(1, stall_cycles=20, idle_cycles=0, empty_cycles=4,
                         max_resident_blocks=6)],
            mem={"l1_miss_rate": 0.5, "dram_requests": 42},
            blocks_baseline=3, blocks_total=6)

    def test_ipc(self):
        assert self.mk().ipc == 2.5

    def test_zero_cycles_ipc(self):
        r = RunResult(kernel="k", mode="m", cycles=0, instructions=0)
        assert r.ipc == 0.0

    def test_stall_aggregation(self):
        assert self.mk().stall_cycles == 30

    def test_idle_includes_empty(self):
        assert self.mk().idle_cycles == 10

    def test_max_resident(self):
        assert self.mk().max_resident_blocks == 6

    def test_max_resident_empty(self):
        r = RunResult(kernel="k", mode="m", cycles=1, instructions=0)
        assert r.max_resident_blocks == 0

    def test_summary_flattens_mem(self):
        s = self.mk().summary()
        assert s["ipc"] == 2.5
        assert s["l1_miss_rate"] == 0.5
        assert s["dram_requests"] == 42
        assert s["max_resident_blocks"] == 6

    def test_summary_preserves_mem_counter_types(self):
        # regression: integer mem counters were coerced to float,
        # disagreeing with to_dict() and the sweep CSV
        s = self.mk().summary()
        assert type(s["dram_requests"]) is int
        assert type(s["l1_miss_rate"]) is float

    def test_metrics_default_absent_from_dict(self):
        # golden_core.json pins unobserved results byte-for-byte: the
        # metrics field must not appear unless a run was observed
        d = self.mk().to_dict()
        assert "metrics" not in d
        r = RunResult.from_dict(d)
        assert r.metrics is None

    def test_metrics_round_trip_when_present(self):
        r = self.mk()
        r.metrics = {"counters": {"lock_acquires{kind=reg}": 3},
                     "gauges": {}, "histograms": {}}
        back = RunResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back.metrics == r.metrics
        assert back == r


counters = st.integers(min_value=0, max_value=10**9)

sm_stats_st = st.builds(
    SMStats,
    sm_id=st.integers(min_value=0, max_value=63),
    instructions=counters, mem_instructions=counters,
    active_cycles=counters, stall_cycles=counters, idle_cycles=counters,
    empty_cycles=counters, issued_unshared=counters, issued_owner=counters,
    issued_nonowner=counters, lock_acquires=counters, lock_waits=counters,
    dyn_refusals=counters, early_releases=counters, mshr_stalls=counters,
    barriers=counters, blocks_launched=counters, blocks_completed=counters,
    max_resident_blocks=counters)

run_result_st = st.builds(
    RunResult,
    kernel=st.text(max_size=20), mode=st.text(max_size=20),
    cycles=counters, instructions=counters,
    sm_stats=st.lists(sm_stats_st, max_size=4),
    mem=st.dictionaries(
        st.text(min_size=1, max_size=12),
        st.one_of(counters,
                  st.floats(min_value=0, max_value=1e9,
                            allow_nan=False, allow_infinity=False)),
        max_size=5),
    blocks_baseline=counters, blocks_total=counters)


class TestSerialization:
    """Service payloads and goldens require a bit-exact JSON round trip
    (the engine's store has its own row form, tested in test_engine)."""

    @settings(max_examples=50, deadline=None)
    @given(sm_stats_st)
    def test_sm_stats_round_trip(self, s):
        assert SMStats.from_dict(s.to_dict()) == s

    @settings(max_examples=50, deadline=None)
    @given(run_result_st)
    def test_run_result_round_trip(self, r):
        restored = RunResult.from_dict(r.to_dict())
        assert restored == r
        assert restored.ipc == r.ipc
        assert restored.stall_cycles == r.stall_cycles

    @settings(max_examples=50, deadline=None)
    @given(run_result_st)
    def test_round_trip_survives_json(self, r):
        # through an actual JSON string, as the service sends it: ints must
        # stay ints, floats floats, per-SM counters exact
        restored = RunResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert restored == r
        assert restored.to_dict() == r.to_dict()
        for orig, back in zip(r.sm_stats, restored.sm_stats):
            assert type(back.instructions) is int
            assert back == orig

    def test_sm_to_dict_equals_asdict_in_field_order(self):
        s = SMStats(*range(7, 7 + len(fields(SMStats))))
        d = s.to_dict()
        assert d == asdict(s)
        assert list(d) == [f.name for f in fields(SMStats)]
        d["instructions"] += 1
        assert s.instructions == 8  # a copy, not the instance's dict

    def test_mutating_copy_not_aliased(self):
        r = RunResult(kernel="k", mode="m", cycles=1, instructions=1,
                      mem={"x": 1})
        d = r.to_dict()
        d["mem"]["x"] = 2
        assert r.mem["x"] == 1
