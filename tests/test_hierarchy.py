"""L1 → L2 → DRAM plumbing."""


from repro.config import GPUConfig
from repro.events import EventQueue
from repro.mem.hierarchy import MemoryHierarchy


def setup(num_sms=2, **kw):
    cfg = GPUConfig(**kw)
    ev = EventQueue()
    return cfg, ev, MemoryHierarchy(cfg, ev, num_sms)


def drain(ev):
    while len(ev):
        ev.run_due(ev.next_cycle())


class TestLoadPath:
    def test_l1_hit_latency(self):
        cfg, ev, h = setup()
        done = []
        assert h.try_load(0, (0,), 0, done.append)
        drain(ev)
        t_miss = done[0]
        done.clear()
        assert h.try_load(0, (0,), 1000, done.append)
        drain(ev)
        assert done[0] == 1000 + cfg.latency.l1_hit
        assert t_miss > cfg.latency.l1_hit

    def test_miss_goes_through_l2(self):
        cfg, ev, h = setup()
        done = []
        h.try_load(0, (0,), 0, done.append)
        drain(ev)
        assert h.l2[0].stats.accesses == 1
        assert h.l2[0].stats.misses == 1
        # second SM hits in L2 (line now resident there)
        done2 = []
        h.try_load(1, (0,), 5000, done2.append)
        drain(ev)
        lat = done2[0] - 5000
        l2_round = (cfg.latency.interconnect * 2 + cfg.latency.l2_hit)
        assert lat == l2_round

    def test_multi_line_load_completes_once(self):
        cfg, ev, h = setup()
        done = []
        lines = (0, 128, 256, 384)
        assert h.try_load(0, lines, 0, done.append)
        drain(ev)
        assert len(done) == 1  # one callback when ALL lines arrive

    def test_duplicate_lines_deduped(self):
        cfg, ev, h = setup()
        done = []
        assert h.try_load(0, (0, 0, 0), 0, done.append)
        drain(ev)
        assert len(done) == 1
        assert h.l1[0].stats.accesses == 1

    def test_mshr_exhaustion_rejects_atomically(self):
        cfg, ev, h = setup(l1_mshrs=2)
        done = []
        assert h.try_load(0, (0, 128), 0, done.append)
        # a third distinct line cannot get an MSHR
        assert not h.try_load(0, (256,), 0, done.append)
        # no side effects: MSHRs still 2
        assert len(h.l1[0].mshr) == 2
        drain(ev)
        assert len(done) == 1

    def test_merge_into_pending_line(self):
        cfg, ev, h = setup()
        done = []
        h.try_load(0, (0,), 0, lambda c: done.append(("a", c)))
        h.try_load(0, (0,), 1, lambda c: done.append(("b", c)))
        assert h.l1[0].stats.mshr_merges == 1
        drain(ev)
        assert len(done) == 2
        assert done[0][1] == done[1][1]  # same fill completes both

    def test_per_sm_l1_isolation(self):
        cfg, ev, h = setup()
        done = []
        h.try_load(0, (0,), 0, done.append)
        drain(ev)
        assert h.l1[0].probe(0)
        assert not h.l1[1].probe(0)

    def test_partition_routing(self):
        cfg, ev, h = setup()
        done = []
        # line addresses hit different partitions round-robin
        h.try_load(0, (0, 128), 0, done.append)
        drain(ev)
        assert h.l2[0].stats.accesses == 1
        assert h.l2[1].stats.accesses == 1


class TestStorePath:
    def test_store_never_blocks(self):
        cfg, ev, h = setup()
        h.store(0, (0,), 0)
        drain(ev)
        assert h.l1[0].stats.misses == 1  # write-through, no allocate
        assert not h.l1[0].probe(0)

    def test_store_write_allocates_l2(self):
        cfg, ev, h = setup()
        h.store(0, (0,), 0)
        drain(ev)
        assert h.l2[0].probe(0)
        assert h.dram[0].stats.stores == 1

    def test_store_hit_in_l2_skips_dram(self):
        cfg, ev, h = setup()
        h.store(0, (0,), 0)
        drain(ev)
        n = h.dram[0].stats.requests
        h.store(0, (0,), 10_000)
        drain(ev)
        assert h.dram[0].stats.requests == n

    def test_store_ack_serves_load_pending_on_its_line(self):
        # The store misses L2 first and takes no MSHR; the load then
        # misses and takes one.  The store's DRAM ack installs the line
        # and clears that MSHR, so it must deliver the load's waiters.
        cfg = GPUConfig().scaled(num_clusters=1)
        ev = EventQueue()
        h = MemoryHierarchy(cfg, ev, cfg.num_sms)
        done = []
        h.store(0, (0,), 0)
        assert h.try_load(0, (0,), 5, done.append)
        drain(ev)
        assert len(done) == 1
        assert not h.in_flight


class TestAccounting:
    def test_totals_keys(self):
        cfg, ev, h = setup()
        t = h.totals()
        for k in ("l1_accesses", "l1_misses", "l1_miss_rate", "l2_accesses",
                  "l2_misses", "l2_miss_rate", "dram_requests",
                  "dram_row_hit_rate"):
            assert k in t

    def test_in_flight_tracks_outstanding(self):
        cfg, ev, h = setup()
        assert not h.in_flight
        h.try_load(0, (0,), 0, lambda c: None)
        assert h.in_flight
        drain(ev)
        assert not h.in_flight

    def test_every_load_gets_exactly_one_response(self):
        cfg, ev, h = setup()
        done = []
        for i in range(40):
            assert h.try_load(i % 2, (i * 128, i * 128 + 128), i,
                              lambda c, i=i: done.append(i))
            if i % 8 == 7:
                drain(ev)  # keep MSHR occupancy bounded
        drain(ev)
        assert sorted(done) == list(range(40))
