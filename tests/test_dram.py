"""FR-FCFS DRAM controller timing and scheduling."""


from repro.config import GPUConfig
from repro.events import EventQueue
from repro.mem.dram import DramController


def setup(**cfg_kw):
    cfg = GPUConfig(**cfg_kw)
    ev = EventQueue()
    return cfg, ev, DramController(cfg, ev)


def drain(ev, horizon=1_000_000):
    while len(ev):
        nxt = ev.next_cycle()
        assert nxt is not None and nxt <= horizon
        ev.run_due(nxt)


class TestMapping:
    def test_locate_consistency(self):
        _, _, d = setup()
        bank, row = d.locate(0)
        assert 0 <= bank < len(d.banks)
        assert row >= 0

    def test_consecutive_lines_same_row_until_boundary(self):
        cfg, _, d = setup()
        # lines within one row (same partition stride) share (bank, row)
        stride = cfg.line_size * cfg.num_mem_partitions
        b0, r0 = d.locate(0)
        b1, r1 = d.locate(stride)
        assert (b0, r0) == (b1, r1)


class TestTiming:
    def test_row_hit_faster_than_conflict(self):
        _, ev, d = setup()
        done = []
        stride = 128 * 6  # same partition, consecutive columns
        d.access(0, 0, is_store=False, on_complete=lambda c: done.append(c))
        drain(ev)
        first = done[-1]
        # row hit: same row
        d.access(stride, first, is_store=False,
                 on_complete=lambda c: done.append(c))
        drain(ev)
        hit_time = done[-1] - first
        # row conflict: far row, same bank
        far = stride * 128 * 5  # same bank (16 lines/row x 8 banks), distant row
        bank0 = d.locate(0)[0]
        assert d.locate(far)[0] == bank0
        t0 = done[-1]
        d.access(far, t0, is_store=False,
                 on_complete=lambda c: done.append(c))
        drain(ev)
        conflict_time = done[-1] - t0
        assert hit_time < conflict_time

    def test_stats_classification(self):
        _, ev, d = setup()
        stride = 128 * 6
        for i, t in [(0, 0), (1, 500), (2, 1000)]:
            d.access(i * stride, t, is_store=False, on_complete=lambda c: None)
            drain(ev)
        assert d.stats.requests == 3
        assert d.stats.row_opens == 1
        assert d.stats.row_hits == 2

    def test_store_counted(self):
        _, ev, d = setup()
        d.access(0, 0, is_store=True, on_complete=lambda c: None)
        drain(ev)
        assert d.stats.stores == 1

    def test_every_request_completes_exactly_once(self):
        _, ev, d = setup()
        done = []
        for i in range(50):
            d.access(i * 128 * 6 * 17, i, is_store=(i % 3 == 0),
                     on_complete=lambda c, i=i: done.append(i))
        drain(ev)
        assert sorted(done) == list(range(50))

    def test_completions_monotone_per_bank(self):
        _, ev, d = setup()
        order = []
        stride = 128 * 6
        for i in range(10):
            d.access(i * stride, 0, is_store=False,
                     on_complete=lambda c, i=i: order.append((c, i)))
        drain(ev)
        times = [c for c, _ in sorted(order)]
        assert times == sorted(times)


class TestFRFCFS:
    def test_row_hits_served_before_older_miss(self):
        cfg, ev, d = setup()
        stride = 128 * 6
        far = stride * 128 * 5  # same bank (16 lines/row x 8 banks), distant row
        done = []
        # first request opens row 0 and occupies the bank
        d.access(0, 0, is_store=False, on_complete=lambda c: done.append("warm"))
        # while busy, enqueue: an older row-miss then a younger row-hit
        d.access(far, 1, is_store=False, on_complete=lambda c: done.append("miss"))
        d.access(stride, 2, is_store=False, on_complete=lambda c: done.append("hit"))
        drain(ev)
        assert done == ["warm", "hit", "miss"]

    def test_starvation_cap_forces_oldest(self):
        # A row-miss request buried under an endless stream of row hits
        # must still be serviced once its age exceeds STARVE_CAP.
        cfg, ev, d = setup()
        stride = 128 * 6
        far = stride * 128 * 5  # same bank (16 lines/row x 8 banks), distant row
        done = []
        d.access(0, 0, is_store=False, on_complete=lambda c: done.append("warm"))
        d.access(far, 1, is_store=False, on_complete=lambda c: done.append("old"))
        for i in range(300):
            d.access((i % 16) * stride, 2 + i, is_store=False,
                     on_complete=lambda c, i=i: done.append(f"hit{i}"))
        drain(ev)
        assert "old" in done
        # served well before the row-hit stream drains completely
        assert done.index("old") < done.index("hit299")

    def test_queued_counter(self):
        _, ev, d = setup()
        d.access(0, 0, is_store=False, on_complete=lambda c: None)
        d.access(128 * 6, 0, is_store=False, on_complete=lambda c: None)
        assert d.queued == 1  # one in service, one waiting
        drain(ev)
        assert d.queued == 0


def _same_bank_rows(d, n):
    """``n`` line addresses of bank 0, each in a different row (1..n)."""
    cfg = d.cfg
    row_bytes = (cfg.line_size * cfg.num_mem_partitions * d.lines_per_row
                 * len(d.banks))
    addrs = [k * row_bytes for k in range(1, n + 1)]
    assert [d.locate(a) for a in addrs] == [(0, k) for k in range(1, n + 1)]
    return addrs


class TestPickOrder:
    """FR-FCFS ties: equal enqueue cycles are served in queue order."""

    def test_equal_enqueue_cycles_served_in_queue_order(self):
        _, ev, d = setup()
        done = []
        d.access(0, 0, is_store=False, on_complete=lambda c: done.append("warm"))
        # Every queued request opens its own row, so no row hit reorders
        # them: the pick is by enqueue cycle, ties in queue order.
        for i, a in enumerate(_same_bank_rows(d, 5)):
            d.access(a, 3, is_store=i % 2 == 1,
                     on_complete=lambda c, i=i: done.append(i))
        drain(ev)
        assert done == ["warm", 0, 1, 2, 3, 4]

    def test_older_store_behind_younger_load(self):
        # Loads reach DRAM after the L2 hit latency, stores do not, so a
        # store queued after a load can carry the older enqueue cycle.
        _, ev, d = setup()
        done = []
        d.access(0, 0, is_store=False, on_complete=lambda c: done.append("warm"))
        a, b, c, e = _same_bank_rows(d, 4)
        d.access(a, 12, is_store=False, on_complete=lambda x: done.append("ld12"))
        d.access(b, 10, is_store=True, on_complete=lambda x: done.append("st10"))
        d.access(c, 12, is_store=True, on_complete=lambda x: done.append("st12"))
        d.access(e, 10, is_store=False, on_complete=lambda x: done.append("ld10"))
        drain(ev)
        assert done == ["warm", "st10", "ld10", "ld12", "st12"]

    def test_equal_row_hits_served_in_queue_order(self):
        cfg, ev, d = setup()
        done = []
        stride = cfg.line_size * cfg.num_mem_partitions
        far = _same_bank_rows(d, 1)[0]
        d.access(0, 0, is_store=False, on_complete=lambda c: done.append("warm"))
        # An older row miss, then row hits of row 0: a younger load, and
        # a store and a load sharing an older enqueue cycle.
        d.access(far, 1, is_store=False, on_complete=lambda c: done.append("miss"))
        d.access(stride, 6, is_store=False, on_complete=lambda c: done.append("hit6"))
        d.access(2 * stride, 4, is_store=True,
                 on_complete=lambda c: done.append("st4"))
        d.access(3 * stride, 4, is_store=False,
                 on_complete=lambda c: done.append("ld4"))
        drain(ev)
        assert done == ["warm", "st4", "ld4", "hit6", "miss"]


class TestCompletionCycles:
    """Exact completion cycles at the Table I timings (core cycles)."""

    @staticmethod
    def _done_at(d, ev, line, at, *, is_store=False):
        done = []
        d.access(line, at, is_store=is_store,
                 on_complete=lambda c: done.append(c))
        drain(ev)
        return done[0]

    def test_row_open_hit_and_conflict(self):
        _, ev, d = setup()
        stride = 128 * 6
        far = _same_bank_rows(d, 1)[0]
        assert self._done_at(d, ev, 0, 1000) == 1000 + 56      # row open
        assert self._done_at(d, ev, stride, 2000) == 2000 + 32  # row hit
        assert self._done_at(d, ev, far, 3000) == 3000 + 80     # conflict

    def test_store_adds_write_recovery(self):
        _, ev, d = setup()
        stride = 128 * 6
        far = _same_bank_rows(d, 1)[0]
        assert self._done_at(d, ev, 0, 1000, is_store=True) == 1000 + 56 + 24
        assert self._done_at(d, ev, stride, 2000,
                              is_store=True) == 2000 + 32 + 24
        assert self._done_at(d, ev, far, 3000,
                              is_store=True) == 3000 + 80 + 24

    def test_two_banks_serialise_on_the_data_bus(self):
        cfg, ev, d = setup()
        # One line of bank 1: the next row-sized run of lines.
        bank1 = cfg.line_size * cfg.num_mem_partitions * d.lines_per_row
        assert d.locate(bank1)[0] == 1
        far0 = _same_bank_rows(d, 1)[0]
        far1 = far0 + bank1
        assert d.locate(far1) == (1, 1)
        self._done_at(d, ev, 0, 0)
        self._done_at(d, ev, bank1, 1000)
        # Both banks start a row conflict at 5000; the second burst
        # waits for the first on the shared data bus.
        done = []
        d.access(far0, 5000, is_store=False,
                 on_complete=lambda c: done.append(("bank0", c)))
        d.access(far1, 5000, is_store=False,
                 on_complete=lambda c: done.append(("bank1", c)))
        drain(ev)
        assert done == [("bank0", 5080), ("bank1", 5088)]
