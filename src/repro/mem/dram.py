"""FR-FCFS DRAM controller with per-bank row buffers (Table I).

One controller per memory partition.  Scheduling is First-Ready
First-Come-First-Served: when a bank becomes free, the oldest request
that *hits the open row* is served before older row-miss requests — with
an age cap so row misses cannot starve (a standard FR-FCFS safeguard).

Timing uses the paper's GDDR3 parameters, expressed in core cycles via a
fixed clock ratio: a row hit costs ``tCL``; opening a closed bank costs
``tRCD + tCL``; a row conflict adds ``tRP``.  Data bursts serialise on
the partition's data bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.config import GPUConfig
from repro.events import EventQueue

__all__ = ["DramStats", "DramController"]

#: A queued request: (enqueue_cycle, row, is_store, completion callback).
_Req = tuple[int, int, bool, Callable[[int], None]]


@dataclass
class DramStats:
    """Counters for one DRAM partition controller."""

    requests: int = 0
    row_hits: int = 0
    row_opens: int = 0      # bank was idle/closed
    row_conflicts: int = 0  # had to precharge another row
    stores: int = 0
    total_queue_wait: int = 0

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hit rate over all serviced requests."""
        return self.row_hits / self.requests if self.requests else 0.0


class _Bank:
    __slots__ = ("open_row", "free_at", "queue", "busy")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.free_at = 0
        self.queue: list[_Req] = []
        self.busy = False


class DramController:
    """One memory partition's FR-FCFS controller."""

    #: Oldest-request age (core cycles) beyond which FR-FCFS falls back to
    #: strict FCFS for the bank, preventing starvation.
    STARVE_CAP = 2000

    def __init__(self, config: GPUConfig, events: EventQueue) -> None:
        self.cfg = config
        self.events = events
        self.ratio = config.latency.dram_clock_ratio
        self.t = config.timings
        self.banks = [_Bank() for _ in range(config.banks_per_partition)]
        self.lines_per_row = max(1, config.dram_row_size // config.line_size)
        self._bus_free = 0
        self.stats = DramStats()

    # ------------------------------------------------------------------
    def locate(self, line_addr: int) -> tuple[int, int]:
        """(bank, row) for a line address already routed to this partition."""
        lp = line_addr // self.cfg.line_size // self.cfg.num_mem_partitions
        bank = (lp // self.lines_per_row) % len(self.banks)
        row = lp // (self.lines_per_row * len(self.banks))
        return bank, row

    def access(self, line_addr: int, now: int, *, is_store: bool,
               on_complete: Callable[[int], None]) -> None:
        """Enqueue a request; ``on_complete(cycle)`` fires when data is done."""
        bank_idx, row = self.locate(line_addr)
        bank = self.banks[bank_idx]
        bank.queue.append((now, row, is_store, on_complete))
        self.stats.requests += 1
        if is_store:
            self.stats.stores += 1
        if not bank.busy:
            self._schedule(bank_idx, now)

    @property
    def queued(self) -> int:
        """Requests currently waiting in bank queues."""
        return sum(len(b.queue) for b in self.banks)

    # ------------------------------------------------------------------
    def _pick(self, bank: _Bank, now: int) -> int:
        """Index into ``bank.queue`` of the request to serve (FR-FCFS).

        One pass finds the oldest request and the oldest open-row hit;
        ties go to the earlier queue position.
        """
        open_row = bank.open_row
        oldest_i = hit_i = -1
        oldest = hit = 0
        for i, req in enumerate(bank.queue):
            enq = req[0]
            if oldest_i < 0 or enq < oldest:
                oldest_i = i
                oldest = enq
            if req[1] == open_row and (hit_i < 0 or enq < hit):
                hit_i = i
                hit = enq
        if hit_i < 0 or now - oldest > self.STARVE_CAP:
            return oldest_i
        return hit_i

    def _schedule(self, bank_idx: int, now: int) -> None:
        bank = self.banks[bank_idx]
        if bank.busy or not bank.queue:
            return
        i = self._pick(bank, now)
        enq, row, is_store, cb = bank.queue.pop(i)
        self.stats.total_queue_wait += now - enq

        r = self.ratio
        if bank.open_row == row:
            delay = self.t.tCL * r
            self.stats.row_hits += 1
        elif bank.open_row is None:
            delay = (self.t.tRCD + self.t.tCL) * r
            self.stats.row_opens += 1
        else:
            delay = (self.t.tRP + self.t.tRCD + self.t.tCL) * r
            self.stats.row_conflicts += 1
        if is_store:
            delay += self.t.tWR * r
        burst = self.t.burst * r

        start = max(now, bank.free_at)
        data_start = max(start + delay, self._bus_free)
        done = data_start + burst
        self._bus_free = done
        bank.open_row = row
        bank.free_at = done
        bank.busy = True

        self.events.push(done, partial(self._complete, bank_idx, cb))

    def _complete(self, bank_idx: int, cb: Callable[[int], None],
                  cycle: int) -> None:
        self.banks[bank_idx].busy = False
        cb(cycle)
        self._schedule(bank_idx, cycle)
