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


class _Bank:
    __slots__ = ("open_row", "free_at", "queue", "serving", "complete")

    def __init__(self, controller: "DramController") -> None:
        self.open_row: int | None = None
        self.free_at = 0
        self.queue: list[_Req] = []
        #: Completion callback of the request in service; None when the
        #: bank is idle.
        self.serving: Callable[[int], None] | None = None
        #: This bank's completion event, built once instead of per request.
        self.complete = partial(controller._complete, self)


class DramController:
    """One memory partition's FR-FCFS controller."""

    #: Oldest-request age (core cycles) beyond which FR-FCFS falls back to
    #: strict FCFS for the bank, preventing starvation.
    STARVE_CAP = 2000

    def __init__(self, config: GPUConfig, events: EventQueue) -> None:
        self.cfg = config
        self.events = events
        # Row-buffer delays from service start to data, and the burst,
        # in core cycles.
        r = config.latency.dram_clock_ratio
        t = config.timings
        self._hit_delay = t.tCL * r
        self._open_delay = (t.tRCD + t.tCL) * r
        self._conflict_delay = (t.tRP + t.tRCD + t.tCL) * r
        self._write_delay = t.tWR * r
        self._burst = t.burst * r
        self.banks = [_Bank(self) for _ in range(config.banks_per_partition)]
        self.lines_per_row = max(1, config.dram_row_size // config.line_size)
        #: Address bytes per row-sized run of this partition's lines
        #: (lines interleave across partitions): the run index gives
        #: bank and row.
        self._run_bytes = (config.line_size * config.num_mem_partitions
                           * self.lines_per_row)
        self._bus_free = 0
        self.stats = DramStats()

    # ------------------------------------------------------------------
    def locate(self, line_addr: int) -> tuple[int, int]:
        """(bank, row) for a line address already routed to this partition."""
        run = line_addr // self._run_bytes
        n_banks = len(self.banks)
        return run % n_banks, run // n_banks

    def access(self, line_addr: int, now: int, *, is_store: bool,
               on_complete: Callable[[int], None]) -> None:
        """Enqueue a request; ``on_complete(cycle)`` fires when data is done."""
        # locate(), inlined: one call per DRAM request.
        run = line_addr // self._run_bytes
        banks = self.banks
        bank = banks[run % len(banks)]
        bank.queue.append((now, run // len(banks), is_store, on_complete))
        stats = self.stats
        stats.requests += 1
        if is_store:
            stats.stores += 1
        if bank.serving is None:
            self._schedule(bank, now)

    @property
    def queued(self) -> int:
        """Requests currently waiting in bank queues."""
        return sum(len(b.queue) for b in self.banks)

    @property
    def busy(self) -> bool:
        """True while any request is queued or in service."""
        return any(b.queue or b.serving is not None for b in self.banks)

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

    def _schedule(self, bank: _Bank, now: int) -> None:
        """Start serving a request of the idle ``bank``, whose queue is
        not empty."""
        queue = bank.queue
        # A lone request is its own FR-FCFS pick.
        enq, row, is_store, cb = (queue.pop() if len(queue) == 1
                                  else queue.pop(self._pick(bank, now)))
        stats = self.stats
        stats.total_queue_wait += now - enq

        open_row = bank.open_row
        if open_row == row:
            delay = self._hit_delay
            stats.row_hits += 1
        elif open_row is None:
            delay = self._open_delay
            stats.row_opens += 1
        else:
            delay = self._conflict_delay
            stats.row_conflicts += 1
        if is_store:
            delay += self._write_delay

        # max(now, free_at) and max(start + delay, bus_free), without
        # the builtin calls: this runs once per DRAM request.
        start = bank.free_at
        if now > start:
            start = now
        data_start = start + delay
        if self._bus_free > data_start:
            data_start = self._bus_free
        done = data_start + self._burst
        self._bus_free = done
        bank.open_row = row
        bank.free_at = done
        bank.serving = cb
        self.events.push(done, bank.complete)

    def _complete(self, bank: _Bank, cycle: int) -> None:
        cb = bank.serving
        bank.serving = None
        cb(cycle)
        if bank.queue and bank.serving is None:
            self._schedule(bank, cycle)
