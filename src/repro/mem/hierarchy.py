"""L1 → interconnect → L2 → DRAM plumbing.

The SM's LD/ST unit calls :meth:`MemoryHierarchy.try_load` /
:meth:`MemoryHierarchy.store` with the coalesced line addresses of one
warp memory instruction.  A load of several lines completes via a
countdown token — the warp's destination register becomes ready when
the *last* transaction returns, matching how a warp's scoreboard works.  Stores are
write-through/no-allocate at L1 and write-allocate at L2, and never block
the warp (no destination register).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.config import GPUConfig
from repro.events import EventQueue
from repro.mem.cache import Cache
from repro.mem.dram import DramController
from repro.obs.sink import NULL_SINK, ObsSink

__all__ = ["MemoryHierarchy"]

#: Cycles before a load rejected by a full L2 MSHR array is retried.
_L2_RETRY = 8


class _LoadToken:
    """Counts outstanding transactions of one warp load."""

    __slots__ = ("remaining", "on_done")

    def __init__(self, remaining: int,
                 on_done: Callable[[int], None]) -> None:
        self.remaining = remaining
        self.on_done = on_done

    def line_done(self, cycle: int) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.on_done(cycle)


class MemoryHierarchy:
    """Per-SM L1s, partitioned shared L2, per-partition DRAM."""

    def __init__(self, config: GPUConfig, events: EventQueue,
                 num_sms: int, obs: ObsSink = NULL_SINK) -> None:
        self.cfg = config
        self.events = events
        # Per-run constants read on every request.
        lat = config.latency
        self._l1_hit = lat.l1_hit
        self._interconnect = lat.interconnect
        self._l2_hit = lat.l2_hit
        self._dram_fixed = lat.dram_fixed
        self._line_size = config.line_size
        self._n_part = config.num_mem_partitions
        self.obs = obs
        self._obs_on = obs.enabled
        self.l1 = [
            Cache(size=config.l1_size, assoc=config.l1_assoc,
                  line_size=config.line_size, mshrs=config.l1_mshrs,
                  name=f"L1[{i}]")
            for i in range(num_sms)
        ]
        n_part = config.num_mem_partitions
        self.l2 = [
            Cache(size=config.l2_size // n_part, assoc=config.l2_assoc,
                  line_size=config.line_size, mshrs=config.l2_mshrs,
                  name=f"L2[{p}]")
            for p in range(n_part)
        ]
        self.dram = [DramController(config, events) for _ in range(n_part)]
        #: Per SM, called with the cycle after each fill of its L1 and
        #: before the fill's waiters run; an SM sets it while it has
        #: parked warps (see ``SMCore.settle_retries``).
        self.on_l1_fill: list[Callable[[int], None] | None] = \
            [None] * num_sms

    # ------------------------------------------------------------------
    # load path
    #
    # Each stage of a transaction is a bound method scheduled through
    # ``functools.partial`` with its (SM, line) arguments: one Python
    # frame per stage, no closure per transaction.
    # ------------------------------------------------------------------
    def try_load(self, sm_id: int, lines: tuple[int, ...], now: int,
                 on_done: Callable[[int], None], *,
                 assume_unique: bool = False) -> bool:
        """Issue a warp load for ``lines``; False on L1 MSHR exhaustion.

        All-or-nothing: either every transaction is accepted (hits respond
        after the L1 hit latency, misses propagate down) or the access has
        no side effects (beyond the reject counter) and the warp must
        retry (structural stall).  ``assume_unique=True`` promises that
        ``lines`` carries no duplicates (the SM's pending-access cache
        stores deduplicated tuples), skipping the dedup pass.
        """
        l1 = self.l1[sm_id]
        uniq = (lines if assume_unique or len(lines) == 1
                else tuple(dict.fromkeys(lines)))
        if l1.rejects(uniq):
            l1.stats.mshr_rejects += 1
            if self._obs_on:
                self.obs.mshr_reject(sm_id, now)
            return False
        if self._obs_on:
            self.obs.mshr_sample(sm_id, len(l1.mshr) + l1.mshr_demand(uniq),
                                 l1.n_mshrs, now)
            on_done = self.obs.mem_request(sm_id, len(uniq), now, on_done)
        # An L1 waiter is called with the cycle its line arrives.  A
        # one-line load completes with its line; a wider one counts
        # its lines down.
        done = (on_done if len(uniq) == 1
                else _LoadToken(len(uniq), on_done).line_done)
        push = self.events.push
        hit_at = now + self._l1_hit
        at_l2 = now + self._interconnect
        for ln in uniq:
            res = l1.lookup(ln, done)
            if res == "hit":
                push(hit_at, done)
            elif res == "miss":
                push(at_l2, partial(self._l2_load, sm_id, ln))
            else:  # merge: ``done`` fires when the in-flight fill returns
                assert res == "merge"
        return True

    def _l2_load(self, sm_id: int, line: int, now: int) -> None:
        p = (line // self._line_size) % self._n_part
        l2 = self.l2[p]
        # An L2 waiter is the id of the SM whose L1 the line goes to.
        res = l2.lookup(line, sm_id)
        if res == "hit":
            self.events.push(now + self._l2_hit,
                             partial(self._l2_deliver, sm_id, line))
        elif res == "miss":
            self.dram[p].access(
                line, now + self._l2_hit + self._dram_fixed,
                is_store=False, on_complete=partial(self._l2_fill, l2, line))
        elif res == "reject":
            self.events.push(now + _L2_RETRY,
                             partial(self._l2_load, sm_id, line))
        # merge: nothing to do, the pending fill delivers to ``sm_id``

    def _l2_fill(self, l2: Cache, line: int, cycle: int) -> None:
        # _l2_deliver for each waiting SM, inlined.
        at_l1 = cycle + self._interconnect
        push = self.events.push
        for sm_id in l2.fill(line):
            push(at_l1, partial(self._l1_fill, sm_id, line))

    def _l2_deliver(self, sm_id: int, line: int, cycle: int) -> None:
        self.events.push(cycle + self._interconnect,
                         partial(self._l1_fill, sm_id, line))

    def _l1_fill(self, sm_id: int, line: int, cycle: int) -> None:
        waiters = self.l1[sm_id].fill(line)
        recheck = self.on_l1_fill[sm_id]
        if recheck is not None:
            recheck(cycle)
        for done in waiters:
            done(cycle)

    # ------------------------------------------------------------------
    # store path
    # ------------------------------------------------------------------
    def store(self, sm_id: int, lines: tuple[int, ...], now: int) -> None:
        """Issue a warp store (write-through, never blocks the warp)."""
        l1 = self.l1[sm_id]
        at_l2 = now + self._interconnect
        push = self.events.push
        for ln in lines if len(lines) == 1 else dict.fromkeys(lines):
            l1.lookup(ln, None, allocate=False)
            push(at_l2, partial(self._l2_store, ln))

    def _l2_store(self, line: int, now: int) -> None:
        p = (line // self._line_size) % self._n_part
        l2 = self.l2[p]
        if l2.lookup(line, None, allocate=False) == "bypass":
            # Write-allocate at L2: install the line when DRAM acks, and
            # serve any load that missed on it meanwhile.
            self.dram[p].access(
                line, now + self._dram_fixed, is_store=True,
                on_complete=partial(self._l2_fill, l2, line))

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, int | float]:
        """Aggregate cache/DRAM counters for reporting."""
        l1_acc = sum(c.stats.accesses for c in self.l1)
        l1_miss = sum(c.stats.misses for c in self.l1)
        l2_acc = sum(c.stats.accesses for c in self.l2)
        l2_miss = sum(c.stats.misses for c in self.l2)
        dreq = sum(d.stats.requests for d in self.dram)
        dhit = sum(d.stats.row_hits for d in self.dram)
        return {
            "l1_accesses": l1_acc,
            "l1_misses": l1_miss,
            "l1_miss_rate": l1_miss / l1_acc if l1_acc else 0.0,
            "l2_accesses": l2_acc,
            "l2_misses": l2_miss,
            "l2_miss_rate": l2_miss / l2_acc if l2_acc else 0.0,
            "dram_requests": dreq,
            "dram_row_hit_rate": dhit / dreq if dreq else 0.0,
        }

    @property
    def in_flight(self) -> bool:
        """True while any load/store is still outstanding anywhere."""
        return (any(c.mshr for c in self.l1) or any(c.mshr for c in self.l2)
                or any(d.busy for d in self.dram))
