"""Set-associative LRU cache with MSHRs (used for both L1 and L2)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats", "Cache"]


@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    mshr_rejects: int = 0
    evictions: int = 0


class Cache:
    """Tag-only set-associative LRU cache with miss-status registers.

    ``lookup`` classifies an access as ``"hit"``, ``"miss"`` (MSHR
    allocated — caller must later call :meth:`fill`), ``"merge"`` (an
    MSHR for the line already exists — caller registers a waiter) or
    ``"reject"`` (all MSHRs busy — structural hazard, retry later).
    """

    def __init__(self, *, size: int, assoc: int, line_size: int,
                 mshrs: int, name: str = "cache") -> None:
        if size % (assoc * line_size):
            raise ValueError("size must be divisible by assoc*line_size")
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        self.n_mshrs = mshrs
        # Each set is an LRU-ordered list of line addresses, MRU last,
        # built on its first fill: a short run touches few sets.
        self._sets: list[list[int] | None] = [None] * self.n_sets
        # Flat mirror of every cached line for O(1) presence checks
        # (``probe``, ``fill`` and the MSHR admission checks); the
        # per-set lists remain the source of truth for LRU order and
        # eviction.
        self._present: set[int] = set()
        # Outstanding misses: line addr -> list of opaque waiter tokens.
        self.mshr: dict[int, list[object]] = {}
        self.stats = CacheStats()
        #: Mutation generation: bumped whenever line *presence* or MSHR
        #: *occupancy* changes (MSHR allocation, fill/eviction).
        #: LRU reordering and waiter merges do not bump it.  While ``gen``
        #: is unchanged, any admission decision derived from ``probe``,
        #: MSHR membership and ``mshr_free`` is guaranteed to repeat —
        #: the SM uses this to replay MSHR rejections in O(1).
        self.gen = 0

    # ------------------------------------------------------------------
    def probe(self, line_addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        return line_addr in self._present

    def lookup(self, line_addr: int, waiter: object,
               allocate: bool = True) -> str:
        """Access ``line_addr``; see class docstring for outcomes.

        With ``allocate=False`` (write-through stores) a miss does not
        take an MSHR and the result is ``"bypass"``.
        """
        self.stats.accesses += 1
        if line_addr in self._present:
            self.stats.hits += 1
            s = self._sets[(line_addr // self.line_size) % self.n_sets]
            if s[-1] != line_addr:
                s.remove(line_addr)
                s.append(line_addr)  # MRU
            return "hit"
        if not allocate:
            self.stats.misses += 1
            return "bypass"
        pending = self.mshr.get(line_addr)
        if pending is not None:
            self.stats.mshr_merges += 1
            self.stats.misses += 1
            pending.append(waiter)
            return "merge"
        if len(self.mshr) >= self.n_mshrs:
            self.stats.mshr_rejects += 1
            self.stats.accesses -= 1  # rejected access never happened
            return "reject"
        self.stats.misses += 1
        self.mshr[line_addr] = [waiter]
        self.gen += 1
        return "miss"

    def fill(self, line_addr: int) -> list[object]:
        """Install a returning line; returns and clears its waiters."""
        waiters = self.mshr.pop(line_addr, None)
        present = self._present
        if line_addr not in present:
            i = (line_addr // self.line_size) % self.n_sets
            s = self._sets[i]
            if s is None:
                self._sets[i] = [line_addr]
            else:
                if len(s) >= self.assoc:
                    present.discard(s.pop(0))  # evict LRU
                    self.stats.evictions += 1
                s.append(line_addr)
            present.add(line_addr)
        self.gen += 1
        return [] if waiters is None else waiters

    def rejects(self, lines: tuple[int, ...]) -> bool:
        """True when a load of the distinct ``lines`` must be rejected:
        it needs more MSHRs than are free (see :meth:`mshr_demand`)."""
        mshr = self.mshr
        free = self.n_mshrs - len(mshr)
        if len(lines) == 1:
            # A one-line load is rejected exactly when no MSHR is free
            # and its line is neither cached nor pending.
            ln = lines[0]
            return free <= 0 and ln not in mshr and ln not in self._present
        # mshr_demand(lines) > free, stopping at the first line over.
        present = self._present
        for ln in lines:
            if ln not in present and ln not in mshr:
                free -= 1
                if free < 0:
                    return True
        return False

    def mshr_demand(self, lines: tuple[int, ...]) -> int:
        """MSHRs a load of the distinct ``lines`` would allocate: the
        lines neither cached nor already pending.  The load is admitted
        when this does not exceed :attr:`mshr_free`."""
        present = self._present
        mshr = self.mshr
        n = 0
        for ln in lines:
            if ln not in present and ln not in mshr:
                n += 1
        return n

    @property
    def mshr_free(self) -> int:
        """Number of free miss-status registers."""
        return self.n_mshrs - len(self.mshr)
