"""Host-speed probe: scale host times to a reference host speed.

The benchmark runs on a few cores of a shared host.  Such a host's
speed swings by up to 1.5x in phases that last seconds (another tenant
on the same physical core, frequency changes), and every timed
operation swings with it: a warm harness pass took 110 ms in one phase
and 200 ms in the next on the same 2-CPU host.  Averaging over a run
does not remove this, because a whole run can sit in one phase.

So every workload runs a fixed pure-Python probe between its timed
operations, outside the timed intervals, and the simulator and harness
workloads report each operation's host time scaled to a host on which
the probe takes :data:`REF_S` (``service-mix`` only records its probes;
see ``workloads._SERVICE_SEGMENT_S``)::

    scaled = raw * REF_S / probe

where ``probe`` is the mean of the probes just before and just after
the operation.  A scaled time reads as "seconds on the reference host";
a change that makes the program slower makes it larger by the same
share.  The probe is the benchmark's own code and touches nothing of
the program, so a change to the program cannot move it.  Raw times are
kept next to the scaled ones in every result file.
"""

from __future__ import annotations

import bisect
import heapq
import json
import time
from dataclasses import asdict, dataclass

_perf = time.perf_counter

#: Probe seconds on the reference host: scaled times are host times on
#: a host where one probe takes exactly this long.
REF_S = 0.008


@dataclass
class _Rec:
    key: int
    name: str
    vals: list[int]


def _probe_body() -> int:
    """A fixed mix of what the program spends its time on: small
    objects and their dict/JSON round trips (harness, service), integer
    arithmetic, dict updates and a heap (simulator)."""
    acc = 0
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(400):
        rec = _Rec(i, f"r{i}", [i, i * 3, i ^ 5])
        back = json.loads(json.dumps(asdict(rec)))
        acc += back["key"] + len(back["vals"])
        for j in range(8):
            k = (i * 31 + j * 7) & 255
            counts[k] = counts.get(k, 0) + j
            heapq.heappush(heap, (k, j))
        while len(heap) > 16:
            acc ^= heapq.heappop(heap)[0]
    return acc + len(counts)


def probe() -> float:
    """Seconds of one probe: the fastest of three runs of the probe
    body, so a single interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = _perf()
        _probe_body()
        best = min(best, _perf() - t0)
    return best


class HostClock:
    """Probes taken between timed operations, and the scaling they give.

    ``every_s`` spaces the probes of :meth:`tick` so short operations do
    not pay one probe each.
    """

    def __init__(self, every_s: float = 0.0) -> None:
        self.every_s = every_s
        #: (perf_counter when the probe ended, probe seconds)
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        d = probe()
        self.probes.append((_perf(), d))

    def tick(self) -> None:
        """Probe if ``every_s`` has passed since the last probe."""
        if not self.probes or _perf() - self.probes[-1][0] >= self.every_s:
            self.probe()

    def _factor(self, ends: list[float], start: float, end: float) -> float:
        """REF_S over the mean of the probes bracketing ``[start, end]``."""
        lo = max(bisect.bisect_right(ends, start) - 1, 0)
        hi = bisect.bisect_left(ends, end) + 1
        around = [d for _t, d in self.probes[lo:hi]]
        return REF_S * len(around) / sum(around) if around else 1.0

    def scale(self, marks: list[tuple[float, float]]) -> list[float]:
        """Scaled seconds of each ``(start, end)`` interval."""
        ends = [t for t, _d in self.probes]
        return [(end - start) * self._factor(ends, start, end)
                for start, end in marks]

    def median_probe_s(self) -> float:
        ds = sorted(d for _t, d in self.probes)
        return ds[len(ds) // 2] if ds else 0.0
