"""Dynamic warp execution (paper Sec. IV-C).

Extra (non-owner) warps can raise L1/L2 misses on memory-bound kernels.
The controller throttles *global memory* instructions issued by non-owner
warps with a per-SM probability ``p``:

* SM0's ``p`` is pinned to 0 — it never issues non-owner memory
  instructions and serves as the reference.
* Every ``period`` cycles (1000 in the paper), each other SM compares the
  stall cycles it accumulated over the window with SM0's.  More stalls
  than SM0 → ``p -= step``; fewer → ``p += step`` (step 0.1), saturating
  in [0, 1].  All SMs except SM0 start at ``p = 1``.

The paper does not specify what happens to a *refused* instruction; a
per-cycle retry would reduce ``p`` to a one-cycle delay, so we block the
refused warp until the end of the current monitoring window (see
DESIGN.md §4).  Draws come from a seeded PCG64 stream per SM
(:mod:`repro.rng`), so runs are deterministic.

One escape hatch lives in ``SMCore._dyn_critical``: a non-owner warp
whose block holds a shared pool that a partner-side warp is lock-blocked
on is never refused.  Without it, SM0 (``p`` pinned to 0) would refuse
such a warp forever and livelock the pair — the owner waits on a pool
that only the throttled block can release.
"""

from __future__ import annotations

from repro.rng import PCG64

__all__ = ["DynWarpController"]


class DynWarpController:
    """Per-SM saturating-probability throttle for non-owner memory ops."""

    def __init__(self, num_sms: int, *, period: int = 1000,
                 step: float = 0.1, seed: int = 12345) -> None:
        if num_sms < 1:
            raise ValueError("need at least one SM")
        if period < 1:
            raise ValueError("period must be positive")
        if not 0.0 < step <= 1.0:
            raise ValueError("step must be in (0, 1]")
        self.num_sms = num_sms
        self.period = period
        self.step = step
        self.p = [1.0] * num_sms
        self.p[0] = 0.0
        self._window_stalls = [0] * num_sms
        self._rngs = [PCG64(seed + 977 * i) for i in range(num_sms)]
        #: Cycle at which the next window closes (maintained by caller's
        #: event scheduling; stored for convenience).
        self.next_window_end = period

    # ------------------------------------------------------------------
    def allow(self, sm_id: int) -> bool:
        """Decide whether a non-owner memory instruction may issue now."""
        p = self.p[sm_id]
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return self._rngs[sm_id].random() < p

    def record_stall(self, sm_id: int, n: int = 1) -> None:
        """Accumulate ``n`` stall cycles for ``sm_id`` in this window."""
        self._window_stalls[sm_id] += n

    def end_window(self) -> None:
        """Close the monitoring window and adjust every SM's probability."""
        ref = self._window_stalls[0]
        for i in range(1, self.num_sms):
            if self._window_stalls[i] > ref:
                self.p[i] = max(0.0, self.p[i] - self.step)
            elif self._window_stalls[i] < ref:
                self.p[i] = min(1.0, self.p[i] + self.step)
        self._window_stalls = [0] * self.num_sms
        self.next_window_end += self.period
