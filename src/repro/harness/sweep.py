"""Batch sweeps over (app × mode × config) with CSV export.

The experiment registry reproduces the paper's artifacts; this module is
the general tool behind it for ad-hoc studies: build a grid of runs and
execute it through the unified :class:`~repro.harness.engine.Engine` —
duplicate (app × mode) grid entries are simulated once, an engine with
``jobs=`` runs unique entries in parallel worker processes, and one with
the cache on serves repeated sweeps from the content-addressed on-disk
result cache — then export a flat table ready for any plotting tool.

Example::

    sweep = Sweep(config=GPUConfig().scaled(num_clusters=4),
                  engine=Engine(jobs=4))
    sweep.add_apps(["hotspot", "MUM"])
    sweep.add_modes([unshared("lrr"), unshared("gto"),
                     shared(SharedResource.REGISTERS, "owf", unroll=True)])
    rows = sweep.run()
    print(sweep.to_csv())
"""

from __future__ import annotations

import csv
import io
from typing import Iterable

from repro.config import GPUConfig
from repro.harness.engine import Engine, RunEvent, RunSpec
from repro.harness.resilience import RunFailure
from repro.harness.runner import Mode
from repro.sim.stats import RunResult
from repro.workloads.apps import APPS, App

__all__ = ["Sweep", "result_row", "failure_row", "rows_to_csv"]

#: Flat columns exported for every run.
CSV_COLUMNS = (
    "app", "mode", "clusters", "scale", "waves", "status", "ipc", "cycles",
    "instructions", "stall_cycles", "idle_cycles", "max_resident_blocks",
    "blocks_baseline", "blocks_total", "l1_miss_rate", "l2_miss_rate",
    "dram_requests", "lock_acquires", "lock_waits", "dyn_refusals",
    "early_releases", "digest", "attempts", "error",
)

#: ``error`` column cap; longer messages end with ``...`` so consumers
#: can tell a truncated message from one that happens to fit exactly.
_ERROR_LIMIT = 200


def failure_row(f: RunFailure, *, clusters: int, scale: float,
                waves: float) -> dict:
    """Flatten a :class:`RunFailure` into an annotated CSV row.

    The ``status`` column carries the failure category (successful rows
    say ``ok``) and ``error`` the exception message, so a sweep CSV
    with failed cells still loads into any analysis pipeline.  The
    ``digest`` (RunSpec content hash) and ``attempts`` columns identify
    the exact failed configuration for a re-run without needing the
    original sweep script; messages longer than the column cap are
    truncated with a visible ``...`` marker.
    """
    err = f"{f.exception_type}: {f.message}"
    if len(err) > _ERROR_LIMIT:
        err = err[:_ERROR_LIMIT - 3] + "..."
    return {
        "app": f.app,
        "mode": f.mode,
        "clusters": clusters,
        "scale": scale,
        "waves": waves,
        "status": f.category,
        "digest": f.spec_digest,
        "attempts": f.attempts,
        "error": err,
    }


def result_row(res: RunResult, *, clusters: int, scale: float,
               waves: float, digest: str = "") -> dict:
    """Flatten a :class:`RunResult` into one CSV row.

    ``digest`` is the RunSpec content hash when the caller has it (the
    sweep does) — with it in the CSV any row, ok or failed, identifies
    its exact configuration.  ``attempts`` stays blank for ok rows: the
    engine does not report retry counts on success.
    """
    agg = lambda f: sum(getattr(s, f) for s in res.sm_stats)  # noqa: E731
    return {
        "status": "ok",
        "error": "",
        "digest": digest,
        "attempts": "",
        "app": res.kernel,
        "mode": res.mode,
        "clusters": clusters,
        "scale": scale,
        "waves": waves,
        "ipc": round(res.ipc, 4),
        "cycles": res.cycles,
        "instructions": res.instructions,
        "stall_cycles": res.stall_cycles,
        "idle_cycles": res.idle_cycles,
        "max_resident_blocks": res.max_resident_blocks,
        "blocks_baseline": res.blocks_baseline,
        "blocks_total": res.blocks_total,
        "l1_miss_rate": round(float(res.mem["l1_miss_rate"]), 4),
        "l2_miss_rate": round(float(res.mem["l2_miss_rate"]), 4),
        "dram_requests": res.mem["dram_requests"],
        "lock_acquires": agg("lock_acquires"),
        "lock_waits": agg("lock_waits"),
        "dyn_refusals": agg("dyn_refusals"),
        "early_releases": agg("early_releases"),
    }


def rows_to_csv(rows: Iterable[dict]) -> str:
    """Render rows as CSV text with the standard column set.

    Uses the stdlib :mod:`csv` writer, so fields containing commas,
    quotes or newlines (e.g. exotic mode labels) are escaped correctly.
    """
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, restval="",
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return out.getvalue()


class Sweep:
    """A grid of (app × mode) runs on one machine configuration.

    Runs execute on ``engine`` — pass one to choose workers, cache,
    timeouts, retries or the sanitizer (docs/engine.md), or to share
    its statistics and cache with other callers.  The default is
    ``Engine(cache=False)``: an ad-hoc study tool shouldn't write to
    disk unless asked.
    """

    def __init__(self, *, config: GPUConfig | None = None,
                 scale: float = 1.0, waves: float = 6.0,
                 engine: Engine | None = None) -> None:
        self.config = config if config is not None else GPUConfig()
        self.scale = scale
        self.waves = waves
        self.engine = engine if engine is not None else Engine(cache=False)
        self._apps: list[App] = []
        self._modes: list[Mode] = []
        self.rows: list[dict] = []
        #: RunFailures from the last :meth:`run` (annotated in rows too).
        self.failures: list[RunFailure] = []

    # -- grid construction ----------------------------------------------
    def add_apps(self, apps: Iterable[str | App]) -> "Sweep":
        """Add apps by name (registry) or as App objects."""
        for a in apps:
            self._apps.append(APPS[a] if isinstance(a, str) else a)
        return self

    def add_modes(self, modes: Iterable[Mode]) -> "Sweep":
        """Add run modes."""
        self._modes.extend(modes)
        return self

    @property
    def size(self) -> int:
        """Number of grid entries (identical entries simulate once)."""
        return len(self._apps) * len(self._modes)

    # -- execution --------------------------------------------------------
    def run(self, progress: bool = False) -> list[dict]:
        """Execute the grid; returns (and stores) the flat rows.

        Identical (app × mode) entries are deduplicated: the grid
        simulates each unique configuration once and emits one row for
        it.  On an engine with ``jobs > 1`` unique runs execute in
        parallel; the row order (and every value) is independent of the
        worker count.
        """
        if not self._apps or not self._modes:
            raise ValueError("sweep needs at least one app and one mode")
        specs: list[RunSpec] = []
        seen: set[str] = set()
        for app in self._apps:
            for mode in self._modes:
                spec = RunSpec.create(app, mode, config=self.config,
                                      scale=self.scale, waves=self.waves)
                digest = spec.digest()
                if digest in seen:
                    continue
                seen.add(digest)
                specs.append(spec)

        callback = None
        if progress:  # pragma: no cover - console nicety
            def callback(ev: RunEvent) -> None:
                if isinstance(ev.result, RunFailure):
                    print(f"  [{ev.index}/{ev.total}] "
                          f"{ev.result.describe()}")
                    return
                tag = " (cached)" if ev.cached else ""
                print(f"  [{ev.index}/{ev.total}] {ev.result.kernel} / "
                      f"{ev.result.mode}: IPC {ev.result.ipc:.2f}{tag}")

        results = self.engine.run_batch(specs, progress=callback)
        kw = dict(clusters=self.config.num_clusters, scale=self.scale,
                  waves=self.waves)
        self.rows = [failure_row(res, **kw)
                     if isinstance(res, RunFailure) else
                     result_row(res, digest=spec.digest(), **kw)
                     for spec, res in zip(specs, results)]
        self.failures = [r for r in results if isinstance(r, RunFailure)]
        return self.rows

    def to_csv(self) -> str:
        """CSV of the last :meth:`run`."""
        if not self.rows:
            raise ValueError("run() the sweep first")
        return rows_to_csv(self.rows)

    def best_mode_per_app(self) -> dict[str, str]:
        """App → label of its highest-IPC mode (from the last run)."""
        best: dict[str, dict] = {}
        for r in self.rows:
            if r.get("ipc") is None:  # annotated failure row
                continue
            cur = best.get(r["app"])
            if cur is None or r["ipc"] > cur["ipc"]:
                best[r["app"]] = r
        return {app: r["mode"] for app, r in best.items()}
