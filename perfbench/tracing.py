"""In-memory layer tracer that wraps the program's public calls.

A :class:`LayerTracer` replaces selected functions and methods of the
``repro`` package with timing wrappers while it is installed, and puts
the originals back on :meth:`LayerTracer.uninstall`.  Nothing under
``src/`` changes: the wrappers live here, around the calls into each
layer.

Hot calls such as ``SMCore.step`` run millions of times per workload, so
they are not kept as individual spans.  Each wrapped call adds to its
layer's aggregate instead: total time, the time of wrapped calls made
inside it (child time), call count, and a count of useful outcomes (an
issuing step, an accepted load, a granted lock, a fired event).  Self
time is total minus child time.  The workloads keep the coarse spans
(one cell, experiment or job) themselves.

Aggregates are kept per thread and merged when read, so the service's
engine thread and its HTTP thread never race on one counter.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

_perf = time.perf_counter


def _truthy(value: object) -> int:
    return 1 if value else 0


def _positive(value: object) -> int:
    return 1 if isinstance(value, int) and value > 0 else 0


def _count(value: object) -> int:
    return value if isinstance(value, int) else 0


def _hit(value: object) -> int:
    return 0 if value is None else 1


#: (layer name, module path, attribute path, outcome or None).  The
#: outcome maps a call's return value to the number added to the layer's
#: ``useful`` counter.  A layer may wrap several callables; their
#: aggregates are summed.  A function imported by name into another
#: module is listed once per module, because callers look the name up
#: there.
HOOKS: tuple[tuple[str, str, str, Callable[[object], int] | None], ...] = (
    ("workloads.build", "repro.workloads.apps", "App.kernel", None),
    ("workloads.build", "repro.workloads.generator", "generate_kernel", None),
    ("core.unroll", "repro.harness.runner", "reorder_registers", None),
    ("core.plan", "repro.harness.runner", "occupancy", None),
    ("core.plan", "repro.harness.runner", "plan_sharing", None),
    ("core.plan", "repro.harness.experiments", "occupancy", None),
    ("core.plan", "repro.harness.experiments", "plan_sharing", None),
    ("core.plan", "repro.core.occupancy", "occupancy", None),
    ("sim.gpu.init", "repro.sim.gpu", "GPU.__init__", None),
    ("sim.gpu.run", "repro.sim.gpu", "GPU.run", None),
    ("sim.sm.step", "repro.sim.sm", "SMCore.step", _positive),
    ("events.run_due", "repro.events", "EventQueue.run_due", _count),
    ("events.push_wake", "repro.events", "EventQueue.push_wake", None),
    ("mem.try_load", "repro.mem.hierarchy", "MemoryHierarchy.try_load",
     _truthy),
    ("mem.store", "repro.mem.hierarchy", "MemoryHierarchy.store", None),
    ("mem.dram_access", "repro.mem.dram", "DramController.access", None),
    ("core.locks.reg_acquire", "repro.core.locks",
     "RegisterShareGroup.try_acquire", _truthy),
    ("core.locks.spad_acquire", "repro.core.locks",
     "ScratchpadShareGroup.try_acquire", _truthy),
    ("sim.dispatcher.block_done", "repro.sim.dispatcher",
     "Dispatcher.on_block_done", None),
    ("sim.stats.to_dict", "repro.sim.stats", "RunResult.to_dict", None),
    ("sim.stats.from_dict", "repro.sim.stats", "RunResult.from_dict", None),
    ("harness.engine.spec_create", "repro.harness.engine", "RunSpec.create",
     None),
    ("harness.engine.digest", "repro.harness.engine", "RunSpec.digest",
     None),
    ("harness.engine.cache_get", "repro.harness.engine", "ResultCache.get",
     _hit),
    ("harness.engine.cache_put", "repro.harness.engine", "ResultCache.put",
     None),
    ("harness.engine.run_batch", "repro.harness.engine", "Engine.run_batch",
     None),
    ("harness.experiments", "repro.harness.experiments", "run_experiment",
     None),
    ("harness.report.render", "repro.harness.report", "render_experiment",
     None),
    ("service.client.submit", "repro.service.client", "ServiceClient.submit",
     None),
    ("service.client.wait", "repro.service.client", "ServiceClient.wait",
     None),
)


class _Agg:
    """Per-thread aggregate of one layer."""

    __slots__ = ("total", "child", "calls", "useful")

    def __init__(self) -> None:
        self.total = 0.0
        self.child = 0.0
        self.calls = 0
        self.useful = 0


class LayerTracer:
    """Installs timing wrappers around :data:`HOOKS` and aggregates them.

    Use as ``with tracer.installed(): ...``; read the merged numbers with
    :meth:`layers`.
    """

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, _Agg]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------
    def _state(self) -> tuple[list[float], dict[str, _Agg]]:
        loc = self._local
        try:
            return loc.stack, loc.aggs
        except AttributeError:
            loc.stack = []
            loc.aggs = {}
            with self._lock:
                self._per_thread.append(loc.aggs)
            return loc.stack, loc.aggs

    # -- wrapping -------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable,
              outcome: Callable[[object], int] | None) -> Callable:
        state = self._state

        def traced(*args, **kwargs):
            stack, aggs = state()
            t0 = _perf()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                _close(stack, aggs, layer, t0, 0)
                raise
            _close(stack, aggs, layer, t0,
                   outcome(out) if outcome is not None else 0)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        """Patch every hook; a second call without uninstall is an error."""
        import importlib
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module, attr, outcome in self.hooks:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__,
                                                 outcome))
            else:
                wrapped = self._wrap(layer, raw, outcome)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Restore every original callable (reverse order of install)."""
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Merged per-layer totals: total_s, child_s, self_s, calls,
        useful."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            per_thread = list(self._per_thread)
        for aggs in per_thread:
            for layer, a in list(aggs.items()):
                d = out.setdefault(layer, {"total_s": 0.0, "child_s": 0.0,
                                           "calls": 0, "useful": 0})
                d["total_s"] += a.total
                d["child_s"] += a.child
                d["calls"] += a.calls
                d["useful"] += a.useful
        for d in out.values():
            d["self_s"] = d["total_s"] - d["child_s"]
        return out


def _close(stack: list[float], aggs: dict[str, _Agg], layer: str,
           t0: float, useful: int) -> None:
    dt = _perf() - t0
    child = stack.pop()
    a = aggs.get(layer)
    if a is None:
        a = aggs[layer] = _Agg()
    a.total += dt
    a.child += child
    a.calls += 1
    a.useful += useful
    if stack:
        stack[-1] += dt
