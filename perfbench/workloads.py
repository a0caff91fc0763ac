"""The four benchmark workloads.

Each workload function takes ``(seed, seconds, trace, tiny)`` and returns
a :class:`Outcome`.  Inputs are generated from the seed before timing;
correctness checks run after the timed part and count a failed check as
a failed operation.  Every host time the simulator and harness workloads
report is scaled to a reference host speed by probes taken between
their timed operations (see hostspeed.py); the unscaled times are kept
beside them.  See README.md in this directory for why each
workload exists and which layers it stresses.

With ``trace`` set a workload runs twice over the same inputs: an
untraced phase, then a phase under :class:`~tracing.LayerTracer`.  The
per-layer numbers and the coarse spans (one per cell, experiment or
job) come from the traced phase; the tracing overhead is the traced
phase's time over the untraced phase's time for the same operations,
and the two phases' simulated outputs must be identical.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (check_result, expected_instructions, grid_size,
                    model_summary)
from hostspeed import HostClock
from tracing import LayerTracer

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness import experiments as hexp
from repro.harness import report as hreport
from repro.harness.engine import Engine, RunSpec
from repro.harness.runner import Mode, improvement, run, shared, unshared
from repro.service.client import AdmissionRejected, ServiceClient
from repro.sim.stats import RunResult
from repro.workloads import generator
from repro.workloads.apps import APPS
from repro.workloads.suites import SET1, SET2

_perf = time.perf_counter
REG = SharedResource.REGISTERS
SPAD = SharedResource.SCRATCHPAD

#: Set-ups per untraced run; ``setup_s`` is their median.  Cold-start
#: probes are short and noisier, so they repeat more often.
SETUP_REPEATS = 3
COLD_START_REPEATS = 5

#: The paper's Fig. 8(c)/(d) IPC improvements (%), frozen from
#: ``App.paper["fig8_impr"]`` so an edit there cannot move
#: ``fig8_mae_pct``.  The CONV1/CONV2 pair is disputed: the prose of an
#: earlier report has the two values the other way round.
FIG8_PAPER_PCT = {
    "backprop": 5.82, "b+tree": 11.98, "hotspot": 21.76, "LIB": 0.84,
    "MUM": 24.14, "mri-q": -0.72, "sgemm": 4.06, "stencil": 23.45,
    "CONV1": 15.85, "CONV2": 4.33, "lavaMD": 29.96, "NW1": 5.62,
    "NW2": 9.03, "SRAD1": 11.1, "SRAD2": 25.73,
}

#: Fig. 8(c)/(d) sharing modes (the baseline is Unshared-LRR).
FIG8C_MODE = shared(REG, "owf", unroll=True, dyn=True)
FIG8D_MODE = shared(SPAD, "owf")

#: A coarse span: (name, start, end, parent name or None), perf_counter.
Span = tuple[str, float, float, str | None]


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Scaled seconds of each set-up (several when untraced).
    setup_s: list[float] = field(default_factory=list)
    #: Scaled seconds of each timed operation.
    lat_s: list[float] = field(default_factory=list)
    #: Scaled host seconds the throughput metrics divide by.
    timed_s: float = 0.0
    #: The same three unscaled.
    raw_setup_s: list[float] = field(default_factory=list)
    raw_lat_s: list[float] = field(default_factory=list)
    raw_timed_s: float = 0.0
    #: Host-speed probes taken between the timed operations.
    clock: HostClock = field(default_factory=HostClock)
    #: Simulated warp-instructions of the results delivered while timed.
    instructions: int = 0
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Per-layer metrics and coarse spans (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    #: Workload parameters, sample counts and other context.
    info: dict = field(default_factory=dict)

    def fail(self, problems: list[str], ops: int = 1) -> None:
        """Count ``ops`` checked operations, failed if ``problems``."""
        self.ops += ops
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def set_setup(self, marks: list[tuple[float, float]]) -> None:
        self.raw_setup_s = _lat(marks)
        self.setup_s = self.clock.scale(marks)

    def set_timed(self, marks: list[tuple[float, float]]) -> None:
        """Per-operation and total times of back-to-back operations."""
        self.raw_lat_s = _lat(marks)
        self.lat_s = self.clock.scale(marks)
        self.raw_timed_s = sum(self.raw_lat_s)
        self.timed_s = sum(self.lat_s)


def build_inputs(workload: str, seed: int, tiny: bool) -> None:
    """Build the input kernels of a simulator workload (cold-start
    probe body, see coldstart.py)."""
    if workload == "fig-sweep":
        scale = 0.15 if tiny else 1.0
        for app in {app for app, _m in fig_cells(seed)}:
            APPS[app].kernel(scale)
    else:
        for kseed, _m, _c in random_ops(seed)[:_RANDOM_MODEL_OPS]:
            generator.generate_kernel(kseed, RANDOM_PARAMS)


def cold_starts(workload: str, seed: int, tiny: bool,
                clock: HostClock) -> list[tuple[float, float]]:
    """(start, end) of :data:`COLD_START_REPEATS` cold-start probes,
    with a host-speed probe after each."""
    argv = [sys.executable, str(Path(__file__).resolve().parent
                                / "coldstart.py"), workload, str(seed)]
    if tiny:
        argv.append("--tiny")
    marks = []
    clock.probe()
    for _ in range(COLD_START_REPEATS):
        t0 = _perf()
        subprocess.run(argv, check=True, timeout=120)
        marks.append((t0, _perf()))
        clock.probe()
    return marks


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _lat(marks: list[tuple[float, float]]) -> list[float]:
    return [end - start for start, end in marks]


def _check_spec(spec: RunSpec, res: RunResult) -> list[str]:
    kernel = spec.target().kernel(spec.scale) if spec.app is not None \
        else spec.kernel
    grid = grid_size(kernel, spec.config, unroll=spec.mode.unroll,
                     waves=spec.waves, grid_blocks=spec.grid_blocks)
    return check_result(res, expected_instructions(kernel, grid))


def _overhead_pct(untraced: list[float], traced: list[float]) -> float:
    n = min(len(untraced), len(traced))
    base = sum(untraced[:n])
    return (sum(traced[:n]) / base - 1.0) * 100.0 if base else 0.0


def _same_outputs(a: list[RunResult], b: list[RunResult]) -> list[str]:
    return [f"op {i}: traced and untraced results differ"
            for i, (x, y) in enumerate(zip(a, b))
            if x.to_dict() != y.to_dict()]


# ----------------------------------------------------------------------
# fig-sweep: the paper's headline cells at full sweep size
# ----------------------------------------------------------------------

def fig_cells(seed: int) -> list[tuple[str, Mode]]:
    """The 30 Fig. 8(c)/(d) cells, in a seeded order."""
    cells = []
    for app in SET1:
        cells += [(app, unshared("lrr")), (app, FIG8C_MODE)]
    for app in SET2:
        cells += [(app, unshared("lrr")), (app, FIG8D_MODE)]
    random.Random(seed).shuffle(cells)
    return cells


def fig8_mae_pct(results: dict[tuple[str, str], RunResult]) -> float:
    """Mean |simulated − paper| Fig. 8(c)/(d) improvement, in points."""
    errs = []
    for app, paper in FIG8_PAPER_PCT.items():
        mode = FIG8C_MODE if app in SET1 else FIG8D_MODE
        base = results[app, unshared("lrr").label]
        new = results[app, mode.label]
        errs.append(abs(improvement(base, new) - paper))
    return sum(errs) / len(errs)


def fig_sweep(seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> Outcome:
    if tiny:
        cfg, scale, waves = GPUConfig().scaled(num_clusters=1), 0.15, 1.0
    else:
        cfg, scale, waves = GPUConfig().scaled(num_clusters=4), 1.0, 3.0
    out = Outcome(info={"cells": 30, "clusters": cfg.num_clusters,
                        "scale": scale, "waves": waves})
    warm_cfg = GPUConfig().scaled(num_clusters=1)

    clock = out.clock
    if not trace:
        out.set_setup(cold_starts("fig-sweep", seed, tiny, clock))
    cells = fig_cells(seed)
    run(APPS[cells[0][0]], cells[0][1], config=warm_cfg, scale=0.1,
        waves=0.5)   # finish lazy imports before timing
    clock.probe()

    def one_pass(budget: float | None):
        marks, res = [], []
        t_end = None if budget is None else _perf() + budget
        for app, mode in cells:
            t0 = _perf()
            r = run(APPS[app], mode, config=cfg, scale=scale, waves=waves)
            marks.append((t0, _perf()))
            res.append(r)
            clock.probe()
            if t_end is not None and _perf() >= t_end:
                break
        return marks, res

    # Whole passes only, so every run measures the same cell mix; start
    # another pass only if it is expected to end within the budget.
    marks, first = one_pass(None)
    results = list(first)
    all_marks = list(marks)
    while not trace and sum(_lat(all_marks)) + sum(_lat(marks)) <= seconds:
        marks, res = one_pass(None)
        all_marks += marks
        results += res
    out.set_timed(all_marks)
    out.instructions = sum(r.instructions for r in results)
    out.info["passes"] = len(results) // len(cells)

    if trace:
        tracer = LayerTracer()
        with tracer.installed():
            t_marks, t_res = one_pass(seconds / 2)
        out.layers = layer_metrics(tracer)
        out.layers["trace.overhead_pct"] = _overhead_pct(
            out.lat_s, clock.scale(t_marks))
        out.spans = [(f"cell {app} {mode.label}", a, b, None)
                     for (app, mode), (a, b) in zip(cells, t_marks)]
        out.fail(_same_outputs(first, t_res), len(t_res))

    # -- checks (untimed) ----------------------------------------------
    for i, r in enumerate(results):
        app, mode = cells[i % len(cells)]
        kernel = APPS[app].kernel(scale)
        grid = grid_size(kernel, cfg, unroll=mode.unroll, waves=waves,
                         grid_blocks=None)
        problems = check_result(r, expected_instructions(kernel, grid))
        if i >= len(cells) and r.to_dict() != results[i - len(cells)] \
                .to_dict():
            problems.append(f"{app}/{mode.label}: differs between passes")
        out.fail(problems)
    by_cell = {(app, mode.label): r for (app, mode), r in zip(cells, first)}
    mae = fig8_mae_pct(by_cell)
    out.info["fig8_mae_pct"] = mae
    # A slice of the sweep on both cores, at a reduced size.
    slice_cfg = GPUConfig().scaled(num_clusters=1)
    for app, mode in random.Random(seed + 1).sample(cells, 2):
        fast = run(APPS[app], mode, config=slice_cfg, scale=0.25, waves=1.0)
        ref = run(APPS[app], mode, config=slice_cfg, scale=0.25, waves=1.0,
                  core="reference")
        out.fail([] if fast.to_dict() == ref.to_dict() else
                 [f"{app}/{mode.label}: fast core != reference core"])
    if trace:
        out.layers.update(model_summary(first))
        out.layers["model.fig8_mae_pct"] = mae
    out.peak_rss_mb = _self_rss_mb()
    return out


# ----------------------------------------------------------------------
# random-mix: seeded generated kernels across the whole config space
# ----------------------------------------------------------------------

_SCHEDULERS = ("lrr", "gto", "two_level", "owf")
_RANDOM_OPS = 3000
#: Bounds on the generated kernels: small enough that a run averages
#: over hundreds of kernels, so its figures do not hinge on a few large
#: ones the seed happened to draw.
RANDOM_PARAMS = generator.GeneratorParams(max_warps=8, max_loops=2,
                                          max_loop_trip=8, max_body=6)
#: Warp-instructions per op: each kernel's grid is sized to about this
#: much work, so no single draw dominates a run's time.
RANDOM_OP_INSTR = 600
#: Operations every phase completes; the simulated-model metrics are
#: taken over exactly these, so they do not depend on host speed.
_RANDOM_MODEL_OPS = 16


def random_grid(kernel) -> int:
    """Grid blocks that give ``kernel`` about :data:`RANDOM_OP_INSTR`."""
    per_block = kernel.warps_per_block * kernel.dynamic_count
    return max(1, round(RANDOM_OP_INSTR / per_block))


def _random_mode(kind: int, scheduler: str, t: float) -> Mode:
    if kind == 0:
        return unshared(scheduler)
    if kind == 1:
        return shared(REG, scheduler, t=t, unroll=True, dyn=True)
    if kind == 2:
        return shared(REG, scheduler, t=t, early_release=True)
    return shared(SPAD, scheduler, t=t)


def random_ops(seed: int, n: int = _RANDOM_OPS
               ) -> list[tuple[int, Mode, int]]:
    """(kernel seed, mode, clusters) per op, stratified over the
    scheduler × mode × machine-size grid so every run sees the same mix;
    the kernels and thresholds are random."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        scheduler = _SCHEDULERS[i % 4]
        kind = (i // 4) % 4
        clusters = 1 + (i // 16) % 2
        t = round(rng.uniform(0.1, 0.9), 2)
        ops.append((rng.randrange(1 << 30),
                    _random_mode(kind, scheduler, t), clusters))
    return ops


def random_mix(seed: int, seconds: float, trace: bool,
               tiny: bool = False) -> Outcome:
    cfgs = {c: GPUConfig().scaled(num_clusters=c) for c in (1, 2)}
    # The ops are short: probe the host every 0.2 s, not after each op.
    out = Outcome(info={"op_instr": RANDOM_OP_INSTR, "clusters": [1, 2]},
                  clock=HostClock(every_s=0.2))
    clock = out.clock
    if tiny:
        seconds = min(seconds, 1.0)

    if not trace:
        out.set_setup(cold_starts("random-mix", seed, tiny, clock))
    ops = random_ops(seed)
    run(generator.generate_kernel(0), unshared("lrr"), config=cfgs[1],
        waves=0.5)   # finish lazy imports before timing

    def phase(budget: float, min_ops: int):
        marks, res = [], []
        clock.probe()
        t_end = _perf() + budget
        for kseed, mode, clusters in ops:
            t0 = _perf()
            kernel = generator.generate_kernel(kseed, RANDOM_PARAMS)
            r = run(kernel, mode, config=cfgs[clusters],
                    grid_blocks=random_grid(kernel))
            marks.append((t0, _perf()))
            res.append(r)
            if len(res) >= min_ops and _perf() >= t_end:
                break
            clock.tick()
        clock.probe()
        return marks, res

    min_ops = 4 if tiny else _RANDOM_MODEL_OPS
    budget = seconds / 2 if trace else seconds
    marks, results = phase(budget, min_ops)
    out.set_timed(marks)
    out.instructions = sum(r.instructions for r in results)

    if trace:
        tracer = LayerTracer()
        with tracer.installed():
            t_marks, t_res = phase(budget, min_ops)
        out.layers = layer_metrics(tracer)
        out.layers["trace.overhead_pct"] = _overhead_pct(
            out.lat_s, clock.scale(t_marks))
        out.spans = [(f"kernel {kseed} {mode.label} x{clusters}", a, b,
                      None)
                     for (kseed, mode, clusters), (a, b) in zip(ops, t_marks)]
        out.fail(_same_outputs(results, t_res), len(t_res))
        out.layers.update(model_summary(results[:min_ops]))

    for (kseed, _mode, _clusters), r in zip(ops, results):
        kernel = generator.generate_kernel(kseed, RANDOM_PARAMS)
        out.fail(check_result(r, expected_instructions(kernel,
                                                       random_grid(kernel))))
    out.peak_rss_mb = _self_rss_mb()
    return out


# ----------------------------------------------------------------------
# harness-warm: the cache-hit path of `python -m repro.harness all`
# ----------------------------------------------------------------------

def _all_pass(engine: Engine, order: list[str], cfg: GPUConfig,
              scale: float, waves: float, spans: list[Span] | None = None,
              parent: str | None = None) -> dict[str, tuple[list, str]]:
    """One `all` pass the way the harness CLI runs it: every experiment
    through the engine, then rendered."""
    out = {}
    for exp_id in order:
        t0 = _perf()
        res = hexp.run_experiment(exp_id, config=cfg, scale=scale,
                                  waves=waves, engine=engine)
        out[exp_id] = (res.rows, hreport.render_experiment(res))
        if spans is not None:
            spans.append((f"experiment {exp_id}", t0, _perf(), parent))
    return out


def harness_warm(seed: int, seconds: float, trace: bool,
                 tiny: bool = False, workdir: Path | None = None) -> Outcome:
    cfg = GPUConfig().scaled(num_clusters=1)
    scale, waves = (0.1, 0.5) if tiny else (0.15, 1.0)
    if tiny:
        seconds = min(seconds, 1.0)
    out = Outcome(info={"clusters": 1, "scale": scale, "waves": waves,
                        "fill_jobs": 2})
    ids = sorted(hexp.EXPERIMENTS)
    order = list(ids)
    random.Random(seed).shuffle(order)
    tmp = Path(tempfile.mkdtemp(prefix="warm-", dir=workdir))
    tracer = LayerTracer() if trace else None
    clock = out.clock
    try:
        fills, fill_marks = [], []
        clock.probe()
        for i in range(1 if trace else SETUP_REPEATS):
            cache_dir = tmp / f"cache{i}"
            t0 = _perf()
            engine = Engine(jobs=2, cache_dir=cache_dir)
            if tracer is not None:
                with tracer.installed():
                    cold = _all_pass(engine, ids, cfg, scale, waves)
            else:
                cold = _all_pass(engine, ids, cfg, scale, waves)
            fill_marks.append((t0, _perf()))
            clock.probe()
            out.fail([f"cold fill: {f.describe()}"
                      for f in engine.failures])
            fills.append(cold)
        out.set_setup(fill_marks)
        for other in fills[:-1]:
            out.fail([] if other == cold else
                     ["cold fills into fresh caches disagree"])

        def warm(n_min: int, budget: float,
                 spans: list[Span] | None = None):
            """Timed warm passes; each is checked against the cold fill
            between passes and then dropped, so the heap does not grow
            from pass to pass."""
            marks, checks, sims = [], [], 0
            t_end = _perf() + budget
            while len(marks) < n_min or _perf() < t_end:
                name = f"pass {len(marks)}"
                t0 = _perf()
                engine = Engine(jobs=1, cache_dir=cache_dir)
                p = _all_pass(engine, order, cfg, scale, waves, spans, name)
                marks.append((t0, _perf()))
                clock.probe()
                if spans is not None:
                    spans.append((name, t0, marks[-1][1], None))
                sims += engine.stats.sims + len(engine.failures)
                checks += [[] if p[exp_id] == cold[exp_id] else
                           [f"warm {exp_id} differs from its cold fill"]
                           for exp_id in ids]
            return marks, checks, sims

        budget = seconds / 2 if trace else seconds
        marks, checks, sims = warm(3, budget)
        out.set_timed(marks)
        if tracer is not None:
            with tracer.installed():
                t_marks, t_checks, t_sims = warm(3, budget, out.spans)
            out.layers = layer_metrics(tracer)
            out.layers["trace.overhead_pct"] = _overhead_pct(
                out.lat_s, clock.scale(t_marks))
            checks += t_checks
            sims += t_sims

        # -- checks (untimed) ------------------------------------------
        for problems in checks:
            out.fail(problems)
        out.fail([] if sims == 0 else
                 [f"{sims} simulations ran in warm passes"])
        served: list[tuple[RunSpec, RunResult]] = []
        engine = Engine(jobs=1, cache_dir=cache_dir,
                        progress=lambda ev: served.append(
                            (ev.spec, ev.result)))
        _all_pass(engine, ids, cfg, scale, waves)
        for spec, res in served:
            out.fail(_check_spec(spec, res))
        out.instructions = len(marks) * sum(r.instructions
                                          for _s, r in served)
        out.info["results_per_pass"] = len(served)
        out.info["fig8_mae_pct"] = _rows_fig8_mae(cold)
        if tracer is not None:
            out.layers.update(model_summary([r for _s, r in served]))
            out.layers["model.fig8_mae_pct"] = out.info["fig8_mae_pct"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out.peak_rss_mb = _self_rss_mb()
    return out


def _rows_fig8_mae(passes: dict[str, tuple[list, str]]) -> float:
    """fig8_mae_pct from the fig8c/fig8d rows of an `all` pass."""
    errs = [abs(row["improvement_pct"] - FIG8_PAPER_PCT[row["app"]])
            for exp_id in ("fig8c", "fig8d")
            for row in passes[exp_id][0]]
    return sum(errs) / len(errs)


# ----------------------------------------------------------------------
# service-mix: closed-loop clients against `repro serve`
# ----------------------------------------------------------------------

_SERVICE_CLIENTS = 2
_SERVICE_MIN_JOBS = 200
#: Seconds of each load segment; the host is probed between segments,
#: when no job is in flight.  The probes are recorded but service times
#: are not scaled by them: a job's latency is mostly the server's
#: coalescing and long-poll waits, which do not slow with the host, and
#: scaling the whole latency made five runs spread 0.12 of the median
#: where the unscaled latency spread 0.02.
_SERVICE_SEGMENT_S = 2.0
#: Two jobs per distinct (app, mode, scale) spec: 30 pairs × 16 scales.
_SERVICE_JOB_LIST = 960


def service_jobs(seed: int, n: int = _SERVICE_JOB_LIST) -> list[RunSpec]:
    """Small registry-app specs; every other job repeats a recent digest.

    New specs come in rounds that hold each (app, mode) pair once, with
    a seeded order and scale, so every run sees the same mix of sizes.
    """
    cfg = GPUConfig().scaled(num_clusters=1)
    pairs = [(app, mode) for app in SET1 + SET2
             for mode in (unshared("lrr"),
                          FIG8C_MODE if app in SET1 else FIG8D_MODE)]
    rng = random.Random(seed)
    scales = {}
    for app, mode in pairs:
        scales[app, mode.label] = rng.sample(range(10, 26), 16)
    uniques: list[RunSpec] = []
    jobs: list[RunSpec] = []
    rounds = 0
    while len(jobs) < n and rounds < 16:
        order = list(pairs)
        rng.shuffle(order)
        for app, mode in order:
            scale = scales[app, mode.label][rounds] / 100.0
            uniques.append(RunSpec.create(APPS[app], mode, config=cfg,
                                          scale=scale, waves=1.0))
            jobs.append(uniques[-1])
            jobs.append(rng.choice(uniques[-8:]))
        rounds += 1
    return jobs[:n]


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class _Server:
    """One ``repro serve`` subprocess with its own store and cache."""

    def __init__(self, workdir: Path, trace_out: Path | None) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="svc-", dir=workdir))
        self.port = _free_port()
        launcher = Path(__file__).resolve().parent / "serve.py"
        argv = [sys.executable, str(launcher)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--port", str(self.port), "--db",
                 str(self.dir / "jobs.sqlite"), "--jobs", "1",
                 "--cache-dir", str(self.dir / "cache")]
        self.log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.client = ServiceClient(port=self.port, timeout=10.0)
        self.rusage = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.proc.returncode} on start-up")
            try:
                self.client.healthz()
                return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("server not ready within "
                           f"{timeout:.0f}s")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and reap with ``wait4``, which also
        yields the server's resource usage; returns the exit code."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGTERM)
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.rusage = usage
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.monotonic() > deadline:
                    self.kill()
                    return -1
                time.sleep(0.01)
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


@dataclass
class _Job:
    index: int
    start: float             #: perf_counter at submit
    latency: float
    submit_s: float
    wait_s: float
    t_submit: float          #: wall clock (time.time) at submit
    job_id: str | None
    payload: dict | None
    error: str | None = None


def _drive(server: _Server, jobs: list[RunSpec], budget: float,
           min_jobs: int, clock: HostClock
           ) -> tuple[list[_Job], list[tuple[float, float]]]:
    """Closed loop: each client submits, waits for the result, repeats.

    The load runs in segments of :data:`_SERVICE_SEGMENT_S` with a
    host-speed probe between them; returns the jobs and the segments'
    (start, end).
    """
    lock = threading.Lock()
    nxt = [0]
    done: list[_Job] = []
    segments: list[tuple[float, float]] = []
    t_end = _perf() + budget
    clients = [ServiceClient(port=server.port, client_id=f"bench{cid}",
                             timeout=60.0)
               for cid in range(_SERVICE_CLIENTS)]

    def client_loop(client: ServiceClient, seg_end: float) -> None:
        while True:
            with lock:
                if nxt[0] >= len(jobs) or _perf() >= seg_end:
                    return
                i = nxt[0]
                nxt[0] += 1
            t_wall = time.time()
            t0 = _perf()
            job_id = payload = err = None
            t1 = t0
            try:
                job_id = client.submit(jobs[i])["id"]
                t1 = _perf()
                payload = client.wait(job_id, timeout=60.0)
                client.parse(payload)
            except AdmissionRejected as exc:
                err = f"job {i}: refused ({exc.reason})"
            except Exception as exc:   # any failure is a failed job
                err = f"job {i}: {type(exc).__name__}: {exc}"
            t2 = _perf()
            with lock:
                done.append(_Job(i, t0, t2 - t0, t1 - t0, t2 - t1, t_wall,
                                 job_id, payload, err))

    clock.probe()
    while nxt[0] < len(jobs) and (nxt[0] < min_jobs or _perf() < t_end):
        t0 = _perf()
        threads = [threading.Thread(target=client_loop,
                                    args=(c, t0 + _SERVICE_SEGMENT_S))
                   for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        segments.append((t0, _perf()))
        clock.probe()
    done.sort(key=lambda j: j.index)
    return done, segments


def _check_jobs(out: Outcome, jobs: list[RunSpec], done: list[_Job],
                first: dict[str, dict]) -> list[RunResult]:
    results = []
    for j in done:
        spec = jobs[j.index]
        if j.error is not None:
            out.fail([j.error])
            continue
        problems = []
        res = ServiceClient.parse(j.payload)
        if not isinstance(res, RunResult):
            problems.append(f"job {j.index}: run failed remotely")
        else:
            d = spec.digest()
            if j.payload.get("digest") != d:
                problems.append(f"job {j.index}: digest mismatch")
            body = j.payload["result"]
            if first.setdefault(d, body) != body:
                problems.append(f"job {j.index}: repeat of a digest "
                                f"returned a different result")
            problems += _check_spec(spec, res)
            results.append(res)
        out.fail(problems)
    return results


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(q) - 1]


def _service_layers(server: _Server, done: list[_Job]) -> dict[str, float]:
    """Server-side timings from the job records and ``/metrics``."""
    records = {}
    for cid in range(_SERVICE_CLIENTS):
        for rec in server.client.jobs(client=f"bench{cid}", limit=100000):
            records[rec["id"]] = rec
    queue, run_ms, delivery = [], [], []
    for j in done:
        rec = records.get(j.job_id)
        if rec is None or rec.get("finished_at") is None:
            continue
        if rec.get("started_at") is not None:
            queue.append((rec["started_at"] - rec["submitted_at"]) * 1e3)
            run_ms.append((rec["finished_at"] - rec["started_at"]) * 1e3)
        delivery.append((j.latency - (rec["finished_at"] - j.t_submit))
                        * 1e3)
    series = {}
    for line in server.client.metrics_text().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    batch_n = series.get("service_batch_jobs_count", 0.0)
    return {
        "service.client.submit_ms_p50": statistics.median(
            j.submit_s * 1e3 for j in done),
        "service.client.wait_ms_p50": statistics.median(
            j.wait_s * 1e3 for j in done),
        "service.queue_wait_ms_p50": _pct(queue, 50),
        "service.queue_wait_ms_p95": _pct(queue, 95),
        "service.run_ms_p50": _pct(run_ms, 50),
        "service.delivery_ms_p50": _pct(delivery, 50),
        "service.batch_jobs_mean": (series.get("service_batch_jobs_sum", 0.0)
                                    / batch_n if batch_n else 0.0),
        "service.batches": series.get("service_batches_total", 0.0),
    }


def service_mix(seed: int, seconds: float, trace: bool,
                tiny: bool = False, workdir: Path | None = None) -> Outcome:
    jobs = service_jobs(seed, 60 if tiny else _SERVICE_JOB_LIST)
    min_jobs = 20 if tiny else _SERVICE_MIN_JOBS
    if tiny:
        seconds = min(seconds, 1.0)
    out = Outcome(info={"clients": _SERVICE_CLIENTS, "clusters": 1,
                        "waves": 1.0, "engine_jobs": 1,
                        "repeat_share": 0.5})
    workdir = Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
    servers: list[_Server] = []
    clock = out.clock
    starts: list[tuple[float, float]] = []

    def start(trace_out: Path | None = None) -> _Server:
        if not clock.probes:
            clock.probe()
        t0 = _perf()
        server = _Server(workdir, trace_out)
        servers.append(server)
        server.wait_ready()
        starts.append((t0, _perf()))
        clock.probe()
        return server

    def stop(server: _Server) -> None:
        rc = server.stop()
        out.fail([] if rc == 0 else [f"server exited with {rc}"])
        if server.rusage is not None:
            out.peak_rss_mb = server.rusage.ru_maxrss / 1024.0

    try:
        first: dict[str, dict] = {}
        if not trace:
            for _ in range(SETUP_REPEATS - 1):
                stop(start())
            server = start()
            done, segments = _drive(server, jobs, seconds, min_jobs, clock)
            stop(server)
        else:
            server = start()
            done, segments = _drive(server, jobs, seconds / 2,
                                    min_jobs // 4, clock)
            stop(server)
            peak_rss_mb = out.peak_rss_mb
            trace_file = workdir / "server-layers.json"
            server = start(trace_file)
            tracer = LayerTracer()
            with tracer.installed():
                t_done, _ = _drive(server, jobs, seconds / 2,
                                   min_jobs // 4, clock)
            layers = _service_layers(server, t_done)
            stop(server)
            out.peak_rss_mb = peak_rss_mb     # the untraced server's
            out.layers = layer_metrics(
                tracer, extra=json.loads(trace_file.read_text()))
            out.layers.update(layers)
            out.layers["trace.overhead_pct"] = _overhead_pct(
                [j.latency for j in done], [j.latency for j in t_done])
            out.spans = [(f"job {j.index}", j.start, j.start + j.latency,
                          None) for j in t_done]
            _check_jobs(out, jobs, t_done, first)
        results = _check_jobs(out, jobs, done, first)
        if trace:
            out.layers.update(model_summary(results[:min_jobs // 4]))
        # Unscaled (see _SERVICE_SEGMENT_S).
        out.setup_s = out.raw_setup_s = _lat(starts)
        out.lat_s = out.raw_lat_s = [j.latency for j in done
                                     if j.error is None]
        out.timed_s = out.raw_timed_s = sum(_lat(segments))
        out.instructions = sum(r.instructions for r in results)
        out.info["jobs"] = len(done)
        out.info["unique_digests"] = len(first)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order.  A workload
#: that does not exercise a layer reports 0 for it.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("sim.gpu.run_s", "s"), ("sim.gpu.loop_s", "s"),
    ("sim.gpu.init_s", "s"), ("sim.attributed_frac", "ratio"),
    ("sim.sm.step_s", "s"), ("sim.sm.step_calls", "count"),
    ("sim.sm.issue_yield", "ratio"),
    ("events.run_due_s", "s"), ("events.run_due_calls", "count"),
    ("events.fired", "count"), ("events.wakes_pushed", "count"),
    ("mem.try_load_s", "s"), ("mem.try_load_calls", "count"),
    ("mem.load_reject_ratio", "ratio"), ("mem.store_s", "s"),
    ("mem.dram_access_s", "s"), ("mem.dram_access_calls", "count"),
    ("core.locks.acquire_s", "s"), ("core.locks.acquire_calls", "count"),
    ("core.locks.acquire_success_ratio", "ratio"),
    ("sim.dispatcher.block_done_s", "s"),
    ("workloads.build_s", "s"), ("core.unroll_s", "s"),
    ("core.plan_s", "s"),
    ("harness.engine.spec_create_s", "s"), ("harness.engine.digest_s", "s"),
    ("harness.engine.digest_calls", "count"),
    ("harness.engine.cache_get_s", "s"),
    ("harness.engine.cache_hit_ratio", "ratio"),
    ("harness.engine.cache_put_s", "s"),
    ("harness.engine.run_batch_s", "s"),
    ("sim.stats.to_dict_s", "s"), ("sim.stats.from_dict_s", "s"),
    ("harness.experiments.self_s", "s"), ("harness.report.render_s", "s"),
    ("service.client.submit_ms_p50", "ms"),
    ("service.client.wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"), ("service.queue_wait_ms_p95", "ms"),
    ("service.run_ms_p50", "ms"), ("service.delivery_ms_p50", "ms"),
    ("service.batch_jobs_mean", "count"), ("service.batches", "count"),
    ("model.ipc_mean", "instr/cycle"), ("model.stall_frac", "ratio"),
    ("mem.l1_miss_rate", "ratio"), ("mem.dram_row_hit_rate", "ratio"),
    ("core.locks.lock_acquires", "count"), ("model.fig8_mae_pct", "pp"),
    ("trace.overhead_pct", "%"),
)


def _merge(a: dict, b: dict) -> dict:
    out = {k: dict(v) for k, v in a.items()}
    for layer, d in b.items():
        cur = out.setdefault(layer, {"total_s": 0.0, "child_s": 0.0,
                                     "self_s": 0.0, "calls": 0,
                                     "useful": 0})
        for k in ("total_s", "child_s", "self_s", "calls", "useful"):
            cur[k] += d[k]
    return out


def layer_metrics(tracer: LayerTracer,
                  extra: dict | None = None) -> dict[str, float]:
    """Map the tracer's aggregates (plus ``extra`` aggregates from a
    traced server) onto the :data:`PER_LAYER` names."""
    layers = tracer.layers()
    if extra:
        layers = _merge(layers, extra)
    zero = {"total_s": 0.0, "child_s": 0.0, "self_s": 0.0, "calls": 0,
            "useful": 0}

    def g(layer: str) -> dict:
        return layers.get(layer, zero)

    def ratio(n: float, d: float) -> float:
        return n / d if d else 0.0

    locks = [g("core.locks.reg_acquire"), g("core.locks.spad_acquire")]
    lock_calls = sum(x["calls"] for x in locks)
    gpu_run, step, load = g("sim.gpu.run"), g("sim.sm.step"), \
        g("mem.try_load")
    inner = (step["self_s"] + g("events.run_due")["self_s"]
             + g("events.push_wake")["self_s"] + load["self_s"]
             + g("mem.store")["self_s"] + g("mem.dram_access")["self_s"]
             + g("sim.dispatcher.block_done")["self_s"]
             + gpu_run["self_s"])
    return {
        "sim.gpu.run_s": gpu_run["total_s"],
        "sim.gpu.loop_s": gpu_run["self_s"],
        "sim.gpu.init_s": g("sim.gpu.init")["self_s"],
        "sim.attributed_frac": ratio(inner, gpu_run["total_s"]),
        "sim.sm.step_s": step["self_s"],
        "sim.sm.step_calls": step["calls"],
        "sim.sm.issue_yield": ratio(step["useful"], step["calls"]),
        "events.run_due_s": (g("events.run_due")["self_s"]
                             + g("events.push_wake")["self_s"]),
        "events.run_due_calls": g("events.run_due")["calls"],
        "events.fired": g("events.run_due")["useful"],
        "events.wakes_pushed": g("events.push_wake")["calls"],
        "mem.try_load_s": load["self_s"],
        "mem.try_load_calls": load["calls"],
        "mem.load_reject_ratio": (ratio(load["calls"] - load["useful"],
                                        load["calls"])),
        "mem.store_s": g("mem.store")["self_s"],
        "mem.dram_access_s": g("mem.dram_access")["self_s"],
        "mem.dram_access_calls": g("mem.dram_access")["calls"],
        "core.locks.acquire_s": sum(x["self_s"] for x in locks),
        "core.locks.acquire_calls": lock_calls,
        "core.locks.acquire_success_ratio": ratio(
            sum(x["useful"] for x in locks), lock_calls),
        "sim.dispatcher.block_done_s":
            g("sim.dispatcher.block_done")["self_s"],
        "workloads.build_s": g("workloads.build")["self_s"],
        "core.unroll_s": g("core.unroll")["self_s"],
        "core.plan_s": g("core.plan")["self_s"],
        "harness.engine.spec_create_s":
            g("harness.engine.spec_create")["self_s"],
        "harness.engine.digest_s": g("harness.engine.digest")["self_s"],
        "harness.engine.digest_calls": g("harness.engine.digest")["calls"],
        "harness.engine.cache_get_s": g("harness.engine.cache_get")["self_s"],
        "harness.engine.cache_hit_ratio": ratio(
            g("harness.engine.cache_get")["useful"],
            g("harness.engine.cache_get")["calls"]),
        "harness.engine.cache_put_s": g("harness.engine.cache_put")["self_s"],
        "harness.engine.run_batch_s": g("harness.engine.run_batch")["self_s"],
        "sim.stats.to_dict_s": g("sim.stats.to_dict")["self_s"],
        "sim.stats.from_dict_s": g("sim.stats.from_dict")["self_s"],
        "harness.experiments.self_s": g("harness.experiments")["self_s"],
        "harness.report.render_s": g("harness.report.render")["self_s"],
    }
