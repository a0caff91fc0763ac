"""The paper's evaluation as a table of experiment registrations.

Every table and figure (DESIGN.md §5 has the index) is one
:func:`_register` call: its id, title and a builder made by one *row
kind* from the figure's apps and modes.  The kinds are

* :func:`_vs_base` — baseline vs one sharing mode (Figs. 8(c)/(d), 10);
* :func:`_per_mode` — one column per mode (Figs. 9(a)/(b), 12, Tables
  V/VII);
* :func:`_static` — simulation-free per-app rows (Fig. 1, Figs.
  8(a)/(b), Tables VI/VIII);
* bespoke builders: the Fig. 9(c)/(d) cycle taxonomy, the Fig. 11
  doubling and the Sec. V overhead.  The ``ext_*`` experiments of
  :mod:`repro.harness.extensions` register the same way.

:func:`run_experiment` runs one by id.  Its rows carry both our
measurement and, where available, the paper's reported value —
EXPERIMENTS.md is generated from these.

Defaults are laptop-scale: 4 SM clusters instead of 14 and ``waves=3``
grid waves.  Per-SM resources are untouched, so every occupancy/sharing
decision matches the full Table I machine; pass
``config=GPUConfig()`` for the full-size run.

Simulation-backed kinds build one :class:`RunSpec` batch per experiment
and submit it to an :class:`Engine` (``engine=`` kwarg, default the
process-wide engine), so runs dedupe, parallelise (``--jobs``/
``REPRO_JOBS``) and hit the content-addressed result cache across
figures — the ``Unshared-LRR`` baseline is simulated once no matter how
many artifacts reference it.  A run the engine isolated as a
:class:`~repro.harness.resilience.RunFailure` renders as a
``FAIL:<category>`` cell instead of crashing the figure; the full
records are on ``engine.failures``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.config import GPUConfig
from repro.core.occupancy import occupancy
from repro.core.overhead import overhead_summary
from repro.core.sharing import SharedResource, SharingSpec, plan_sharing
from repro.harness.engine import Engine, RunSpec, default_engine
from repro.harness.runner import Mode, improvement, shared, unshared
from repro.isa.kernel import Kernel
from repro.workloads.apps import APPS, App
from repro.workloads.suites import SET1, SET2, SET3

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]

REG = SharedResource.REGISTERS
SPAD = SharedResource.SCRATCHPAD
LRR = unshared("lrr")
#: The full register-sharing stack and the scratchpad-sharing mode of
#: the headline figures.
REG_FULL = shared(REG, "owf", unroll=True, dyn=True)
SPAD_OWF = shared(SPAD, "owf")

#: The t-sweep of Tables V-VIII: sharing% = (1-t)*100.
SHARING_PCTS = (0, 10, 30, 50, 70, 90)


@dataclass
class ExperimentResult:
    """Rows reproducing one paper artifact."""

    id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""


@dataclass(frozen=True)
class _Setting:
    """What one experiment runs on: machine, kernel scale, grid waves
    and engine (``None``: the process-wide engine, made on first use)."""

    cfg: GPUConfig
    scale: float
    waves: float
    engine: Engine | None

    def spec(self, app: App, mode: Mode) -> RunSpec:
        return RunSpec.create(app, mode, config=self.cfg, scale=self.scale,
                              waves=self.waves)

    def run(self, specs: list[RunSpec]) -> list:
        engine = self.engine if self.engine is not None else default_engine()
        return engine.run_batch(specs)

    def grid(self, apps: Sequence[App], modes: Sequence[Mode]) -> list[list]:
        """Every (app, mode) pair as ONE engine batch: ``grid[i][j]`` is
        app i under mode j.  Positional, because the modes of a t-sweep
        share one label."""
        res = self.run([self.spec(a, m) for a in apps for m in modes])
        n = len(modes)
        return [res[i:i + n] for i in range(0, len(res), n)]


Rows = list[dict]


@dataclass(frozen=True)
class Experiment:
    """One registered artifact; ``build`` makes its rows, whose keys (in
    order) are the columns.  ``config`` and ``waves`` are the defaults
    when the caller gives none."""

    title: str
    build: Callable[[_Setting], Rows]
    notes: str = ""
    config: GPUConfig = GPUConfig().scaled(num_clusters=4)
    waves: float = 3.0


EXPERIMENTS: dict[str, Experiment] = {}


def _register(exp_id: str, title: str, build: Callable[[_Setting], Rows],
              notes: str = "", **defaults) -> None:
    EXPERIMENTS[exp_id] = Experiment(title, build, notes, **defaults)


def run_experiment(exp_id: str, *, config: GPUConfig | None = None,
                   scale: float = 1.0, waves: float | None = None,
                   engine: Engine | None = None) -> ExperimentResult:
    """Run a registered experiment by id (e.g. ``"fig8c"``)."""
    try:
        exp = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(f"unknown experiment {exp_id!r}; "
                         f"available: {sorted(EXPERIMENTS)}") from None
    rows = exp.build(_Setting(config if config is not None else exp.config,
                              scale, exp.waves if waves is None else waves,
                              engine))
    return ExperimentResult(exp_id, exp.title,
                            list(rows[0]) if rows else [], rows, exp.notes)


def _pct_t(pct: int) -> float:
    """Sharing percentage → threshold t; 0 % means t = 1 (no sharing)."""
    return 1.0 - pct / 100.0


# -- failure-tolerant cell helpers -------------------------------------

def _fail(*rs) -> str | None:
    """The ``FAIL:<category>`` cell of the first failed run, else None;
    a cell is ``_fail(<its runs>) or <its value>``."""
    for r in rs:
        if not getattr(r, "ok", True):
            return f"FAIL:{r.category}"
    return None


def _ipc(r):
    return _fail(r) or round(r.ipc, 2)


def _impr(base, new):
    return _fail(base, new) or round(improvement(base, new), 2)


# -- row kinds -----------------------------------------------------------
#
# A kind takes app names and resolves them in ``APPS`` when it runs, so
# a registry entry replaced after import is the one simulated.

def _apps(names: Sequence[str]) -> list[App]:
    return [APPS[n] for n in names]


def _vs_base(names: Sequence[str], base: Mode, new: Mode,
             paper: str | None = None) -> Callable[[_Setting], Rows]:
    """Per app: IPC under ``base`` and ``new`` and the % improvement,
    plus ``App.paper[paper]`` as ``paper_pct`` when given."""
    def build(s: _Setting) -> Rows:
        apps = _apps(names)
        rows = []
        for app, (b, n) in zip(apps, s.grid(apps, [base, new])):
            row = {"app": app.name, "ipc_base": _ipc(b),
                   "ipc_shared": _ipc(n), "improvement_pct": _impr(b, n)}
            if paper:
                row["paper_pct"] = app.paper.get(paper)
            rows.append(row)
        return rows
    return build


def _per_mode(names: Sequence[str], columns: dict[str, Mode],
              base: Mode | None = None) -> Callable[[_Setting], Rows]:
    """Per app, one column per mode: its IPC or, given ``base``, its %
    IPC improvement over ``base``."""
    modes = ([base] if base else []) + list(columns.values())

    def build(s: _Setting) -> Rows:
        apps = _apps(names)
        rows = []
        for app, runs in zip(apps, s.grid(apps, modes)):
            ref = runs.pop(0) if base else None
            rows.append({"app": app.name, **{
                col: _impr(ref, r) if base else _ipc(r)
                for col, r in zip(columns, runs)}})
        return rows
    return build


def _labelled(*modes: Mode) -> dict[str, Mode]:
    return {m.label: m for m in modes}


def _t_sweep(resource: SharedResource, **flags) -> dict[str, Mode]:
    """The Tables V-VIII columns: one mode per sharing percentage."""
    return {f"{p}%": shared(resource, "owf", t=_pct_t(p), **flags)
            for p in SHARING_PCTS}


def _static(names: Sequence[str],
            row: Callable[[App, Kernel, GPUConfig], dict]
            ) -> Callable[[_Setting], Rows]:
    """Simulation-free per-app rows: ``row(app, kernel, cfg)`` gives
    the cells after ``app``."""
    return lambda s: [{"app": a.name, **row(a, a.kernel(s.scale), s.cfg)}
                      for a in _apps(names)]


def _occupancy_row(app: App, kernel: Kernel, cfg: GPUConfig) -> dict:
    occ = occupancy(kernel, cfg)
    return {"set": app.set_id, "blocks": occ.blocks,
            "limiter": occ.limiter,
            "reg_waste_pct": round(occ.register_waste_pct, 2),
            "smem_waste_pct": round(occ.scratchpad_waste_pct, 2)}


def _blocks_row(resource: SharedResource):
    """Fig. 8(a)/(b): resident blocks without and with sharing (t=0.1)."""
    def row(app: App, kernel: Kernel, cfg: GPUConfig) -> dict:
        plan = plan_sharing(kernel, cfg, SharingSpec(resource, 0.1))
        return {"blocks_unshared": plan.baseline,
                "blocks_shared": plan.total,
                "paper_unshared": app.paper.get("blocks_base"),
                "paper_shared": app.paper.get("blocks_shared")}
    return row


def _blocks_sweep_row(resource: SharedResource):
    """Tables VI/VIII: resident blocks at each sharing percentage."""
    return lambda app, kernel, cfg: {
        f"{p}%": plan_sharing(kernel, cfg,
                              SharingSpec(resource, _pct_t(p))).total
        for p in SHARING_PCTS}


#: Fig. 9(c)/(d) columns after ``app``.
_CYCLE_COLUMNS = ("idle_decrease_pct", "stall_decrease_pct",
                  "base_latency_waits", "shared_latency_waits",
                  "base_structural", "shared_structural")


def _cycles(names: Sequence[str], new: Mode) -> Callable[[_Setting], Rows]:
    """Fig. 9(c)/(d) cycle taxonomy, mapped onto the paper's buckets.

    The paper's *idle* cycle is "all the available warps are issued, but
    no warp is ready to execute" — warps waiting on in-flight latencies.
    In our taxonomy that is the **stall** bucket (scoreboard/memory
    waits).  The paper's *stall* is a pipeline stall — our *structural*
    hazards (MSHR exhaustion).  The columns below use the paper's names
    with that mapping; raw bucket counts are included for transparency.
    """
    def dec(b: int, n: int) -> float:
        return round(100.0 * (b - n) / b, 2) if b else 0.0

    def cells(b, n) -> tuple:
        fail = _fail(b, n)
        if fail:
            return (fail,) * len(_CYCLE_COLUMNS)
        bs, ns = (sum(x.mshr_stalls for x in r.sm_stats) for r in (b, n))
        return (dec(b.stall_cycles, n.stall_cycles), dec(bs, ns),
                b.stall_cycles, n.stall_cycles, bs, ns)

    def build(s: _Setting) -> Rows:
        apps = _apps(names)
        return [{"app": app.name, **dict(zip(_CYCLE_COLUMNS, cells(b, n)))}
                for app, (b, n) in zip(apps, s.grid(apps, [LRR, new]))]
    return build


def _doubling(names: Sequence[str], resource_field: str, ipc_col: str,
              new: Mode) -> Callable[[_Setting], Rows]:
    """Fig. 11: LRR on a machine with twice ``resource_field`` vs
    ``new`` on the real machine, both on the real machine's grid."""
    def build(s: _Setting) -> Rows:
        apps = _apps(names)
        big = replace(s.cfg, **{resource_field:
                                2 * getattr(s.cfg, resource_field)})
        specs = []
        for app in apps:
            grid = max(1, round(s.waves * s.cfg.num_sms * occupancy(
                app.kernel(s.scale), s.cfg).blocks))
            specs += [RunSpec.create(app, LRR, config=big, scale=s.scale,
                                     grid_blocks=grid),
                      RunSpec.create(app, new, config=s.cfg, scale=s.scale,
                                     grid_blocks=grid)]
        res = s.run(specs)
        return [{"app": app.name, ipc_col: _ipc(b), "ipc_shared": _ipc(n),
                 "shared_wins": _fail(b, n) or n.ipc >= b.ipc}
                for app, b, n in zip(apps, res[::2], res[1::2])]
    return build


def _overhead(s: _Setting) -> Rows:
    return [{"quantity": k, "value": v}
            for k, v in overhead_summary(s.cfg).items()]


# -- the paper's tables and figures -------------------------------------

_register("fig1", "Fig 1: resident thread blocks and resource waste",
          _static(SET1 + SET2, _occupancy_row),
          "Set-1 rows reproduce Fig 1(a)/(b) (blocks, register waste); "
          "Set-2 rows reproduce Fig 1(c)/(d).")
_register("fig8a", "Fig 8(a): resident thread blocks (register sharing)",
          _static(SET1, _blocks_row(REG)))
_register("fig8b", "Fig 8(b): resident thread blocks (scratchpad sharing)",
          _static(SET2, _blocks_row(SPAD)))
_register("fig8c", "Fig 8(c): % IPC improvement, register sharing "
          "(Shared-OWF-Unroll-Dyn vs Unshared-LRR)",
          _vs_base(SET1, LRR, REG_FULL, paper="fig8_impr"))
_register("fig8d", "Fig 8(d): % IPC improvement, scratchpad sharing "
          "(Shared-OWF vs Unshared-LRR)",
          _vs_base(SET2, LRR, SPAD_OWF, paper="fig8_impr"))
_register("fig9a", "Fig 9(a): register sharing ablation (% IPC vs "
          "Unshared-LRR)",
          _per_mode(SET1, _labelled(
              shared(REG, "lrr"),                          # NoOpt
              shared(REG, "lrr", unroll=True),             # Unroll
              shared(REG, "lrr", unroll=True, dyn=True),   # Unroll-Dyn
              REG_FULL), base=LRR))
_register("fig9b", "Fig 9(b): scratchpad sharing ablation (% IPC vs "
          "Unshared-LRR)",
          _per_mode(SET2, _labelled(shared(SPAD, "lrr"), SPAD_OWF),
                    base=LRR))
_register("fig9c", "Fig 9(c): % decrease in stall and idle cycles "
          "(register sharing)", _cycles(SET1, REG_FULL),
          "Column mapping: the paper's 'idle' = warps waiting on in-flight "
          "latencies (our stall bucket); the paper's 'stall' = "
          "pipeline/structural stalls (our MSHR rejections).")
_register("fig9d", "Fig 9(d): % decrease in stall and idle cycles "
          "(scratchpad sharing)", _cycles(SET2, SPAD_OWF),
          "Column mapping as in fig9c.")
_register("fig10a", "Fig 10(a): scratchpad sharing vs Unshared-GTO",
          _vs_base(SET2, unshared("gto"), SPAD_OWF))
_register("fig10b", "Fig 10(b): register sharing vs Unshared-GTO",
          _vs_base(SET1, unshared("gto"), REG_FULL))
_register("fig10c", "Fig 10(c): register sharing vs Unshared-2LV",
          _vs_base(SET1, unshared("two_level"), REG_FULL))
_register("fig10d", "Fig 10(d): scratchpad sharing vs Unshared-2LV",
          _vs_base(SET2, unshared("two_level"), SPAD_OWF))
_register("fig11a", "Fig 11(a): IPC, 2x registers (LRR) vs register sharing",
          _doubling(SET1, "registers_per_sm", "ipc_2x_regs", REG_FULL),
          "Paper: sharing at 32K registers beats the 64K-register LRR "
          "baseline on 5 of 8 applications.")
_register("fig11b", "Fig 11(b): IPC, 2x scratchpad (LRR) vs scratchpad "
          "sharing",
          _doubling(SET2, "scratchpad_per_sm", "ipc_2x_smem", SPAD_OWF))
_register("fig12a", "Fig 12(a): Set-3 IPC (register sharing variants)",
          _per_mode(SET3, _labelled(
              LRR, shared(REG, "lrr", unroll=True, dyn=True),
              unshared("gto"), shared(REG, "gto", unroll=True, dyn=True),
              REG_FULL)),
          "Paper: Shared-LRR == Unshared-LRR and Shared-GTO == "
          "Unshared-GTO exactly (no extra blocks are launched); "
          "Shared-OWF tracks Unshared-GTO.")
_register("fig12b", "Fig 12(b): Set-3 IPC (scratchpad sharing variants)",
          _per_mode(SET3, _labelled(
              LRR, shared(SPAD, "lrr"), unshared("gto"),
              shared(SPAD, "gto"), SPAD_OWF)))
_register("table5", "Table V: IPC vs % register sharing",
          _per_mode(SET1, _t_sweep(REG, unroll=True, dyn=True)))
_register("table6", "Table VI: resident blocks vs % register sharing",
          _static(SET1, _blocks_sweep_row(REG)))
_register("table7", "Table VII: IPC vs % scratchpad sharing",
          _per_mode(SET2, _t_sweep(SPAD)))
_register("table8", "Table VIII: resident blocks vs % scratchpad sharing",
          _static(SET2, _blocks_sweep_row(SPAD)))
_register("hw_overhead", "Sec. V: storage overhead (bits)", _overhead,
          "Register sharing additionally needs one comparator per "
          "scheduler for the Fig. 3/4 steps (b) and (c).",
          config=GPUConfig())
