"""Golden-file regression layer for the deterministic experiments.

The sim-free experiments (occupancy, Eq. 4 block counts, overhead bits)
are exact reproductions of paper tables and must never drift.  Their
canonical outputs are committed in ``golden_data.json``;
:func:`check_goldens` re-runs them and reports any mismatch.  The same
file pins, under :data:`TINY_KEY`, the rows of *every* experiment on a
one-cluster machine at scale 0.15 and one grid wave (simulations
included, a few seconds; :func:`collect_tiny`), so a harness refactor
cannot change what any table says.  Regenerate with
``python -m repro.harness.golden`` after an *intentional* change.

A second golden layer pins the *simulator core* itself:
``golden_core.json`` holds full :class:`RunResult` fingerprints for a
small app × mode matrix (:func:`core_matrix`), captured from the
original scan-based core before the event-driven fast core existed.
Both cores must reproduce every fingerprint bit-for-bit
(``tests/test_core_equivalence.py``), so the two implementations cannot
drift — jointly or individually — without the suite failing.
Regenerating this file is almost never correct: it amounts to declaring
a new simulation semantics.  If a model change intentionally alters
results, regenerate with ``python -m repro.harness.golden --core`` and
say so loudly in the commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterator

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.engine import Engine
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import Mode, run, shared, unshared
from repro.workloads.apps import APPS

__all__ = ["GOLDEN_EXPERIMENTS", "TINY_KEY", "collect", "collect_tiny",
           "check_goldens", "golden_path",
           "CORE_APPS", "core_matrix", "core_config", "collect_core",
           "check_core_goldens", "golden_core_path"]

#: Deterministic, simulation-free experiments safe to pin exactly.
GOLDEN_EXPERIMENTS = ("fig1", "fig8a", "fig8b", "table6", "table8",
                      "hw_overhead")

#: Key of the every-experiment section of ``golden_data.json``.
TINY_KEY = "all_tiny"

# ---------------------------------------------------------------------------
# simulator-core fingerprints
# ---------------------------------------------------------------------------

#: Apps in the core matrix and the kernel scale each runs at (chosen so
#: the matrix exercises register locks, Dyn refusals, MSHR-retry storms
#: (BFS) and scratchpad locks while staying a few-second job).
CORE_APPS: dict[str, float] = {
    "MUM": 0.25,
    "hotspot": 0.25,
    "BFS": 0.1,
    "SRAD1": 0.25,
    "CONV1": 0.25,
}
_REG_APPS = ("MUM", "hotspot", "BFS")
_SPAD_APPS = ("SRAD1", "CONV1")
_SCHEDS = ("lrr", "gto", "two_level", "owf")


def core_config() -> GPUConfig:
    """Machine used for the core fingerprints (2 clusters keeps it fast)."""
    return GPUConfig().scaled(num_clusters=2)


def core_matrix() -> Iterator[tuple[str, Mode]]:
    """(app, mode) pairs covered by ``golden_core.json``."""
    for app in CORE_APPS:
        for s in _SCHEDS:
            yield app, unshared(s)
    for app in _REG_APPS:
        for s in _SCHEDS:
            yield app, shared(SharedResource.REGISTERS, s)
            yield app, shared(SharedResource.REGISTERS, s, dyn=True)
    for app in _SPAD_APPS:
        for s in _SCHEDS:
            yield app, shared(SharedResource.SCRATCHPAD, s)
    for app in ("MUM", "hotspot"):
        yield app, shared(SharedResource.REGISTERS, "owf",
                          unroll=True, dyn=True)
        yield app, shared(SharedResource.REGISTERS, "owf",
                          unroll=True, early_release=True)


def core_key(app: str, mode: Mode) -> str:
    """Golden-file key of one matrix cell."""
    return f"{app}|{mode.label}"


def collect_core(core: str = "fast", *, sanitize: bool = False) -> dict:
    """Run the full core matrix on ``core``; key → RunResult dict."""
    cfg = core_config()
    out: dict[str, dict] = {}
    for app, mode in core_matrix():
        res = run(APPS[app], mode, config=cfg, scale=CORE_APPS[app],
                  waves=1.0, sanitize=sanitize, core=core)
        out[core_key(app, mode)] = res.to_dict()
    return out


def check_core_goldens(core: str = "fast") -> list[str]:
    """Run the matrix on ``core`` and diff against ``golden_core.json``."""
    path = golden_core_path()
    if not path.is_file():
        return [f"core golden file missing: {path}"]
    want = json.loads(path.read_text())
    got = collect_core(core)
    problems: list[str] = []
    for key, w in want.items():
        g = got.get(key)
        if g is None:
            problems.append(f"{key}: not produced by core matrix")
        elif g != w:
            problems.append(f"{key}: core {core!r} diverges from golden")
    for key in got:
        if key not in want:
            problems.append(f"{key}: missing from golden file")
    return problems


def golden_path() -> Path:
    """Location of the committed golden data."""
    return Path(__file__).with_name("golden_data.json")


def golden_core_path() -> Path:
    """Location of the committed simulator-core fingerprints."""
    return Path(__file__).with_name("golden_core.json")


def collect() -> dict:
    """Run every golden experiment on the Table I machine."""
    cfg = GPUConfig()
    out: dict[str, list[dict]] = {}
    for exp_id in GOLDEN_EXPERIMENTS:
        res = run_experiment(exp_id, config=cfg)
        out[exp_id] = res.rows
    return out


def collect_tiny() -> dict:
    """Every experiment's rows on one cluster, scale 0.15, one wave,
    simulated afresh (no result cache)."""
    cfg = GPUConfig().scaled(num_clusters=1)
    engine = Engine(jobs=1, cache=False)
    return {exp_id: run_experiment(exp_id, config=cfg, scale=0.15,
                                   waves=1.0, engine=engine).rows
            for exp_id in sorted(EXPERIMENTS)}


def _diff_rows(label: str, got: list[dict], want: list[dict]) -> list[str]:
    problems = [f"{label} row {i}: {w!r} -> {g!r}"
                for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        problems.append(f"{label}: row count {len(want)} -> {len(got)}")
    return problems


def check_goldens() -> list[str]:
    """Compare current outputs against the committed goldens.

    Returns a list of human-readable mismatch descriptions (empty =
    everything matches).
    """
    path = golden_path()
    if not path.is_file():
        return [f"golden file missing: {path}"]
    want = json.loads(path.read_text())
    got = collect()
    problems: list[str] = []
    for exp_id in GOLDEN_EXPERIMENTS:
        if exp_id not in want:
            problems.append(f"{exp_id}: missing from golden file")
        else:
            problems += _diff_rows(exp_id, got[exp_id], want[exp_id])
    want_tiny = want.get(TINY_KEY, {})
    got_tiny = collect_tiny()
    for exp_id in sorted(set(want_tiny) | set(got_tiny)):
        if exp_id not in want_tiny:
            problems.append(f"{TINY_KEY} {exp_id}: missing from golden file")
        elif exp_id not in got_tiny:
            problems.append(f"{TINY_KEY} {exp_id}: no such experiment")
        else:
            problems += _diff_rows(f"{TINY_KEY} {exp_id}", got_tiny[exp_id],
                                   want_tiny[exp_id])
    return problems


def regenerate() -> Path:
    """Rewrite the golden file from the current implementation."""
    path = golden_path()
    data = {**collect(), TINY_KEY: collect_tiny()}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def regenerate_core() -> Path:
    """Rewrite the core fingerprints (see module docstring: rarely right).

    Captured from the *reference* core so the oracle, not the optimised
    path, defines the semantics being pinned.
    """
    path = golden_core_path()
    path.write_text(
        json.dumps(collect_core("reference"), indent=1, sort_keys=True)
        + "\n")
    return path


if __name__ == "__main__":  # pragma: no cover
    if "--core" in sys.argv[1:]:
        print(f"wrote {regenerate_core()}")
    else:
        print(f"wrote {regenerate()}")
