"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs at ``--tiny`` size (seconds each), untraced and
traced, through the same command line the benchmark driver uses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from compare import verdict  # noqa: E402
from tracing import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, out: Path, cwd: Path = ROOT,
         script: Path = HERE / "run.py") -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         "3", "--seconds", "2", "--trace", str(trace), "--tiny", "--out",
         str(out)], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, last, proc.stdout + proc.stderr


def _result_file(out: Path, trace: int) -> dict:
    (f,) = out.glob(f"*-trace{trace}-*.json")
    return json.loads(f.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    rc, last, log = _run(workload, 0, tmp_path)
    assert rc == 0, log
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == names
    for name, m in last["metrics"].items():
        assert m["value"] > 0, name
    man = _result_file(tmp_path, 0)["manifest"]
    assert {"git_rev", "code_salt", "python", "platform", "nproc", "seed",
            "params", "traced"} <= set(man)
    assert man["traced"] is False and man["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    rc, last, log = _run(workload, 1, tmp_path)
    # correct also covers "traced and untraced simulated outputs match"
    assert rc == 0, log
    assert last["correct"] is True
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == names
    assert _result_file(tmp_path, 1)["manifest"]["traced"] is True


def test_simulated_metrics_identical_traced_and_untraced(tmp_path):
    _rc, untraced, log = _run("fig-sweep", 0, tmp_path / "a")
    assert untraced is not None, log
    _rc, traced, log = _run("fig-sweep", 1, tmp_path / "b")
    assert traced is not None, log
    mae = _result_file(tmp_path / "a", 0)["info"]["fig8_mae_pct"]
    assert traced["metrics"]["model.fig8_mae_pct"]["value"] == mae
    _rc, again, log = _run("fig-sweep", 1, tmp_path / "c")
    model = [k for k in traced["metrics"]
             if k.startswith("model.") or k in (
                 "mem.l1_miss_rate", "mem.dram_row_hit_rate",
                 "core.locks.lock_acquires")]
    assert model
    for k in model:
        assert traced["metrics"][k] == again["metrics"][k], k


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, last, _log = _run("fig-sweep", 0, tmp_path / "out", cwd=tmp_path,
                          script=tmp_path / "perfbench" / "run.py")
    assert rc != 0
    assert last is None


def test_tracer_restores_originals_and_splits_self_time():
    from repro.config import GPUConfig
    from repro.harness.runner import run, unshared
    from repro.sim.sm import SMCore
    from repro.workloads.apps import APPS
    step = SMCore.__dict__["step"]
    tracer = LayerTracer()
    with tracer.installed():
        assert SMCore.__dict__["step"] is not step
        run(APPS["NW1"], unshared("lrr"),
            config=GPUConfig().scaled(num_clusters=1), scale=0.1, waves=0.5)
    assert SMCore.__dict__["step"] is step
    layers = tracer.layers()
    gpu, sm = layers["sim.gpu.run"], layers["sim.sm.step"]
    assert sm["calls"] > 0 and 0 < sm["useful"] <= sm["calls"]
    assert gpu["child_s"] >= sm["total_s"]
    assert gpu["self_s"] == pytest.approx(gpu["total_s"] - gpu["child_s"])


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.0]
    faster = [v * 1.2 for v in parent]
    assert verdict(parent, faster, "higher", 0.1)[0] == "improved"
    assert verdict(parent, parent, "higher", 0.1)[0] == "no worse"
    assert verdict(parent, [v * 0.7 for v in parent], "higher",
                   0.1)[0] == "worse"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
