#!/usr/bin/env python
"""Cell-interleaved A/B timing of two source trees on benchmark cells.

    python scripts/ab_cells.py TREE_A TREE_B [--passes 4] [--seed 31] [--tiny]
    python scripts/ab_cells.py TREE_A TREE_B --random-mix [--passes 16]

``TREE_A`` and ``TREE_B`` are checkouts of this repository (say, the
parent commit unpacked with ``git archive`` and the working tree).  One
long-lived worker process per tree puts that tree's ``src/`` first on
``sys.path`` and imports ``repro`` from it once, so import and warm-up
costs stay out of the timings.  The 30 Fig. 8(c)/(d) cells
(``fig_cells(seed)`` from each tree's ``perfbench/workloads.py``: the 15
Set-1/Set-2 apps under Unshared-LRR and under the figure's sharing
mode, run at perfbench's fig-sweep size: 4 clusters, scale 1.0, waves 3)
run alternately on the two workers in ABBA order: cell k of a pass runs
on A first when k is even and on B first when k is odd, so a change of
host speed during a pass hits both trees alike.  Each cell's time is
the worker's process CPU time inside ``runner.run``.

Prints one line per pass with both CPU totals and the ratio A / B
(above 1: B is faster), then the median ratio.  Every cell's
``RunResult`` is compared between the trees; the script exits 1 if any
differs.  ``--tiny`` runs the cells on 1 cluster at scale 0.15 and
waves 1 (a smoke run of a few seconds).

``--random-mix`` times perfbench's random-mix ops instead: the op list
of ``random_ops(seed)`` from each tree's ``perfbench/workloads.py``,
each op a generated kernel (``RANDOM_PARAMS``) run on a grid of
``random_grid`` blocks, timed from kernel generation to result as
perfbench times it.  A pass is the next 150 ops of the list (8 with
``--tiny``), run in the same ABBA order.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path


#: Ops per pass in ``--random-mix`` mode (normal, ``--tiny``).
MIX_OPS = (150, 8)


def worker(src: str) -> None:
    """Serve ``cells`` and ``run`` requests, one JSON line each."""
    sys.path[:0] = [src, str(Path(src).parent / "perfbench")]
    import time

    import workloads as bench

    from repro.config import GPUConfig
    from repro.harness.runner import run
    from repro.workloads import APPS
    from repro.workloads.generator import generate_kernel

    def fig_cells(seed: int, tiny: bool) -> list:
        if tiny:
            cfg, scale, waves = GPUConfig().scaled(num_clusters=1), 0.15, 1.0
        else:
            cfg, scale, waves = GPUConfig().scaled(num_clusters=4), 1.0, 3.0
        return [(f"{a} {m.label}",
                 partial(run, APPS[a], m, config=cfg, scale=scale,
                         waves=waves))
                for a, m in bench.fig_cells(seed)]

    def mix_ops(seed: int, n: int) -> list:
        cfgs = {c: GPUConfig().scaled(num_clusters=c) for c in (1, 2)}

        def op(kseed: int, mode, clusters: int):
            kernel = generate_kernel(kseed, bench.RANDOM_PARAMS)
            return run(kernel, mode, config=cfgs[clusters],
                       grid_blocks=bench.random_grid(kernel))

        return [(f"kernel {k} {m.label} x{c}", partial(op, k, m, c))
                for k, m, c in bench.random_ops(seed, n)]

    cells: list = []
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "cells":
            cells = (mix_ops(req["seed"], req["n"]) if req["n"]
                     else fig_cells(req["seed"], req["tiny"]))
            out = {"cells": [label for label, _ in cells]}
        else:
            job = cells[req["i"]][1]
            t0 = time.process_time()
            r = job()
            out = {"cpu": time.process_time() - t0, "result": r.to_dict()}
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()


class Worker:
    """A worker subprocess importing ``repro`` from one tree."""

    def __init__(self, tree: Path) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)

    def ask(self, **req) -> dict:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def close(self) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        self.proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--passes", type=int, default=4)
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--random-mix", action="store_true",
                    help="time perfbench's random-mix ops, not the "
                         "fig-sweep cells")
    args = ap.parse_args(argv)

    per_pass = MIX_OPS[args.tiny] if args.random_mix else 0
    workers = [Worker(args.tree_a.resolve()), Worker(args.tree_b.resolve())]
    try:
        labels = [w.ask(op="cells", seed=args.seed, tiny=args.tiny,
                        n=per_pass * args.passes)["cells"]
                  for w in workers]
        if labels[0] != labels[1]:
            print("the trees define different cells", file=sys.stderr)
            return 1
        cells = labels[0]
        ratios, diffs = [], 0
        for p in range(args.passes):
            cpu = [0.0, 0.0]
            lo = p * per_pass
            for i, cell in enumerate(cells[lo:lo + per_pass] if per_pass
                                     else cells, lo):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                got = {}
                for side in order:
                    got[side] = workers[side].ask(op="run", i=i)
                    cpu[side] += got[side]["cpu"]
                if got[0]["result"] != got[1]["result"]:
                    diffs += 1
                    print(f"pass {p + 1}: {cell}: results differ",
                          file=sys.stderr)
            ratios.append(cpu[0] / cpu[1])
            print(f"pass {p + 1}: A {cpu[0]:.2f} s  B {cpu[1]:.2f} s  "
                  f"A/B {ratios[-1]:.3f}", flush=True)
        unit = f"{per_pass} ops" if per_pass else f"{len(cells)} cells"
        print(f"median A/B {statistics.median(ratios):.3f} over "
              f"{len(ratios)} passes of {unit}; {diffs} differing results")
        return 1 if diffs else 0
    finally:
        for w in workers:
            w.close()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
