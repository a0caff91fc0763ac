#!/usr/bin/env python
"""Random-kernel fuzz net for the engine's resilience layer.

Generates deterministic random kernels (``repro.workloads.generator``),
runs each under a few representative modes with the runtime invariant
sanitizer enabled, and reports every failure the engine isolated.  Any
failure — a sanitizer violation, a deadlock, a crash — exits nonzero,
so CI catches invariant regressions on inputs no curated app exercises.

With ``--differential`` every (kernel, mode) also runs on the reference
core (``core="reference"``, under the sanitizer); any result that differs
from the fast core's is reported and exits nonzero.

Usage::

    PYTHONPATH=src python scripts/chaos_fuzz.py --kernels 20 --jobs 2
    PYTHONPATH=src python scripts/chaos_fuzz.py --differential --kernels 10
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.engine import Engine, RunSpec
from repro.harness.resilience import BatchReport
from repro.harness.runner import run, shared, unshared
from repro.sim.stats import RunResult
from repro.workloads.generator import generate_kernel


def run_reference(spec: RunSpec) -> dict:
    """``spec`` on the reference core under the sanitizer, as a dict."""
    return run(spec.target(), spec.mode, config=spec.config,
               scale=spec.scale, waves=spec.waves,
               grid_blocks=spec.grid_blocks, max_cycles=spec.max_cycles,
               sanitize=True, core="reference").to_dict()


def differences(specs: list[RunSpec], results: list, jobs: int) -> list[str]:
    """One line per spec whose fast-core result differs from the
    reference core's (failed fast runs are already in the report)."""
    todo = [(spec, res) for spec, res in zip(specs, results)
            if isinstance(res, RunResult)]
    only = [spec for spec, _ in todo]
    if jobs > 1:
        with ProcessPoolExecutor(jobs) as pool:
            refs = list(pool.map(run_reference, only))
    else:
        refs = [run_reference(spec) for spec in only]
    return [f"{spec.kernel.name} {spec.mode.label}: fast core != "
            f"reference core"
            for (spec, res), ref in zip(todo, refs) if res.to_dict() != ref]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kernels", type=int, default=20,
                   help="random kernels to generate (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; kernel i uses seed+i (default 0)")
    p.add_argument("--jobs", type=int, default=2,
                   help="engine worker processes (default 2)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-run wall-clock budget in seconds")
    p.add_argument("--max-cycles", type=int, default=400_000,
                   help="per-run cycle limit (default 400,000)")
    p.add_argument("--differential", action="store_true",
                   help="also run every (kernel, mode) on the reference "
                        "core and fail on any result difference")
    args = p.parse_args(argv)

    cfg = GPUConfig().scaled(num_clusters=1)
    modes = [
        unshared("lrr"),
        unshared("gto"),
        unshared("two_level"),
        shared(SharedResource.REGISTERS, "owf", unroll=True, dyn=True),
        shared(SharedResource.REGISTERS, "lrr", early_release=True),
        shared(SharedResource.SCRATCHPAD, "owf"),
    ]
    specs = []
    for i in range(args.kernels):
        kernel = generate_kernel(args.seed + i, config=cfg)
        for mode in modes:
            # Scratchpad sharing needs smem; skip impossible combos the
            # same way a curated suite would (plan falls back anyway,
            # but the unshared run already covers that path).
            specs.append(RunSpec.create(kernel, mode, config=cfg,
                                        waves=1.0,
                                        max_cycles=args.max_cycles))

    engine = Engine(jobs=args.jobs, cache=False, sanitize=True,
                    timeout=args.timeout)
    results = engine.run_batch(specs)
    report = BatchReport.from_results(results)
    print(f"chaos fuzz: {args.kernels} kernels x {len(modes)} modes -> "
          f"{report.summary()}")
    diffs = []
    if args.differential:
        diffs = differences(specs, results, args.jobs)
        compared = sum(isinstance(r, RunResult) for r in results)
        print(f"differential: {compared - len(diffs)}/{compared} runs "
              f"agree with the reference core")
    if not report.ok:
        print(report.render(), file=sys.stderr)
    for line in diffs:
        print(line, file=sys.stderr)
    return 0 if report.ok and not diffs else 1


if __name__ == "__main__":
    sys.exit(main())
