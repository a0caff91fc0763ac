#!/usr/bin/env python
"""Random-kernel fuzz net for the engine's resilience layer.

Generates deterministic random kernels (``repro.workloads.generator``),
runs each under a few representative modes with the runtime invariant
sanitizer enabled, and reports every failure the engine isolated.  Any
failure — a sanitizer violation, a deadlock, a crash — exits nonzero,
so CI catches invariant regressions on inputs no curated app exercises.

Usage::

    PYTHONPATH=src python scripts/chaos_fuzz.py --kernels 20 --jobs 2
"""

from __future__ import annotations

import argparse
import sys

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.engine import Engine, RunSpec
from repro.harness.resilience import BatchReport
from repro.harness.runner import shared, unshared
from repro.workloads.generator import generate_kernel


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
    args = p.parse_args(argv)

    cfg = GPUConfig().scaled(num_clusters=1)
    modes = [
        unshared("lrr"),
        unshared("gto"),
        unshared("two_level"),
        shared(SharedResource.REGISTERS, "owf", unroll=True, dyn=True),
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
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
