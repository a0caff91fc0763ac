"""CLI: ``python -m repro.harness <experiment-id> [...]``.

Examples::

    python -m repro.harness fig8c
    python -m repro.harness table5 --clusters 14 --scale 2 --waves 4
    python -m repro.harness all --jobs 8
    python -m repro.harness claims --jobs 2

Runs execute through the shared engine: ``--jobs N`` simulates in N
worker processes (results are bit-identical to ``--jobs 1``), and the
content-addressed result cache (``--cache-dir``, ``--no-cache``) makes
repeat invocations — e.g. re-rendering ``all`` after a report tweak —
skip every already-simulated configuration.  See docs/engine.md.

Under each table the paper's claims on that experiment are printed as
``claim PASS|FAIL|XFAIL|XPASS: <text>`` lines (``repro.harness.claims``).
``claims`` runs every experiment like ``all`` and then exits 1 if any
claim FAILs or XPASSes; the defaults are the setting the shape claims
were written against (4 clusters, scale 0.7, 6 grid waves).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from repro.config import GPUConfig
from repro.harness.claims import VERDICTS, evaluate
from repro.harness.cli import add_engine_args, engine_kwargs, positive_int
from repro.harness.engine import Engine
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import bar_chart, render_experiment


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce a paper table/figure.")
    ids = [*sorted(EXPERIMENTS), "all", "claims"]
    p.add_argument("experiment", choices=ids, metavar="experiment",
                   help=f"experiment id, 'all' or 'claims' "
                        f"({', '.join(ids)})")
    p.add_argument("--clusters", type=int, default=4,
                   help="SM clusters to simulate (paper: 14; default 4)")
    p.add_argument("--scale", type=float, default=0.7,
                   help="kernel loop-count scale factor (default 0.7)")
    p.add_argument("--waves", type=float, default=6.0,
                   help="grid waves per SM (short grids inflate "
                        "end-of-grid tail effects)")
    p.add_argument("--chart", metavar="COLUMN", default=None,
                   help="also render an ASCII bar chart of COLUMN")
    add_engine_args(p)
    p.add_argument("--max-cycles", type=positive_int, default=None,
                   help="override the per-run simulation cycle limit")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort on the first failure instead of isolating "
                        "it into an annotated FAIL cell")
    p.add_argument("--sanitize", action="store_true",
                   help="validate runtime invariants during simulation "
                        "(bypasses the result cache; see docs/resilience.md)")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top-20 "
                        "functions by cumulative time to stderr "
                        "(forces --jobs 1 so the work stays in-process)")
    p.add_argument("--metrics", action="store_true",
                   help="collect the observability metrics registry for "
                        "every run (lands on RunResult.metrics; see "
                        "docs/observability.md)")
    p.add_argument("--trace", metavar="DIR", default=None,
                   help="write one Chrome trace-event timeline per run "
                        "into DIR (load in Perfetto / chrome://tracing; "
                        "traced runs bypass the result cache)")
    args = p.parse_args(argv)

    if args.profile:
        from repro.profiling import profiled
        args.jobs = 1  # profile the simulation, not worker plumbing
        return profiled(_dispatch, args)
    return _dispatch(args)


def _counts(engine: Engine) -> tuple[int, int, int, int]:
    """The engine counters a footer reports, as deltas per experiment."""
    st = engine.stats
    return st.sims, st.hits, st.failures, st.quarantined


def _dispatch(args: argparse.Namespace) -> int:
    cfg = GPUConfig().scaled(num_clusters=args.clusters)
    engine = Engine(**engine_kwargs(args), fail_fast=args.fail_fast,
                    sanitize=args.sanitize,
                    max_cycles=args.max_cycles,
                    metrics=args.metrics, trace_dir=args.trace)
    ids = sorted(EXPERIMENTS) if args.experiment in ("all", "claims") \
        else [args.experiment]
    verdicts: Counter[str] = Counter()
    for exp_id in ids:
        t0 = time.perf_counter()
        before = _counts(engine)
        nfail0 = len(engine.failures)
        res = run_experiment(exp_id, config=cfg, scale=args.scale,
                             waves=args.waves, engine=engine)
        dt = time.perf_counter() - t0
        sims, hits, failures, quarantined = (
            now - then for now, then in zip(_counts(engine), before))
        print(render_experiment(res))
        if args.chart and res.rows and args.chart in res.rows[0]:
            label = res.columns[0]
            print(bar_chart(res.rows, label, args.chart))
            print()
        for claim, verdict in evaluate(exp_id, res.rows):
            verdicts[verdict] += 1
            print(claim.line(verdict))
        footer = (f"[{exp_id}: {dt:.1f}s | {sims} sims, {hits} cache hits, "
                  f"jobs {engine.jobs}")
        if failures:
            footer += f", {failures} failures"
        if quarantined:
            footer += f", {quarantined} quarantined"
        print(footer + "]")
        for f in engine.failures[nfail0:]:
            print(f"  FAILED: {f.describe()}", file=sys.stderr)
        print()
    if args.experiment == "claims":
        print("claims: " + ", ".join(f"{verdicts[v]} {v}" for v in VERDICTS))
        if verdicts["FAIL"] or verdicts["XPASS"]:
            return 1
    return 1 if engine.failures else 0


if __name__ == "__main__":
    sys.exit(main())
