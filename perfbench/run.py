"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``fig-sweep``, ``random-mix``, ``harness-warm``,
``service-mix`` (see README.md in this directory).  With ``--trace 0``
the last line of standard output is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric instead.  Host times are scaled to a reference
host speed by probes taken between the timed operations (see
hostspeed.py); the unscaled figures are printed too and kept in the
result file.  A result file with a manifest goes to
``--out`` (default ``.perfbench_out``); ``perfbench/compare.py`` reads
those files.

Exit status: 0 when every check passed, 1 when a check failed (the
result line then says ``"correct": false``), 2 when the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig-sweep", "random-mix", "harness-warm", "service-mix")

#: End-to-end metrics: (name, unit), as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_kinstr_per_s", "kinstr/s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(args: argparse.Namespace, info: dict) -> dict:
    """Which code, machine and inputs produced a result file."""
    from repro.harness.engine import code_salt
    return {
        "git_rev": _git_rev(),
        "code_salt": code_salt(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "tiny": args.tiny,
        "params": info,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def end_to_end(out, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics of one untraced outcome, from its scaled
    host times or, with ``raw``, from the unscaled ones."""
    from workloads import _pct
    setup, lat, timed = ((out.raw_setup_s, out.raw_lat_s, out.raw_timed_s)
                         if raw else (out.setup_s, out.lat_s, out.timed_s))
    return {
        "setup_s": statistics.median(setup),
        "sim_kinstr_per_s": out.instructions / timed / 1e3,
        "ops_per_s": len(lat) / timed,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": _pct(lat, 95) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a seconds-long smoke run")
    ap.add_argument("--out", default=".perfbench_out",
                    help="directory for result files and scratch data")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl
    from hostspeed import REF_S

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fn = {"fig-sweep": wl.fig_sweep, "random-mix": wl.random_mix,
          "harness-warm": wl.harness_warm,
          "service-mix": wl.service_mix}[args.workload]
    kwargs = {"workdir": out_dir} if args.workload in (
        "harness-warm", "service-mix") else {}
    t0 = time.perf_counter()
    out = fn(args.seed, args.seconds, bool(args.trace), args.tiny, **kwargs)
    wall = time.perf_counter() - t0

    raw = {}
    if args.trace:
        units = dict(wl.PER_LAYER)
        values = {name: out.layers.get(name, 0) for name, _u in wl.PER_LAYER}
    else:
        units = dict(END_TO_END)
        values = end_to_end(out)
        raw = end_to_end(out, raw=True)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    ops = max(out.ops, 1)
    error_pct = 100.0 * out.failed / ops
    record = {
        "manifest": manifest(args, out.info),
        "metrics": metrics,
        "raw_metrics": raw,
        "probe_ref_s": REF_S,
        "probe_median_s": out.clock.median_probe_s(),
        "probes": out.clock.probes,
        "ops": ops,
        "failed_ops": out.failed,
        "error_pct": error_pct,
        "samples": len(out.lat_s),
        "lat_s": out.lat_s,
        "setup_samples": out.setup_s,
        "raw_lat_s": out.raw_lat_s,
        "raw_setup_samples": out.raw_setup_s,
        "wall_s": wall,
        "info": out.info,
        "problems": out.problems[:50],
    }
    if out.spans:
        t0 = min(start for _n, start, _e, _p in out.spans)
        record["spans"] = [{"name": n, "start_s": start - t0,
                            "end_s": end - t0, "parent": parent}
                           for n, start, end, parent in out.spans]
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"traced={bool(args.trace)} wall={wall:.2f}s "
          f"samples={len(out.lat_s)}")
    print(f"  host probe {out.clock.median_probe_s() * 1e3:.3f} ms "
          f"(reference {REF_S * 1e3:.3f} ms); unscaled in brackets")
    for k, m in metrics.items():
        unscaled = f"  [{raw[k]:.6g}]" if k in raw else ""
        print(f"  {k:36s} {m['value']:14.6g} {m['unit']}{unscaled}")
    extra = out.info.get("fig8_mae_pct")
    if extra is not None:
        print(f"  {'fig8_mae_pct':36s} {extra:14.6g} pp")
    print(f"  ops={ops} failed_ops={out.failed} error_pct={error_pct:.3g}")
    for p in out.problems[:10]:
        print(f"  FAILED: {p}")
    print(json.dumps({"correct": out.failed == 0, "attempted": ops,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
