"""Top-level CLI.

Subcommands::

    python -m repro analyze <app|file.kasm>       static kernel profile
    python -m repro run <app> [--mode ...]        simulate one app
    python -m repro trace <app> [--mode ...]      print an issue timeline
    python -m repro disasm <app>                  dump assembly listing
    python -m repro list                          registered apps & modes
    python -m repro serve                         run the simulation service
    python -m repro submit <app> [--mode ...]     queue a run on a service
    python -m repro jobs [id]                     list/poll/cancel jobs

(Per-figure experiment reproduction lives in ``python -m repro.harness``;
the service's API and semantics are documented in docs/service.md.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import analyze, format_analysis
from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.cli import add_engine_args, engine_kwargs, positive_int
from repro.harness.runner import shared, unshared
from repro.isa.assembler import assemble, disassemble
from repro.isa.kernel import Kernel
from repro.workloads.apps import APPS

_MODES = {
    "lrr": lambda: unshared("lrr"),
    "gto": lambda: unshared("gto"),
    "two_level": lambda: unshared("two_level"),
    "shared-reg": lambda: shared(SharedResource.REGISTERS, "owf",
                                 unroll=True, dyn=True),
    "shared-reg-er": lambda: shared(SharedResource.REGISTERS, "owf",
                                    unroll=True, early_release=True),
    "shared-reg-noopt": lambda: shared(SharedResource.REGISTERS, "lrr"),
    "shared-spad": lambda: shared(SharedResource.SCRATCHPAD, "owf"),
}


def _load_kernel(spec: str) -> Kernel:
    """An app name from the registry, or a path to a .kasm file."""
    if spec in APPS:
        return APPS[spec].kernel()
    path = Path(spec)
    if path.is_file():
        return assemble(path.read_text())
    raise SystemExit(f"unknown app or missing file: {spec!r} "
                     f"(apps: {', '.join(sorted(APPS))})")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m repro")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top-20 "
                        "functions by cumulative time to stderr")
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="static kernel profile")
    pa.add_argument("kernel")
    pa.add_argument("-t", type=float, default=0.1,
                    help="sharing threshold (default 0.1)")

    pr = sub.add_parser("run", help="simulate one app/kernel")
    pr.add_argument("kernel")
    pr.add_argument("--mode", choices=sorted(_MODES), default="lrr")
    pr.add_argument("--clusters", type=int, default=4)
    pr.add_argument("--scale", type=float, default=1.0)
    pr.add_argument("--waves", type=float, default=6.0)
    add_engine_args(pr)
    pr.add_argument("--max-cycles", type=positive_int, default=2_000_000,
                    help="simulation cycle limit (default 2,000,000)")
    pr.add_argument("--fail-fast", action="store_true",
                    help="re-raise failures instead of reporting them")
    pr.add_argument("--sanitize", action="store_true",
                    help="validate runtime invariants during the run")
    pr.add_argument("--trace", metavar="OUT.json", default=None,
                    help="write a Chrome trace-event timeline (load in "
                         "Perfetto / chrome://tracing; a .jsonl suffix "
                         "selects the line-stream form); bypasses the "
                         "result cache")
    pr.add_argument("--metrics", action="store_true",
                    help="collect the observability metrics registry and "
                         "print a warp-state breakdown")
    pr.add_argument("--json", action="store_true",
                    help="emit the full RunResult payload as JSON on "
                         "stdout (same envelope the service returns)")

    ps = sub.add_parser("serve", help="run the simulation job service")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8070,
                    help="listen port (0 = ephemeral; default 8070)")
    ps.add_argument("--db", default="repro-jobs.sqlite",
                    help="SQLite job-store path (default "
                         "./repro-jobs.sqlite)")
    add_engine_args(ps)
    ps.add_argument("--batch-max", type=int, default=16,
                    help="max jobs coalesced into one engine batch")
    ps.add_argument("--batch-wait", type=float, default=0.05,
                    help="batch coalescing window in seconds")
    ps.add_argument("--max-queue", type=int, default=256,
                    help="admission control: max queued jobs before "
                         "submissions get 429")
    ps.add_argument("--max-queued-bytes", type=int, default=8 << 20,
                    help="admission control: max queued spec bytes")
    ps.add_argument("--rate-limit", type=float, default=0.0,
                    help="per-client submissions/sec (0 = unlimited)")
    ps.add_argument("--rate-burst", type=int, default=20,
                    help="per-client token-bucket burst")

    pu = sub.add_parser("submit", help="queue a run on a service")
    pu.add_argument("kernel", help="registry app name (ad-hoc .kasm "
                                   "kernels cannot run remotely)")
    pu.add_argument("--mode", choices=sorted(_MODES), default="lrr")
    pu.add_argument("--clusters", type=int, default=4)
    pu.add_argument("--scale", type=float, default=1.0)
    pu.add_argument("--waves", type=float, default=6.0)
    pu.add_argument("--max-cycles", type=int, default=2_000_000)
    pu.add_argument("--metrics", action="store_true",
                    help="collect the metrics registry on the service")
    pu.add_argument("--priority", type=int, default=0,
                    help="higher runs sooner (FIFO within a priority)")
    pu.add_argument("--sanitize", action="store_true",
                    help="run under the runtime invariant sanitizer")
    pu.add_argument("--host", default="127.0.0.1")
    pu.add_argument("--port", type=int, default=8070)
    pu.add_argument("--client", default="cli",
                    help="client id for rate limiting / job listings")
    pu.add_argument("--wait", action="store_true",
                    help="block until the job finishes and print the "
                         "result")
    pu.add_argument("--wait-timeout", type=float, default=300.0,
                    help="seconds to wait with --wait (default 300)")
    pu.add_argument("--json", action="store_true",
                    help="print the job record / result payload as JSON")

    pj = sub.add_parser("jobs", help="list/poll/cancel service jobs")
    pj.add_argument("id", nargs="?", default=None,
                    help="job id (omit to list jobs)")
    pj.add_argument("--host", default="127.0.0.1")
    pj.add_argument("--port", type=int, default=8070)
    pj.add_argument("--state", default=None,
                    help="filter listings by state")
    pj.add_argument("--client", dest="client_filter", default=None,
                    help="filter listings by client id")
    pj.add_argument("--limit", type=int, default=50)
    pj.add_argument("--cancel", action="store_true",
                    help="cancel the given queued job")
    pj.add_argument("--wait", action="store_true",
                    help="block until the given job finishes and print "
                         "the result")
    pj.add_argument("--wait-timeout", type=float, default=300.0)
    pj.add_argument("--json", action="store_true",
                    help="print raw JSON records")

    pd = sub.add_parser("disasm", help="dump assembly listing")
    pd.add_argument("kernel")

    pt = sub.add_parser("trace", help="print an issue timeline")
    pt.add_argument("kernel")
    pt.add_argument("--mode", choices=sorted(_MODES), default="lrr")
    pt.add_argument("--first", type=int, default=40,
                    help="issues to show (default 40)")
    pt.add_argument("--sm", type=int, default=0)

    sub.add_parser("list", help="registered apps and run modes")

    args = p.parse_args(argv)

    if args.profile:
        from repro.profiling import profiled
        return profiled(_dispatch, args)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.cmd == "list":
        print("apps: ", ", ".join(sorted(APPS)))
        print("modes:", ", ".join(sorted(_MODES)))
        return 0

    if args.cmd == "analyze":
        print(format_analysis(analyze(_load_kernel(args.kernel),
                                      t=args.t)))
        return 0

    if args.cmd == "disasm":
        print(disassemble(_load_kernel(args.kernel)), end="")
        return 0

    if args.cmd == "trace":
        from repro.core.occupancy import occupancy
        from repro.harness.runner import run
        from repro.sim.trace import TraceRecorder
        kernel = _load_kernel(args.kernel)
        cfg = GPUConfig().scaled(num_clusters=1)
        tr = TraceRecorder(max_events=200_000)
        res = run(kernel, _MODES[args.mode](), config=cfg,
                  grid_blocks=max(2, 2 * occupancy(kernel, cfg).blocks),
                  obs=tr)
        print(tr.timeline(sm=args.sm, first=args.first))
        print(f"... {res.instructions} instructions in {res.cycles} "
              f"cycles (IPC {res.ipc:.2f})")
        return 0

    if args.cmd == "serve":
        return _cmd_serve(args)
    if args.cmd == "submit":
        return _cmd_submit(args)
    if args.cmd == "jobs":
        return _cmd_jobs(args)

    # run — registry apps honour --scale; .kasm files run as written
    import json as _json

    from repro.harness.engine import Engine, RunSpec
    from repro.harness.resilience import RunFailure
    from repro.service.serialize import failure_payload, result_payload
    target = APPS.get(args.kernel) or _load_kernel(args.kernel)
    cfg = GPUConfig().scaled(num_clusters=args.clusters)
    mode = _MODES[args.mode]()
    engine = Engine(**engine_kwargs(args), fail_fast=args.fail_fast,
                    sanitize=args.sanitize or None)
    spec = RunSpec.create(target, mode, config=cfg,
                          scale=args.scale, waves=args.waves,
                          max_cycles=args.max_cycles,
                          trace=args.trace, metrics=args.metrics)
    res = engine.run_one(spec)
    if isinstance(res, RunFailure):
        if args.json:
            print(_json.dumps(failure_payload(res), indent=2))
        print(f"RUN FAILED [{res.category}] {res.app} [{res.mode}]: "
              f"{res.exception_type} after {res.attempts} attempt(s)\n"
              f"  {res.message}", file=sys.stderr)
        return 1
    cached = bool(engine.stats.hits)
    if args.json:
        # The exact envelope the service returns for this spec — the
        # service client and this flag share one serializer, so local
        # and remote artifacts diff cleanly.
        print(_json.dumps(result_payload(
            res, digest=spec.digest(), cached=cached,
            elapsed=engine.stats.sim_time, spec=spec.to_dict()),
            indent=2))
        return 0
    _print_result_summary(
        res, f"on {args.clusters} clusters", cached)
    if res.metrics is not None:
        _print_warp_state_breakdown(res.metrics)
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _print_result_summary(res, where: str, cached: bool) -> None:
    """Headline-number block shared by ``run`` and the service verbs."""
    s = res.summary()
    suffix = " (cached)" if cached else ""
    print(f"{res.kernel} [{res.mode}] {where}:{suffix}")
    for key in ("ipc", "cycles", "instructions", "stall_cycles",
                "idle_cycles", "max_resident_blocks", "l1_miss_rate",
                "l2_miss_rate", "dram_requests"):
        v = s[key]
        print(f"  {key:20s} {v:.4g}" if isinstance(v, float)
              else f"  {key:20s} {v}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, ServiceServer
    cfg = ServiceConfig(
        host=args.host, port=args.port, db_path=args.db,
        batch_max=args.batch_max, batch_wait=args.batch_wait,
        max_queue_depth=args.max_queue,
        max_queued_bytes=args.max_queued_bytes,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst)
    server = ServiceServer(cfg, engine_opts=engine_kwargs(args))
    print(f"repro service: db={cfg.db_path} "
          f"batch_max={cfg.batch_max} max_queue={cfg.max_queue_depth}"
          + (f" (recovered {server.recovered} stranded jobs)"
             if server.recovered else ""))
    # run() blocks until SIGTERM/SIGINT, then drains gracefully.
    server.run()
    print(f"repro service: drained and stopped "
          f"(listened on {args.host}:{server.port})")
    return 0


def _build_submit_spec(args: argparse.Namespace):
    from repro.harness.engine import RunSpec
    if args.kernel not in APPS:
        raise SystemExit(
            f"unknown app {args.kernel!r}: the service only runs "
            f"registry apps (ad-hoc kernels do not survive JSON); "
            f"apps: {', '.join(sorted(APPS))}")
    cfg = GPUConfig().scaled(num_clusters=args.clusters)
    return RunSpec.create(APPS[args.kernel], _MODES[args.mode](),
                          config=cfg, scale=args.scale, waves=args.waves,
                          max_cycles=args.max_cycles,
                          metrics=args.metrics)


def _print_wire_payload(payload: dict, as_json: bool) -> int:
    """Render a service result payload (shared by submit/jobs --wait)."""
    import json as _json

    from repro.service.serialize import parse_result
    if as_json:
        print(_json.dumps(payload, indent=2))
        return 0 if payload.get("ok") else 1
    if payload.get("ok"):
        res = parse_result(payload)
        _print_result_summary(res, f"digest {payload.get('digest')}",
                              bool(payload.get("cached")))
        return 0
    if payload.get("cancelled"):
        print("job was cancelled before it ran", file=sys.stderr)
        return 1
    f = payload.get("failure", {})
    print(f"JOB FAILED [{f.get('category')}] {f.get('app')} "
          f"[{f.get('mode')}]: {f.get('exception_type')} after "
          f"{f.get('attempts')} attempt(s)\n  {f.get('message')}",
          file=sys.stderr)
    return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import AdmissionRejected, ServiceClient
    spec = _build_submit_spec(args)
    client = ServiceClient(args.host, args.port, client_id=args.client)
    try:
        job = client.submit(spec, priority=args.priority,
                            sanitize=args.sanitize)
    except AdmissionRejected as exc:
        print(f"submission rejected ({exc.reason}); retry after "
              f"{exc.retry_after:.3g}s", file=sys.stderr)
        return 2
    if not args.wait:
        if args.json:
            print(_json.dumps({"job": job}, indent=2))
        else:
            print(f"queued {job['id']} ({job['app']} [{job['mode']}], "
                  f"priority {job['priority']}, digest "
                  f"{job['digest'][:16]}…)")
        return 0
    payload = client.wait(job["id"], timeout=args.wait_timeout)
    return _print_wire_payload(payload, args.json)


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(args.host, args.port)
    try:
        if args.id is None:
            jobs = client.jobs(state=args.state,
                               client=args.client_filter,
                               limit=args.limit)
            if args.json:
                print(_json.dumps({"jobs": jobs}, indent=2))
                return 0
            if not jobs:
                print("no jobs")
                return 0
            print(f"{'ID':16s} {'STATE':9s} {'PRI':>3s} "
                  f"{'APP':12s} {'MODE':18s} CLIENT")
            for j in jobs:
                print(f"{j['id']:16s} {j['state']:9s} "
                      f"{j['priority']:>3d} {str(j['app']):12s} "
                      f"{str(j['mode']):18s} {j['client']}")
            return 0
        if args.cancel:
            client.cancel(args.id)
            print(f"cancelled {args.id}")
            return 0
        if args.wait:
            payload = client.wait(args.id, timeout=args.wait_timeout)
            return _print_wire_payload(payload, args.json)
        job = client.status(args.id)
        if args.json:
            print(_json.dumps({"job": job}, indent=2))
        else:
            print(f"{job['id']}: {job['state']} ({job['app']} "
                  f"[{job['mode']}], priority {job['priority']}, "
                  f"client {job['client']!r})")
        return 0
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _print_warp_state_breakdown(metrics: dict) -> int:
    """Fig. 10-style warp-state cycle breakdown from the registry."""
    hists = metrics.get("histograms", {})
    rows = []
    for key, h in sorted(hists.items()):
        if key.startswith("warp_state_cycles{"):
            state = key[len("warp_state_cycles{state="):-1]
            rows.append((state, h["sum"], h["count"]))
    if not rows:
        return 0
    total = sum(r[1] for r in rows) or 1
    print("warp-state cycles (all warps):")
    for state, tot, count in sorted(rows, key=lambda r: -r[1]):
        print(f"  {state:18s} {tot:>12d}  ({100.0 * tot / total:5.1f}%  "
              f"over {count} intervals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
