"""Engine flags shared by ``repro run``, ``repro serve`` and
``python -m repro.harness``.

The five flags declared here mean the same thing on every CLI and map
one-to-one onto :class:`~repro.harness.engine.Engine` arguments.  Flags
whose meaning differs per CLI (``--max-cycles``, ``--trace``,
``--metrics``, ``--sanitize``, ``--fail-fast``) stay with their CLI but
reuse the range validators below, so a nonsense value exits 2 with an
argparse message before any run starts.  A malformed ``REPRO_JOBS``
(the ``--jobs`` default) exits 2 the same way, in :func:`engine_kwargs`.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.harness.engine import default_jobs
from repro.harness.resilience import RetryPolicy

__all__ = ["positive_int", "positive_float", "add_engine_args",
           "engine_kwargs"]


def positive_int(text: str) -> int:
    """argparse ``type=``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse ``type=``: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Declare ``--jobs``, ``--cache-dir``, ``--no-cache``,
    ``--timeout`` and ``--retries`` on ``parser``."""
    parser.add_argument("--jobs", type=positive_int, default=None,
                        help="simulation worker processes (default: "
                             "$REPRO_JOBS or CPU count; 1 = in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--timeout", type=positive_float, default=None,
                        help="per-run wall-clock budget in seconds (hung "
                             "workers are killed and recorded as "
                             "timeouts)")
    parser.add_argument("--retries", type=positive_int, default=None,
                        help="max attempts for transient failures "
                             "(default 3)")


def engine_kwargs(args: argparse.Namespace) -> dict:
    """:class:`~repro.harness.engine.Engine` keyword arguments for the
    flags :func:`add_engine_args` declared.  Without ``--jobs`` the
    engine reads ``REPRO_JOBS``; a malformed value prints one line to
    stderr and exits 2 here, before any run starts."""
    if args.jobs is None:
        try:
            default_jobs()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    return {"jobs": args.jobs, "cache": not args.no_cache,
            "cache_dir": args.cache_dir, "timeout": args.timeout,
            "retry": (RetryPolicy(max_attempts=args.retries)
                      if args.retries is not None else None)}
