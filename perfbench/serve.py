"""Start ``repro serve``, optionally under the benchmark's layer tracer.

Usage::

    python perfbench/serve.py [--trace-out FILE] <repro serve options>

Without ``--trace-out`` this is exactly ``python -m repro serve``.  With
it, the simulator, engine and serialization layers inside the server
are wrapped by :class:`tracing.LayerTracer`, and their aggregates are
written to FILE as JSON once the server has drained and stopped
(SIGTERM).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from repro.__main__ import main as repro_main
    if argv[:1] != ["--trace-out"]:
        return repro_main(["serve", *argv])
    trace_out = Path(argv[1])
    from tracing import LayerTracer
    tracer = LayerTracer()
    with tracer.installed():
        rc = repro_main(["serve", *argv[2:]])
    trace_out.write_text(json.dumps(tracer.layers()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
