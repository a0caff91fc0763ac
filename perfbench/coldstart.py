"""Cold-start probe: the set-up a user pays before simulating.

Usage::

    python perfbench/coldstart.py {fig-sweep,random-mix} SEED [--tiny]

Starts from a fresh interpreter, imports the simulator and builds the
workload's input kernels, then exits.  ``run.py`` times this process
several times and reports the median as ``setup_s``, so work moved into
import time or into kernel construction shows up there.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads
    workloads.build_inputs(argv[0], int(argv[1]), "--tiny" in argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
