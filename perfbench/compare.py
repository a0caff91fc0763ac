"""Compare the benchmark results of two commits.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` wrote (``--out``) for
one commit; untraced files are grouped by workload.  For every workload
× end-to-end metric of ``BENCHMARK.json`` this prints both sides'
median and quartiles, the share of run pairs the change won, and a
verdict:

``improved``
    the change wins at least nine tenths of all pairs (ties count for
    neither side) and the medians differ by more than the distance
    between the parent's quartiles;
``no worse``
    the change's median is not worse than the parent's by more than the
    metric's bound, and the parent's own spread is within the bound;
``worse``
    the change's median is worse by more than the bound and the parent
    wins at least nine tenths of the pairs;
``unresolved``
    anything else — for example a spread wider than the bound, unless
    every run of the change reads better than every run of the parent.

Pairs are formed in seed order, so run both commits with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced result files of one commit, by workload, in seed order."""
    runs: dict[str, list[dict]] = {}
    for f in sorted(directory.glob("*.json")):
        rec = json.loads(f.read_text())
        man = rec.get("manifest", {})
        if man.get("traced"):
            continue
        runs.setdefault(man["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: (r["manifest"]["seed"],
                                 r["manifest"]["time"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    won = wins / len(pairs) if pairs else 0.0
    a1, am, a3 = quartiles(a)
    _b1, bm, _b3 = quartiles(b)
    change = sign * (bm - am)             # > 0: the change is better
    spread = (a3 - a1) / abs(am) if am else float("inf")
    if pairs and won >= 0.9 and abs(bm - am) > a3 - a1:
        return "improved", won
    worse_by = -change / abs(am) if am else 0.0
    if worse_by > bound:
        if pairs and losses / len(pairs) >= 0.9:
            return "worse", won
        return "unresolved", won
    if spread <= bound or (b and a and (
            min(b) > max(a) if better == "higher" else max(b) < min(a))):
        return "no worse", won
    return "unresolved", won


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = load(args.parent), load(args.change)
    worse = False
    print(f"{'workload':13s} {'metric':18s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>5s}  verdict")
    for workload in sorted(set(old) | set(new)):
        a_runs, b_runs = old.get(workload, []), new.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:13s} missing on one side")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            v, won = verdict(a, b, m["better"], m["bound"])
            worse |= v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:13s} {name:18s} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>30s} "
                  f"{won:5.2f}  {v} ({len(a)} vs {len(b)} runs)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
