#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from a ``python -m repro.harness all`` log.

Usage::

    python -m repro.harness all --jobs 2 > results.txt
    python scripts/build_experiments_md.py results.txt > EXPERIMENTS.md

Re-running ``all`` with the same settings is nearly free: the harness
serves previously simulated configurations from the on-disk result
cache (docs/engine.md), so iterating on the commentary in this script
does not redo the simulations.

The script pairs each captured experiment table, with the claim
verdicts the harness printed under it (``repro.harness.claims``), with
the paper's reported values and a short interpretation.  Verdicts come
only from the claims; the commentary here never states one.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

HEADER = """# EXPERIMENTS — paper vs. this reproduction

Every table and figure of the paper's evaluation (Sec. VI) regenerated
with `python -m repro.harness <id>`.  Measured numbers below come from
one `python -m repro.harness all` run at **{settings}** — per-SM
resources identical to the paper's Table I machine, fewer SMs and
shorter kernels for laptop-scale runtime (the sharing/occupancy
decisions are scale-invariant; IPC magnitudes are not comparable to
GPGPU-Sim's, relative effects are the target).

Reproduction contract, checked by code (`src/repro/harness/claims.py`;
`python -m repro.harness claims` exits 1 on any FAIL or XPASS):

* **Exact** claims — occupancy, waste, Eq. 4 block counts (Tables
  VI/VIII, Figs. 1/8a/8b), the Sec. V overhead bits and the identities
  between runs (Set-3, 0 % == 10 % sharing).  Scale-invariant; tier-1
  tests check them on a one-SM machine.
* **Shape** claims — IPC signs, orderings and bounds (who wins, which
  optimisation matters for which app class), written against the
  setting above.  Absolute percentages differ because the substrate is
  a simplified simulator on synthetic kernels (see DESIGN.md §2 and
  docs/workloads.md).

Each section lists its `claim PASS|FAIL|XFAIL|XPASS` lines under the
table.  XFAIL marks a known gap of docs/reproduction_notes.md; the
reason gives the measured value.

"""

#: Per-experiment commentary: paper values + how to read our numbers.
NOTES: dict[str, str] = {
    "fig1": """**Paper:** hotspot wastes 5120/32768 registers (15.6 %),
lavaMD leaves 1984 B of scratchpad idle (12.1 %); Set-1 apps are
register-limited, Set-2 scratchpad-limited.""",
    "fig8a": """**Paper:** register sharing lifts residency to 6 blocks for
backprop/hotspot/MUM/mri-q (thread cap), 8 for LIB/sgemm (block cap), 3
for b+tree/stencil.""",
    "fig8b": """**Paper:** CONV1/NW1/NW2 reach the 8-block cap; lavaMD
doubles 2→4.""",
    "fig8c": """**Paper:** the `paper_pct` column (avg ≈ 11 %).  MUM's
Dyn-driven recovery is weaker here because Dyn's SM0 sacrifice costs
proportionally more on a small machine (1 of 4 SMs vs 1 of 14 in the
paper).""",
    "fig8d": """**Paper:** the `paper_pct` column (avg 12.5 %).  Note the
paper's own Table VII implies smaller numbers for CONV1 (+4.2 %) and
SRAD2 (+7.6 %) — the prose and figures disagree.  lavaMD's scratchpad
accesses all stay in the private partition (`lock_acquires == 0`), so
its extra blocks never wait on a lock.""",
    "fig9a": """**Paper (hotspot):** +13.65 NoOpt → +15.18 Unroll → +14.58
Unroll-Dyn → +21.76 OWF-Unroll-Dyn; MUM: −0.15 → +0.08 → +6.45 → +24.14.
Dyn costs more here than in the paper: disabling all non-owner memory
on SM0 throttles a large share of a small machine (documented scale
effect).""",
    "fig9b": """**Paper:** lavaMD +28 % without any optimisation (its
extra blocks never wait) rising to +30 with OWF; CONV1/SRAD2 slightly
prefer NoOpt.""",
    "fig9c": """**Paper:** idle cycles drop for every app (up to 99 %);
stalls drop for most, rise for b+tree/stencil/mri-q.  Column mapping
(see the experiment note): the paper's *idle* = warps waiting on
in-flight latencies = our stall bucket; the paper's *stall* =
structural pipeline stalls = our MSHR rejections.""",
    "fig9d": """**Paper:** stall+idle reductions for Set-2; lavaMD is
excluded from the stall plot (zero baseline stalls).  Columns as in
fig9c.""",
    "fig10a": """**Paper:** scratchpad sharing beats GTO by up to 30 %
(lavaMD).""",
    "fig10b": """**Paper:** register sharing vs GTO improves up to 3.9 %;
GTO is already a strong baseline, so the margins are small.""",
    "fig10c": """**Paper:** up to +27.2 % over two-level.""",
    "fig10d": """**Paper:** up to +27.08 % over two-level.""",
    "fig11a": """**Paper:** sharing at 32 K registers beats a 64 K-register
LRR baseline on 5 of 8 apps (sgemm/b+tree/LIB favour the baseline).
Which apps beat a doubled-resource baseline is sensitive to cache
capacities this simulator does not model at GPGPU-Sim fidelity.""",
    "fig11b": """**Paper:** CONV1/NW1/NW2 comparable to the 32 K baseline,
lavaMD better, CONV2/SRAD1/SRAD2 worse.""",
    "fig12a": """**Paper:** Set-3 apps launch no extra blocks:
Shared-LRR == Unshared-LRR, Shared-GTO == Unshared-GTO, Shared-OWF ≈
Unshared-GTO.""",
    "fig12b": """**Paper:** the same identities for the scratchpad
variants.""",
    "table5": """**Paper:** IPC flat from 0–30 % sharing for most apps
(no extra blocks yet), rising by 70–90 %; hotspot 489.5→503.6, LIB
218.0→223.3.  At 0 % and 10 % no extra block fits, so every block
launches unshared; gains can appear only where Table VI adds blocks.""",
    "table6": """**Paper:** Table VI.  These are Eq. 4 block counts,
which depend only on resource signatures; golden-pinned.""",
    "table7": """**Paper:** lavaMD flat until 90 % then 452→579 (+28 %);
SRAD1 peaks at 50 % (229.4); NW1/NW2 drift slightly down with sharing.
A mid threshold trades a longer private prefix against fewer extra
blocks, so the best t need not be the smallest.""",
    "table8": """**Paper:** Table VIII, the scratchpad counterpart of
Table VI; golden-pinned.""",
    "hw_overhead": """**Paper formulas evaluated on Table I (T=8, W=48):**
273 bits/SM for register sharing, 93 bits/SM for scratchpad sharing —
negligible vs a 128 KB register file.  Totals scale with the SM count
(N=14 in the paper).""",
    "ext_early_release": """**Extension (paper Sec. VIII future work):**
live-range analysis hands the shared pool to the partner warp as soon as
the holder provably stops using shared registers.  Neutral on
loop-dominated kernels (pool live until the last iteration), a further
gain on kernels with register-light tails.""",
    "ext_threshold_frontier": """**Ablation:** the full t-frontier behind
Tables V–VIII; IPC follows the Eq. 4 block-count staircase, not t
itself.""",
    "ext_cache_sensitivity": """**Ablation:** the cache-contention
explanation for mri-q/LIB.  mri-q: at 8 KB both configurations thrash
and sharing gains little; at ≥16 KB the baseline fits and the shared
run's extra misses cap the gain.  LIB: larger L1s help the 4-block
baseline far more than the 8-block shared run (whose aggregate working
set still overflows), so the sharing penalty *deepens* with L1 size —
extra blocks trade cache locality for TLP exactly as the paper argues.""",
    "ext_variance_sensitivity": """**Ablation:** gains grow with per-warp
work imbalance — the drain-phase waste that block-granularity allocation
creates and warp-level handoff reclaims (the work_variance modelling
decision of DESIGN.md §4).""",
}

#: Footer line: ``[fig8c: 1.2s]`` or the engine-era form with a stats
#: suffix, ``[fig8c: 1.2s | 16 sims, 0 cache hits, jobs 4]``.
SECTION_RE = re.compile(
    r"== (?P<title>.*?) ==\n(?P<body>.*?)\n\[(?P<id>[a-z0-9_]+): "
    r"(?P<secs>[0-9.]+)s(?P<stats>[^\]]*)\]", re.S)


def build(log_text: str, settings: str) -> str:
    out = [HEADER.format(settings=settings)]
    sections = {m.group("id"): m for m in SECTION_RE.finditer(log_text)}
    order = [k for k in NOTES if k in sections] + \
        [k for k in sections if k not in NOTES]
    for exp_id in order:
        m = sections[exp_id]
        out.append(f"## {exp_id} — {m.group('title')}\n")
        note = NOTES.get(exp_id)
        if note:
            out.append(note + "\n")
        out.append("```")
        out.append(m.group("body").strip())
        out.append("```")
        out.append(f"*(regenerated in {float(m.group('secs')):.0f}s by "
                   f"`python -m repro.harness {exp_id}`)*\n")
    missing = [k for k in NOTES if k not in sections]
    if missing:
        out.append(f"\n<!-- not present in this log: {missing} -->\n")
    return "\n".join(out)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    log = Path(sys.argv[1]).read_text()
    settings = sys.argv[2] if len(sys.argv) > 2 else \
        "4 SM clusters, scale 0.7, 6 grid waves"
    sys.stdout.write(build(log, settings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
