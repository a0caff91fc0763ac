"""The paper's claims, checked by code against what the harness measures.

Each :class:`Claim` is one statement of the paper's evaluation (Figs.
1 and 8-12, Tables V-VIII, the Sec. V overhead) or one known gap of this
reproduction, keyed by experiment id, with a predicate over
``ExperimentResult.rows``.  The two kinds are EXPERIMENTS.md's
reproduction contract:

* ``exact`` — scale-invariant: occupancy, Eq. 4 block counts, overhead
  bits and identities between runs.  They hold on any machine size.
* ``shape`` — IPC signs, orderings and bounds, written against the
  harness CLI's default setting (4 clusters, scale 0.7, 6 grid waves).

A claim with an ``xfail`` reason is a documented gap
(docs/reproduction_notes.md): it is expected not to hold, and holding
anyway (XPASS) is reported as loudly as a FAIL, so a fix flips it.
Paper numbers come from ``App.paper``.

``python -m repro.harness <id>`` prints one ``claim <VERDICT>: <text>``
line per claim under each table; ``python -m repro.harness claims``
runs every experiment and exits 1 on any FAIL or XPASS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness.experiments import SHARING_PCTS
from repro.workloads.apps import APPS

__all__ = ["Claim", "CLAIMS", "VERDICTS", "evaluate"]

Rows = list[dict]

#: Verdicts, in the order the ``claims`` summary lists them.
VERDICTS = ("PASS", "FAIL", "XFAIL", "XPASS")


@dataclass(frozen=True)
class Claim:
    """One paper statement and the predicate that checks it."""

    exp_id: str
    text: str
    check: Callable[[Rows], bool]
    kind: str = "shape"
    xfail: str | None = None

    def evaluate(self, rows: Rows) -> str:
        """The verdict on ``rows``.  A row the predicate cannot read (a
        ``FAIL:<category>`` cell, a missing app) means the claim does
        not hold."""
        try:
            held = bool(self.check(rows))
        except (KeyError, TypeError, ZeroDivisionError):
            held = False
        if self.xfail:
            return "XPASS" if held else "XFAIL"
        return "PASS" if held else "FAIL"

    def line(self, verdict: str) -> str:
        """The ``claim <VERDICT>: <text>`` report line."""
        gap = f" (known gap: {self.xfail})" if self.xfail else ""
        return f"claim {verdict}: {self.text}{gap}"


CLAIMS: dict[str, list[Claim]] = {}


def evaluate(exp_id: str, rows: Rows) -> list[tuple[Claim, str]]:
    """Every claim on experiment ``exp_id`` with its verdict on ``rows``."""
    return [(c, c.evaluate(rows)) for c in CLAIMS.get(exp_id, ())]


def _claim(exp_id: str, text: str, check: Callable[[Rows], bool],
           kind: str = "shape", xfail: str | None = None) -> None:
    CLAIMS.setdefault(exp_id, []).append(
        Claim(exp_id, text, check, kind, xfail))


def _at(rows: Rows, app: str, col: str = "improvement_pct"):
    """Column ``col`` of ``app``'s row."""
    return {r["app"]: r for r in rows}[app][col]


def _paper(app: str, key: str = "fig8_impr"):
    return APPS[app].paper[key]


def _wins(rows: Rows) -> int:
    return sum(1 for r in rows if r["shared_wins"] is True)


def _idle_drops(rows: Rows) -> int:
    return sum(1 for r in rows if r["idle_decrease_pct"] > 0)


# -- Fig. 1 and Fig. 8(a)/(b): occupancy and Eq. 4 -----------------------

_claim("fig1", f"hotspot: {_paper('hotspot', 'blocks_base')} resident "
       "blocks", lambda rows: _at(rows, "hotspot", "blocks")
       == _paper("hotspot", "blocks_base"), "exact")
_claim("fig1", f"hotspot wastes {_paper('hotspot', 'reg_waste_pct')} % "
       "of its registers", lambda rows: abs(
           _at(rows, "hotspot", "reg_waste_pct")
           - _paper("hotspot", "reg_waste_pct")) < 0.01, "exact")
_claim("fig1", f"lavaMD: {_paper('lavaMD', 'blocks_base')} resident "
       "blocks", lambda rows: _at(rows, "lavaMD", "blocks")
       == _paper("lavaMD", "blocks_base"), "exact")
_claim("fig1", f"lavaMD wastes {_paper('lavaMD', 'smem_waste_pct')} % "
       "of its scratchpad", lambda rows: abs(
           _at(rows, "lavaMD", "smem_waste_pct")
           - _paper("lavaMD", "smem_waste_pct")) < 0.01, "exact")
for _id in ("fig8a", "fig8b"):
    _claim(_id, "unshared resident blocks equal the paper's for every app",
           lambda rows: all(r["blocks_unshared"] == r["paper_unshared"]
                            for r in rows), "exact")
    _claim(_id, "shared resident blocks (Eq. 4) equal the paper's for "
           "every app", lambda rows: all(
               r["blocks_shared"] == r["paper_shared"] for r in rows),
           "exact")

# -- Fig. 8(c)/(d): headline IPC improvements ---------------------------

_claim("fig8c", "hotspot gains more than 10 % (paper "
       f"{_paper('hotspot'):+.2f})", lambda rows: _at(rows, "hotspot") > 10)
_claim("fig8c", "stencil gains more than 5 % (paper "
       f"{_paper('stencil'):+.2f})", lambda rows: _at(rows, "stencil") > 5)
_claim("fig8c", "b+tree gains (paper "
       f"{_paper('b+tree'):+.2f})", lambda rows: _at(rows, "b+tree") > 0)
_claim("fig8c", "LIB stays within ±8 % (paper "
       f"{_paper('LIB'):+.2f})", lambda rows: abs(_at(rows, "LIB")) < 8)
_claim("fig8c", "mri-q gains less than 15 % (paper "
       f"{_paper('mri-q'):+.2f})", lambda rows: _at(rows, "mri-q") < 15)
_claim("fig8c", "MUM gains at least half the paper's "
       f"{_paper('MUM'):+.2f} %",
       lambda rows: _at(rows, "MUM") >= _paper("MUM") / 2,
       xfail="MUM measures +0.27; see 'Dyn' in docs/reproduction_notes.md")
_claim("fig8c", "mri-q loses IPC, as in the paper "
       f"({_paper('mri-q'):+.2f})", lambda rows: _at(rows, "mri-q") < 0,
       xfail="mri-q measures +4.19")
_claim("fig8d", "lavaMD gains the most", lambda rows: max(
    rows, key=lambda r: r["improvement_pct"])["app"] == "lavaMD")
_claim("fig8d", "lavaMD gains more than 20 % (paper "
       f"{_paper('lavaMD'):+.2f})", lambda rows: _at(rows, "lavaMD") > 20)
_claim("fig8d", "no app loses more than 5 %", lambda rows: all(
    r["improvement_pct"] > -5 for r in rows))

# -- Fig. 9: optimisation ablations and cycle taxonomy ------------------

_claim("fig9a", "hotspot gains more than 5 % with no optimisation "
       "(paper +13.65)",
       lambda rows: _at(rows, "hotspot", "Shared-LRR-NoOpt") > 5,
       xfail="hotspot Shared-LRR-NoOpt measures +1.36")
_claim("fig9a", "hotspot gains more than 10 % with the full stack "
       f"(paper {_paper('hotspot'):+.2f})",
       lambda rows: _at(rows, "hotspot", "Shared-OWF-Unroll-Dyn") > 10)
_claim("fig9a", "Dyn adds to MUM's gain (paper +0.08 Unroll -> +6.45 "
       "Unroll-Dyn)", lambda rows: _at(rows, "MUM", "Shared-LRR-Unroll-Dyn")
       > _at(rows, "MUM", "Shared-LRR-Unroll"),
       xfail="MUM measures +8.44 Unroll -> -2.31 Unroll-Dyn; see 'Dyn' "
             "in docs/reproduction_notes.md")
_claim("fig9b", "lavaMD gains more than 20 % with no optimisation "
       "(paper +28)",
       lambda rows: _at(rows, "lavaMD", "Shared-LRR-NoOpt") > 20)
_claim("fig9c", "idle cycles drop for all apps but at most one",
       lambda rows: _idle_drops(rows) >= len(rows) - 1,
       xfail="idle cycles drop for 6 of 8 apps")
_claim("fig9d", "idle cycles drop for all apps but at most one",
       lambda rows: _idle_drops(rows) >= len(rows) - 1)

# -- Fig. 10: stronger baselines (GTO, two-level) -----------------------

_claim("fig10a", "lavaMD gains more than 15 % over GTO (paper: up to 30)",
       lambda rows: _at(rows, "lavaMD") > 15)
_claim("fig10b", "register sharing gains over GTO on some app (paper: up "
       "to 3.9)", lambda rows: max(r["improvement_pct"] for r in rows) > 0)
_claim("fig10c", "register sharing gains more than 10 % over two-level on "
       "some app (paper: up to 27.2)",
       lambda rows: max(r["improvement_pct"] for r in rows) > 10,
       xfail="the best app measures +9.42")
_claim("fig10d", "scratchpad sharing gains more than 10 % over two-level "
       "on some app (paper: up to 27.08)",
       lambda rows: max(r["improvement_pct"] for r in rows) > 10)

# -- Fig. 11: sharing vs doubled resources ------------------------------

_claim("fig11a", "sharing beats 2x registers on at least one app",
       lambda rows: _wins(rows) >= 1)
_claim("fig11a", "sharing reaches 75 % of the 2x-register IPC on at least "
       "6 apps", lambda rows: sum(
           1 for r in rows if r["ipc_shared"] >= 0.75 * r["ipc_2x_regs"])
       >= 6)
_claim("fig11a", "sharing beats 2x registers on at least 5 of 8 apps, as "
       "in the paper", lambda rows: _wins(rows) >= 5,
       xfail="sharing wins on 1 of 8 apps; see 'Fig. 11' in "
             "docs/reproduction_notes.md")
_claim("fig11b", "lavaMD reaches 95 % of the 2x-scratchpad IPC",
       lambda rows: _at(rows, "lavaMD", "ipc_shared")
       >= 0.95 * _at(rows, "lavaMD", "ipc_2x_smem"))
_claim("fig11b", "sharing beats 2x scratchpad on at least 2 apps",
       lambda rows: _wins(rows) >= 2)

# -- Fig. 12: Set-3, where sharing adds no blocks -----------------------

for _id, _lrr, _gto, _owf in (
        ("fig12a", "Shared-LRR-Unroll-Dyn", "Shared-GTO-Unroll-Dyn",
         "Shared-OWF-Unroll-Dyn"),
        ("fig12b", "Shared-LRR-NoOpt", "Shared-GTO", "Shared-OWF")):
    for _shared, _base in ((_lrr, "Unshared-LRR"), (_gto, "Unshared-GTO"),
                           (_owf, "Unshared-GTO")):
        _claim(_id, f"{_shared} == {_base} for every app",
               lambda rows, a=_shared, b=_base: all(r[a] == r[b]
                                                    for r in rows),
               "exact")
_claim("fig12a", "Shared-OWF-Unroll-Dyn is within 5 % of Unshared-GTO",
       lambda rows: all(
           abs(r["Shared-OWF-Unroll-Dyn"] / r["Unshared-GTO"] - 1) < 0.05
           for r in rows if r["Unshared-GTO"]))

# -- Tables V-VIII: the sharing-fraction sweeps -------------------------

for _id in ("table6", "table8"):
    _claim(_id, "resident blocks equal the paper's table, every entry",
           lambda rows: all(tuple(r[f"{p}%"] for p in SHARING_PCTS)
                            == _paper(r["app"], "blocks_sweep")
                            for r in rows), "exact")
for _id in ("table5", "table7"):
    _claim(_id, "0 % and 10 % sharing give identical IPC (no extra "
           "blocks, so every block launches unshared)",
           lambda rows: all(r["0%"] == r["10%"] for r in rows), "exact")
_claim("table7", "lavaMD gains more than 10 % at 90 % sharing (paper "
       f"{_paper('lavaMD', 'ipc_0')} -> {_paper('lavaMD', 'ipc_90')})",
       lambda rows: _at(rows, "lavaMD", "90%")
       > 1.1 * _at(rows, "lavaMD", "0%"))
_claim("table7", "lavaMD at 70 % sharing is within 5 % of 0 %",
       lambda rows: abs(_at(rows, "lavaMD", "70%") - _at(rows, "lavaMD", "0%"))
       / _at(rows, "lavaMD", "0%") < 0.05)

# -- Sec. V: storage overhead (T=8, W=48) -------------------------------


def _bits(rows: Rows, quantity: str) -> int:
    return {r["quantity"]: r["value"] for r in rows}[quantity]


for _scheme, _per_sm in (("register", 273), ("scratchpad", 93)):
    _claim("hw_overhead", f"{_scheme} sharing needs {_per_sm} bits per SM",
           lambda rows, s=_scheme, n=_per_sm:
           _bits(rows, f"{s}_sharing_bits_per_sm") == n, "exact")
    _claim("hw_overhead", f"{_scheme} sharing needs {_per_sm} bits × SMs "
           "in total", lambda rows, s=_scheme, n=_per_sm:
           _bits(rows, f"{s}_sharing_bits_total")
           == n * _bits(rows, "num_sms"), "exact")

# -- Extensions ----------------------------------------------------------

_claim("ext_early_release", "early release fires on the tail-heavy kernel",
       lambda rows: _at(rows, "tailheavy", "early_releases") > 0)
_claim("ext_early_release", "early release never costs more than 2 "
       "points", lambda rows: all(
           r["impr_er_pct"] >= r["impr_shared_pct"] - 2.0 for r in rows))


def _blocks_monotone(rows: Rows) -> bool:
    for app in {r["app"] for r in rows}:
        sweep = sorted((r for r in rows if r["app"] == app),
                       key=lambda r: r["t"])
        blocks = [r["blocks"] for r in sweep]
        if blocks != sorted(blocks, reverse=True):
            return False
    return True


_claim("ext_threshold_frontier", "resident blocks never grow with t "
       "(Eq. 4)", _blocks_monotone, "exact")
