"""Harness: modes, runner, experiment registry, report rendering."""

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.experiments import (EXPERIMENTS, SHARING_PCTS,
                                       run_experiment)
from repro.harness.report import format_table, render_experiment
from repro.harness.runner import Mode, improvement, run, shared, unshared
from repro.workloads.apps import APPS

REG = SharedResource.REGISTERS
SPAD = SharedResource.SCRATCHPAD
FAST = dict(config=GPUConfig().scaled(num_clusters=2), scale=0.25,
            waves=1.5)


class TestModeLabels:
    def test_unshared_labels(self):
        assert unshared("lrr").label == "Unshared-LRR"
        assert unshared("gto").label == "Unshared-GTO"
        assert unshared("two_level").label == "Unshared-2LV"

    def test_paper_mode_labels(self):
        assert shared(REG, "lrr").label == "Shared-LRR-NoOpt"
        assert shared(REG, "lrr", unroll=True).label == "Shared-LRR-Unroll"
        assert shared(REG, "lrr", unroll=True, dyn=True).label == \
            "Shared-LRR-Unroll-Dyn"
        assert shared(REG, "owf", unroll=True, dyn=True).label == \
            "Shared-OWF-Unroll-Dyn"
        assert shared(SPAD, "owf").label == "Shared-OWF"

    def test_dyn_requires_register_sharing(self):
        with pytest.raises(ValueError):
            Mode(label="x", sharing=SPAD, dyn=True)
        with pytest.raises(ValueError):
            Mode(label="x", unroll=True)


class TestRunner:
    def test_run_returns_result(self):
        r = run(APPS["hotspot"], unshared("lrr"), **FAST)
        assert r.ipc > 0
        assert r.kernel == "hotspot"
        assert r.mode == "Unshared-LRR"

    def test_grid_sizing_identical_across_modes(self):
        a = run(APPS["hotspot"], unshared("lrr"), **FAST)
        b = run(APPS["hotspot"], shared(REG, "owf", unroll=True), **FAST)
        assert a.instructions == b.instructions  # same total work

    def test_grid_blocks_override(self):
        r = run(APPS["hotspot"], unshared("lrr"), grid_blocks=2, **FAST)
        assert r.instructions > 0

    def test_sharing_mode_reports_plan_blocks(self):
        r = run(APPS["hotspot"], shared(REG, "lrr"), **FAST)
        assert r.blocks_baseline == 3
        assert r.blocks_total == 6

    def test_improvement_metric(self):
        a = run(APPS["hotspot"], unshared("lrr"), **FAST)
        assert improvement(a, a) == 0.0


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"fig1", "fig8a", "fig8b", "fig8c", "fig8d", "fig9a",
                    "fig9b", "fig9c", "fig9d", "fig10a", "fig10b",
                    "fig10c", "fig10d", "fig11a", "fig11b", "fig12a",
                    "fig12b", "table5", "table6", "table7", "table8",
                    "hw_overhead"}
        assert expected <= set(EXPERIMENTS)
        extras = set(EXPERIMENTS) - expected
        assert all(e.startswith("ext_") for e in extras)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_sharing_pcts_match_paper(self):
        assert SHARING_PCTS == (0, 10, 30, 50, 70, 90)


class TestNoSimExperiments:
    """Experiments that need no simulation run at full fidelity in tests.

    The other no-simulation tables (fig1, fig8a/b, hw_overhead) are
    checked by their exact claims in ``tests/test_claims.py``; these two
    also pin named rows and their exact column set, which no claim does.
    """

    def test_table6_matches_paper_exactly(self):
        res = run_experiment("table6")
        rows = {r["app"]: r for r in res.rows}
        assert rows["hotspot"] == {"app": "hotspot", "0%": 3, "10%": 3,
                                   "30%": 3, "50%": 4, "70%": 4, "90%": 6}
        assert rows["LIB"]["90%"] == 8
        assert rows["stencil"]["90%"] == 3

    def test_table8_matches_paper_exactly(self):
        res = run_experiment("table8")
        rows = {r["app"]: r for r in res.rows}
        assert rows["lavaMD"] == {"app": "lavaMD", "0%": 2, "10%": 2,
                                  "30%": 2, "50%": 2, "70%": 2, "90%": 4}
        assert rows["NW1"]["50%"] == 8
        assert rows["SRAD2"]["90%"] == 5


class TestSimExperimentsSmoke:
    """Tiny-scale smoke of every simulation-backed experiment."""

    @pytest.mark.parametrize("exp", ["fig8c", "fig8d", "fig9b", "fig10a",
                                     "fig12b"])
    def test_runs_and_has_rows(self, exp):
        res = run_experiment(exp, **FAST)
        assert res.rows
        assert res.columns
        for row in res.rows:
            for col in res.columns:
                assert col in row


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [{"a": 1, "bb": 2.5},
                                         {"a": 10, "bb": None}])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.50" in lines[2]
        assert "-" in lines[3]

    def test_render_experiment(self):
        res = run_experiment("hw_overhead")
        text = render_experiment(res)
        assert res.title in text
        assert "register_sharing_bits_per_sm" in text

    def test_empty_rows(self):
        assert format_table(["x"], []).splitlines()[0] == "x"


class TestBarChart:
    def test_positive_bars(self):
        from repro.harness.report import bar_chart
        rows = [{"app": "a", "v": 10.0}, {"app": "bb", "v": 5.0}]
        text = bar_chart(rows, "app", "v")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].count("#") > lines[2].count("#")

    def test_negative_values_left_of_axis(self):
        from repro.harness.report import bar_chart
        rows = [{"app": "up", "v": 10.0}, {"app": "dn", "v": -10.0}]
        text = bar_chart(rows, "app", "v")
        up, dn = text.splitlines()[1:3]
        assert up.index("|") < up.index("#")
        assert dn.index("#") < dn.index("|")

    def test_non_numeric_skipped(self):
        from repro.harness.report import bar_chart
        assert bar_chart([{"app": "x", "v": None}], "app", "v") == \
            "(no numeric data)"
