"""The EXPERIMENTS.md tooling in scripts/ (log parsing) and the
differential mode of the chaos fuzz script."""

import importlib.util
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


build_mod = _load("build_experiments_md")
chaos_mod = _load("chaos_fuzz")
ab_mod = _load("ab_cells")

HARNESS_LOG = """== Fig 1: resident thread blocks and resource waste ==
app       blocks
--------  ------
hotspot   3
note: demo.

[fig1: 0.0s]

== Table VI: resident blocks vs % register sharing ==
app      0%  90%
-------  --  ---
hotspot  3   6

claim PASS: resident blocks equal the paper's table, every entry
[table6: 1.5s]
"""


class TestBuildExperimentsMd:
    def test_sections_extracted_with_notes(self):
        out = build_mod.build(HARNESS_LOG, "test settings")
        assert "test settings" in out
        assert "## fig1 — Fig 1: resident thread blocks" in out
        assert "## table6 — Table VI" in out
        assert "golden-pinned" in out  # table6 commentary attached
        assert "`python -m repro.harness fig1`" in out

    def test_tables_fenced(self):
        out = build_mod.build(HARNESS_LOG, "s")
        assert out.count("```") % 2 == 0
        assert "hotspot   3" in out

    def test_missing_sections_listed(self):
        out = build_mod.build(HARNESS_LOG, "s")
        assert "not present in this log" in out
        assert "fig9a" in out  # one of the absent ids

    def test_known_ids_ordered_before_unknown(self):
        log = HARNESS_LOG + (
            "== Something custom ==\nrow\n[zz_custom: 0.1s]\n\n")
        out = build_mod.build(log, "s")
        assert out.index("## fig1") < out.index("## zz_custom")

    def test_engine_stats_footer_parsed(self):
        # the harness CLI now appends engine stats to the timing line
        log = HARNESS_LOG.replace(
            "[fig1: 0.0s]", "[fig1: 0.0s | 16 sims, 0 cache hits, jobs 4]")
        out = build_mod.build(log, "s")
        assert "## fig1 — Fig 1: resident thread blocks" in out
        assert "regenerated in 0s" in out

    def test_claim_lines_carried_into_section(self):
        out = build_mod.build(HARNESS_LOG, "s")
        table6 = out[out.index("## table6"):]
        assert "claim PASS: resident blocks equal the paper's table" in \
            table6


class TestChaosDifferential:
    ARGS = ["--differential", "--kernels", "1", "--jobs", "1"]

    def test_cores_agree(self, capsys):
        assert chaos_mod.main(self.ARGS) == 0
        assert "6/6 runs agree" in capsys.readouterr().out

    def test_difference_fails(self, monkeypatch, capsys):
        real = chaos_mod.run_reference

        def skewed(spec):
            d = real(spec)
            d["cycles"] += 1
            return d

        monkeypatch.setattr(chaos_mod, "run_reference", skewed)
        assert chaos_mod.main(self.ARGS) == 1
        assert "fast core != reference core" in capsys.readouterr().err


class TestAbCells:
    def test_same_tree_tiny(self, capsys):
        root = str(SCRIPTS.parent)
        assert ab_mod.main([root, root, "--tiny", "--passes", "1"]) == 0
        out = capsys.readouterr().out
        assert "pass 1: A " in out
        assert "over 1 passes of 30 cells; 0 differing results" in out

    def test_random_mix_tiny(self, capsys):
        root = str(SCRIPTS.parent)
        assert ab_mod.main([root, root, "--random-mix", "--tiny",
                            "--passes", "2"]) == 0
        out = capsys.readouterr().out
        assert "pass 2: A " in out
        assert "over 2 passes of 8 ops; 0 differing results" in out
