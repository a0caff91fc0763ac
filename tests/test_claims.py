"""The paper's claims (repro.harness.claims): the exact claims hold on a
tiny machine, the verdict logic, and the ``claims`` CLI exit code."""

import pytest

from repro.config import GPUConfig
from repro.harness import __main__ as harness_cli
from repro.harness.claims import CLAIMS, Claim, evaluate
from repro.harness.engine import Engine
from repro.harness.experiments import EXPERIMENTS, run_experiment

TINY = dict(config=GPUConfig().scaled(num_clusters=1), scale=0.15,
            waves=1)
EXACT_IDS = sorted({c.exp_id for claims in CLAIMS.values()
                    for c in claims if c.kind == "exact"})


@pytest.fixture(scope="module")
def engine():
    return Engine(jobs=1, cache=False)


class TestRegistry:
    def test_claims_name_real_experiments(self):
        assert set(CLAIMS) <= set(EXPERIMENTS)
        for exp_id, claims in CLAIMS.items():
            for c in claims:
                assert c.exp_id == exp_id
                assert c.kind in ("exact", "shape")

    def test_exact_claims_are_never_expected_to_fail(self):
        for claims in CLAIMS.values():
            assert not any(c.xfail for c in claims if c.kind == "exact")

    def test_every_paper_artifact_has_a_claim(self):
        for exp_id in EXPERIMENTS:
            if not exp_id.startswith("ext_"):
                assert CLAIMS.get(exp_id), exp_id


@pytest.mark.parametrize("exp_id", EXACT_IDS)
def test_exact_claims_hold_on_a_tiny_machine(exp_id, engine):
    res = run_experiment(exp_id, engine=engine, **TINY)
    for claim, verdict in evaluate(exp_id, res.rows):
        if claim.kind == "exact":
            assert verdict == "PASS", claim.text


class TestVerdicts:
    def test_corrupted_row_fails(self, engine):
        res = run_experiment("fig8a", engine=engine, **TINY)
        assert {v for _, v in evaluate("fig8a", res.rows)} == {"PASS"}
        res.rows[0]["blocks_shared"] += 1
        assert "FAIL" in {v for _, v in evaluate("fig8a", res.rows)}

    def test_failed_cell_fails_instead_of_raising(self):
        rows = [{"app": "lavaMD", "improvement_pct": "FAIL:timeout"}]
        claim = CLAIMS["fig10a"][0]  # lavaMD gains more than 15 %
        assert claim.evaluate(rows) == "FAIL"
        assert claim.evaluate([]) == "FAIL"  # missing row

    def test_expected_failure_verdicts(self):
        held = Claim("x", "t", lambda rows: True, xfail="gap")
        broken = Claim("x", "t", lambda rows: False, xfail="gap")
        assert held.evaluate([]) == "XPASS"
        assert broken.evaluate([]) == "XFAIL"
        assert broken.line("XFAIL") == "claim XFAIL: t (known gap: gap)"


class TestClaimsCli:
    @pytest.fixture
    def one_experiment(self, monkeypatch):
        """Make ``claims``/``all`` run only hw_overhead (no simulation)."""
        monkeypatch.setattr(harness_cli, "EXPERIMENTS",
                            {"hw_overhead": EXPERIMENTS["hw_overhead"]})

        def use(claim):
            monkeypatch.setitem(CLAIMS, "hw_overhead", [claim])
        return use

    def test_lines_precede_footer(self, capsys):
        assert harness_cli.main(["hw_overhead"]) == 0
        out = capsys.readouterr().out
        assert out.index("claim PASS: register sharing needs 273 bits") \
            < out.index("[hw_overhead:")

    def test_holding_claims_exit_zero(self, one_experiment, capsys):
        one_experiment(Claim("hw_overhead", "holds", lambda rows: True))
        assert harness_cli.main(["claims"]) == 0
        assert "claims: 1 PASS, 0 FAIL, 0 XFAIL, 0 XPASS" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("claim", [
        Claim("hw_overhead", "broken", lambda rows: False),
        Claim("hw_overhead", "fixed gap", lambda rows: True, xfail="gap"),
    ], ids=["fail", "xpass"])
    def test_fail_or_xpass_exits_one(self, one_experiment, claim, capsys):
        one_experiment(claim)
        assert harness_cli.main(["claims"]) == 1
        # `all` prints the same verdicts but keeps its exit code
        assert harness_cli.main(["all"]) == 0
        out = capsys.readouterr().out
        assert out.count(f"{claim.text}") == 2
