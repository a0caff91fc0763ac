"""Golden-file regression: paper-exact tables must never drift."""

from repro.harness.experiments import EXPERIMENTS
from repro.harness.golden import (GOLDEN_EXPERIMENTS, TINY_KEY,
                                  check_goldens, collect, golden_path)


class TestGoldens:
    def test_golden_file_exists(self):
        assert golden_path().is_file()

    def test_no_drift(self):
        problems = check_goldens()
        assert problems == []

    def test_covers_expected_experiments(self):
        import json
        data = json.loads(golden_path().read_text())
        assert set(data) == set(GOLDEN_EXPERIMENTS) | {TINY_KEY}
        assert set(data[TINY_KEY]) == set(EXPERIMENTS)

    def test_collect_deterministic(self):
        assert collect() == collect()
