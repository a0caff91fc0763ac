"""Sweep utility and CSV export."""

import pytest

from repro.config import GPUConfig
from repro.core.sharing import SharedResource
from repro.harness.engine import Engine
from repro.harness.runner import shared, unshared
from repro.harness.sweep import CSV_COLUMNS, Sweep, rows_to_csv

FAST = dict(config=GPUConfig().scaled(num_clusters=1), scale=0.2, waves=1.0)


def small_sweep():
    s = Sweep(**FAST)
    s.add_apps(["gaussian"])
    s.add_modes([unshared("lrr"), unshared("gto")])
    return s


class TestSweep:
    def test_size(self):
        s = small_sweep()
        assert s.size == 2

    def test_run_produces_rows(self):
        s = small_sweep()
        rows = s.run()
        assert len(rows) == 2
        assert {r["mode"] for r in rows} == {"Unshared-LRR", "Unshared-GTO"}
        for r in rows:
            for col in CSV_COLUMNS:
                assert col in r

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            Sweep(**FAST).run()

    def test_csv_before_run_rejected(self):
        with pytest.raises(ValueError):
            small_sweep().to_csv()

    def test_csv_shape(self):
        s = small_sweep()
        s.run()
        lines = s.to_csv().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert all(len(ln.split(",")) == len(CSV_COLUMNS) for ln in lines)

    def test_best_mode_per_app(self):
        s = small_sweep()
        s.run()
        best = s.best_mode_per_app()
        assert set(best) == {"gaussian"}
        assert best["gaussian"] in ("Unshared-LRR", "Unshared-GTO")

    def test_sharing_columns_populated(self):
        s = Sweep(**FAST)
        s.add_apps(["CONV1"])
        s.add_modes([shared(SharedResource.SCRATCHPAD, "owf")])
        (row,) = s.run()
        assert row["blocks_total"] == 8
        assert row["blocks_baseline"] == 6

    def test_app_objects_accepted(self):
        from repro.workloads.apps import APPS
        s = Sweep(**FAST)
        s.add_apps([APPS["gaussian"]])
        s.add_modes([unshared("lrr")])
        assert s.size == 1


class TestRowsToCsv:
    def test_missing_keys_blank(self):
        from repro.harness.sweep import CSV_COLUMNS
        text = rows_to_csv([{"app": "x", "ipc": 1.0}])
        line = text.strip().splitlines()[1]
        assert line.startswith("x,")
        cycles_col = CSV_COLUMNS.index("cycles")
        assert line.split(",")[cycles_col] == ""  # cycles missing -> blank

    def test_extra_keys_ignored(self):
        text = rows_to_csv([{"app": "x", "not_a_column": 9}])
        assert "not_a_column" not in text
        assert "9" not in text

    def test_comma_in_field_quoted(self):
        import csv
        import io
        text = rows_to_csv([{"app": "x", "mode": "Shared,OWF"}])
        (row,) = list(csv.DictReader(io.StringIO(text)))
        assert row["mode"] == "Shared,OWF"
        assert row["clusters"] == ""


class TestFailureRow:
    def mk_failure(self, message="boom"):
        from repro.harness.resilience import RunFailure
        return RunFailure(category="crash", exception_type="RuntimeError",
                          message=message, spec_digest="cafe" * 16,
                          app="gaussian", mode="Unshared-LRR", attempts=3)

    def test_identifies_failed_cell(self):
        from repro.harness.sweep import failure_row
        row = failure_row(self.mk_failure(), clusters=1, scale=0.2,
                          waves=1.0)
        assert row["status"] == "crash"
        assert row["digest"] == "cafe" * 16  # re-runnable from CSV alone
        assert row["attempts"] == 3
        assert row["error"] == "RuntimeError: boom"

    def test_long_error_truncated_with_marker(self):
        from repro.harness.sweep import _ERROR_LIMIT, failure_row
        row = failure_row(self.mk_failure("x" * 500), clusters=1,
                          scale=0.2, waves=1.0)
        assert len(row["error"]) == _ERROR_LIMIT
        assert row["error"].endswith("...")  # truncation is visible

    def test_short_error_not_marked(self):
        from repro.harness.sweep import failure_row
        row = failure_row(self.mk_failure(), clusters=1, scale=0.2,
                          waves=1.0)
        assert not row["error"].endswith("...")

    def test_digest_and_attempts_in_csv_columns(self):
        assert "digest" in CSV_COLUMNS and "attempts" in CSV_COLUMNS


class TestCsvRoundTrip:
    """Sweep.to_csv() must parse back losslessly with csv.DictReader."""

    def run_with_failure(self):
        from repro.harness.engine import RunSpec
        from repro.harness.faults import FaultInjector
        from repro.workloads.apps import APPS
        bad = RunSpec.create(APPS["gaussian"], unshared("gto"),
                             config=FAST["config"], scale=FAST["scale"],
                             waves=FAST["waves"])
        s = Sweep(**FAST, engine=Engine(
            cache=False, faults=FaultInjector().add(bad.digest(), "error")))
        s.add_apps(["gaussian"])
        s.add_modes([unshared("lrr"), unshared("gto")])
        s.run()
        return s

    def test_ok_and_failure_rows_parse_back(self):
        import csv
        import io
        s = self.run_with_failure()
        parsed = list(csv.DictReader(io.StringIO(s.to_csv())))
        assert len(parsed) == 2
        ok = next(r for r in parsed if r["status"] == "ok")
        bad = next(r for r in parsed if r["status"] != "ok")
        # ok row: numeric cells survive the text round trip
        assert ok["app"] == "gaussian" and ok["error"] == ""
        assert int(ok["cycles"]) > 0
        assert float(ok["ipc"]) == pytest.approx(
            int(ok["instructions"]) / int(ok["cycles"]), abs=1e-4)
        # ok rows carry their spec digest too (re-runnable), but no
        # attempts count (the engine only reports it for failures)
        assert len(ok["digest"]) == 64
        assert set(ok["digest"]) <= set("0123456789abcdef")
        assert ok["attempts"] == ""
        # failure row: annotated, re-runnable
        (f,) = s.failures
        assert bad["status"] == "error"
        assert bad["digest"] == f.spec_digest
        assert int(bad["attempts"]) == f.attempts
        assert bad["error"].startswith("InjectedError")
        assert bad["ipc"] == ""  # no fabricated numbers on failures

    def test_header_matches_columns(self):
        import csv
        import io
        s = self.run_with_failure()
        reader = csv.reader(io.StringIO(s.to_csv()))
        assert next(reader) == list(CSV_COLUMNS)
        assert all(len(r) == len(CSV_COLUMNS) for r in reader)


class TestSweepEngine:
    def test_duplicate_grid_entries_simulated_once(self):
        s = Sweep(**FAST)
        s.add_apps(["gaussian"])
        s.add_modes([unshared("lrr"), unshared("gto"), unshared("lrr")])
        assert s.size == 3
        rows = s.run()
        assert len(rows) == 2  # one row per unique run
        assert s.engine.stats.sims == 2

    def test_cache_knob(self, tmp_path):
        s1 = Sweep(**FAST, engine=Engine(cache_dir=tmp_path))
        s1.add_apps(["gaussian"]).add_modes([unshared("lrr")])
        s1.run()
        assert s1.engine.stats.sims == 1

        s2 = Sweep(**FAST, engine=Engine(cache_dir=tmp_path))
        s2.add_apps(["gaussian"]).add_modes([unshared("lrr")])
        rows = s2.run()
        assert s2.engine.stats.sims == 0 and s2.engine.stats.hits == 1
        assert rows == s1.rows

    def test_cache_off_by_default(self):
        assert Sweep(**FAST).engine.cache is None

    def test_shared_engine(self):
        eng = Engine(jobs=1, cache=False)
        s = Sweep(**FAST, engine=eng)
        s.add_apps(["gaussian"]).add_modes([unshared("lrr")])
        s.run()
        assert eng.stats.sims == 1
