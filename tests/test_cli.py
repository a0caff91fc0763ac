"""Command-line interfaces (``python -m repro`` and ``-m repro.harness``)."""

import pytest

from repro.__main__ import main as repro_main
from repro.harness.__main__ import main as harness_main
from repro.harness.resilience import RetryPolicy


class TestReproCli:
    def test_list(self, capsys):
        assert repro_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hotspot" in out and "shared-reg" in out

    def test_analyze_app(self, capsys):
        assert repro_main(["analyze", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "3 blocks/SM" in out

    def test_analyze_threshold(self, capsys):
        assert repro_main(["analyze", "hotspot", "-t", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "private regs/thread 18" in out

    def test_disasm(self, capsys):
        assert repro_main(["disasm", "lavaMD"]) == 0
        out = capsys.readouterr().out
        assert ".kernel lavaMD" in out and ".loop" in out

    def test_disasm_file_round_trip(self, tmp_path, capsys):
        repro_main(["disasm", "NW1"])
        text = capsys.readouterr().out
        f = tmp_path / "nw1.kasm"
        f.write_text(text)
        assert repro_main(["analyze", str(f)]) == 0
        assert "NW1" in capsys.readouterr().out

    def test_run_smoke(self, capsys):
        assert repro_main(["run", "gaussian", "--clusters", "1",
                           "--scale", "0.2", "--waves", "1"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "cycles" in out

    def test_run_warm_cache(self, tmp_path, capsys):
        argv = ["run", "gaussian", "--clusters", "1", "--scale", "0.2",
                "--waves", "1", "--cache-dir", str(tmp_path)]
        assert repro_main(argv) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert repro_main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_unknown_app_errors(self):
        with pytest.raises(SystemExit):
            repro_main(["analyze", "nosuchapp"])

    def test_run_trace_and_metrics(self, tmp_path, capsys):
        import json
        out_file = tmp_path / "mum.json"
        assert repro_main(["run", "MUM", "--mode", "shared-reg",
                           "--clusters", "1", "--scale", "0.2",
                           "--waves", "1", "--no-cache",
                           "--trace", str(out_file), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "warp-state cycles" in out  # Fig. 10-style breakdown
        assert f"trace written to {out_file}" in out
        doc = json.loads(out_file.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"warp_state", "lock", "mem"} <= cats


class TestHarnessCli:
    def test_single_experiment(self, capsys):
        assert harness_main(["hw_overhead"]) == 0
        out = capsys.readouterr().out
        assert "register_sharing_bits_per_sm" in out

    def test_fig1(self, capsys):
        assert harness_main(["fig1", "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "hotspot" in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            harness_main(["fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fig99'" in err
        for valid in ("'fig8c'", "'all'", "'claims'"):
            assert valid in err

    def test_stats_footer(self, capsys):
        assert harness_main(["fig8c", "--clusters", "1", "--scale", "0.15",
                             "--waves", "1", "--no-cache",
                             "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "| 16 sims, 0 cache hits, jobs 1]" in out

    def test_footer_failures_per_experiment(self, capsys):
        # ext_early_release runs 9 specs after ext_cache_sensitivity's
        # 16; each footer counts only its own failed runs.
        assert harness_main(["all", "--clusters", "1", "--scale", "0.15",
                             "--waves", "1", "--max-cycles", "10",
                             "--no-cache", "--jobs", "1"]) == 1
        footers = {ln[1:ln.index(":")]: ln
                   for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("[")}
        assert len(footers) == 26
        assert footers["ext_cache_sensitivity"].endswith(
            "| 0 sims, 0 cache hits, jobs 1, 16 failures]")
        assert footers["ext_early_release"].endswith(
            "| 0 sims, 0 cache hits, jobs 1, 9 failures]")

    def test_warm_cache_zero_sims(self, tmp_path, capsys):
        argv = ["fig8c", "--clusters", "1", "--scale", "0.15", "--waves",
                "1", "--jobs", "1", "--cache-dir", str(tmp_path)]
        assert harness_main(argv) == 0
        capsys.readouterr()
        assert harness_main(argv) == 0
        assert "| 0 sims, 16 cache hits," in capsys.readouterr().out

    def test_trace_dir_writes_per_run_traces(self, tmp_path, capsys):
        import json
        assert harness_main(["fig8c", "--clusters", "1", "--scale", "0.15",
                             "--waves", "1", "--jobs", "1", "--no-cache",
                             "--metrics", "--trace",
                             str(tmp_path / "traces")]) == 0
        traces = sorted((tmp_path / "traces").glob("*.json"))
        assert traces  # one Chrome trace per simulated configuration
        doc = json.loads(traces[0].read_text())
        assert any(e.get("cat") == "warp_state"
                   for e in doc["traceEvents"])
        capsys.readouterr()


class TestTraceCli:
    def test_trace_timeline(self, capsys):
        assert repro_main(["trace", "gaussian", "--first", "8"]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "IPC" in out

    def test_trace_sharing_mode(self, capsys):
        assert repro_main(["trace", "hotspot", "--mode",
                           "shared-reg-noopt", "--first", "5"]) == 0
        out = capsys.readouterr().out
        assert "OWN" in out or "NON" in out

    def test_trace_early_release_mode(self, capsys, monkeypatch):
        # regression: trace used to drop mode.early_release, silently
        # tracing plain sharing instead
        import repro.harness.runner as runner
        results = []
        real_run = runner.run

        def recording_run(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(runner, "run", recording_run)
        for mode in ("shared-reg-er", "shared-reg"):
            assert repro_main(["trace", "hotspot", "--mode", mode,
                               "--first", "5"]) == 0
        assert "IPC" in capsys.readouterr().out
        releases = [sum(s.early_releases for s in r.sm_stats)
                    for r in results]
        assert releases == [48, 0]


#: (module holding ``_dispatch``, argv prefix) per CLI that takes the
#: shared engine flags.
ENGINE_CLIS = {
    "run": ("repro.__main__", ["run", "gaussian"]),
    "serve": ("repro.__main__", ["serve"]),
    "harness": ("repro.harness.__main__", ["fig8c"]),
}
BAD_ENGINE_FLAGS = [
    (cli, flag, value) for cli in ENGINE_CLIS
    for flag, value in [("--jobs", "-3"), ("--jobs", "0"), ("--jobs", "two"),
                        ("--retries", "-2"), ("--timeout", "-1"),
                        ("--timeout", "0"), ("--timeout", "nan"),
                        ("--timeout", "inf")]
] + [("run", "--max-cycles", "-5"), ("harness", "--max-cycles", "0")]


class TestEngineFlags:
    """The engine flags every CLI shares: same defaults, same checks."""

    def _parse(self, monkeypatch, cli, *extra):
        import importlib
        module, prefix = ENGINE_CLIS[cli]
        parsed = []
        monkeypatch.setattr(importlib.import_module(module), "_dispatch",
                            parsed.append)
        main = harness_main if cli == "harness" else repro_main
        main([*prefix, *extra])
        return parsed[0]

    @pytest.mark.parametrize("cli,flag,value", BAD_ENGINE_FLAGS)
    def test_bad_value_exits_2_before_running(self, monkeypatch, capsys,
                                              cli, flag, value):
        with pytest.raises(SystemExit) as exc:
            self._parse(monkeypatch, cli, flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("main,argv", [
        (harness_main, ["fig1"]),
        (repro_main, ["run", "gaussian", "--clusters", "1", "--scale",
                      "0.2", "--waves", "1", "--no-cache"]),
    ], ids=["harness", "run"])
    def test_malformed_repro_jobs_exits_2(self, monkeypatch, capsys, main,
                                          argv):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: REPRO_JOBS must be an integer "
                                ">= 1, got 'abc'\n")

    @pytest.mark.parametrize("extra,want", [
        ([], (None, None, False, None, None)),
        (["--jobs", "2", "--cache-dir", "d", "--no-cache", "--timeout",
          "1.5", "--retries", "4"], (2, "d", True, 1.5, 4)),
    ])
    def test_shared_flags_parse_identically(self, monkeypatch, extra,
                                            want):
        from repro.harness.cli import engine_kwargs
        jobs, cache_dir, no_cache, timeout, retries = want
        for cli in ENGINE_CLIS:
            a = self._parse(monkeypatch, cli, *extra)
            assert (a.jobs, a.cache_dir, a.no_cache, a.timeout,
                    a.retries) == want, cli
            assert engine_kwargs(a) == {
                "jobs": jobs, "cache": not no_cache, "cache_dir": cache_dir,
                "timeout": timeout,
                "retry": (None if retries is None
                          else RetryPolicy(max_attempts=retries))}, cli


class TestJsonOutput:
    ARGV = ["run", "gaussian", "--clusters", "1", "--scale", "0.2",
            "--waves", "1", "--json"]

    def test_run_json_round_trip(self, tmp_path, capsys):
        import json
        from repro.harness.engine import RunSpec
        from repro.service import parse_result
        from repro.sim.stats import RunResult
        argv = self.ARGV + ["--cache-dir", str(tmp_path)]
        assert repro_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["cached"] is False
        result = parse_result(payload)
        assert isinstance(result, RunResult)
        assert result.cycles == payload["summary"]["cycles"]
        # The embedded spec reproduces the digest: the payload is a
        # self-contained, re-runnable artifact.
        assert RunSpec.from_dict(payload["spec"]).digest() \
            == payload["digest"]

    def test_run_json_cached_flag(self, tmp_path, capsys):
        import json
        from repro.service import parse_result
        argv = self.ARGV + ["--cache-dir", str(tmp_path)]
        repro_main(argv)
        first = json.loads(capsys.readouterr().out)
        repro_main(argv)
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert parse_result(second) == parse_result(first)


class TestServiceCli:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.service import ServiceConfig, ServiceServer
        srv = ServiceServer(
            ServiceConfig(port=0, db_path=tmp_path / "jobs.sqlite"),
            engine_opts={"jobs": 1, "cache": False})
        srv.start_in_thread()
        yield srv
        srv.stop()

    def _submit_argv(self, server, *extra):
        return ["submit", "gaussian", "--clusters", "1", "--scale",
                "0.2", "--waves", "1", "--port", str(server.port),
                *extra]

    def test_submit_wait_json(self, server, capsys):
        import json
        from repro.service import parse_result
        argv = self._submit_argv(server, "--wait", "--json")
        assert repro_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        parse_result(payload)

    def test_submit_then_jobs_listing(self, server, capsys):
        import json
        assert repro_main(self._submit_argv(server, "--json")) == 0
        job_id = json.loads(capsys.readouterr().out)["job"]["id"]
        assert repro_main(["jobs", job_id, "--port", str(server.port),
                           "--wait", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert repro_main(["jobs", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "done" in out

    def test_jobs_cancel(self, server, capsys):
        import json
        server.paused = True
        assert repro_main(self._submit_argv(server, "--json")) == 0
        job_id = json.loads(capsys.readouterr().out)["job"]["id"]
        assert repro_main(["jobs", job_id, "--port", str(server.port),
                           "--cancel"]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert repro_main(["jobs", job_id, "--port", str(server.port),
                           "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["job"]["state"] \
            == "cancelled"
