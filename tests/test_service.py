"""Simulation service end to end: in-thread server + stdlib client.

Covers the ISSUE acceptance scenarios: digest equality with a direct
``run_batch``, restart mid-queue, graceful drain losing zero jobs,
client disconnect mid-long-poll, admission-control rejection under
synthetic load (8 concurrent clients), and chaos runs with the PR 2
fault injector mounted behind the service.
"""

import json
import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.config import GPUConfig
from repro.harness import engine as engine_module
from repro.harness import faults
from repro.harness.engine import Engine, RunSpec
from repro.harness.faults import FaultInjector
from repro.harness.runner import unshared
from repro.service import (AdmissionRejected, JobPending, JobStore,
                           ServiceClient, ServiceConfig, ServiceError,
                           ServiceServer, parse_result)
from repro.service import server as server_module
from repro.sim.stats import RunResult
from repro.workloads.apps import APPS

CFG = GPUConfig().scaled(num_clusters=1)
FAST = dict(config=CFG, scale=0.15, waves=1.0)


def spec(app="gaussian", mode=None, **kw):
    return RunSpec.create(APPS[app], mode or unshared("lrr"),
                          **{**FAST, **kw})


def distinct_specs(n):
    """n cheap specs with distinct digests (max_cycles is a free knob:
    it only caps runaway sims, so these all cost the same to run)."""
    return [spec(max_cycles=10_000_000 + i) for i in range(n)]


@contextmanager
def service(tmp_path, *, engine_opts=None, **overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("db_path", tmp_path / "jobs.sqlite")
    cfg = ServiceConfig(**overrides)
    server = ServiceServer(
        cfg, engine_opts=engine_opts or {"jobs": 1, "cache": False})
    server.start_in_thread()
    client = ServiceClient(port=server.port, client_id="test",
                           timeout=10.0)
    try:
        yield server, client
    finally:
        if server._thread is not None and server._thread.is_alive():
            server.stop()


def wait_done(client, job_ids, timeout=30.0):
    return {jid: client.wait(jid, timeout=timeout) for jid in job_ids}


def raw_request(port, head: bytes, body: bytes = b""):
    """Send bytes as-is; return (status, decoded JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head + body)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head_part, _, payload = response.partition(b"\r\n\r\n")
    return int(head_part.split()[1]), json.loads(payload)


def count_calls(monkeypatch, store, *names):
    """Count calls of the named store methods from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(store, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(store, name, counted)
    return calls


def park_wait(server, job_id, waits=1):
    """Open a 30 s /wait on ``job_id`` in a thread; return the thread
    and the dict its response lands in once the poll has parked."""
    out = {}
    poller = ServiceClient(port=server.port, timeout=10.0)
    thread = threading.Thread(target=lambda: out.update(poller._checked(
        "GET", f"/jobs/{job_id}/wait?timeout=30")), daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while len(server._waiters.get(job_id, ())) < waits:
        assert time.monotonic() < deadline, "long-poll never parked"
        time.sleep(0.005)
    return thread, out


class TestRoundTrip:
    def test_digest_identical_to_direct_run(self, tmp_path):
        s = spec()
        direct = Engine(jobs=1, cache=False).run_one(s)
        with service(tmp_path) as (server, client):
            job = client.submit(s)
            assert job["state"] == "queued"
            payload = client.wait(job["id"], timeout=30)
        assert payload["ok"] is True
        assert payload["digest"] == s.digest()
        assert parse_result(payload) == direct
        assert payload["cached"] is False
        assert payload["summary"]["cycles"] == direct.cycles

    def test_run_convenience(self, tmp_path):
        s = spec(app="hotspot")
        with service(tmp_path) as (_server, client):
            res = client.run(s, timeout=30)
        assert isinstance(res, RunResult)
        assert res == Engine(jobs=1, cache=False).run_one(s)

    def test_in_batch_dedup_shares_one_simulation(self, tmp_path):
        s = spec()
        with service(tmp_path, start_paused=True) as (server, client):
            ids = [client.submit(s)["id"] for _ in range(3)]
            server.paused = False
            payloads = wait_done(client, ids)
        assert server.engine.stats.sims == 1
        results = {jid: parse_result(p) for jid, p in payloads.items()}
        assert len(set(map(id, results.values()))) == 3  # distinct objects
        assert len({r.cycles for r in results.values()}) == 1

    def test_sanitized_and_plain_twins_share_one_batch(self, tmp_path,
                                                        sanitizers_made):
        s = spec()
        with service(tmp_path, start_paused=True) as (server, client):
            plain = client.submit(s)["id"]
            sanitized = client.submit(s, sanitize=True)["id"]
            server.paused = False
            payloads = wait_done(client, [plain, sanitized])
            jobs = {jid: client.status(jid) for jid in (plain, sanitized)}
            batches = server.registry.counter("service_batches_total")
        assert [j["state"] for j in jobs.values()] == ["done", "done"]
        assert [j["sanitize"] for j in jobs.values()] == [False, True]
        assert batches.to_value() == 1
        assert server.engine.stats.sims == 1 and len(sanitizers_made) == 1
        assert payloads[plain]["result"] == payloads[sanitized]["result"]
        assert parse_result(payloads[plain]) == Engine(
            jobs=1, cache=False).run_one(s)

    def test_status_and_listing(self, tmp_path):
        with service(tmp_path) as (_server, client):
            job = client.submit(spec())
            client.wait(job["id"], timeout=30)
            got = client.status(job["id"])
            assert got["state"] == "done"
            assert got["app"] == "gaussian"
            listed = client.jobs(state="done", client="test")
            assert job["id"] in {j["id"] for j in listed}

    def test_result_endpoint_and_pending(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            with pytest.raises(JobPending):
                client.result(job["id"])
            server.paused = False
            client.wait(job["id"], timeout=30)
            payload = client.result(job["id"])
            assert payload["ok"] is True


class TestEndpoints:
    def test_healthz(self, tmp_path):
        with service(tmp_path) as (_server, client):
            client.run(spec(), timeout=30)
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        assert health["engine"]["sims"] == 1
        assert health["recovered_on_start"] == 0

    def test_metrics_prometheus_text(self, tmp_path):
        with service(tmp_path) as (server, client):
            client.run(spec(), timeout=30)
            text = client.metrics_text()
            server.paused = True
            twice = spec(app="hotspot")
            ids = [client.submit(twice)["id"] for _ in range(2)]
            server.paused = False
            wait_done(client, ids)
            deduped = client.metrics_text()
        assert "# TYPE service_jobs_submitted_total counter" in text
        assert "service_jobs_submitted_total 1" in text
        assert 'service_jobs_finished_total{outcome="done"} 1' in text
        assert 'service_jobs{state="done"} 1' in text
        assert "service_batch_jobs_bucket" in text
        assert "engine_sims 1" in text
        assert "engine_deduped 0" in text
        assert "engine_sims 2" in deduped
        assert "engine_deduped 1" in deduped

    def test_unknown_job_404(self, tmp_path):
        with service(tmp_path) as (_server, client):
            with pytest.raises(ServiceError) as exc:
                client.status("deadbeef")
            assert exc.value.status == 404

    def test_unknown_route_404_and_bad_method_405(self, tmp_path):
        with service(tmp_path) as (_server, client):
            assert client._request("GET", "/nope")[0] == 404
            assert client._request("DELETE", "/jobs")[0] == 405

    def test_malformed_body_400(self, tmp_path):
        with service(tmp_path) as (_server, client):
            status, payload = client._request("POST", "/jobs",
                                              {"not-spec": 1})
            assert status == 400
            assert "spec" in payload["error"]

    def test_adhoc_kernel_spec_rejected(self, tmp_path):
        bogus = dict(spec().to_dict(), app=None)
        with service(tmp_path) as (_server, client):
            status, payload = client._request("POST", "/jobs",
                                              {"spec": bogus})
            assert status == 400
            assert "registry-app" in payload["error"]

    def test_trace_spec_rejected(self, tmp_path):
        traced = dict(spec().to_dict(), trace="out.trace")
        with service(tmp_path) as (_server, client):
            status, payload = client._request("POST", "/jobs",
                                              {"spec": traced})
            assert status == 400
            assert "trace" in payload["error"]

    def test_cancel_queued_then_conflict(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            cancelled = client.cancel(job["id"])
            assert cancelled["job"]["state"] == "cancelled"
            with pytest.raises(ServiceError) as exc:
                client.cancel(job["id"])
            assert exc.value.status == 409
            # /result on a cancelled job is terminal but not parseable.
            payload = client.result(job["id"])
            assert payload["cancelled"] is True
            with pytest.raises(ValueError):
                parse_result(payload)

    def test_wait_times_out_while_paused(self, tmp_path):
        with service(tmp_path, start_paused=True) as (_server, client):
            job = client.submit(spec())
            payload = client._checked(
                "GET", f"/jobs/{job['id']}/wait?timeout=0.05")
            assert payload["timed_out"] is True
            assert payload["payload"] is None
            with pytest.raises(TimeoutError):
                client.wait(job["id"], timeout=0.2)
            client.cancel(job["id"])


class TestMalformedRequests:
    """Each malformed request gets a 400 with a JSON ``error`` and never
    kills the connection handler."""

    CASES = {
        "length-not-a-number": (b"abc", None),
        "length-negative": (b"-5", None),
        "body-not-an-object": (None, []),
        "client-not-a-string": (None, {"client": [1]}),
        "priority-out-of-range": (None, {"priority": 2 ** 70}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_400(self, tmp_path, caplog, case):
        length, body = self.CASES[case]
        if isinstance(body, dict):
            body = {"spec": spec().to_dict(), **body}
        data = json.dumps(body).encode() if body is not None else b""
        length = length or str(len(data)).encode()
        with service(tmp_path) as (server, client):
            status, payload = raw_request(
                server.port,
                b"POST /jobs HTTP/1.1\r\nContent-Length: " + length
                + b"\r\n\r\n", data)
            assert status == 400
            assert isinstance(payload["error"], str)
            assert client.healthz()["jobs"]["queued"] == 0
        assert not [r for r in caplog.records if r.levelname == "ERROR"]


class TestMalformedSpecs:
    """A spec value of the wrong type or range gets a 400 at submit
    time instead of failing later inside the engine."""

    CASES = {
        "l1-mshrs-zero": ("config", "l1_mshrs", 0),
        "schedulers-zero": ("config", "num_schedulers", 0),
        "l1-mshrs-string": ("config", "l1_mshrs", "32"),
        "fetch-group-list": ("config", "fetch_group_size", [8]),
        "scale-string": (None, "scale", "0.15"),
        "max-cycles-string": (None, "max_cycles", "1000"),
        "grid-blocks-negative": (None, "grid_blocks", -2),
        "scheduler-unknown": ("mode", "scheduler", "bogus"),
        "label-list": ("mode", "label", ["x"]),
        "t-out-of-range": ("mode", "t", 1.5),
        "flag-not-bool": ("mode", "early_release", 0),
        "app-list": (None, "app", ["gaussian"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_400(self, tmp_path, case):
        section, key, value = self.CASES[case]
        body = spec().to_dict()
        (body[section] if section else body)[key] = value
        with service(tmp_path) as (_server, client):
            status, payload = client._request("POST", "/jobs",
                                              {"spec": body})
            assert status == 400
            assert key in payload["error"]
            assert client.healthz()["jobs"]["queued"] == 0


class TestAdmissionControl:
    def test_queue_depth_bound_sheds_load(self, tmp_path):
        with service(tmp_path, start_paused=True,
                     max_queue_depth=2) as (_server, client):
            specs = distinct_specs(3)
            client.submit(specs[0])
            client.submit(specs[1])
            with pytest.raises(AdmissionRejected) as exc:
                client.submit(specs[2])
            assert exc.value.reason == "queue_depth"
            assert exc.value.retry_after > 0
            text = client.metrics_text()
            assert ('service_jobs_rejected_total{reason="queue_depth"} 1'
                    in text)

    def test_queued_bytes_bound(self, tmp_path):
        with service(tmp_path, start_paused=True,
                     max_queued_bytes=10) as (_server, client):
            sp = distinct_specs(2)
            client.submit(sp[0])  # first one exceeds the 10-byte bound
            with pytest.raises(AdmissionRejected) as exc:
                client.submit(sp[1])
            assert exc.value.reason == "queued_bytes"

    def test_per_client_rate_limit(self, tmp_path):
        with service(tmp_path, start_paused=True, rate_limit=0.001,
                     rate_burst=1) as (_server, client):
            sp = distinct_specs(2)
            client.submit(sp[0])
            with pytest.raises(AdmissionRejected) as exc:
                client.submit(sp[1])
            assert exc.value.reason == "rate"
            # A different client has its own bucket.
            other = ServiceClient(port=client.port, client_id="other")
            other.submit(sp[1])

    def test_oversized_body_413(self, tmp_path):
        """The body cap rejects on the declared Content-Length, before
        reading (or even receiving) a single payload byte."""
        with service(tmp_path) as (server, _client):
            status, _payload = raw_request(
                server.port, b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 2097152\r\n\r\n")
            assert status == 413

    def test_eight_concurrent_clients_with_rejections(self, tmp_path):
        """ISSUE acceptance: >=8 simultaneous clients submitting batches
        all complete correctly while at least one submission is shed by
        admission control (deterministic: the queue bound is smaller
        than the paused-phase submission count)."""
        n_clients, per_client = 8, 2
        specs = distinct_specs(n_clients * per_client)
        rejections = []
        outcomes: dict[str, dict] = {}
        errors = []
        with service(tmp_path, start_paused=True, max_queue_depth=4,
                     batch_max=4) as (server, client):

            def worker(ci):
                me = ServiceClient(port=server.port,
                                   client_id=f"client-{ci}", timeout=10.0)
                for k in range(per_client):
                    s = specs[ci * per_client + k]
                    while True:
                        try:
                            job = me.submit(s)
                            break
                        except AdmissionRejected as exc:
                            rejections.append(exc.reason)
                            time.sleep(0.02)
                    payload = me.wait(job["id"], timeout=60)
                    outcomes[s.digest()] = payload

            threads = [threading.Thread(target=worker, args=(ci,),
                                        daemon=True)
                       for ci in range(n_clients)]
            for t in threads:
                t.start()
            # Paused + 16 submissions racing a queue bound of 4: the
            # shed is guaranteed before the scheduler drains anything.
            deadline = time.monotonic() + 20
            while not rejections and time.monotonic() < deadline:
                time.sleep(0.01)
            server.paused = False
            for t in threads:
                t.join(60)
                assert not t.is_alive(), "client thread hung"
        if errors:
            raise errors[0]
        assert len(rejections) >= 1
        assert len(outcomes) == len(specs)
        for s in specs:
            payload = outcomes[s.digest()]
            assert payload["ok"] is True
            assert payload["digest"] == s.digest()
            assert isinstance(parse_result(payload), RunResult)


class TestDurability:
    def test_restart_mid_queue_resumes_jobs(self, tmp_path):
        """Jobs queued when the server dies run after a restart."""
        db = tmp_path / "jobs.sqlite"
        specs = distinct_specs(4)
        with service(tmp_path, db_path=db,
                     start_paused=True) as (_server, client):
            ids = [client.submit(s)["id"] for s in specs]
        # Server is gone; the queue is not.
        with service(tmp_path, db_path=db) as (_server2, client2):
            payloads = wait_done(client2, ids)
        for s, jid in zip(specs, ids):
            assert payloads[jid]["digest"] == s.digest()
            assert isinstance(parse_result(payloads[jid]), RunResult)

    def test_hard_kill_recovery_requeues_running(self, tmp_path):
        """A job stranded in 'running' by a hard kill is requeued on
        the next start (store.recover wired into server init)."""
        db = tmp_path / "jobs.sqlite"
        st = JobStore(db)
        s = spec()
        st.submit(s.to_dict(), s.digest())
        st.claim(1)  # simulate dying mid-batch, nothing persisted
        st.close()
        with service(tmp_path, db_path=db) as (server, client):
            assert server.recovered == 1
            jobs = client.jobs(state="done")
            deadline = time.monotonic() + 30
            while not jobs and time.monotonic() < deadline:
                time.sleep(0.05)
                jobs = client.jobs(state="done")
            assert jobs and jobs[0]["digest"] == s.digest()

    def test_job_queued_under_older_code_salt_finishes(self, tmp_path,
                                                        monkeypatch):
        """An upgrade between submit and claim changes every digest:
        the job must still finish, under the digest of the code that
        ran it, instead of hanging in ``running``."""
        s = spec()
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(s)
            monkeypatch.setattr("repro.harness.engine.code_salt",
                                lambda: "upgraded")
            upgraded = s.digest()
            server.paused = False
            payload = client.wait(job["id"], timeout=30)
        assert job["digest"] != upgraded
        assert payload["ok"] is True
        assert payload["digest"] == upgraded

    def test_graceful_drain_loses_none_of_20_jobs(self, tmp_path):
        """ISSUE acceptance: kill -TERM with a 20-job queue loses zero
        jobs — finished results persisted, unstarted requeued.  The
        20 are queued while paused so one claim takes 16 of them, and
        a hang fault on the first spec holds that batch open so the
        drain provably lands mid-batch."""
        db = tmp_path / "jobs.sqlite"
        specs = distinct_specs(20)
        inj = FaultInjector().add(specs[0].digest(), "hang", seconds=0.6)
        with service(tmp_path, db_path=db, batch_max=16, start_paused=True,
                     engine_opts={"jobs": 1, "cache": False,
                                  "faults": inj}) as (server, client):
            ids = {s.digest(): client.submit(s)["id"] for s in specs}
            server.paused = False
            deadline = time.monotonic() + 10
            while not server._batches and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._batches, "batch never started"
            server.stop()  # same path as the SIGTERM handler
        requeued = server.registry.counter("service_jobs_finished_total",
                                           outcome="requeued")
        assert requeued.to_value() >= 1, "no batch slot was requeued"

        st = JobStore(db)
        counts = st.counts()
        st.close()
        assert counts["running"] == 0
        assert counts["failed"] == 0
        assert counts["done"] + counts["queued"] == 20
        assert counts["queued"] >= 1, "drain should requeue the tail"

        with service(tmp_path, db_path=db, batch_max=16) as (_s2, client2):
            payloads = wait_done(client2, ids.values(), timeout=60)
        for s in specs:
            payload = payloads[ids[s.digest()]]
            assert payload["ok"] is True
            assert payload["digest"] == s.digest()

    def test_submit_during_drain_rejected_503(self, tmp_path):
        with service(tmp_path) as (server, client):
            server.draining = True
            status, payload = client._request(
                "POST", "/jobs", {"spec": spec().to_dict()})
            assert status == 503
            server.draining = False


class TestFailurePaths:
    def test_client_disconnect_mid_long_poll(self, tmp_path):
        """A client that vanishes while parked on /wait must not wedge
        the server or leak its handler task."""
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall((f"GET /jobs/{job['id']}/wait?timeout=30 "
                          "HTTP/1.1\r\nHost: x\r\n\r\n").encode())
            time.sleep(0.05)  # let the handler park in the poll loop
            sock.close()
            deadline = time.monotonic() + 5
            while server._handlers and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not server._handlers, "disconnected handler leaked"
            # Server still fully functional afterwards.
            assert client.healthz()["status"] == "ok"
            server.paused = False
            assert client.wait(job["id"], timeout=30)["ok"] is True

    def test_half_request_then_disconnect(self, tmp_path):
        with service(tmp_path) as (_server, client):
            sock = socket.create_connection(("127.0.0.1", client.port))
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 999\r\n"
                         b"\r\ntruncated")
            sock.close()
            assert client.healthz()["status"] == "ok"

    def test_chaos_faults_behind_service(self, tmp_path):
        """PR 2 fault injection mounted behind the service: a transient
        crash is retried to success, a persistent error surfaces as a
        failed job with the full RunFailure record, and neighbours in
        the same batch are untouched."""
        specs = distinct_specs(3)
        inj = (FaultInjector()
               .add(specs[0].digest(), "crash", until_attempt=1)
               .add(specs[1].digest(), "error"))
        with service(tmp_path, engine_opts={
                "jobs": 1, "cache": False,
                "faults": inj}) as (server, client):
            ids = [client.submit(s)["id"] for s in specs]
            transient = client.wait(ids[0], timeout=60)
            persistent = client.wait(ids[1], timeout=60)
            clean = client.wait(ids[2], timeout=60)
        assert transient["ok"] is True          # retry absorbed the crash
        assert server.engine.stats.retries >= 1
        assert persistent["ok"] is False
        failure = parse_result(persistent)
        assert failure.category == "error"
        assert failure.spec_digest == specs[1].digest()
        assert client.parse(clean) == Engine(jobs=1, cache=False) \
            .run_one(specs[2])
        assert json.loads(json.dumps(persistent)) == persistent


class TestBatching:
    """An idle scheduler claims at once; jobs that arrive while every
    worker slot is busy wait in the queue and share the next claim."""

    def test_idle_server_claims_without_a_timed_wait(self, tmp_path,
                                                     monkeypatch):
        def no_timer(*_args, **_kwargs):
            raise AssertionError("the scheduler slept on a timer")
        monkeypatch.setattr(server_module.asyncio, "sleep", no_timer)
        with service(tmp_path) as (_server, client):
            job = client.submit(spec())
            assert client.wait(job["id"], timeout=30)["ok"] is True

    def test_jobs_submitted_during_a_batch_are_claimed_together(
            self, tmp_path, monkeypatch):
        # The hang fault on ``first`` lasts until ``release`` is set.
        release = threading.Event()
        monkeypatch.setattr(faults, "time",
                            SimpleNamespace(sleep=release.wait))
        first = spec(app="hotspot")
        later = distinct_specs(4)
        later.append(later[0])  # a duplicate pair
        inj = FaultInjector().add(first.digest(), "hang")
        with service(tmp_path, engine_opts={
                "jobs": 1, "cache": False,
                "faults": inj}) as (server, client):
            ids = [client.submit(first)["id"]]
            deadline = time.monotonic() + 10
            while not server._batches and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._batches, "batch never started"
            ids += [client.submit(s)["id"] for s in later]
            release.set()
            wait_done(client, ids)
            batches = server.registry.counter("service_batches_total")
            sizes = server.registry.histogram("service_batch_jobs")
        assert batches.to_value() == 2
        assert (sizes.count, sizes.min, sizes.max) == (2, 1, len(later))
        # ``first`` plus four distinct specs; the pair ran once.
        stats = server.engine.stats
        assert (stats.sims, stats.deduped) == (5, 1)


    def test_free_worker_claims_beside_a_running_batch(self, tmp_path,
                                                       monkeypatch):
        """Two workers: a job submitted while a lone job runs is claimed
        at once into a second batch and finishes while the first still
        runs.  Both batches simulate in worker processes."""
        # The hang fault on ``first`` lasts until ``release`` exists; a
        # file, because the hang runs in a forked worker process.
        release = tmp_path / "release"
        sleep = time.sleep

        def hold(seconds):
            deadline = time.monotonic() + seconds
            while not release.exists() and time.monotonic() < deadline:
                sleep(0.01)
        monkeypatch.setattr(faults, "time", SimpleNamespace(sleep=hold))
        pools = []
        real_pool = engine_module.ProcessPoolExecutor

        def counted_pool(**kw):
            pools.append(kw)
            return real_pool(**kw)
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor",
                            counted_pool)
        first, second = spec(app="hotspot"), spec()
        inj = FaultInjector().add(first.digest(), "hang")
        with service(tmp_path, engine_opts={
                "jobs": 2, "cache": False,
                "faults": inj}) as (server, client):
            held = client.submit(first)["id"]
            deadline = time.monotonic() + 10
            while not server._batches and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._batches, "batch never started"
            beside = client.wait(client.submit(second)["id"], timeout=30)
            state = client.status(held)["state"]
            release.touch()
            assert client.wait(held, timeout=30)["ok"] is True
            batches = server.registry.counter("service_batches_total")
        assert state == "running"
        assert parse_result(beside) == Engine(jobs=1, cache=False) \
            .run_one(second)
        assert batches.to_value() == 2
        assert server.engine.stats.sims == 2  # both batches, one engine
        assert pools == [{"max_workers": 1}] * 2


class TestWakeups:
    """The scheduler and long-polls sleep until something changes; no
    loop re-reads the store on a timer."""

    def test_idle_server_does_not_poll(self, tmp_path, monkeypatch):
        with service(tmp_path) as (server, _client):
            calls = count_calls(monkeypatch, server.store,
                                "queue_depth", "get")
            time.sleep(0.5)
            seen = dict(calls)
        assert seen["queue_depth"] <= 1 and seen["get"] == 0

    def test_long_poll_on_paused_server_does_not_poll(self, tmp_path,
                                                      monkeypatch):
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            calls = count_calls(monkeypatch, server.store,
                                "queue_depth", "get")
            payload = client._checked(
                "GET", f"/jobs/{job['id']}/wait?timeout=0.5")
            seen = dict(calls)
        assert payload["timed_out"] is True
        assert seen["queue_depth"] == 0 and seen["get"] <= 2

    def test_submit_wakes_idle_scheduler(self, tmp_path):
        with service(tmp_path) as (_server, client):
            time.sleep(0.2)  # let the scheduler park: no timer wakes it
            job = client.submit(spec())
            assert client.wait(job["id"], timeout=30)["ok"] is True

    def test_unpause_from_another_thread_starts_work(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            job = client.submit(spec())
            flipper = threading.Thread(
                target=setattr, args=(server, "paused", False))
            flipper.start()
            flipper.join(10)
            assert not flipper.is_alive()
            assert client.wait(job["id"], timeout=30)["ok"] is True

    def test_cancel_ends_open_wait(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            job_id = client.submit(spec())["id"]
            thread, out = park_wait(server, job_id)
            client.cancel(job_id)
            thread.join(10)
            assert not thread.is_alive()
        assert out["timed_out"] is False
        assert out["job"]["state"] == "cancelled"
        assert out["payload"]["cancelled"] is True

    def test_shutdown_ends_every_open_wait(self, tmp_path):
        with service(tmp_path, start_paused=True) as (server, client):
            ids = [client.submit(s)["id"] for s in distinct_specs(2)]
            polls = [park_wait(server, ids[0]), park_wait(server, ids[1]),
                     park_wait(server, ids[1], waits=2)]
            server.request_shutdown()
            for thread, _out in polls:
                thread.join(10)
                assert not thread.is_alive()
            server._thread.join(10)
            assert not server._thread.is_alive()
        for _thread, out in polls:
            assert out["timed_out"] is True
            assert out["job"]["state"] == "queued"
