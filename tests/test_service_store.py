"""JobStore: persistence, scheduling order, state transitions."""

from repro.service.store import JOB_STATES, JobStore


def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite")


def submit(st, n=1, **kw):
    jobs = [st.submit({"app": "gaussian", "i": i}, f"digest-{i}", **kw)
            for i in range(n)]
    return jobs[0] if n == 1 else jobs


class TestSubmitAndLookup:
    def test_submit_round_trip(self, tmp_path):
        st = store(tmp_path)
        job = st.submit({"app": "bfs"}, "d0", priority=3, client="alice")
        got = st.get(job.id)
        assert got is not None
        assert got.state == "queued"
        assert got.spec == {"app": "bfs"}
        assert got.digest == "d0"
        assert got.priority == 3
        assert got.client == "alice"
        assert not got.terminal

    def test_get_unknown_returns_none(self, tmp_path):
        assert store(tmp_path).get("nope") is None

    def test_counts_zero_filled(self, tmp_path):
        st = store(tmp_path)
        assert st.counts() == {s: 0 for s in JOB_STATES}
        submit(st, 3)
        assert st.counts()["queued"] == 3
        assert st.queue_depth() == 3

    def test_queued_bytes_tracks_spec_size(self, tmp_path):
        st = store(tmp_path)
        assert st.queued_bytes() == 0
        job = st.submit({"app": "x" * 100}, "d0")
        assert st.queued_bytes() > 100
        st.cancel(job.id)
        assert st.queued_bytes() == 0

    def test_list_filters(self, tmp_path):
        st = store(tmp_path)
        a = st.submit({"app": "a"}, "da", client="alice")
        st.submit({"app": "b"}, "db", client="bob")
        assert len(st.list_jobs()) == 2
        mine = st.list_jobs(client="alice")
        assert [j.id for j in mine] == [a.id]
        st.cancel(a.id)
        assert [j.id for j in st.list_jobs(state="cancelled")] == [a.id]
        assert len(st.list_jobs(limit=1)) == 1

    def test_list_newest_first(self, tmp_path):
        st = store(tmp_path)
        jobs = submit(st, 3)
        assert [j.id for j in st.list_jobs()] == [j.id for j in
                                                 reversed(jobs)]


class TestClaimOrdering:
    def test_fifo_within_priority(self, tmp_path):
        st = store(tmp_path)
        jobs = submit(st, 4)
        claimed = st.claim(10)
        assert [j.id for j in claimed] == [j.id for j in jobs]
        assert all(j.state == "running" for j in claimed)
        assert all(j.started_at is not None for j in claimed)
        assert st.queue_depth() == 0

    def test_priority_beats_fifo(self, tmp_path):
        st = store(tmp_path)
        low = st.submit({"app": "a"}, "da", priority=0)
        high = st.submit({"app": "b"}, "db", priority=5)
        assert [j.id for j in st.claim(10)] == [high.id, low.id]

    def test_claim_respects_limit(self, tmp_path):
        st = store(tmp_path)
        submit(st, 5)
        assert len(st.claim(2)) == 2
        assert st.queue_depth() == 3

    def test_claim_mixed_sanitize_in_fifo_order(self, tmp_path):
        # Sanitize is per run, so a sanitized job never breaks the queue.
        st = store(tmp_path)
        jobs = [st.submit({"app": "a"}, "da"),
                st.submit({"app": "b"}, "db", sanitize=True),
                st.submit({"app": "c"}, "dc"),
                st.submit({"app": "a"}, "da", sanitize=True)]
        claimed = st.claim(10)
        assert [j.id for j in claimed] == [j.id for j in jobs]
        assert [j.sanitize for j in claimed] == [False, True, False, True]

    def test_claim_empty_queue(self, tmp_path):
        assert store(tmp_path).claim(10) == []


class TestTransitions:
    def test_finish_persists_result(self, tmp_path):
        st = store(tmp_path)
        job = submit(st)
        st.claim(1)
        st.finish(job.id, {"ok": True, "cycles": 42})
        got = st.get(job.id)
        assert got.state == "done"
        assert got.result == {"ok": True, "cycles": 42}
        assert got.finished_at is not None
        assert got.terminal

    def test_fail_persists_failure(self, tmp_path):
        st = store(tmp_path)
        job = submit(st)
        st.claim(1)
        st.fail(job.id, {"ok": False, "category": "crash"})
        got = st.get(job.id)
        assert got.state == "failed"
        assert got.failure == {"ok": False, "category": "crash"}

    def test_finish_requires_running(self, tmp_path):
        st = store(tmp_path)
        job = submit(st)  # still queued
        st.finish(job.id, {"ok": True})
        assert st.get(job.id).state == "queued"

    def test_cancel_only_queued(self, tmp_path):
        st = store(tmp_path)
        job = submit(st)
        assert st.cancel(job.id) is True
        assert st.get(job.id).state == "cancelled"
        assert st.cancel(job.id) is False  # already terminal
        running = submit(st)
        st.claim(1)
        assert st.cancel(running.id) is False
        assert st.get(running.id).state == "running"

    def test_requeue_running(self, tmp_path):
        st = store(tmp_path)
        jobs = submit(st, 3)
        st.claim(10)
        n = st.requeue([jobs[0].id, jobs[2].id])
        assert n == 2
        assert st.get(jobs[0].id).state == "queued"
        assert st.get(jobs[0].id).started_at is None
        assert st.get(jobs[1].id).state == "running"

    def test_recover_requeues_stranded(self, tmp_path):
        st = store(tmp_path)
        jobs = submit(st, 3)
        st.claim(10)
        st.finish(jobs[0].id, {"ok": True})
        assert st.recover() == 2  # the two still "running"
        counts = st.counts()
        assert counts["queued"] == 2
        assert counts["done"] == 1


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        st = JobStore(path)
        job = st.submit({"app": "bfs"}, "d0", priority=2)
        done = st.submit({"app": "lud"}, "d1")
        st.claim(1)  # claims priority-2 job
        st.finish(job.id, {"ok": True, "x": 1})
        st.close()

        st2 = JobStore(path)
        assert st2.get(job.id).result == {"ok": True, "x": 1}
        assert st2.get(done.id).state == "queued"
        # FIFO seq survives too: a new submission lands after d1.
        late = st2.submit({"app": "nw"}, "d2")
        assert [j.id for j in st2.claim(10)] == [done.id, late.id]

    def test_recover_on_fresh_open(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        st = JobStore(path)
        submit(st, 2)
        st.claim(10)
        st.close()  # process "died" with jobs running
        st2 = JobStore(path)
        assert st2.recover() == 2
        assert st2.queue_depth() == 2


class TestWireForm:
    def test_to_dict_extracts_app_and_mode(self, tmp_path):
        st = store(tmp_path)
        job = st.submit(
            {"app": "gaussian", "mode": {"label": "unshared-lrr"}}, "d0")
        d = job.to_dict()
        assert d["app"] == "gaussian"
        assert d["mode"] == "unshared-lrr"
        assert "spec" not in d and "result" not in d
