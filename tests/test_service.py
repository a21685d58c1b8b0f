"""Tests for ``repro.service`` — the persistent multi-job engine.

The headline invariant: a job on a *warm* engine (cluster built once,
setup run once, decoded-tile cache populated, shared arena installed)
produces bitwise-identical values, Counters, CacheStats, and modeled
costs to a *cold* one-shot facade run with the same knobs, at every
executor.  Only ``wall_s`` (host wall-clock) and the decoded-tile-cache
hit ratio (the deliberate, metering-neutral warmth) may differ.
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.core import ClusterBuild, GraphH, MPEConfig
from repro.graph import chung_lu_graph
from repro.runtime import outstanding_segments
from repro.runtime.shm import process_runtime_available
from repro.service import (
    AdmissionError,
    Engine,
    JobQueue,
    JobSpec,
    JobStatus,
    ServiceClient,
    ServiceServer,
    SocketServiceClient,
    reset_simulation,
)
from repro.utils.journal import Journal
from tests.contract import Case, check

N_SERVERS = 3

EXECUTORS = ["serial", "parallel"] + (
    ["process"] if process_runtime_available() else []
)

PAGERANK_PARAMS = {"tolerance": 1e-6}


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(220, 1800, seed=11, name="svc-g")


@pytest.fixture(scope="module")
def engine(graph):
    """One warm engine shared by the identity tests (module-scoped so
    its arena segments predate each test's leak-tripwire snapshot)."""
    eng = Engine(num_servers=N_SERVERS)
    eng.register_graph(graph)
    eng.register_graph(graph, name="svc-g-sym", symmetrize=True)
    yield eng
    eng.shutdown()
    assert not outstanding_segments()


def _strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_s"} for r in rows]


def _cold_story(graph, spec: JobSpec):
    """The reference metered story: a cold one-shot facade run."""
    gh = GraphH(num_servers=N_SERVERS, config=MPEConfig())
    try:
        gh.config = spec.overlay(gh.config)
        gh.load_graph(graph, name=graph.name)
        mpe = gh.mpe
        mpe.setup()
        # Normalise setup's own disk traffic out of the story, exactly
        # like the engine does before every job.
        reset_simulation(gh.cluster, mpe.channel)
        result = mpe.run(spec.build_program())
        return {
            "values": result.values.tobytes(),
            "converged": result.converged,
            "supersteps": result.num_supersteps,
            "trace": _strip_wall(result.trace()),
            "counters": {
                s.server_id: s.counters.snapshot() for s in gh.cluster.servers
            },
            "cache": {
                s.server_id: dataclasses.asdict(s.cache.stats)
                for s in gh.cluster.servers
                if s.cache is not None
            },
            "net": result.total_net_bytes(),
            "disk_read": result.total_disk_read(),
        }
    finally:
        gh.close()


def _warm_story(job_result):
    return {
        "values": job_result.values.tobytes(),
        "converged": job_result.converged,
        "supersteps": job_result.num_supersteps,
        "trace": _strip_wall(job_result.supersteps),
        "counters": {int(k): v for k, v in job_result.counters.items()},
        "cache": {int(k): v for k, v in job_result.cache_stats.items()},
        "net": job_result.net_bytes,
        "disk_read": job_result.disk_read_bytes,
    }


def _run_one(engine, spec):
    record = engine.submit(spec)
    assert record.status == JobStatus.QUEUED, record.reason
    done = engine.run_next()
    assert done is record
    assert record.status == JobStatus.DONE, record.reason
    return record


# ----------------------------------------------------------------------
# The tentpole invariant
# ----------------------------------------------------------------------
class TestWarmColdIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bitwise_identity_per_executor(self, executor):
        """Two consecutive warm jobs == a cold engine's run, bit for bit
        (values, Counters, modeled trace sans wall_s)."""
        check(Case(executor=executor, width=2, service=True))

    def test_sssp_identity(self):
        check(Case(program="sssp", service=True))

    def test_decoded_cache_reused_across_jobs(self, engine):
        """After the first job decodes every tile, later jobs re-parse
        nothing — the observable (metering-neutral) warmth."""
        spec = JobSpec(
            graph="svc-g", algorithm="pagerank", params=PAGERANK_PARAMS
        )
        first = _run_one(engine, spec).result
        second = _run_one(engine, spec).result
        assert second.decoded_cache_misses == 0
        assert second.decoded_cache_hits > 0
        assert first.values.tobytes() == second.values.tobytes()

    def test_run_knobs_are_restored_between_jobs(self, graph, engine):
        """A job's executor/selective overrides must not leak into the
        next job's config (the next job re-matches the cold story)."""
        knobbed = JobSpec(
            graph="svc-g",
            algorithm="pagerank",
            params=PAGERANK_PARAMS,
            executor="parallel",
            selective=True,
            max_supersteps=5,
        )
        _run_one(engine, knobbed)
        plain = JobSpec(
            graph="svc-g", algorithm="pagerank", params=PAGERANK_PARAMS
        )
        record = _run_one(engine, plain)
        assert _warm_story(record.result) == _cold_story(graph, plain)


# ----------------------------------------------------------------------
# Scheduler: admission, priorities, tenant fairness
# ----------------------------------------------------------------------
def _rec(i, priority="normal", tenant="default"):
    from repro.service.jobs import JobRecord

    return JobRecord(
        job_id=f"job-{i:08d}",
        spec=JobSpec(graph="g", priority=priority, tenant=tenant),
    )


class TestJobQueue:
    def test_priority_classes_pop_in_order(self):
        q = JobQueue(capacity=8)
        q.push(_rec(1, "low"))
        q.push(_rec(2, "normal"))
        q.push(_rec(3, "high"))
        q.push(_rec(4, "high"))
        order = [q.pop(timeout=0).job_id for _ in range(4)]
        assert order == [
            "job-00000003",
            "job-00000004",
            "job-00000002",
            "job-00000001",
        ]

    def test_tenant_round_robin_within_priority(self):
        q = JobQueue(capacity=8)
        for i, tenant in [(1, "a"), (2, "a"), (3, "a"), (4, "b"), (5, "b")]:
            q.push(_rec(i, tenant=tenant))
        order = [q.pop(timeout=0).job_id for _ in range(5)]
        # a, b alternate (first-submission tenant order), then a drains.
        assert order == [
            "job-00000001",
            "job-00000004",
            "job-00000002",
            "job-00000005",
            "job-00000003",
        ]

    def test_capacity_rejects_with_reason(self):
        q = JobQueue(capacity=2)
        q.push(_rec(1))
        q.push(_rec(2))
        with pytest.raises(AdmissionError, match="queue full"):
            q.push(_rec(3))

    def test_tenant_quota_rejects_with_reason(self):
        q = JobQueue(capacity=8, tenant_quota=1)
        q.push(_rec(1, tenant="a"))
        with pytest.raises(AdmissionError, match="quota exceeded"):
            q.push(_rec(2, tenant="a"))
        q.push(_rec(3, tenant="b"))  # another tenant still admitted

    def test_snapshot_is_nondestructive_pop_order(self):
        q = JobQueue(capacity=8)
        for i, prio in [(1, "low"), (2, "high"), (3, "normal")]:
            q.push(_rec(i, prio))
        snap = [r.job_id for r in q.snapshot()]
        assert snap == ["job-00000002", "job-00000003", "job-00000001"]
        assert [q.pop(timeout=0).job_id for _ in range(3)] == snap

    def test_closed_queue_rejects_and_unblocks(self):
        q = JobQueue(capacity=2)
        q.close()
        with pytest.raises(AdmissionError, match="shutting down"):
            q.push(_rec(1))
        assert q.pop(timeout=0) is None


class TestAdmission:
    def test_engine_records_rejection_instead_of_raising(self, engine):
        record = engine.submit(JobSpec(graph="nope"))
        assert record.status == JobStatus.REJECTED
        assert "not registered" in record.reason

    def test_unknown_algorithm_rejected(self, engine):
        record = engine.submit(JobSpec(graph="svc-g", algorithm="kmeans"))
        assert record.status == JobStatus.REJECTED
        assert "unknown algorithm" in record.reason

    def test_wcc_requires_symmetrized_registration(self, engine):
        record = engine.submit(JobSpec(graph="svc-g", algorithm="wcc"))
        assert record.status == JobStatus.REJECTED
        assert "undirected" in record.reason
        ok = engine.submit(JobSpec(graph="svc-g-sym", algorithm="wcc"))
        assert ok.status == JobStatus.QUEUED
        engine.run_next()
        assert ok.status == JobStatus.DONE and ok.result.converged

    @pytest.mark.parametrize(
        "bad",
        [
            dict(fault_events=[{"kind": "bogus"}]),
            dict(fault_events=[{"kind": "crash", "superstp": 3, "server": 0}]),
            dict(max_restarts=-5),
        ],
        ids=["unknown-kind", "misspelled-key", "negative-budget"],
    )
    def test_bad_fault_schedule_rejected_at_submit(self, engine, bad):
        record = engine.submit(JobSpec(graph="svc-g", **bad))
        assert record.status == JobStatus.REJECTED
        assert record.reason.startswith("bad fault schedule: ")

    def test_queue_full_surfaces_as_rejected_record(self, graph):
        eng = Engine(num_servers=2, capacity=2, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            specs = [JobSpec(graph="tiny", max_supersteps=2) for _ in range(3)]
            records = [eng.submit(s) for s in specs]
            assert [r.status for r in records] == [
                JobStatus.QUEUED,
                JobStatus.QUEUED,
                JobStatus.REJECTED,
            ]
            assert "queue full" in records[2].reason
        finally:
            eng.shutdown()

    def test_tenant_quota_enforced_per_tenant(self, graph):
        eng = Engine(
            num_servers=2, capacity=8, tenant_quota=1, share_tiles=False
        )
        try:
            eng.register_graph(graph, name="tiny")
            a1 = eng.submit(JobSpec(graph="tiny", tenant="alice"))
            a2 = eng.submit(JobSpec(graph="tiny", tenant="alice"))
            b1 = eng.submit(JobSpec(graph="tiny", tenant="bob"))
            assert a1.status == JobStatus.QUEUED
            assert a2.status == JobStatus.REJECTED
            assert "quota" in a2.reason
            assert b1.status == JobStatus.QUEUED
        finally:
            eng.shutdown()


# ----------------------------------------------------------------------
# Fault-injected jobs: supervisor-backed retry
# ----------------------------------------------------------------------
class TestSupervisedJobs:
    def test_crash_job_recovers_to_clean_values(self, engine):
        clean = _run_one(
            engine,
            JobSpec(
                graph="svc-g", algorithm="pagerank", params=PAGERANK_PARAMS
            ),
        ).result
        faulted = _run_one(
            engine,
            JobSpec(
                graph="svc-g",
                algorithm="pagerank",
                params=PAGERANK_PARAMS,
                checkpoint_every=2,
                fault_events=({"kind": "crash", "superstep": 2, "server": 1},),
            ),
        ).result
        assert faulted.recovery is not None
        assert faulted.recovery["restarts"] >= 1
        assert faulted.recovery["records"][0]["superstep"] == 2
        assert faulted.recovery["converged"]
        assert faulted.values.tobytes() == clean.values.tobytes()
        assert clean.recovery is None

    def test_failed_job_does_not_poison_the_engine(self, graph, engine):
        """A job that exhausts its retry budget fails cleanly; the next
        plain job still matches the cold story."""
        bad = _run_one_allow_fail(
            engine,
            JobSpec(
                graph="svc-g",
                max_supersteps=6,
                checkpoint_every=2,
                max_restarts=0,
                fault_events=({"kind": "crash", "superstep": 2},),
            ),
        )
        assert bad.status == JobStatus.FAILED
        assert bad.reason
        plain = JobSpec(
            graph="svc-g", algorithm="pagerank", params=PAGERANK_PARAMS
        )
        record = _run_one(engine, plain)
        assert _warm_story(record.result) == _cold_story(graph, plain)


def _run_one_allow_fail(engine, spec):
    record = engine.submit(spec)
    assert record.status == JobStatus.QUEUED, record.reason
    engine.run_next()
    return record


# ----------------------------------------------------------------------
# Persistence: results, queue, restart recovery
# ----------------------------------------------------------------------
class TestPersistence:
    def test_result_round_trips_through_state_dir(self, graph, tmp_path):
        state = str(tmp_path / "state")
        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            record = _run_one(eng, JobSpec(graph="tiny", max_supersteps=4))
        finally:
            eng.shutdown()
        reloaded = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            result = reloaded.load_result(record.job_id)
            assert result is not None
            assert result.values.tobytes() == record.result.values.tobytes()
            assert result.counters == record.result.counters
            assert (
                reloaded.get(record.job_id).status == JobStatus.DONE
            )
        finally:
            reloaded.shutdown()

    def test_old_results_leave_memory_and_come_back_from_the_state_dir(
        self, graph, tmp_path, monkeypatch
    ):
        import repro.service.engine as engine_module

        monkeypatch.setattr(engine_module, "RESULTS_IN_MEMORY", 2)
        eng = Engine(
            num_servers=2, state_dir=str(tmp_path / "state"), share_tiles=False
        )
        try:
            eng.register_graph(graph, name="tiny")
            records = [
                _run_one(eng, JobSpec(graph="tiny", max_supersteps=steps))
                for steps in (2, 3, 4)
            ]
            values = [
                _cold_story(graph, r.spec)["values"] for r in records
            ]
            assert records[0].result.values is None  # only the newest two
            assert all(r.result.values is not None for r in records[1:])
            assert records[0].result.num_supersteps == 2  # the story stays
            for record, expected in zip(records, values):
                loaded = eng.load_result(record.job_id)
                assert loaded.values.tobytes() == expected
                assert loaded.counters == record.result.counters
        finally:
            eng.shutdown()
        # Without a state dir there is nowhere to read one back from.
        eng = Engine(num_servers=2, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            records = [
                _run_one(eng, JobSpec(graph="tiny", max_supersteps=2))
                for _ in range(3)
            ]
            assert all(r.result.values is not None for r in records)
        finally:
            eng.shutdown()

    def test_restart_reads_a_state_dir_written_indented(self, graph, tmp_path):
        """State files were ``json.dump(..., indent=1)`` before they
        were one ``dumps``: a daemon restarted over an old state dir
        must restore its job index (queued jobs included), results and
        mutation log."""
        state = str(tmp_path / "state")
        eng = Engine(
            num_servers=2, state_dir=state, share_tiles=False,
            config=MPEConfig(mutations=True),
        )
        eng.register_graph(graph, name="evo")
        ops = [
            {"op": "insert", "src": 1, "dst": 7, "weight": 0.5},
            {"op": "insert", "src": 7, "dst": 2, "weight": 0.25},
        ]
        eng.mutate("evo", ops)
        done = _run_one(
            eng, JobSpec(graph="evo", algorithm="sssp", params={"source": 1})
        )
        queued = eng.submit(JobSpec(graph="evo", max_supersteps=3))
        eng.shutdown()
        rewritten = 0
        for folder, _dirs, files in os.walk(state):
            for name in files:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                assert "\n " not in text  # the compact form is one line
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(json.loads(text), fh, indent=1, sort_keys=True)
                    fh.write("\n")
                rewritten += 1
        assert rewritten == 3  # jobs, mutlog, one result
        restarted = Engine(
            num_servers=2, state_dir=state, share_tiles=False,
            config=MPEConfig(mutations=True),
        )
        try:
            assert restarted.get(done.job_id).status == JobStatus.DONE
            assert restarted.queue.depth() == 1
            loaded = restarted.load_result(done.job_id)
            assert loaded.values.tobytes() == done.result.values.tobytes()
            restarted.register_graph(graph, name="evo")  # replays the log
            assert restarted.run_next().job_id == queued.job_id
            assert restarted.get(queued.job_id).status == JobStatus.DONE
            again = _run_one(
                restarted,
                JobSpec(graph="evo", algorithm="sssp", params={"source": 1}),
            )
            # The replayed mutations are in: same values as before the bounce.
            assert again.result.values.tobytes() == done.result.values.tobytes()
        finally:
            restarted.shutdown()

    def test_restart_restores_queued_jobs_in_order(self, graph, tmp_path):
        state = str(tmp_path / "state")
        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        eng.register_graph(graph, name="tiny")
        ids = [
            eng.submit(
                JobSpec(graph="tiny", priority=prio, max_supersteps=3)
            ).job_id
            for prio in ("low", "normal", "high")
        ]
        eng.shutdown()  # drains workers, persists the job index
        with open(os.path.join(state, "jobs.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["jobs"]
        assert [(r["job_id"], r["status"]) for r in rows] == [
            (job_id, JobStatus.QUEUED) for job_id in ids
        ]
        assert not os.path.exists(os.path.join(state, "queue.json"))

        restarted = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            assert restarted.queue.depth() == 3
            # New submissions continue the persisted id sequence.
            restarted.register_graph(graph, name="tiny")
            fresh = restarted.submit(JobSpec(graph="tiny", max_supersteps=3))
            assert fresh.job_id == "job-00000004"
            ran = []
            while (record := restarted.run_next()) is not None:
                assert record.status == JobStatus.DONE, record.reason
                ran.append(record.job_id)
            # Priority still rules: the fresh normal job runs before
            # the restored low one.
            assert ran == [ids[2], ids[1], fresh.job_id, ids[0]]
        finally:
            restarted.shutdown()

    def test_restart_over_a_state_dir_with_a_queue_file(self, graph, tmp_path):
        """A graceful shutdown used to also write ``queue.json`` (the
        queued rows in pop order plus the id sequence) beside
        ``jobs.json``.  A state dir left that way restores the same job
        table from ``jobs.json`` alone and continues the ids."""
        state = str(tmp_path / "state")
        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        eng.register_graph(graph, name="tiny")
        done = _run_one(eng, JobSpec(graph="tiny", max_supersteps=3))
        queued = [
            eng.submit(JobSpec(graph="tiny", priority=prio, max_supersteps=3))
            for prio in ("low", "high")
        ]
        eng.shutdown()
        with open(os.path.join(state, "queue.json"), "w") as fh:
            json.dump(
                {
                    "schema": "repro-service-queue/v1",
                    "next_job_seq": 3,
                    "queued": [r.to_dict() for r in reversed(queued)],
                },
                fh,
                sort_keys=True,
            )

        restarted = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            assert [(r.job_id, r.status) for r in restarted.jobs()] == [
                (done.job_id, JobStatus.DONE),
                (queued[0].job_id, JobStatus.QUEUED),
                (queued[1].job_id, JobStatus.QUEUED),
            ]
            assert [r.job_id for r in restarted.queue.snapshot()] == [
                queued[1].job_id, queued[0].job_id
            ]
            restarted.register_graph(graph, name="tiny")
            fresh = restarted.submit(JobSpec(graph="tiny", max_supersteps=3))
            assert fresh.job_id == "job-00000004"
        finally:
            restarted.shutdown()

    def _two_jobs_one_run(self, graph, tmp_path):
        """Submit two jobs, run one, stop without ``shutdown()``: the
        state dir as the killed process leaves it (no fsync to lose)."""
        state = str(tmp_path / "state")
        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            first = eng.submit(JobSpec(graph="tiny", max_supersteps=3))
            second = eng.submit(JobSpec(graph="tiny", algorithm="degree"))
            eng.run_next()
            return _stopped_copy(state, tmp_path), first, second
        finally:
            eng.shutdown()

    def test_unclean_stop_readmits_unfinished_jobs(self, graph, tmp_path):
        state, first, second = self._two_jobs_one_run(graph, tmp_path)
        restarted = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            assert restarted.get(first.job_id).status == JobStatus.DONE
            assert restarted.get(second.job_id).status == JobStatus.QUEUED
            assert restarted.queue.depth() == 1
            restarted.register_graph(graph, name="tiny")
            assert restarted.run_next().job_id == second.job_id
            assert restarted.get(second.job_id).status == JobStatus.DONE
        finally:
            restarted.shutdown()

    def test_unclean_stop_resumes_job_ids(self, graph, tmp_path):
        state, first, _second = self._two_jobs_one_run(graph, tmp_path)
        restarted = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            restarted.register_graph(graph, name="tiny")
            fresh = restarted.submit(JobSpec(graph="tiny", algorithm="degree"))
            assert fresh.job_id == "job-00000003"
            assert restarted.get(first.job_id).status == JobStatus.DONE
            loaded = restarted.load_result(first.job_id)
            assert loaded.values.tobytes() == first.result.values.tobytes()
        finally:
            restarted.shutdown()

    def test_state_dir_grows_by_the_record_not_the_history(
        self, graph, tmp_path
    ):
        """What a batch and a job write to the state dir is the same at
        job 5 and at job 200, up to record-size variation: no write is
        proportional to the history before it."""
        state = str(tmp_path / "state")

        def files():
            return {
                os.path.join(folder, name): os.stat(os.path.join(folder, name))
                for folder, _dirs, names in os.walk(state)
                for name in names
            }

        def written(step):
            """Bytes ``step`` wrote: every file it created or replaced
            (a new inode), the growth of every file it appended to."""
            before = files()
            step()
            total = 0
            for path, st in files().items():
                old = before.get(path)
                if old is None or old.st_ino != st.st_ino:
                    total += st.st_size
                elif (old.st_size, old.st_mtime_ns) != (st.st_size, st.st_mtime_ns):
                    assert st.st_size > old.st_size, f"{path} rewritten in place"
                    total += st.st_size - old.st_size
            return total

        def round_(i):
            batch = [{"op": "insert", "src": i % 50, "dst": 60}]
            return (
                written(lambda: eng.mutate("tiny", batch)),
                written(
                    lambda: _run_one(eng, JobSpec(graph="tiny", algorithm="degree"))
                ),
            )

        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            grown = [round_(i) for i in range(200)]
        finally:
            eng.shutdown()
        (batch_5, job_5), (batch_200, job_200) = grown[4], grown[199]
        assert abs(batch_200 - batch_5) <= 8  # the id's digits
        assert abs(job_200 - job_5) <= 0.05 * job_5  # floats' digits


def _stopped_copy(state: str, tmp_path) -> str:
    """A copy of a live engine's state dir: what a kill would leave."""
    return shutil.copytree(state, str(tmp_path / "stopped"))


def _recovery_view(eng, graph: str) -> dict:
    """What a restart must reproduce: job index, queue, results and the
    graph's mutation-log replay."""
    jobs = [(r.job_id, r.status) for r in eng.jobs()]
    with eng._lock:
        mpe = eng._graphs[graph].mpe
    # A restart replays the log as one batch: one compaction.
    overlays = mpe.delta.store.summary()
    del overlays["compactions"]
    return {
        "jobs": jobs,
        "queue": [r.job_id for r in eng.queue.snapshot()],
        "results": {
            job_id: eng.load_result(job_id).values.tobytes()
            for job_id, status in jobs
            if status == JobStatus.DONE
        },
        "mutations": [m.to_dict() for m in mpe.mutation_log.mutations],
        "overlays": overlays,
    }


# A stop at journal byte offset k: rows rewrite the journal a session
# wrote (record ``i`` ends at ``ends[i]``) and name the step whose state
# the restart must come back to.
RECOVERY_ROWS = {
    "torn-last-record": lambda data, ends: (
        data[: (ends[-2] + ends[-1]) // 2], -2
    ),
    "duplicated-last-record": lambda data, ends: (
        data + data[ends[-2] : ends[-1]], -1
    ),
    # job 1's submit again, after its finish: it must stay done
    "duplicated-earlier-record": lambda data, ends: (
        data[: ends[2]] + data[ends[0] : ends[1]] + data[ends[2] :], -1
    ),
    "stop-between-records": lambda data, ends: (data[: ends[4]], 4),
    "stop-inside-a-record": lambda data, ends: (data[: ends[4] + 10], 4),
}


class TestRecovery:
    """Failure paths as rows: each restarts to the job index, queue,
    results and mutation-log replay of the step it stopped after."""

    def _session(self, graph, state):
        """Seven steps of one record each; returns the live engine and,
        per step, (journal size, the state a restart must reproduce)."""
        from repro.delta import random_mutations

        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        eng.register_graph(graph, name="evo")
        journal = os.path.join(state, "journal.log")

        def mark():
            size = os.path.getsize(journal) if os.path.exists(journal) else 0
            points.append((size, _recovery_view(eng, "evo")))

        steps = [
            lambda: eng.submit(
                JobSpec(graph="evo", algorithm="sssp", params={"source": 1})
            ),
            eng.run_next,
            lambda: eng.mutate("evo", random_mutations(graph, 40, 25, seed=7)),
            lambda: eng.submit(JobSpec(graph="evo", max_supersteps=3)),
            lambda: eng.submit(JobSpec(graph="evo", algorithm="degree")),
            eng.run_next,
            lambda: eng.mutate("evo", random_mutations(graph, 30, 0, seed=8)),
        ]
        points = []
        mark()
        for step in steps:
            step()
            mark()
        return eng, points

    def _restart(self, graph, state, expected):
        restarted = Engine(num_servers=2, state_dir=state, share_tiles=False)
        try:
            restarted.register_graph(graph, name="evo")
            assert _recovery_view(restarted, "evo") == expected
            fresh = restarted.submit(JobSpec(graph="evo", algorithm="degree"))
            assert fresh.job_id == f"job-{len(expected['jobs']) + 1:08d}"
        finally:
            restarted.shutdown()

    @pytest.mark.parametrize("row", sorted(RECOVERY_ROWS))
    def test_restart_recovers(self, graph, tmp_path, row):
        state = str(tmp_path / "state")
        eng, points = self._session(graph, state)
        try:
            stopped = _stopped_copy(state, tmp_path)
        finally:
            eng.shutdown()
        path = os.path.join(stopped, "journal.log")
        with open(path, "rb") as fh:
            data = fh.read()
        journal, step = RECOVERY_ROWS[row](data, [size for size, _ in points])
        with open(path, "wb") as fh:
            fh.write(journal)
        self._restart(graph, stopped, points[step][1])

    def test_restart_over_a_compacted_journal(
        self, graph, tmp_path, monkeypatch
    ):
        """A journal that outgrew its snapshot was folded into it: the
        restart reads the snapshot, then the records after it."""
        import repro.service.engine as engine_module

        monkeypatch.setattr(engine_module, "JOURNAL_MIN_BYTES", 2000)
        state = str(tmp_path / "state")
        eng, points = self._session(graph, state)
        try:
            stopped = _stopped_copy(state, tmp_path)
        finally:
            eng.shutdown()
        assert os.path.exists(os.path.join(stopped, "mutlog-evo.json"))
        sizes = [size for size, _ in points]
        assert any(b < a for a, b in zip(sizes, sizes[1:])), sizes
        assert sizes[-1] > 0
        self._restart(graph, stopped, points[-1][1])

    def test_sigkilled_serve_restarts_with_its_jobs(self, tmp_path):
        from repro.graph.io import load_edge_list_csv

        state = tmp_path / "state"
        proc, port, edges = _start_serve(tmp_path, state)
        ops = [{"op": "insert", "src": 1, "dst": 2}, {"op": "insert", "src": 3, "dst": 4}]
        try:
            client = SocketServiceClient(port=port, timeout=60.0)
            ids = []
            for algorithm in ("pagerank", "degree"):
                submitted = client.submit(graph="g", algorithm=algorithm)
                assert client.wait(submitted["job_id"], timeout=60.0)[
                    "status"
                ] == JobStatus.DONE
                ids.append(submitted["job_id"])
            client.mutate("g", ops)
            values = client.result(ids[0])["values"]
            proc.kill()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=60.0)
        assert proc.returncode == -signal.SIGKILL
        restarted = Engine(num_servers=2, state_dir=str(state), share_tiles=False)
        try:
            assert [(r.job_id, r.status) for r in restarted.jobs()] == [
                (job_id, JobStatus.DONE) for job_id in ids
            ]
            assert restarted.queue.depth() == 0
            assert restarted.load_result(ids[0]).values.tolist() == values
            restarted.register_graph(load_edge_list_csv(str(edges)), name="g")
            with restarted._lock:
                log = restarted._graphs["g"].mpe.mutation_log
            assert [
                {"op": m.op, "src": m.src, "dst": m.dst} for m in log.mutations
            ] == ops
            fresh = restarted.submit(JobSpec(graph="g", algorithm="degree"))
            assert fresh.job_id == "job-00000003"
        finally:
            restarted.shutdown()


# ----------------------------------------------------------------------
# Evolving graphs (repro.delta): mutate-while-serving + durability
# ----------------------------------------------------------------------
class TestEvolvingGraphs:
    def _mutations(self, graph, seed=7, num_deletes=25):
        from repro.delta import random_mutations

        return random_mutations(
            graph, num_inserts=40, num_deletes=num_deletes, seed=seed
        )

    def test_mutate_query_mutate_query_incremental(self, graph, tmp_path):
        """The headline session: queries interleaved with mutation
        batches, incremental jobs matching scratch at every step."""
        import numpy as np

        segments_before = set(outstanding_segments())
        eng = Engine(
            num_servers=2,
            state_dir=str(tmp_path / "state"),
            share_tiles=False,
        )
        try:
            eng.register_graph(graph, name="evo")
            client = ServiceClient(eng)

            def run_job(**fields):
                rec = client.submit(graph="evo", algorithm="sssp",
                                    params={"source": 1}, **fields)
                eng.run_next()
                job = client.wait(rec["job_id"])
                assert job["status"] == JobStatus.DONE, job["reason"]
                return np.asarray(client.result(rec["job_id"])["values"])

            base = run_job()
            # batch 2 is insert-only: deletes are sampled from the
            # *original* edge list and could collide with batch 1's
            for seed, deletes in ((7, 25), (21, 0)):
                batch = self._mutations(graph, seed, num_deletes=deletes)
                report = client.mutate("evo", batch)
                assert report["applied"] == len(batch)
                inc = run_job(incremental=True)
                scratch = run_job()
                assert np.array_equal(inc, scratch)
            assert not np.array_equal(scratch, base)
        finally:
            eng.shutdown()
        # relative to the module engine fixture's long-lived arena
        assert set(outstanding_segments()) == segments_before

    def test_mutation_log_survives_restart(self, graph, tmp_path):
        """The persisted mutlog replays on re-registration: queries see
        the mutated graph bitwise; fixed-point memory does not survive,
        so the first incremental job fails with a reason."""
        import numpy as np

        segments_before = set(outstanding_segments())
        state = str(tmp_path / "state")
        eng = Engine(num_servers=2, state_dir=state, share_tiles=False)
        eng.register_graph(graph, name="evo")
        client = ServiceClient(eng)
        r = client.submit(graph="evo", algorithm="sssp",
                          params={"source": 1})
        eng.run_next()
        client.wait(r["job_id"])
        client.mutate("evo", self._mutations(graph))
        # The batch is journaled; the snapshot waits for the shutdown.
        journal = Journal(os.path.join(state, "journal.log")).replay()
        assert [e["graph"] for e in journal if e["op"] == "mutate"] == ["evo"]
        assert not os.path.exists(os.path.join(state, "mutlog-evo.json"))
        r = client.submit(graph="evo", algorithm="sssp",
                          params={"source": 1})
        eng.run_next()
        client.wait(r["job_id"])
        before = np.asarray(client.result(r["job_id"])["values"])
        eng.shutdown()

        restarted = Engine(num_servers=2, state_dir=state,
                           share_tiles=False)
        try:
            restarted.register_graph(graph, name="evo")
            client = ServiceClient(restarted)
            # incremental first: no fixed point survived the bounce
            r = client.submit(graph="evo", algorithm="sssp",
                              params={"source": 1}, incremental=True)
            restarted.run_next()
            job = client.wait(r["job_id"])
            assert job["status"] == JobStatus.FAILED
            assert "previous completed run" in job["reason"]
            # scratch sees the replayed mutations bitwise
            r = client.submit(graph="evo", algorithm="sssp",
                              params={"source": 1})
            restarted.run_next()
            job = client.wait(r["job_id"])
            assert job["status"] == JobStatus.DONE, job["reason"]
            after = np.asarray(client.result(r["job_id"])["values"])
            assert np.array_equal(after, before)
            # and incremental works again once a fixed point exists
            r = client.submit(graph="evo", algorithm="sssp",
                              params={"source": 1}, incremental=True)
            restarted.run_next()
            job = client.wait(r["job_id"])
            assert job["status"] == JobStatus.DONE, job["reason"]
        finally:
            restarted.shutdown()
        assert set(outstanding_segments()) == segments_before

    @pytest.mark.skipif(
        not process_runtime_available(),
        reason="platform lacks fork + POSIX shared memory",
    )
    def test_overlay_eviction_releases_segments(self, graph):
        """Mutated graphs under a shared warm-tile arena (including
        merged, versioned tile blobs) evict segment-clean."""
        segments_before = set(outstanding_segments())
        eng = Engine(num_servers=2, share_tiles=True)
        try:
            eng.register_graph(graph, name="evo-arena")
            with eng._lock:
                ctx = eng._graphs["evo-arena"]
            assert ctx.arena is not None
            # force merges so versioned blobs exist next to the arena
            ctx.mpe.delta.store.merge_ratio = 1e-9
            eng.mutate("evo-arena", self._mutations(graph))
            rec = eng.submit(JobSpec(graph="evo-arena", algorithm="sssp",
                                     params={"source": 1}))
            eng.run_next()
            assert rec.status == JobStatus.DONE, rec.reason
            eng.evict_graph("evo-arena")
        finally:
            eng.shutdown()
        assert set(outstanding_segments()) == segments_before


# ----------------------------------------------------------------------
# Lifecycle: workers, shutdown, segment hygiene
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_background_workers_drain_the_queue(self, engine):
        records = [
            engine.submit(
                JobSpec(
                    graph="svc-g",
                    algorithm="pagerank",
                    params=PAGERANK_PARAMS,
                    max_supersteps=4,
                )
            )
            for _ in range(3)
        ]
        engine.start(job_workers=2)
        try:
            for record in records:
                engine.wait(record.job_id, timeout=60.0)
                assert record.status == JobStatus.DONE, record.reason
        finally:
            engine._stop.set()
            for t in engine._workers:
                t.join(timeout=10.0)
            engine._workers.clear()
            engine._stop.clear()

    def test_shutdown_releases_every_segment(self, graph):
        if not process_runtime_available():
            pytest.skip("no POSIX shared memory on this platform")
        before = set(outstanding_segments())
        eng = Engine(num_servers=2)
        eng.register_graph(graph, name="tiny")
        assert set(outstanding_segments()) - before  # arena is live
        _run_one(eng, JobSpec(graph="tiny", max_supersteps=3))
        eng.shutdown()
        assert set(outstanding_segments()) == before
        eng.shutdown()  # idempotent

    def test_submit_after_shutdown_is_rejected(self, graph):
        eng = Engine(num_servers=2, share_tiles=False)
        eng.register_graph(graph, name="tiny")
        eng.shutdown()
        record = eng.submit(JobSpec(graph="tiny"))
        assert record.status == JobStatus.REJECTED
        assert "shutting down" in record.reason

    def test_evict_graph_releases_and_unregisters(self, graph):
        eng = Engine(num_servers=2)
        try:
            eng.register_graph(graph, name="tiny")
            assert eng.graphs() == ["tiny"]
            eng.evict_graph("tiny")
            assert eng.graphs() == []
            record = eng.submit(JobSpec(graph="tiny"))
            assert record.status == JobStatus.REJECTED
        finally:
            eng.shutdown()


# ----------------------------------------------------------------------
# Clients: in-process and socket/JSON
# ----------------------------------------------------------------------
class TestClients:
    def test_in_process_client(self, engine):
        client = ServiceClient(engine)
        submitted = client.submit(
            graph="svc-g",
            algorithm="pagerank",
            params=PAGERANK_PARAMS,
            max_supersteps=4,
        )
        engine.run_next()
        job = client.status(submitted["job_id"])
        assert job["status"] == JobStatus.DONE
        assert job["result"]["num_supersteps"] == 4
        report = client.report()
        assert report["schema"].startswith("repro-service-report/")
        assert any(
            row["job_id"] == submitted["job_id"] for row in report["jobs"]
        )

    def test_socket_round_trip(self, engine):
        server = ServiceServer(engine, port=0)
        thread = server.serve_in_thread()
        engine.start(job_workers=1)
        try:
            client = SocketServiceClient(*server.address, timeout=60.0)
            assert "svc-g" in client.ping()["graphs"]
            submitted = client.submit(
                graph="svc-g",
                algorithm="sssp",
                params={"source": 0},
            )
            assert submitted["ok"], submitted
            job = client.wait(submitted["job_id"], timeout=60.0)
            assert job["status"] == JobStatus.DONE
            result = client.result(submitted["job_id"])
            assert len(result["values"]) == 220
            rejected = client.submit(graph="nope")
            assert not rejected["ok"]
            assert "not registered" in rejected["reason"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            engine._stop.set()
            for t in engine._workers:
                t.join(timeout=10.0)
            engine._workers.clear()
            engine._stop.clear()


# ----------------------------------------------------------------------
# Observability: spans, metrics, service report
# ----------------------------------------------------------------------
class TestObservability:
    def test_job_spans_and_gauges(self, graph):
        from repro.obs.trace import SERVICE_TID, Tracer

        tracer = Tracer()
        eng = Engine(num_servers=2, tracer=tracer, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            _run_one(eng, JobSpec(graph="tiny", max_supersteps=3))
            buf = tracer.service()
            assert buf.tid == SERVICE_TID
            names = [e[1] for e in buf.events()]
            assert "graph_register" in names
            assert "job_submit" in names
            assert "job" in names  # the complete span
            rejected = eng.submit(JobSpec(graph="absent"))
            assert rejected.status == JobStatus.REJECTED
            assert "job_reject" in [e[1] for e in tracer.service().events()]
        finally:
            eng.shutdown()

    def test_service_report_rows(self, graph):
        from repro.obs.report import build_service_report, format_service_report

        eng = Engine(num_servers=2, share_tiles=False)
        try:
            eng.register_graph(graph, name="tiny")
            done = _run_one(eng, JobSpec(graph="tiny", max_supersteps=3))
            eng.submit(JobSpec(graph="absent"))
            report = build_service_report(eng)
            assert report["graphs"] == ["tiny"]
            assert report["status_counts"] == {"done": 1, "rejected": 1}
            row = next(
                r for r in report["jobs"] if r["job_id"] == done.job_id
            )
            assert row["num_supersteps"] == 3
            text = format_service_report(report)
            assert done.job_id in text and "rejected" in text
        finally:
            eng.shutdown()


# ----------------------------------------------------------------------
# Satellite: ClusterBuild extraction (facade reuse path)
# ----------------------------------------------------------------------
class TestClusterBuild:
    def test_shared_build_reuses_cluster_across_facades(self, graph):
        with ClusterBuild(num_servers=N_SERVERS) as build:
            gh1 = GraphH(build=build)
            gh1.load_graph(graph, name="cb-g")
            v1 = gh1.pagerank(tolerance=1e-6)
            gh1.close()  # must NOT tear down the shared build

            assert "cb-g" in build.datasets()
            gh2 = GraphH(build=build)
            gh2.load_graph(graph, name="cb-g", reuse=True)
            assert gh2.cluster is gh1.cluster
            v2 = gh2.pagerank(tolerance=1e-6)
            gh2.close()
        assert v1.tobytes() == v2.tobytes()

    def test_shared_build_matches_one_shot(self, graph):
        gh = GraphH(num_servers=N_SERVERS)
        gh.load_graph(graph, name="one-shot")
        expected = gh.pagerank(tolerance=1e-6)
        gh.close()
        with ClusterBuild(num_servers=N_SERVERS) as build:
            gh2 = GraphH(build=build)
            gh2.load_graph(graph, name="shared")
            got = gh2.pagerank(tolerance=1e-6)
            gh2.close()
        assert expected.tobytes() == got.tobytes()

    def test_build_warm_engine_is_cached(self, graph):
        with ClusterBuild(num_servers=2) as build:
            build.load(graph, name="warm")
            m1 = build.mpe("warm")
            m2 = build.mpe("warm")
            assert m1 is m2
            m3 = build.mpe("warm", fresh=True)
            assert m3 is not m1
            assert build.mpe("warm") is m3  # fresh engine replaces cache


# ----------------------------------------------------------------------
# CLI: repro serve under SIGTERM (graceful drain end-to-end)
# ----------------------------------------------------------------------
def _start_serve(tmp_path, state, *flags):
    """``repro serve`` on a generated graph ``g``: (process, port, edge
    file).  The caller kills and reaps the process in a ``finally``."""
    edges = tmp_path / "g.csv"
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "generate", str(edges),
            "--kind", "rmat", "--scale", "6", "--seed", "5",
        ],
        check=True, env=env, cwd=_repo_root(),
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(edges),
            "--servers", "2", "--port", "0", "--state-dir", str(state),
            *flags,
        ],
        env=env, cwd=_repo_root(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            return proc, int(line.rsplit(":", 1)[1]), edges
        if not line and proc.poll() is not None:
            break
    proc.kill()
    proc.communicate()
    raise AssertionError("serve never reported its port")


class TestServeCli:
    def test_sigterm_drains_and_persists(self, tmp_path):
        state = tmp_path / "state"
        proc, port, _edges = _start_serve(
            tmp_path, state, "--trace-out", str(tmp_path / "trace.json")
        )
        try:
            client = SocketServiceClient(port=port, timeout=60.0)
            submitted = client.submit(
                graph="g", algorithm="pagerank", params=PAGERANK_PARAMS
            )
            assert submitted["ok"], submitted
            job = client.wait(submitted["job_id"], timeout=60.0)
            assert job["status"] == JobStatus.DONE
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out
        assert (state / "jobs.json").exists()
        trace = json.loads((tmp_path / "trace.json").read_text())
        service_spans = [
            e for e in trace["traceEvents"]
            if e.get("name") == "job" and e.get("ph") == "X"
        ]
        assert service_spans, "no job spans in the exported trace"


def _repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Concurrency: jobs never interleave observable state
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_jobs_match_sequential_stories(self, graph):
        """N jobs drained by 2 workers produce the same per-job metered
        stories as the same specs run strictly one at a time."""
        specs = [
            JobSpec(
                graph="tiny",
                algorithm="pagerank",
                params=PAGERANK_PARAMS,
                max_supersteps=6,
            ),
            JobSpec(graph="tiny", algorithm="sssp", params={"source": 1}),
            JobSpec(graph="tiny", algorithm="degree"),
        ] * 2

        sequential = Engine(num_servers=2, share_tiles=False)
        try:
            sequential.register_graph(graph, name="tiny")
            expected = [
                _warm_story(_run_one(sequential, s).result) for s in specs
            ]
        finally:
            sequential.shutdown()

        concurrent = Engine(num_servers=2, share_tiles=False)
        try:
            concurrent.register_graph(graph, name="tiny")
            records = [concurrent.submit(s) for s in specs]
            concurrent.start(job_workers=2)
            for record in records:
                concurrent.wait(record.job_id, timeout=120.0)
                assert record.status == JobStatus.DONE, record.reason
            # Jobs may run in any order, but each spec's story is fixed.
            by_spec = {}
            for spec, story in zip(specs, expected):
                by_spec.setdefault(spec.algorithm, story)
            for record in records:
                assert (
                    _warm_story(record.result)
                    == by_spec[record.spec.algorithm]
                )
        finally:
            concurrent.shutdown()
