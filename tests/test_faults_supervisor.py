"""Tests for the fault-injection & supervised-recovery subsystem.

The core invariant under test: **any run under any fault schedule must
converge to bitwise-identical vertex values as the fault-free run**,
under both executors — because checkpoints restore float64 state
exactly, injected events are one-shot, and every state-mutating fault
fires before the apply phase touches vertex values.
"""

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.faults import (
    CRASH,
    DFS_ERROR,
    DISK_ERROR,
    MSG_DROP,
    STRAGGLER,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSchedule,
    MessageDropFault,
    RecoveryPolicy,
    ServerCrashFault,
    Supervisor,
)
from repro.graph import chung_lu_graph
from tests import contract
from tests.contract import Case, check, recovery, restarts, run

N_SERVERS = 4


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(300, 3000, seed=17, name="chaos-g")


def _fresh_mpe(graph, executor="serial", checkpoint_every=2, max_supersteps=60,
               **cfg_kw):
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    spe = SPE(cluster.dfs)
    manifest = spe.preprocess(
        graph, max(1, graph.num_edges // (12 * N_SERVERS)), name=graph.name
    )
    cfg = MPEConfig(
        executor=executor,
        checkpoint_every=checkpoint_every,
        max_supersteps=max_supersteps,
        **cfg_kw,
    )
    return MPE(cluster, manifest, cfg), cluster


@pytest.fixture(scope="module")
def clean(graph):
    """Fault-free serial baseline: the bitwise reference values."""
    mpe, cluster = _fresh_mpe(graph)
    result = mpe.run(PageRank())
    values = result.values.copy()
    n = result.num_supersteps
    cluster.close()
    assert result.converged
    return values, n


def _supervised(graph, schedule, executor="serial", policy=None,
                checkpoint_every=2, program=None, **cfg_kw):
    mpe, cluster = _fresh_mpe(
        graph, executor=executor, checkpoint_every=checkpoint_every, **cfg_kw
    )
    sup = Supervisor(mpe, schedule=schedule, policy=policy)
    result, report = sup.run(program or PageRank())
    values = result.values.copy()
    cluster.close()
    return values, report


# ----------------------------------------------------------------------
# Schedules and plans
# ----------------------------------------------------------------------
class TestFaultEvent:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor")

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(CRASH, superstep=-2)
        with pytest.raises(ValueError):
            FaultEvent(CRASH, server=-5)
        with pytest.raises(ValueError):
            FaultEvent(STRAGGLER, slow_factor=0.5)
        with pytest.raises(ValueError):
            FaultEvent(DISK_ERROR, retries=-1)
        with pytest.raises(ValueError):
            FaultEvent(DISK_ERROR, backoff_s=-0.1)

    def test_matches(self):
        e = FaultEvent(CRASH, superstep=3, server=1)
        assert e.matches(3, 1)
        assert not e.matches(2, 1)
        assert not e.matches(3, 0)
        wild = FaultEvent(DFS_ERROR)  # ANY/ANY
        assert wild.matches(0, 0) and wild.matches(99, 3)

    def test_describe(self):
        assert FaultEvent(CRASH, superstep=5, server=1).describe() == "crash[s1@5]"
        assert "x3" in FaultEvent(STRAGGLER, slow_factor=3.0).describe()
        assert "fatal" in FaultEvent(DISK_ERROR, fatal=True).describe()
        assert "->2" in FaultEvent(MSG_DROP, dst=2).describe()


class TestFaultSchedule:
    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule(["crash"])

    def test_of_kind_and_len(self):
        sched = FaultSchedule(
            [FaultEvent(CRASH, superstep=1), FaultEvent(STRAGGLER, superstep=2)]
        )
        assert len(sched) == 2 and bool(sched)
        assert [e.kind for e in sched.of_kind(CRASH)] == [CRASH]
        assert not FaultSchedule()


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(slow_factor=0.0)
        with pytest.raises(ValueError):
            FaultPlan(max_crashes=-1)

    def test_materialize_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().materialize(0, 10)
        with pytest.raises(ValueError):
            FaultPlan().materialize(4, 0)

    def test_same_seed_same_schedule(self):
        plan = FaultPlan(
            seed=7, crash_rate=0.05, straggler_rate=0.2, disk_error_rate=0.1,
            drop_rate=0.1, dfs_error_rate=0.5,
        )
        a = plan.materialize(N_SERVERS, 12)
        b = plan.materialize(N_SERVERS, 12)
        assert a.describe() == b.describe()
        assert len(a) > 0

    def test_max_crashes_honoured(self):
        sched = FaultPlan(seed=1, crash_rate=1.0, max_crashes=1).materialize(4, 10)
        assert len(sched.of_kind(CRASH)) == 1

    def test_drop_never_targets_self(self):
        sched = FaultPlan(seed=3, drop_rate=1.0).materialize(4, 6)
        for e in sched.of_kind(MSG_DROP):
            assert e.dst != e.server


# ----------------------------------------------------------------------
# The acceptance invariant: chaos runs converge to the fault-free values
# (seeded schedules of tests/contract.py's matrix)
# ----------------------------------------------------------------------
class TestChaosDeterminism:
    def test_crash_and_stragglers_bitwise_identical_both_executors(self):
        """A crash at superstep 5 with k=2 resumes from the superstep-3
        snapshot and a dropped broadcast at 7 from the superstep-5 one,
        under either executor; recovery work is metered, not free."""
        case = Case(executor="parallel", width=2, fault=19)
        check(case)
        for run_of in (case, case.reference()):
            assert restarts(run_of) == [("crash", 5, 4), ("msg_drop", 7, 6)]
            report = recovery(run_of)
            assert report["records"][0]["action"] == "respawn+restore"
            assert report["faults_injected"] == 4  # and two stragglers
            assert report["fault_delay_s"] > 0  # stragglers + backoff
            assert report["recovery_read_bytes"] > 0
            assert report["aborted_attempt_edges"] > 0

    def test_seeded_plan_run_is_replayable(self):
        """A FaultPlan-generated schedule replays exactly from its seed."""
        case = Case(fault=7)
        check(case)
        assert contract.run.__wrapped__(case) == run(case)
        assert restarts(case) == [("msg_drop", 2, 2)]
        assert recovery(case)["fault_retries"] > 0

    def test_sssp_under_chaos(self):
        """The invariant is program-agnostic: SSSP too."""
        case = Case(program="sssp", fault=17)
        check(case)
        assert restarts(case) == [("msg_drop", 3, 2), ("msg_drop", 4, 4), ("crash", 6, 6)]


class TestProcessExecutorChaos:
    """The process runtime under seeded chaos: supervised retries (each
    with a fresh fork) reconverge to the fault-free values, and the
    conftest tripwires see no worker or segment outlive an attempt."""

    @pytest.fixture(autouse=True)
    def _needs_fork(self):
        from repro.runtime import process_runtime_available

        if not process_runtime_available():
            pytest.skip("platform lacks fork + POSIX shared memory")

    def test_crash_straggler_drop_reconverge(self):
        case = Case(executor="process", width=2, fault=17)
        check(case)
        assert restarts(case) == [("msg_drop", 3, 2), ("msg_drop", 4, 4), ("crash", 6, 6)]
        report = recovery(case)
        assert report["faults_injected"] == 6  # and stragglers, a disk error
        assert report["fault_delay_s"] > 0  # the stragglers are charged

    def test_transient_disk_error_under_process(self):
        """Disk errors are resolved in the parent pre-dispatch: retries
        and backoff are charged without restarting."""
        case = Case(executor="process", width=2, fault=35)
        check(case)
        report = recovery(case)
        assert (report["restarts"], report["fault_retries"], report["faults_injected"]) == (0, 3, 3)

    def test_matches_serial_supervision_report(self):
        """Every report field but the aborted attempt's work is the
        serial run's (``check``), across four restarts."""
        case = Case(executor="process", width=2, fault=21)
        check(case)
        assert [kind for kind, *_ in restarts(case)] == ["msg_drop", "msg_drop", "crash", "msg_drop"]


class TestPrefetchChaosDeterminism:
    """The tile prefetch pipeline must not move a single fault: the
    injector fires inside the metered load at dequeue — the same
    per-tile instant, in the same serial sweep order — so the recovery
    report, aborted work included, is the pipeline-off run's."""

    def test_disk_error_schedule_identical_with_pipeline(self):
        case = Case(knobs=(("prefetch_depth", 2), ("io_threads", 2)), fault=38)
        check(case)
        report = recovery(case)
        assert (report["restarts"], report["fault_retries"]) == (0, 5)

    def test_crash_schedule_identical_with_pipeline(self):
        case = Case(knobs=(("prefetch_depth", 4),), fault=19)
        check(case)
        assert restarts(case) == [("crash", 5, 4), ("msg_drop", 7, 6)]
        assert recovery(case)["aborted_attempt_edges"] > 0

    def test_chaos_under_process_with_pipeline(self):
        knobs = (("prefetch_depth", 2), ("io_threads", 2))
        case = Case(knobs=knobs, executor="process", width=2, fault=17)
        check(case)
        assert restarts(case) == [("msg_drop", 3, 2), ("msg_drop", 4, 4), ("crash", 6, 6)]


# ----------------------------------------------------------------------
# Individual fault classes
# ----------------------------------------------------------------------
class TestFaultAbsorption:
    def test_no_faults_is_a_clean_run(self, graph, clean):
        clean_values, _ = clean
        values, report = _supervised(graph, FaultSchedule())
        assert np.array_equal(values, clean_values)
        assert report.restarts == 0
        assert report.faults_injected == 0
        assert report.recovery_read_bytes == 0
        assert report.fault_delay_s == 0.0

    def test_transient_disk_error_absorbed(self, graph, clean):
        """Non-fatal disk errors retry in place: no restart, but the
        wasted I/O and backoff are charged to Counters."""
        clean_values, _ = clean
        schedule = FaultSchedule(
            [FaultEvent(DISK_ERROR, superstep=1, server=0, retries=2)]
        )
        values, report = _supervised(graph, schedule)
        assert np.array_equal(values, clean_values)
        assert report.restarts == 0
        assert report.fault_retries == 2
        assert report.fault_delay_s > 0
        assert report.faults_injected == 1

    def test_fatal_disk_error_escalates_to_supervisor(self, graph, clean):
        clean_values, _ = clean
        schedule = FaultSchedule(
            [FaultEvent(DISK_ERROR, superstep=3, server=2, retries=1, fatal=True)]
        )
        values, report = _supervised(graph, schedule)
        assert np.array_equal(values, clean_values)
        assert report.restarts == 1
        assert report.records[0].kind == "disk_error"
        assert report.records[0].action == "restore"  # no respawn: not a crash

    def test_message_drop_detected_at_barrier(self, graph, clean):
        """A lost broadcast aborts the superstep BEFORE the apply phase,
        so the retry reconverges bitwise."""
        clean_values, _ = clean
        schedule = FaultSchedule([FaultEvent(MSG_DROP, superstep=2, server=0)])
        values, report = _supervised(graph, schedule)
        assert np.array_equal(values, clean_values)
        assert report.restarts == 1
        assert report.records[0].kind == "msg_drop"
        assert any(e["kind"] == "msg_drop" for e in report.fault_log)

    def test_dfs_transient_charged_to_injector(self, graph, clean):
        """DFS-read transients fire during setup (superstep clock not
        running) and are charged to the injector's own counters."""
        clean_values, _ = clean
        schedule = FaultSchedule([FaultEvent(DFS_ERROR, retries=3)])
        values, report = _supervised(graph, schedule)
        assert np.array_equal(values, clean_values)
        assert report.restarts == 0
        assert report.fault_retries == 3
        assert report.faults_injected == 1


# ----------------------------------------------------------------------
# Recovery policy
# ----------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_s=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(restore="prayer")

    def test_schedule_and_injector_mutually_exclusive(self, graph):
        mpe, cluster = _fresh_mpe(graph)
        schedule = FaultSchedule()
        with pytest.raises(ValueError, match="not both"):
            Supervisor(mpe, schedule=schedule, injector=FaultInjector(schedule))
        cluster.close()

    def test_scratch_restore_is_paper_policy(self, graph, clean):
        """restore='scratch' restarts from superstep 0 — the paper's
        own recovery story — and still reconverges bitwise."""
        clean_values, _ = clean
        schedule = FaultSchedule([FaultEvent(CRASH, superstep=4, server=1)])
        values, report = _supervised(
            graph,
            schedule,
            policy=RecoveryPolicy(restore="scratch"),
            checkpoint_every=None,
        )
        assert np.array_equal(values, clean_values)
        assert report.records[0].action == "respawn+scratch"
        assert report.records[0].resume_superstep == 0
        assert report.records[0].reexecuted_supersteps == 5

    def test_max_restarts_exhausted_reraises(self, graph):
        mpe, cluster = _fresh_mpe(graph)
        schedule = FaultSchedule([FaultEvent(CRASH, superstep=1, server=0)])
        sup = Supervisor(
            mpe, schedule=schedule, policy=RecoveryPolicy(max_restarts=0)
        )
        with pytest.raises(ServerCrashFault):
            sup.run(PageRank())
        cluster.close()

    def test_backoff_grows_geometrically(self, graph):
        schedule = FaultSchedule(
            [
                FaultEvent(MSG_DROP, superstep=1, server=0),
                FaultEvent(MSG_DROP, superstep=3, server=2),
            ]
        )
        _, report = _supervised(
            graph,
            schedule,
            policy=RecoveryPolicy(backoff_s=0.25, backoff_factor=2.0),
        )
        assert report.restarts == 2
        assert [r.backoff_s for r in report.records] == [0.25, 0.5]
        assert report.total_backoff_s == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Injector mechanics
# ----------------------------------------------------------------------
class TestInjectorMechanics:
    def test_events_are_one_shot(self, graph):
        """A re-executed superstep replays fault-free: the crash at its
        own coordinate does not fire twice."""
        schedule = FaultSchedule([FaultEvent(CRASH, superstep=2, server=0)])
        values, report = _supervised(graph, schedule)
        assert report.restarts == 1
        assert sum(1 for e in report.fault_log if e["kind"] == "crash") == 1

    def test_barrier_check_raises_typed_fault(self, graph):
        mpe, cluster = _fresh_mpe(graph, checkpoint_every=None)
        schedule = FaultSchedule([FaultEvent(MSG_DROP, superstep=0, server=0)])
        injector = FaultInjector(schedule).attach(mpe)
        with pytest.raises(MessageDropFault) as exc:
            mpe.run(PageRank())
        assert exc.value.superstep == 0
        assert exc.value.drops  # carries the lost (src, dst) pairs
        injector.detach()
        assert mpe.injector is None
        assert mpe.channel.fault_injector is None
        cluster.close()

    def test_detach_is_idempotent(self, graph):
        mpe, cluster = _fresh_mpe(graph)
        injector = FaultInjector(FaultSchedule()).attach(mpe)
        injector.detach()
        injector.detach()
        cluster.close()
