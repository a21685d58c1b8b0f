"""Tests for the superstep runtime: executors + parallel determinism.

The executors' whole contract is "bitwise identical to serial, just
faster on the host" — the ``executor`` row's declared ``identical``
(``tests/contract.py``).  These tests pin named cases of that matrix,
plus the executor primitives, shared-memory hygiene and fallbacks.
"""

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_graphh
from repro.apps import PageRank, SSSP
from repro.comm import DENSE, SPARSE, encode_update
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, SPE, MPEConfig
from repro.graph import chung_lu_graph, load_dataset
from repro.obs.report import build_run_report, load_run_report, save_run_report
from repro.runtime import (
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    default_num_threads,
    default_num_workers,
    make_executor,
    outstanding_segments,
    process_runtime_available,
)
from repro.service import reset_simulation
from tests.contract import PLAN, SPILLING, Case, check, run

needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)


def _double(tag, server_id, payload):
    """Trivial phase handler for the primitive tests (fork-inherited)."""
    if payload == "boom":
        raise RuntimeError("tile exploded")
    return (tag, server_id, payload * 2)


def _started(executor, handler, num_items):
    executor.start(handler, num_items)
    return executor


_TRANSPORTS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ParallelExecutor(num_threads=4), id="parallel"),
    pytest.param(
        lambda: ProcessExecutor(num_workers=2),
        id="process",
        marks=pytest.mark.skipif(
            not process_runtime_available(),
            reason="platform lacks fork + POSIX shared memory",
        ),
    ),
]


class TestExecutorPrimitives:
    """The one dispatch protocol — start / run_phase / close — under
    all three transports."""

    @pytest.mark.parametrize("make", _TRANSPORTS)
    def test_run_phase_contract(self, make):
        """Results in server-id order, the first exception in input
        order, a persistent handler binding, an idempotent final close."""
        with _started(make(), _double, 5) as ex:
            assert ex.run_phase("compute", [3, 1, 2, 5, 4]) == [
                ("compute", 0, 6),
                ("compute", 1, 2),
                ("compute", 2, 4),
                ("compute", 3, 10),
                ("compute", 4, 8),
            ]
            with pytest.raises(RuntimeError, match="tile exploded"):
                ex.run_phase("compute", [1, "boom", 3, "boom", 5])
            # The binding outlives a failed phase.
            assert ex.run_phase("apply", [0] * 5) == [
                ("apply", i, 0) for i in range(5)
            ]
            with pytest.raises(ValueError, match="payload count"):
                ex.run_phase("compute", [1])
            with pytest.raises(RuntimeError, match="already started"):
                ex.start(_double, 5)
        ex.close()
        with pytest.raises(RuntimeError, match="not started"):
            ex.run_phase("compute", [1] * 5)

    def test_serial_preserves_order(self):
        seen = []

        def record(tag, server_id, payload):
            seen.append(server_id)
            return payload

        ex = _started(SerialExecutor(), record, 3)
        assert ex.run_phase("compute", ["a", "b", "c"]) == ["a", "b", "c"]
        assert seen == [0, 1, 2]

    def test_parallel_preserves_order(self):
        # Reverse-staggered sleeps: later items finish first unless the
        # executor re-orders results back to input order.
        def slow_identity(tag, server_id, payload):
            time.sleep(0.002 * (5 - server_id))
            return payload

        with _started(ParallelExecutor(num_threads=4), slow_identity, 5) as ex:
            assert ex.run_phase("compute", list(range(5))) == [0, 1, 2, 3, 4]

    def test_parallel_actually_uses_threads(self):
        seen = set()

        def record(tag, server_id, payload):
            seen.add(threading.get_ident())
            time.sleep(0.01)

        with _started(ParallelExecutor(num_threads=4), record, 4) as ex:
            ex.run_phase("compute", [None] * 4)
        assert len(seen) > 1

    def test_exceptions_propagate(self):
        def boom(tag, server_id, payload):
            if payload == 2:
                raise RuntimeError(f"tile exploded on {server_id}")
            return payload

        # The first failure in input order, not the first to happen.
        with pytest.raises(RuntimeError, match="exploded on 1"):
            _started(SerialExecutor(), boom, 3).run_phase("compute", [1, 2, 2])
        with _started(ParallelExecutor(num_threads=2), boom, 3) as ex:
            with pytest.raises(RuntimeError, match="exploded on 1"):
                ex.run_phase("compute", [1, 2, 2])

    def test_single_item_shortcut(self):
        caller = threading.get_ident()

        def where(tag, server_id, payload):
            return threading.get_ident()

        with _started(ParallelExecutor(num_threads=2), where, 1) as ex:
            assert ex.run_phase("compute", [41]) == [caller]
        with _started(ParallelExecutor(num_threads=2), where, 0) as ex:
            assert ex.run_phase("compute", []) == []

    def test_close_is_idempotent_and_final(self):
        ex = _started(ParallelExecutor(num_threads=2), _double, 2)
        ex.close()
        ex.close()
        with pytest.raises(RuntimeError):
            ex.run_phase("compute", [1, 2])

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("serial", 8), SerialExecutor)
        par = make_executor("parallel", 3)
        assert isinstance(par, ParallelExecutor) and par.num_threads == 3
        par.close()
        assert [make_executor(n).forks for n in ("serial", "parallel")] == [
            False,
            False,
        ]
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")
        with pytest.raises(ValueError):
            ParallelExecutor(num_threads=0)

    def test_default_num_threads(self):
        assert default_num_threads() >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(executor="fiber")
        with pytest.raises(ValueError):
            MPEConfig(num_threads=0)


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(250, 2500, seed=91, name="runtime-g")


def _run(graph, program, cfg, **kw):
    result, cluster = run_graphh(graph, program, 3, config=cfg, **kw)
    telemetry = {
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "modeled": [s.modeled for s in result.supersteps],
        "modes": [s.message_modes for s in result.supersteps],
        "net": [s.net_bytes for s in result.supersteps],
        "disk": [s.disk_read_bytes for s in result.supersteps],
        "skipped": [s.tiles_skipped for s in result.supersteps],
    }
    cluster.close()
    return result, telemetry


class TestResumeUnderParallel:
    def test_parallel_resume_bitwise_vs_serial_fresh(self):
        """Resumed in parallel: the serial resume's story, and the
        uninterrupted run's values."""
        case = Case(executor="parallel", participant="resume")
        check(case)
        assert run(case)["values"]["values"] == run(Case())["values"]["values"]


class TestRuntimeTelemetry:
    """RunResult exposes the PR-1 host-runtime knobs (executor mode,
    decoded-cache hits/misses) in trace output."""

    def test_runtime_block_and_run_report(self, skewed, tmp_path):
        result, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="parallel", num_threads=2),
            max_supersteps=8,
        )
        rt = result.runtime()
        assert rt["executor"] == os.environ.get("REPRO_EXECUTOR", "parallel")
        # First superstep decodes every blob (misses); later supersteps
        # hit the decoded cache.
        assert rt["decoded_cache_misses"] > 0
        assert rt["decoded_cache_hits"] > 0

        out = tmp_path / "trace.json"
        save_run_report(build_run_report(result), str(out))
        doc = load_run_report(str(out))
        assert doc["runtime"] == rt
        assert doc["supersteps"][0]["superstep"] == 0
        assert "fault" in doc["supersteps"][0]["modeled_s"]


@needs_process
class TestProcessExecutorPrimitives:
    """What only the forked transport has: sticky routing over real
    processes, survival of a handler exception, reaped children."""

    def test_run_phase_routes_and_orders(self):
        def where(tag, server_id, payload):
            return os.getpid()

        ex = ProcessExecutor(num_workers=2)
        assert not ex.started and ex.forks
        ex.start(where, 5)
        assert ex.started
        try:
            pids = ex.run_phase("compute", [None] * 5)
            # Server i is pinned to worker i % 2, never the parent...
            assert os.getpid() not in pids
            assert pids[0] == pids[2] == pids[4] != pids[1] == pids[3]
            # ...for the pool's lifetime: a second phase reuses them.
            assert ex.run_phase("apply", [None] * 5) == pids
        finally:
            ex.close()

    def test_worker_exception_propagates_and_pool_survives(self):
        ex = ProcessExecutor(num_workers=2)
        ex.start(_double, 3)
        try:
            with pytest.raises(RuntimeError, match="tile exploded"):
                ex.run_phase("compute", [1, "boom", 3])
            # The failing worker kept serving; the pool is still usable.
            assert ex.run_phase("compute", [1, 1, 1]) == [
                ("compute", 0, 2),
                ("compute", 1, 2),
                ("compute", 2, 2),
            ]
        finally:
            ex.close()

    def test_close_is_idempotent_and_reaps_children(self):
        ex = ProcessExecutor(num_workers=2)
        ex.start(_double, 2)
        ex.close()
        ex.close()
        assert not ex.started
        assert not any(
            p.name.startswith("repro-superstep")
            for p in multiprocessing.active_children()
        )
        with pytest.raises(RuntimeError, match="not started"):
            ex.run_phase("compute", [])

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(num_workers=0)
        assert default_num_workers() >= 1
        made = make_executor("process", 3)
        assert isinstance(made, ProcessExecutor) and made.num_workers == 3

    def test_payload_count_must_match(self):
        ex = ProcessExecutor(num_workers=1)
        ex.start(_double, 2)
        try:
            with pytest.raises(ValueError, match="payload count"):
                ex.run_phase("compute", [1])
        finally:
            ex.close()


@needs_process
class TestProcessBitwiseIdentity:
    """What the process executor shares and leaves behind (its runs
    under both replication policies and all three comm modes are
    ``tests/test_contract.py``'s pinned cases)."""

    def test_no_shared_memory_leaks(self, skewed):
        _run(
            skewed,
            PageRank(),
            MPEConfig(executor="process", num_workers=2),
            max_supersteps=6,
        )
        assert outstanding_segments() == []
        assert not any(
            p.name.startswith("repro-superstep")
            for p in multiprocessing.active_children()
        )

    @pytest.fixture
    def stray_segments(self, monkeypatch):
        """Per phase dispatch, the live shared segments that are neither
        a vertex-store array nor that apply phase's inbox — tile blobs
        are read from each server's own disk and the schedule travels as
        plain data, so a process run owns nothing else: a tile-bytes
        segment would show up here as a stray."""
        from repro.runtime import shm

        owned = set()
        samples = []

        def claiming(fn):
            def wrapper(*args, **kwargs):
                before = set(outstanding_segments())
                out = fn(*args, **kwargs)
                owned.update(set(outstanding_segments()) - before)
                return out

            return wrapper

        monkeypatch.setattr(
            shm.SharedAllocator, "create", claiming(shm.SharedAllocator.create)
        )
        run_phase = ProcessExecutor.run_phase

        def sampling(self, tag, payloads):
            inbox = {p[0] for p in payloads} if tag == "apply" else set()
            samples.append(
                (tag, set(outstanding_segments()) - owned - inbox)
            )
            return run_phase(self, tag, payloads)

        monkeypatch.setattr(ProcessExecutor, "run_phase", sampling)
        return samples

    def test_only_stores_arena_and_inbox_are_shared(
        self, skewed, stray_segments, monkeypatch
    ):
        """A process run shares its vertex stores and each apply
        phase's inbox segment, nothing else: a tile-bytes segment at any
        dispatch is a stray."""
        # Asserts on the process transport: CI's forcing flag must not
        # swap it for another.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        _run(
            skewed,
            SSSP(source=1),
            MPEConfig(
                executor="process",
                num_workers=2,
                selective_scheduling=False,
            ),
            max_supersteps=8,
        )
        assert {tag for tag, _ in stray_segments} == {"compute", "apply"}
        assert all(not strays for _tag, strays in stray_segments)
        assert outstanding_segments() == []

    def test_nothing_shared_survives_a_crash(self, skewed, stray_segments):
        """A crashed and supervised process run leaves no stray segment
        at any dispatch (tile bytes included) and none after it."""
        from repro.faults import CRASH, FaultEvent, FaultSchedule, Supervisor

        cluster = Cluster(ClusterSpec(num_servers=3))
        try:
            manifest = SPE(cluster.dfs).preprocess(
                skewed, max(1, skewed.num_edges // 9), name=skewed.name
            )
            mpe = MPE(
                cluster,
                manifest,
                MPEConfig(
                    executor="process",
                    num_workers=2,
                    checkpoint_every=2,
                    max_supersteps=8,
                ),
            )
            schedule = FaultSchedule(
                [FaultEvent(CRASH, superstep=3, server=1)]
            )
            _result, report = Supervisor(mpe, schedule=schedule).run(
                SSSP(source=1)
            )
            assert report.restarts == 1
        finally:
            cluster.close()
        assert all(not strays for _tag, strays in stray_segments)
        assert outstanding_segments() == []

    def test_warm_run_reads_no_tile_blob_in_the_parent(self, skewed, monkeypatch):
        """After a first process run, the next one reads no tile blob in
        the parent: nothing is staged for the workers, and the parent's
        decoded tiles are rebuilt from the entries it already holds."""
        from repro.storage.disk import LocalDisk

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        mpe = _engine(skewed, executor="process", num_workers=2, max_supersteps=6)
        try:
            mpe.run(PageRank())
            names = {name for tiles in mpe._assignments for _t, name, _n in tiles}
            tiles = {
                name: s.decoded_cache.peek(name)[0]
                for s in mpe.cluster.servers
                for name in s.decoded_cache.content_keys()
            }
            assert set(tiles) == names
            reads = []  # appended in the parent only: workers hold a copy
            for method in ("read", "peek"):

                def logged(self, name, _orig=getattr(LocalDisk, method), _m=method):
                    if name in names:
                        reads.append((_m, name))
                    return _orig(self, name)

                monkeypatch.setattr(LocalDisk, method, logged)
            mpe.run(PageRank())
            assert reads == []
            for server in mpe.cluster.servers:
                for name in server.decoded_cache.content_keys():
                    assert server.decoded_cache.peek(name)[0] is tiles[name]
        finally:
            mpe.cluster.close()


def _staged_records():
    """Three senders' records: a sparse update, a dense one and one
    that changed every position."""
    from repro.comm import stage_update

    rng = np.random.default_rng(5)
    values = rng.standard_normal(300)
    sparse, dense = np.array([3, 77, 201]), np.arange(0, 300, 2)
    return {
        "sparse": stage_update(sparse, values[sparse], 300, "snappylike"),
        "dense": stage_update(dense, values[dense], 300, "zlib1"),
        "all": stage_update(np.arange(300), values, 300, "raw"),
    }


@needs_process
class TestStagedInboxes:
    """The shared-inbox format, both halves (runtime/shm.py): each
    distinct record packed once into one segment, unpacked once per
    resolver into read-only views."""

    def test_stage_resolve_roundtrip(self):
        from repro.comm import stage_update
        from repro.runtime.shm import InboxResolver, StagedInboxes

        recs = _staged_records()
        a, b = recs["dense"], recs["sparse"]
        # An equal update from another sender: another object.
        b_twin = stage_update(
            np.array([3, 77, 201]), np.zeros(3), 300, "snappylike"
        )
        inboxes = [[(1, b), (2, b_twin)], [(0, a), (2, b_twin)], [(0, a), (1, b)]]
        # In-process transports: the pairs themselves, no segment.
        local = StagedInboxes(inboxes, shared=False)
        assert outstanding_segments() == []
        assert [InboxResolver().resolve(h) for h in local.handles] == inboxes
        assert InboxResolver().resolve(local.handles[0]) is inboxes[0]
        local.release()

        staged = StagedInboxes(inboxes, shared=True)
        try:
            (segment,) = outstanding_segments()
            assert all(h[0] == segment for h in staged.handles)
            # Deduplicated by identity, not by value: three spans.
            spans = {e[1:] for _seg, entries in staged.handles for e in entries}
            assert len(spans) == 3
            resolver = InboxResolver()
            resolved = [resolver.resolve(h) for h in staged.handles]
            for got, want in zip(resolved, inboxes):
                assert [src for src, _ in got] == [src for src, _ in want]
                for (_s, rec), (_t, original) in zip(got, want):
                    # Bitwise: values, positions, nbytes, mode.
                    assert _records_equal(rec, original)
                    assert not rec.values.flags.writeable
                    assert rec.positions is None or not rec.positions.flags.writeable
            # One materialisation per span per resolver.
            assert resolved[1][0][1] is resolved[2][0][1]
            del resolved, rec
        finally:
            staged.release()
            staged.release()
        assert outstanding_segments() == []
        # Nothing delivered (N=1): nothing staged.
        empty = StagedInboxes([[]], shared=True)
        assert outstanding_segments() == [] and empty.handles == [(None, [])]

    def test_all_updated_record_stages_no_positions(self):
        from repro.comm.messages import pack_update
        from repro.runtime.shm import StagedInboxes

        recs = _staged_records()
        everything, dense = recs["all"], recs["dense"]
        assert everything.positions is None
        staged = StagedInboxes([[(1, everything)], [(0, dense)]], shared=True)
        try:
            (_seg, [(_src, _off, length)]) = staged.handles[0]
            # Header and values, nothing else.
            assert length == len(pack_update(everything))
            assert length == 32 + 8 * everything.num_vertices
            # A dense record's positions travel as its bitmask, no larger
            # than the wire's.
            (_seg, [(_src, _off, length)]) = staged.handles[1]
            assert length == 32 + 8 * dense.values.size + (300 + 7) // 8
        finally:
            staged.release()

    def test_empty_update_and_next_record_get_distinct_spans(self):
        """A record that updated nothing still has a header, so the
        record staged after it starts elsewhere — a memo keyed by
        offset cannot hand one's arrays (or nbytes) to the other."""
        from repro.comm import stage_update
        from repro.runtime.shm import InboxResolver, StagedInboxes

        nothing = stage_update(np.zeros(0, dtype=np.int64), np.zeros(0), 40, "zlib1")
        recs = _staged_records()
        inboxes = [[(1, nothing), (2, recs["sparse"])], [(0, recs["dense"])]]
        staged = StagedInboxes(inboxes, shared=True)
        try:
            (o1, l1), (o2, l2) = [e[1:] for e in staged.handles[0][1]]
            assert l1 > 0 and o1 + l1 <= o2
            assert o1 % 8 == o2 % 8 == 0
            resolver = InboxResolver()
            got = resolver.resolve(staged.handles[0])
            assert got[0][1].values.size == got[0][1].positions.size == 0
            assert _records_equal(got[0][1], nothing)
            assert _records_equal(got[1][1], recs["sparse"])
            del got
        finally:
            staged.release()

    def test_segment_unlinked_after_the_phase(self, skewed, monkeypatch):
        """Every superstep of a process OD run stages its inboxes in a
        new segment (an AA run stages none), and each is unlinked as
        soon as its apply phase returns: none can be attached
        afterwards."""
        from repro.runtime import shm

        names = []
        init = shm.StagedInboxes.__init__

        def recording(self, inboxes, shared):
            init(self, inboxes, shared)
            names.append(self._arena.name)

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setattr(shm.StagedInboxes, "__init__", recording)
        result, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="process", num_workers=2, replication_policy="od"),
            max_supersteps=4,
        )
        assert result.executor == "process"
        assert len(set(names)) == result.num_supersteps
        assert outstanding_segments() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                shm.attach_segment(name)

    def test_resolver_closes_each_old_attachment(self):
        """Three supersteps through one resolver: moving to a new
        segment drops the old one's views and closes its attachment —
        no ``BufferError`` — and nothing stays attached or staged."""
        from repro.runtime.shm import InboxResolver, StagedInboxes

        recs = _staged_records()
        resolver = InboxResolver()
        attachments = []
        for _superstep in range(3):
            staged = StagedInboxes(
                [[(1, recs["sparse"]), (2, recs["all"])], [(0, recs["dense"])]],
                shared=True,
            )
            try:
                for handle in staged.handles:
                    # What an apply does with its inbox: read each record
                    # and let go of it.
                    assert all(
                        rec.values.size == rec.num_vertices
                        or rec.values.size == rec.positions.size
                        for _src, rec in resolver.resolve(handle)
                    )
                attachments.append(resolver._attached[1])
            finally:
                staged.release()
            assert outstanding_segments() == []
            # Every earlier attachment is closed; the current one is open.
            assert all(a.buf is None for a in attachments[:-1])
            assert attachments[-1].buf is not None
        assert len({id(a) for a in attachments}) == 3


class TestServerStateIdentity:
    """After a run and a run under a scripted plan (cache-mode, codec
    and pipeline switches) on one engine, every server's Counters, both
    caches' state and remembered sizes are the serial engine's, at any
    transport and width."""

    @pytest.mark.parametrize("spilling", [True, False], ids=["spilling", "resident"])
    @pytest.mark.parametrize(
        "executor,width",
        [
            ("parallel", 2),
            pytest.param("process", 1, marks=needs_process),
            pytest.param("process", 2, marks=needs_process),
            pytest.param("process", 4, marks=needs_process),
        ],
    )
    def test_matches_serial_after_each_run(self, executor, width, spilling):
        context = (("cache_capacity_bytes", SPILLING),) if spilling else ()
        case = Case(executor=executor, width=width, participant="plan", context=context)
        check(case)
        # The scenario exercises what it claims to.
        reference = run(case.reference())["metered"]
        assert {mode for mode, *_ in reference["caches"]} == {PLAN[2].cache_mode}
        if spilling:
            assert all(stats["rejected"] > 0 for stats in reference["cache_stats"])


@needs_process
class TestWorkerDeath:
    """A pool process that really dies (the injected-crash tests never
    leave the parent): the run fails fast and names the worker, nothing
    shared leaks, and the engine's next runs are unaffected."""

    def test_sigkill_between_phases(self, skewed, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        mpe = _engine(
            skewed, executor="process", num_workers=2, max_supersteps=6
        )

        def story():
            result = mpe.run(PageRank())
            return result.values.tobytes(), [
                (s.modeled, s.net_bytes, s.disk_read_bytes, s.cache_hit_ratio)
                for s in result.supersteps
            ]

        try:
            story()  # warm the caches: later runs all start alike
            reference = story()
            run_phase = ProcessExecutor.run_phase
            phases = []

            def killing(pool, tag, payloads):
                phases.append(tag)
                if len(phases) == 4:  # superstep 1, between compute and apply
                    victim = pool._procs[1]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join()
                return run_phase(pool, tag, payloads)

            monkeypatch.setattr(ProcessExecutor, "run_phase", killing)
            t0 = time.perf_counter()
            with pytest.raises(
                RuntimeError, match="worker 1 died during phase 'apply'"
            ):
                mpe.run(PageRank())
            # Well under ProcessExecutor.close()'s 5 s join timeout.
            assert time.perf_counter() - t0 < 2.5
            monkeypatch.setattr(ProcessExecutor, "run_phase", run_phase)
            assert outstanding_segments() == []
            assert not any(
                p.name.startswith("repro-superstep")
                for p in multiprocessing.active_children()
            )
            assert story() == reference
            mpe.config = dataclasses.replace(mpe.config, executor="serial")
            assert story() == reference
        finally:
            mpe.cluster.close()


class TestExecutorResolution:
    """REPRO_EXECUTOR forcing and the no-fork fallback path."""

    def test_env_override_wins(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        result, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="parallel", num_threads=2),
            max_supersteps=4,
        )
        assert result.executor == "serial"

    def test_env_override_rejects_unknown(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        with pytest.raises(ValueError, match="unknown executor"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)

    def test_process_falls_back_without_fork(self, skewed, monkeypatch):
        import repro.core.mpe as mpe_mod

        from repro.obs.trace import Tracer

        # Pins its executor: CI's forcing flag must not override it.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setattr(
            mpe_mod, "process_runtime_available", lambda: False
        )
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # counted, not warned
            result, _ = _run(
                skewed,
                PageRank(),
                MPEConfig(executor="process", num_workers=2),
                max_supersteps=4,
                tracer=tracer,
            )
        assert (result.executor, result.executor_requested) == (
            "serial",
            "process",
        )
        assert result.runtime()["executor_requested"] == "process"
        fallbacks = [
            args
            for kind, name, _cat, _ts, args in tracer.engine().events()
            if kind == "I" and name == "executor_fallback"
        ]
        assert fallbacks == [{"requested": "process", "ran": "serial"}]
        assert "repro_executor_fallbacks 1" in tracer.metrics.to_text()
        # The executor that was asked for ran: nothing to report.
        plain, _ = _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)
        assert plain.executor_requested is None
        assert "executor_requested" not in plain.runtime()

    def test_num_workers_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(num_workers=0)
        assert MPEConfig(num_workers=None).num_workers is None


class TestPrefetchBitwiseIdentity:
    """The tile prefetch pipeline under a thrashing cache, and what it
    reports (its depth sweeps across executors and comm modes are
    ``tests/test_contract.py``'s pinned cases)."""

    def test_thrashing_cache_with_io_threads(self):
        """A thrashing edge cache maximises speculation failures (the
        entry observed at enqueue is evicted by dequeue): every hint
        must degrade to the inline path, never to different metering."""
        knobs = (("prefetch_depth", 3), ("io_threads", 2))
        context = (("cache_capacity_bytes", 2048), ("cache_mode", 1))
        case = Case(knobs=knobs, context=context)
        check(case)
        stats = run(case.reference())["metered"]["cache_stats"]
        assert all(server["rejected"] > 0 for server in stats)

    def test_result_reports_depth_and_occupancy(self, skewed):
        result, _ = _run(
            skewed, PageRank(), MPEConfig(prefetch_depth=2), max_supersteps=6
        )
        assert result.prefetch_depth == 2
        assert result.runtime()["prefetch_depth"] == 2
        # Overlap estimate exists and can never exceed the serial sum.
        for s in result.supersteps:
            assert s.modeled.overlap_s is not None
            assert s.modeled.overlap_s <= s.modeled.total_s + 1e-12

    def test_cold_config_overlap_below_serial_sum(self):
        """On a thrashing mode-4 edge cache every superstep re-reads its
        tiles from disk, so the overlap rule hides real I/O behind real
        compute: strictly below the serial sum on every superstep, not
        merely no larger."""
        cold = MPEConfig(cache_capacity_bytes=4096, cache_mode=4)
        result, _ = _run(
            load_dataset("uk2007-s", "test"),
            PageRank(tolerance=0.0),
            cold,
            max_supersteps=4,
        )
        assert len(result.supersteps) == 4
        for s in result.supersteps:
            assert s.modeled.overlap_s < s.modeled.total_s


class TestPrefetchConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(prefetch_depth=-1)
        with pytest.raises(ValueError):
            MPEConfig(io_threads=0)
        assert MPEConfig(prefetch_depth=0).io_threads == 1


class TestTilePrefetcherPrimitives:
    def test_validation(self):
        from repro.runtime import TilePrefetcher

        class _Stub:
            server_id = 0

        with pytest.raises(ValueError, match="depth"):
            TilePrefetcher(_Stub(), [], lambda b: b, depth=0)
        with pytest.raises(ValueError, match="io_threads"):
            TilePrefetcher(_Stub(), [], lambda b: b, depth=1, io_threads=0)

    def test_yields_schedule_order_with_hints(self, tmp_path):
        from repro.cluster import Cluster, ClusterSpec
        from repro.runtime import TilePrefetcher

        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            server.attach_decoded_cache()
            names = [f"t{i}" for i in range(6)]
            for name in names:
                server.disk.write(name, name.encode() * 10)
            pre = TilePrefetcher(
                server, names, lambda b: b.decode(), depth=2, io_threads=2
            )
            try:
                out = list(pre)
            finally:
                pre.close()
            assert [item for item, _, _ in out] == names
            # Every hint carries the parse product of the right bytes.
            for name, hint, _ready in out:
                assert hint is not None
                assert hint.decoded == name * 10
            assert pre.dequeues == len(names)
            assert 0 <= pre.served_ready <= pre.dequeues

    def test_failed_speculation_degrades_to_no_hint(self):
        from repro.cluster import Cluster, ClusterSpec
        from repro.runtime import TilePrefetcher

        def explosive_parser(_data):
            raise RuntimeError("decode exploded")

        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            server.attach_decoded_cache()
            server.disk.write("t0", b"x" * 10)
            pre = TilePrefetcher(
                server, ["t0", "missing"], explosive_parser, depth=2
            )
            try:
                hints = [hint for _item, hint, _ready in pre]
            finally:
                pre.close()
            # Parser blew up on t0 -> swallowed; "missing" peeked None ->
            # an empty (but present) speculation.
            assert hints[0] is None
            assert hints[1] is not None and hints[1].raw is None


def _engine(graph, **cfg):
    """A set-up 3-server engine (caller closes ``.cluster``)."""
    cluster = Cluster(ClusterSpec(num_servers=3))
    manifest = SPE(cluster.dfs).preprocess(
        graph, max(1, graph.num_edges // 9), name=graph.name
    )
    mpe = MPE(cluster, manifest, MPEConfig(**cfg))
    mpe.setup()
    return mpe


class TestStaticLayout:
    """The superstep neither sorts a server's concatenated update parts
    nor orders its per-sender writes: the two placement facts that make
    both unnecessary are checked once, at setup."""

    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("assignment", ["round_robin", "balanced"])
    def test_both_assignments_pass(self, skewed, assignment, policy):
        mpe = _engine(
            skewed,
            tile_assignment=assignment,
            replication_policy=policy,
            max_supersteps=10,
        )
        try:
            mpe._check_static_layout()
            result = mpe.run(PageRank())
        finally:
            mpe.cluster.close()
        assert len(result.supersteps) > 1

    def test_descending_tile_ids_raise(self, skewed):
        mpe = _engine(skewed)
        try:
            assert len(mpe._assignments[0]) > 1
            mpe._assignments[0].reverse()
            with pytest.raises(RuntimeError, match="strictly ascending"):
                mpe._check_static_layout()
        finally:
            mpe.cluster.close()

    def test_overlapping_targets_raise(self, skewed):
        mpe = _engine(skewed)
        try:
            mpe._server_target_ids[1] = mpe._server_target_ids[0]
            with pytest.raises(RuntimeError, match="overlap"):
                mpe._check_static_layout()
        finally:
            mpe.cluster.close()


def _oracle_apply(mpe, store, counters, own_update, wires):
    """The concatenated reference for one server's barrier work: decode
    every sender's wire message, translate its positions through the
    sender's target index, and land the own update and every sender's
    in one ``store.write``, charging each message's decompress."""
    from repro.comm import decode_update

    codec = mpe._knobs.message_codec
    id_parts, val_parts = [own_update[0]], [own_update[1]]
    for src, wire in wires:
        payload = decode_update(wire)
        id_parts.append(payload.select(mpe._server_target_ids[src]))
        val_parts.append(payload.values)
        if codec != "raw":
            counters.add_decompressed(codec, len(wire))
    store.write(np.concatenate(id_parts), np.concatenate(val_parts))


def _check_apply(mpe, apply, server, own, inbox, wires):
    """OD: ``apply`` (the engine's apply step) of ``inbox`` (records)
    leaves ``server``'s store and Counters where :func:`_oracle_apply`
    of ``wires`` (the same broadcasts as bytes) leaves copies of them."""
    import copy

    store = copy.deepcopy(server.state["store"])
    counters = copy.deepcopy(server.counters)
    _oracle_apply(mpe, store, counters, own, wires)
    apply(server, own, inbox)
    assert _store_content(server.state["store"]) == _store_content(store)
    assert server.counters.snapshot() == counters.snapshot()


def _check_cluster_apply(mpe, apply, calls):
    """AA: ``calls`` is one superstep's ``(server, own update, records
    received, their wires)`` for every server, all viewing one replica.
    ``apply`` (the engine's apply step) runs each on ``(sender,
    nbytes)`` pairs; each receiver's Counters then equal where
    :func:`_oracle_apply` of its wires leaves a copy, and once every
    server has applied, the one replica equals every receiver's oracle:
    the replica as it was, plus that receiver's own update and the
    decoded wires it received, in one concatenated write."""
    import copy

    from repro.core.vertexstore import AllInAllStore

    replica = mpe.cluster.servers[0].state["store"]
    assert all(s.state["store"] is replica for s in mpe.cluster.servers)
    before = replica.full_values().copy()
    oracles = []
    for server, own, records, wires in calls:
        counters = copy.deepcopy(server.counters)
        oracle = AllInAllStore(before, None)
        _oracle_apply(mpe, oracle, counters, own, wires)
        oracles.append(oracle)
        apply(server, own, [(src, rec.nbytes) for src, rec in records])
        assert server.counters.snapshot() == counters.snapshot()
    for oracle in oracles:
        assert _store_content(replica) == _store_content(oracle)


def _cluster_calls(mpe, updates, codec, mode):
    """Every server's apply call for one superstep in which server
    ``i`` staged ``updates[i] = (staged, rows)``: its own update, and
    the other servers' records and wires."""
    from repro.comm import stage_update

    targets = mpe._server_target_ids
    records = [
        stage_update(rows, st_[rows], st_.size, codec, mode=mode)
        for st_, rows in updates
    ]
    wires = [encode_update(st_, rows, codec, mode=mode) for st_, rows in updates]
    calls = []
    for server in mpe.cluster.servers:
        sid = server.server_id
        staged, rows = updates[sid]
        others = [src for src in range(len(updates)) if src != sid]
        calls.append((
            server,
            (targets[sid][rows], staged[rows]),
            [(src, records[src]) for src in others],
            [(src, wires[src]) for src in others],
        ))
    return calls


@pytest.fixture(scope="module")
def apply_engine(skewed):
    mpe = _engine(skewed)
    yield mpe
    mpe.cluster.close()


def _store_content(store):
    values = (
        store.full_values() if store.policy == "aa" else store.local_values()
    )
    return values.tobytes()


def _update_rows(rng, n, shape):
    """Positions of an update of ``shape`` over ``n`` targets."""
    if shape == "none":
        return np.zeros(0, dtype=np.int64)
    if shape == "one":
        return np.array([int(rng.integers(n))])
    if shape == "all":
        return np.arange(n)
    share = {"sparse": 0.05, "some": 0.4, "dense": 0.9}[shape]
    return np.flatnonzero(rng.random(n) < share)


def _records_equal(a, b) -> bool:
    """Two update records carry the same update, bit for bit."""
    if (a.positions is None) != (b.positions is None):
        return False
    if a.positions is not None and (
        a.positions.dtype != b.positions.dtype
        or a.positions.tobytes() != b.positions.tobytes()
    ):
        return False
    return (a.values.dtype, a.values.tobytes(), a.num_vertices, a.mode, a.nbytes) == (
        b.values.dtype, b.values.tobytes(), b.num_vertices, b.mode, b.nbytes
    )


class TestDecodeOnceApply:
    """How a broadcast is applied: each sender's record — its update
    plus the length of the wire message that would carry it — goes to
    every receiver (under AA as its length alone), nothing decodes,
    every receiver is still charged its own decompress bytes, each
    update is written where it lands (under AA by its sender, into the
    one replica) — and the result is the one a receiver that decoded
    the wire bytes and made one concatenated scatter would leave."""

    @pytest.fixture(autouse=True)
    def _configured_executor(self, monkeypatch):
        """Each test here pins its executor (the in-process
        differential is a serial fact), so CI's forcing flag must not
        override it."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize("codec", ["raw", "snappylike", "zlib1"])
    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_matches_per_sender_oracle(self, skewed, policy, codec):
        """Differential: on every (own_update, inbox) of real 3-server
        supersteps, the engine leaves the store — under AA the one
        replica, once every server has applied — and each receiver's
        Counters exactly where the oracle decoding each record's wire
        message does."""
        from tests.test_mpe_golden import wire_of

        mpe = _engine(
            skewed,
            replication_policy=policy,
            message_codec=codec,
            max_supersteps=4,
        )
        engine_apply = mpe._apply_server_step
        checked = []
        # AA receivers get (sender, nbytes): the records they stand for
        # are the superstep's broadcasts, by sender.
        sent = {}
        broadcast = mpe.channel.broadcast

        def recording(src, payload):
            sent[src] = payload
            broadcast(src, payload)

        pending = []

        def differential(server, own_update, inbox):
            checked.append(len(inbox))
            if policy == "od":
                wires = [(src, wire_of(rec, codec)) for src, rec in inbox]
                _check_apply(mpe, engine_apply, server, own_update, inbox, wires)
                return
            records = [(src, sent[src]) for src, _nbytes in inbox]
            assert [n for _s, n in inbox] == [r.nbytes for _s, r in records]
            wires = [(src, wire_of(rec, codec)) for src, rec in records]
            # The serial executor applies server by server; the replica
            # is checked once the last server of the superstep has.
            pending.append((server, own_update, records, wires))
            if len(pending) == len(mpe.cluster.servers):
                _check_cluster_apply(mpe, engine_apply, pending)
                pending.clear()

        mpe.channel.broadcast = recording
        mpe._apply_server_step = differential
        try:
            result = mpe.run(PageRank())
        finally:
            mpe.cluster.close()
        # Every receiver of every superstep, each with a full inbox.
        assert checked == [2] * (3 * result.num_supersteps)
        assert pending == []

    @pytest.mark.parametrize(
        "shape", ["none", "one", "sparse", "dense", "all"]
    )
    @pytest.mark.parametrize("codec", ["raw", "snappylike", "zlib1", "zlib3"])
    @pytest.mark.parametrize("comm_mode", ["hybrid", "dense", "sparse"])
    def test_record_matches_its_wire(self, apply_engine, comm_mode, codec, shape):
        """Record ↔ wire: a staged record's ``nbytes`` is its wire
        message's length, decoding that message yields the record bit
        for bit, and applying records leaves the OD store, the one AA
        replica and the Counters where decoding the messages does."""
        from repro.comm import decode_update, stage_update
        from repro.core.vertexstore import AllInAllStore, OnDemandStore
        from repro.tuning.plan import KnobSettings

        mpe = apply_engine
        mpe._knobs = KnobSettings.of(MPEConfig(message_codec=codec))
        mode = {"hybrid": None, "dense": DENSE, "sparse": SPARSE}[comm_mode]
        rng = np.random.default_rng(len(shape) * 7 + len(codec))
        targets = mpe._server_target_ids
        updates = [(
            rng.standard_normal(targets[0].size),
            _update_rows(rng, targets[0].size, "some"),
        )]
        for src in (1, 2):
            staged = rng.standard_normal(targets[src].size)
            rows = _update_rows(rng, targets[src].size, shape)
            wire = encode_update(staged, rows, codec, mode=mode)
            record = stage_update(rows, staged[rows], staged.size, codec, mode=mode)
            assert record.nbytes == len(record) == len(wire)
            assert _records_equal(decode_update(wire), record)
            assert (record.positions is None) == (shape == "all")
            updates.append((staged, rows))
        calls = _cluster_calls(mpe, updates, codec, mode)
        nv = mpe.manifest.num_vertices
        init = rng.standard_normal(nv)
        servers = mpe.cluster.servers
        replica = AllInAllStore(init, None)
        for server in servers:
            server.state["store"] = replica
        _check_cluster_apply(mpe, mpe._apply_server_step, calls)
        extra = np.flatnonzero(rng.random(nv) < 0.5)
        servers[0].state["store"] = OnDemandStore(
            init, None, np.concatenate([targets[0], extra])
        )
        _server, own, records, wires = calls[0]
        _check_apply(mpe, mpe._apply_server_step, servers[0], own, records, wires)

    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["none", "one", "sparse", "some", "dense", "all"]),
            min_size=2,
            max_size=2,
        ),
        mode=st.sampled_from([DENSE, SPARSE, None]),
        codec=st.sampled_from(["raw", "snappylike", "zlib1"]),
        seed=st.integers(0, 2**16),
    )
    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_per_sender_apply_equals_the_concatenated_apply(
        self, apply_engine, policy, kinds, mode, codec, seed
    ):
        """Random inboxes of records — senders updating nothing, one,
        some or all of their targets (the last written through the
        target index itself), in every wire mode — into the one AA
        replica and an OD store: the engine leaves the store bytes and
        the Counters where the oracle decoding the same broadcasts' wire
        bytes does."""
        from repro.core.vertexstore import AllInAllStore, OnDemandStore
        from repro.tuning.plan import KnobSettings

        mpe = apply_engine
        mpe._knobs = KnobSettings.of(MPEConfig(message_codec=codec))
        rng = np.random.default_rng(seed)
        nv = mpe.manifest.num_vertices
        init = rng.standard_normal(nv)
        targets = mpe._server_target_ids
        updates = [(
            rng.standard_normal(targets[0].size),
            _update_rows(rng, targets[0].size, "some"),
        )]
        for src, kind in zip((1, 2), kinds):
            updates.append((
                rng.standard_normal(targets[src].size),
                _update_rows(rng, targets[src].size, kind),
            ))
        calls = _cluster_calls(mpe, updates, codec, mode)
        servers = mpe.cluster.servers
        if policy == "aa":
            replica = AllInAllStore(init, None)
            for server in servers:
                server.state["store"] = replica
            _check_cluster_apply(mpe, mpe._apply_server_step, calls)
            return
        # Own targets plus a random part of the rest: writes to the
        # vertices left out must be ignored.
        extra = np.flatnonzero(rng.random(nv) < 0.5)
        servers[0].state["store"] = OnDemandStore(
            init, None, np.concatenate([targets[0], extra])
        )
        _server, own, records, wires = calls[0]
        _check_apply(mpe, mpe._apply_server_step, servers[0], own, records, wires)

    def test_decode_counts_exact(self, skewed, monkeypatch):
        """No executor decodes: a run under serial, thread and process
        transports makes no ``decode_update`` call (a forked worker
        would fail its phase on the raising stand-in)."""
        from repro.comm import messages

        calls = []

        def refusing(data):
            calls.append(len(data))
            raise AssertionError("a run decoded a broadcast")

        monkeypatch.setattr(messages, "decode_update", refusing)
        executors = ["serial", "parallel"]
        if process_runtime_available():
            executors.append("process")
        clean = None
        for executor in executors:
            result, _ = _run(
                skewed,
                PageRank(),
                MPEConfig(executor=executor, num_workers=2, num_threads=2),
                max_supersteps=8,
            )
            assert result.executor == executor
            if clean is None:
                clean = result.values
            assert np.array_equal(result.values, clean)
        assert calls == []

    def test_decode_counts_are_per_run(self, skewed, monkeypatch):
        """A warm engine's second run delivers the same broadcasts as
        its first: the same ``(sender, nbytes, mode)`` sequence."""
        from repro.comm.channel import Channel

        log = []
        broadcast = Channel.broadcast

        def recording(self, src, payload):
            log.append((src, payload.nbytes, payload.mode))
            broadcast(self, src, payload)

        monkeypatch.setattr(Channel, "broadcast", recording)
        mpe = _engine(skewed, max_supersteps=6)
        try:
            mpe.run(PageRank())
            first = log[:]
            log.clear()
            mpe.run(PageRank())
        finally:
            mpe.cluster.close()
        assert first and log == first

    @needs_process
    def test_single_server_stages_no_segment(self, skewed, monkeypatch):
        """N=1 under the process executor: every inbox is empty, so the
        apply phase allocates no shared-inbox segment."""
        from repro.runtime import shm

        created = []
        init = shm.SharedArray.__init__

        def counting_init(self, shape, dtype):
            init(self, shape, dtype)
            created.append(np.dtype(dtype))

        monkeypatch.setattr(shm.SharedArray, "__init__", counting_init)
        result, cluster = run_graphh(
            skewed,
            PageRank(),
            1,
            config=MPEConfig(executor="process", num_workers=2),
            max_supersteps=4,
        )
        cluster.close()
        assert result.num_supersteps == 4
        # Inbox segments are the only uint8 SharedArrays a run creates,
        # and tile blobs are never staged.
        assert created.count(np.dtype(np.uint8)) == 0

    @staticmethod
    def _supervised(graph, schedule):
        from repro.faults import Supervisor

        mpe = _engine(graph, checkpoint_every=2, max_supersteps=20)
        try:
            result, report = Supervisor(mpe, schedule=schedule).run(PageRank())
            return result.values.copy(), report
        finally:
            mpe.cluster.close()

    def test_lost_broadcast_not_masked_by_cache(self, skewed):
        """A dropped broadcast envelope must still be *lost* — receivers
        share a sender's record, never its delivery — so the supervisor
        detects the divergence, restarts, and the retry is
        byte-identical to the clean run."""
        from repro.faults import MSG_DROP, FaultEvent, FaultSchedule

        clean, _ = _run(
            skewed, PageRank(), MPEConfig(executor="serial"), max_supersteps=20
        )
        schedule = FaultSchedule(
            [FaultEvent(MSG_DROP, superstep=2, server=0)]
        )
        values, report = self._supervised(skewed, schedule)
        assert report.restarts == 1
        assert np.array_equal(values, clean.values)


class TestOneReplica:
    """All-in-All keeps one physical replica: every server views it and
    writes only its own update into it, and a process run shares it as
    one segment and ships no update values to the apply."""

    @pytest.fixture(autouse=True)
    def _configured_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize(
        "executor", ["serial", "parallel", pytest.param("process", marks=needs_process)]
    )
    def test_one_write_per_updating_server(
        self, skewed, tmp_path, monkeypatch, executor
    ):
        """Every ``AllInAllStore.write`` of a run is one server's own
        update, once — none for a received record and none for a server
        that changed nothing — in the parent or in a forked worker."""
        import hashlib

        from repro.core.vertexstore import AllInAllStore

        log = tmp_path / "writes.log"
        write = AllInAllStore.write

        def digest(ids):
            return hashlib.sha1(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()

        def logged(self, vertex_ids, values):
            # One short appended line per call: whole across processes.
            with open(log, "a") as fh:
                fh.write(digest(vertex_ids) + "\n")
            write(self, vertex_ids, values)

        monkeypatch.setattr(AllInAllStore, "write", logged)
        mpe = _engine(
            skewed, executor=executor, num_threads=2, num_workers=2, max_supersteps=8
        )
        account = mpe._account_superstep
        updates = []

        def recording(prep, superstep, t0, before, schedule, steps):
            updates.extend(digest(st.ids) for st in steps if st.ids.size)
            return account(prep, superstep, t0, before, schedule, steps)

        mpe._account_superstep = recording
        try:
            result = mpe.run(PageRank())
        finally:
            mpe.cluster.close()
        assert result.executor == executor
        writes = log.read_text().split() if log.exists() else []
        assert updates and sorted(writes) == sorted(updates)

    @needs_process
    def test_a_process_run_shares_one_values_segment(self, skewed, monkeypatch):
        """A process AA run allocates one ``values`` segment for its N
        servers and stages no inbox segment (the only ``uint8`` arrays a
        run creates); OD still gives each server its own arrays and
        stages its records."""
        from repro.runtime import shm

        tags, dtypes = [], []
        create = shm.SharedAllocator.create
        init = shm.SharedArray.__init__

        def counting_create(self, source, tag="arr"):
            tags.append(tag)
            return create(self, source, tag)

        def counting_init(self, shape, dtype):
            init(self, shape, dtype)
            dtypes.append(np.dtype(dtype))

        monkeypatch.setattr(shm.SharedAllocator, "create", counting_create)
        monkeypatch.setattr(shm.SharedArray, "__init__", counting_init)
        seen = {}
        for policy in ("aa", "od"):
            tags.clear()
            dtypes.clear()
            result, _ = _run(
                skewed,
                PageRank(),
                MPEConfig(executor="process", num_workers=2, replication_policy=policy),
                max_supersteps=6,
            )
            assert result.executor == "process"
            seen[policy] = (tags.count("values"), dtypes.count(np.dtype(np.uint8)))
        assert seen["aa"] == (1, 0)
        assert seen["od"][0] == 3 and seen["od"][1] > 0


def _spilling_engine(graph, executor: str, depth: int):
    """A set-up engine whose edge cache holds ~a quarter of each
    server's tiles: §IV-B picks a zlib mode and the admit-until-full
    cache rejects inserts every superstep."""
    n = 3
    cluster = Cluster(ClusterSpec(num_servers=n))
    spe = SPE(cluster.dfs)
    manifest = spe.preprocess(
        graph, max(1, graph.num_edges // (12 * n)), name=graph.name
    )
    cfg = MPEConfig(
        executor=executor,
        num_workers=2,
        num_threads=2,
        prefetch_depth=depth,
        io_threads=1,
        cache_capacity_bytes=int(0.25 * spe.total_tile_bytes(manifest) / n),
        max_supersteps=8,
    )
    mpe = MPE(cluster, manifest, cfg)
    mpe.setup()
    return cluster, mpe


def _cold_run(cluster, mpe):
    """One run from a cold metered start (the service's per-job reset:
    fresh Counters, edge cache emptied, stats zeroed)."""
    reset_simulation(cluster, mpe.channel)
    return mpe.run(SSSP(source=1))


class TestSpillingRememberedSizes:
    """Admission before compression across executors × prefetch depth,
    on an edge cache that rejects inserts every superstep: a warm
    service engine's jobs — deciding rejects from sizes remembered in
    the first — are a cold engine's, bit for bit."""

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize(
        "executor",
        ["serial", "parallel", pytest.param("process", marks=needs_process)],
    )
    def test_second_run_matches_cold_engine(self, executor, depth):
        knobs = (("prefetch_depth", depth),) if depth else ()
        context = (("cache_capacity_bytes", SPILLING),)
        case = Case(program="sssp", knobs=knobs, executor=executor, width=2)
        check(dataclasses.replace(case, context=context, service=True))
        stats = run(case.reference(context=context))["metered"]["cache_stats"]
        assert all(server["rejected"] > 0 for server in stats)

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize(
        "executor",
        ["serial", "parallel", pytest.param("process", marks=needs_process)],
    )
    def test_tile_rewritten_behind_the_cache_fails_the_next_run(
        self, skewed, executor, depth
    ):
        """A remembered size is checked against the blob in hand before
        it decides: a rejected tile rewritten on disk without
        ``Server.store_blob`` (same length, still a valid tile) stops
        the next run at that tile's first insert, whatever runs the
        sweep — prefetch speculation included, which itself stays
        silent."""
        cluster, mpe = _spilling_engine(skewed, executor, depth)
        try:
            _cold_run(cluster, mpe)
            server = cluster.servers[0]
            name = next(
                blob
                for _, blob, _ in mpe._assignments[0]
                if blob not in server.cache
            )
            data = bytearray(server.disk.peek(name))
            # The last bytes are edge weights: exchange two that differ.
            i = next(k for k in range(2, 64) if data[-k] != data[-1])
            data[-1], data[-i] = data[-i], data[-1]
            server.disk.write(name, bytes(data))
            reset_simulation(cluster, mpe.channel)
            with pytest.raises(RuntimeError, match="stale"):
                mpe.run(SSSP(source=1))
        finally:
            cluster.close()
