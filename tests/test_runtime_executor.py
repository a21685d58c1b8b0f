"""Tests for the superstep runtime: executors + parallel determinism.

The parallel executor's whole contract is "bitwise identical to serial,
just faster on the host": same vertex values, same counters, same
modeled costs, same message modes.  These tests pin that contract for
all three reference apps, plus the executor primitives themselves.
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
from repro.apps import PageRank, SSSP, WCC
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

needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)


def _expected_executor(configured: str) -> str:
    """What RunResult.executor should report: the configured executor,
    unless the REPRO_EXECUTOR forcing flag (CI's knob) overrides it."""
    return os.environ.get("REPRO_EXECUTOR", "").strip() or configured


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


def _assert_identical(a, b):
    ra, ta = a
    rb, tb = b
    assert np.array_equal(ra.values, rb.values)
    assert len(ra.supersteps) == len(rb.supersteps)
    for key in ("modeled", "modes", "net", "disk", "skipped"):
        assert ta[key] == tb[key], key
    assert ta["counters"] == tb["counters"]


class TestParallelBitwiseIdentity:
    """Parallel vs serial: values AND all telemetry must match exactly."""

    @pytest.mark.parametrize(
        "make_program",
        [
            lambda: PageRank(),
            lambda: SSSP(source=1),
        ],
        ids=["pagerank", "sssp"],
    )
    def test_directed_apps(self, skewed, make_program):
        serial = _run(
            skewed, make_program(), MPEConfig(executor="serial"), max_supersteps=12
        )
        parallel = _run(
            skewed,
            make_program(),
            MPEConfig(executor="parallel", num_threads=4),
            max_supersteps=12,
        )
        _assert_identical(serial, parallel)

    def test_wcc(self, skewed):
        und = skewed.to_undirected_edges()
        serial = _run(und, WCC(), MPEConfig(executor="serial"), max_supersteps=12)
        parallel = _run(
            und, WCC(), MPEConfig(executor="parallel"), max_supersteps=12
        )
        _assert_identical(serial, parallel)

    def test_parallel_with_balanced_assignment_and_od(self, skewed):
        cfg_s = MPEConfig(
            executor="serial", tile_assignment="balanced", replication_policy="od"
        )
        cfg_p = MPEConfig(
            executor="parallel", tile_assignment="balanced", replication_policy="od"
        )
        _assert_identical(
            _run(skewed, PageRank(), cfg_s, max_supersteps=10),
            _run(skewed, PageRank(), cfg_p, max_supersteps=10),
        )


class TestResumeUnderParallel:
    """Checkpoint resume composes with the parallel executor: a run cut
    short and resumed in parallel must land on the same bitwise values
    as an uninterrupted serial run, with counters identical to the same
    interrupted run resumed serially."""

    def _interrupted_then_resumed(self, graph, executor):
        from repro.apps import PageRank
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import MPE, SPE

        cluster = Cluster(ClusterSpec(num_servers=3))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // 9), name=graph.name
        )
        # Phase 1 (always serial, so both variants share an identical
        # pre-interruption history): 5 supersteps with k=2 snapshots.
        MPE(
            cluster, manifest, MPEConfig(checkpoint_every=2, max_supersteps=5)
        ).run(PageRank())
        # Phase 2: resume to convergence under the executor under test.
        result = MPE(
            cluster,
            manifest,
            MPEConfig(executor=executor, checkpoint_every=2, max_supersteps=80),
        ).run(PageRank(), resume=True)
        counters = [s.counters.snapshot() for s in cluster.servers]
        cluster.close()
        return result, counters

    def test_parallel_resume_bitwise_vs_serial_fresh(self, skewed):
        from repro.apps import PageRank
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import MPE, SPE

        # Uninterrupted serial reference.
        cluster = Cluster(ClusterSpec(num_servers=3))
        manifest = SPE(cluster.dfs).preprocess(
            skewed, max(1, skewed.num_edges // 9), name=skewed.name
        )
        fresh = MPE(cluster, manifest, MPEConfig(max_supersteps=80)).run(
            PageRank()
        )
        fresh_values = fresh.values.copy()
        cluster.close()
        assert fresh.converged

        serial_res, serial_counters = self._interrupted_then_resumed(
            skewed, "serial"
        )
        parallel_res, parallel_counters = self._interrupted_then_resumed(
            skewed, "parallel"
        )
        # Values: both resumed variants land exactly on the fresh run.
        assert np.array_equal(serial_res.values, fresh_values)
        assert np.array_equal(parallel_res.values, fresh_values)
        # The resumed tail starts after the newest snapshot (superstep 3),
        # and the resume read is metered as recovery traffic.
        for res, counters in (
            (serial_res, serial_counters),
            (parallel_res, parallel_counters),
        ):
            assert res.supersteps[0].superstep == 4
            assert sum(c["recovery_read"] for c in counters) > 0
        # Counters: parallel resume meters exactly like serial resume.
        assert serial_counters == parallel_counters


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
        assert rt["executor"] == _expected_executor("parallel")
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
    """Satellite 3: the process executor must be bitwise identical to
    serial — values, per-superstep update counts (the prev_updated sets
    driving bloom skips), and every counter — across both replication
    policies and all three comm modes."""

    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("comm", ["dense", "sparse", "hybrid"])
    def test_sweep(self, skewed, policy, comm):
        def cfg(executor):
            return MPEConfig(
                executor=executor,
                num_workers=2,
                replication_policy=policy,
                comm_mode=comm,
                use_bloom_filters=True,
            )

        serial = _run(skewed, PageRank(), cfg("serial"), max_supersteps=10)
        process = _run(skewed, PageRank(), cfg("process"), max_supersteps=10)
        _assert_identical(serial, process)
        # prev_updated is pinned by the per-superstep update counts plus
        # the bloom-skip counts already compared in _assert_identical.
        assert [s.updated_vertices for s in serial[0].supersteps] == [
            s.updated_vertices for s in process[0].supersteps
        ]
        assert process[0].executor == _expected_executor("process")

    def test_wcc_and_sssp_under_process(self, skewed):
        und = skewed.to_undirected_edges()
        _assert_identical(
            _run(und, WCC(), MPEConfig(executor="serial"), max_supersteps=10),
            _run(
                und,
                WCC(),
                MPEConfig(executor="process", num_workers=2),
                max_supersteps=10,
            ),
        )
        _assert_identical(
            _run(
                skewed, SSSP(source=1), MPEConfig(executor="serial"),
                max_supersteps=12,
            ),
            _run(
                skewed,
                SSSP(source=1),
                MPEConfig(executor="process", num_workers=2),
                max_supersteps=12,
            ),
        )

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
        a vertex-store array, nor the tile-blob arena, nor that apply
        phase's inbox — the schedule travels as plain data, so a process
        run owns nothing else."""
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
        monkeypatch.setattr(
            shm.SharedBlobArena,
            "__init__",
            claiming(shm.SharedBlobArena.__init__),
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


@needs_process
class TestStagedInboxes:
    """The shared-inbox wire format, both halves (runtime/shm.py)."""

    def test_stage_resolve_roundtrip(self):
        from repro.runtime.shm import InboxResolver, StagedInboxes

        a, b = b"alpha" * 40, b"beta" * 30
        b_twin = bytes(bytearray(b))  # equal bytes, another sender's object
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
            assert sorted(ln for _off, ln in spans) == sorted(map(len, (a, b, b)))
            resolver = InboxResolver()
            resolved = [resolver.resolve(h) for h in staged.handles]
            assert resolved == inboxes
            # One materialisation per span per resolver.
            assert resolved[1][0][1] is resolved[2][0][1]
        finally:
            staged.release()
            staged.release()
        assert outstanding_segments() == []
        # Nothing delivered (N=1): nothing staged.
        empty = StagedInboxes([[]], shared=True)
        assert outstanding_segments() == [] and empty.handles == [(None, [])]


def _server_state(cluster, result):
    """Everything a run leaves behind that the next run's metering can
    see — what a forked worker's ServerMirror must reproduce parent-side."""
    return {
        "values": result.values.tobytes(),
        "supersteps": [
            (s.modeled.total_s, s.net_bytes, s.disk_read_bytes, s.cache_hit_ratio)
            for s in result.supersteps
        ],
        "servers": [
            {
                "counters": s.counters.snapshot(),
                "cache_stats": dataclasses.astuple(s.cache.stats),
                "cache_mode": s.cache.mode,
                "cache_keys": s.cache.content_keys(),
                "used": s.cache.used_bytes,
                "sizes": sorted(s.cache.remembered_sizes().items()),
                "decoded_stats": dataclasses.astuple(s.decoded_cache.stats),
                "decoded_keys": s.decoded_cache.content_keys(),
            }
            for s in cluster.servers
        ],
    }


def _two_runs(graph, executor, width, spilling):
    """PageRank under a scripted plan (cache mode 1→3→2, message codec
    switched mid-run), then SSSP with no plan, on one engine; the server
    state after each."""
    from repro.tuning import KnobSettings
    from repro.tuning.plan import TuningPlan

    n = 3
    cluster = Cluster(ClusterSpec(num_servers=n))
    try:
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // (12 * n)), name=graph.name
        )
        capacity = int(0.3 * spe.total_tile_bytes(manifest) / n)
        cfg = MPEConfig(
            executor=executor,
            num_workers=width,
            num_threads=width,
            cache_mode=1,
            cache_capacity_bytes=capacity if spilling else None,
            max_supersteps=8,
        )
        mpe = MPE(cluster, manifest, cfg)
        mpe.tuning_plan = TuningPlan.scripted(
            {
                2: KnobSettings(cache_mode=3),
                4: KnobSettings(cache_mode=2, message_codec="zlib1"),
            }
        )
        first = _server_state(cluster, mpe.run(PageRank()))
        mpe.tuning_plan = None
        second = _server_state(cluster, mpe.run(SSSP(source=1)))
        return first, second
    finally:
        cluster.close()


class TestServerStateIdentity:
    """After each of two consecutive runs on one engine, every server —
    counters, both caches' stats, mode, contents in recency order,
    stored lengths, remembered sizes — is exactly the serial engine's,
    whichever transport ran the handler and at whatever width."""

    @pytest.fixture(autouse=True)
    def _configured_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.fixture(scope="class")
    def serial_reference(self, skewed):
        return {
            spilling: _two_runs(skewed, "serial", None, spilling)
            for spilling in (True, False)
        }

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
    def test_matches_serial_after_each_run(
        self, skewed, serial_reference, executor, width, spilling
    ):
        reference = serial_reference[spilling]
        # The scenario exercises what it claims to.
        modes = {s["cache_mode"] for s in reference[0]["servers"]}
        assert modes == {2}
        if spilling:
            assert all(s["cache_stats"][4] > 0 for s in reference[1]["servers"])
        first, second = _two_runs(skewed, executor, width, spilling)
        assert first == reference[0]
        assert second == reference[1]


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
    """Tentpole acceptance: with the tile prefetch pipeline on at any
    depth, values, Counters, CacheStats, and modeled costs are bitwise
    identical to the sequential sweep — across executors, comm modes,
    and cache configurations."""

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("comm", ["dense", "sparse", "hybrid"])
    def test_depth_sweep_serial(self, skewed, depth, comm):
        def cfg(d):
            return MPEConfig(
                comm_mode=comm, prefetch_depth=d, use_bloom_filters=True
            )

        _assert_identical(
            _run(skewed, PageRank(), cfg(0), max_supersteps=10),
            _run(skewed, PageRank(), cfg(depth), max_supersteps=10),
        )

    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_sweep_parallel(self, skewed, depth):
        _assert_identical(
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=10),
            _run(
                skewed,
                PageRank(),
                MPEConfig(
                    executor="parallel",
                    num_threads=2,
                    prefetch_depth=depth,
                    io_threads=2,
                ),
                max_supersteps=10,
            ),
        )

    @needs_process
    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_sweep_process(self, skewed, depth):
        _assert_identical(
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=10),
            _run(
                skewed,
                PageRank(),
                MPEConfig(
                    executor="process",
                    num_workers=2,
                    prefetch_depth=depth,
                    io_threads=2,
                ),
                max_supersteps=10,
            ),
        )

    def test_thrashing_cache_with_io_threads(self, skewed):
        """A thrashing edge cache maximises speculation failures (the
        entry observed at enqueue is evicted by dequeue): every hint
        must degrade to the inline path, never to different metering."""
        base = dict(cache_capacity_bytes=4096, cache_mode=1)
        _assert_identical(
            _run(skewed, PageRank(), MPEConfig(**base), max_supersteps=8),
            _run(
                skewed,
                PageRank(),
                MPEConfig(prefetch_depth=3, io_threads=2, **base),
                max_supersteps=8,
            ),
        )

    def test_no_cache_and_wcc(self, skewed):
        und = skewed.to_undirected_edges()
        _assert_identical(
            _run(und, WCC(), MPEConfig(cache_mode=None), max_supersteps=10),
            _run(
                und,
                WCC(),
                MPEConfig(cache_mode=None, prefetch_depth=2),
                max_supersteps=10,
            ),
        )

    def test_result_reports_depth_and_occupancy(self, skewed, monkeypatch):
        # Pins its depth: CI's forcing flag must not override it.
        monkeypatch.delenv("REPRO_PREFETCH", raising=False)
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

    def test_env_override_wins(self, skewed, monkeypatch):
        baseline = _run(skewed, PageRank(), MPEConfig(), max_supersteps=6)
        monkeypatch.setenv("REPRO_PREFETCH", "2")
        result, telemetry = _run(
            skewed, PageRank(), MPEConfig(prefetch_depth=0), max_supersteps=6
        )
        assert result.prefetch_depth == 2
        _assert_identical(baseline, (result, telemetry))

    def test_env_override_rejects_junk(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "lots")
        with pytest.raises(ValueError, match="REPRO_PREFETCH"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)
        monkeypatch.setenv("REPRO_PREFETCH", "-3")
        with pytest.raises(ValueError, match="REPRO_PREFETCH"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)


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


def _oracle_apply(mpe, store, counters, own_update, inbox):
    """The concatenated reference for one server's barrier work: decode
    every envelope without the decode-once cache, translate each
    sender's positions through its target index, and land the own
    update and every sender's in one ``store.write``."""
    from repro.comm import decode_update

    codec = mpe._knobs.message_codec
    id_parts, val_parts = [own_update[0]], [own_update[1]]
    for src, payload_bytes in inbox:
        payload = decode_update(payload_bytes)
        id_parts.append(mpe._server_target_ids[src][payload.ids])
        val_parts.append(payload.values)
        if codec != "raw":
            counters.add_decompressed(codec, len(payload_bytes))
    store.write(np.concatenate(id_parts), np.concatenate(val_parts))


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


class TestDecodeOnceApply:
    """How a broadcast is applied: each payload decoded once per
    superstep and shared across receivers, every receiver still charged
    its own decompress bytes, each sender written where it lands — and
    the result the one concatenated scatter per receiver would leave."""

    @pytest.fixture(autouse=True)
    def _configured_executor(self, monkeypatch):
        """Each test here pins its executor (exact decode counts and
        the in-process differential are serial facts; each forked
        worker has its own decode cache), so CI's forcing flag must not
        override it."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize("codec", ["raw", "snappylike", "zlib1"])
    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_matches_per_sender_oracle(self, skewed, policy, codec):
        """Differential: on every (own_update, inbox) of real 3-server
        supersteps, the engine leaves the store and the receiver's
        Counters exactly where the concatenated oracle does."""
        import copy

        mpe = _engine(
            skewed,
            replication_policy=policy,
            message_codec=codec,
            max_supersteps=4,
        )
        engine_apply = mpe._apply_server_step
        checked = []

        def differential(server, own_update, inbox):
            store = copy.deepcopy(server.state["store"])
            counters = copy.deepcopy(server.counters)
            _oracle_apply(mpe, store, counters, own_update, inbox)
            decoded = engine_apply(server, own_update, inbox)
            assert _store_content(server.state["store"]) == _store_content(store)
            assert server.counters.snapshot() == counters.snapshot()
            checked.append(len(inbox))
            return decoded

        mpe._apply_server_step = differential
        try:
            result = mpe.run(PageRank())
        finally:
            mpe.cluster.close()
        # Every receiver of every superstep, each with a full inbox.
        assert checked == [2] * (3 * result.num_supersteps)

    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["none", "some", "all"]), min_size=2, max_size=2
        ),
        mode=st.sampled_from([DENSE, SPARSE, None]),
        codec=st.sampled_from(["raw", "snappylike"]),
        seed=st.integers(0, 2**16),
    )
    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_per_sender_apply_equals_the_concatenated_apply(
        self, apply_engine, policy, kinds, mode, codec, seed
    ):
        """Random inboxes — senders updating nothing, some or all of
        their targets (the last written through the target index
        itself), in every wire mode — into AA and OD stores: the engine
        leaves the store bytes and the Counters where the concatenated
        oracle does."""
        import copy

        from repro.core.vertexstore import AllInAllStore, OnDemandStore
        from repro.tuning.plan import KnobSettings

        mpe = apply_engine
        mpe._knobs = KnobSettings.of(MPEConfig(message_codec=codec))
        rng = np.random.default_rng(seed)
        nv = mpe.manifest.num_vertices
        init = rng.standard_normal(nv)
        targets = mpe._server_target_ids
        if policy == "aa":
            store = AllInAllStore(init, None)
        else:
            # Own targets plus a random part of the rest: writes to the
            # vertices left out must be ignored.
            extra = np.flatnonzero(rng.random(nv) < 0.5)
            store = OnDemandStore(init, None, np.concatenate([targets[0], extra]))

        def subset(n, kind):
            if kind == "all":
                return np.arange(n)
            if kind == "none":
                return np.zeros(0, dtype=np.int64)
            return np.flatnonzero(rng.random(n) < 0.4)

        own_rows = subset(targets[0].size, "some")
        own = (targets[0][own_rows], rng.standard_normal(own_rows.size))
        inbox = []
        for src, kind in zip((1, 2), kinds):
            staged = rng.standard_normal(targets[src].size)
            rows = subset(targets[src].size, kind)
            inbox.append((src, encode_update(staged, rows, codec, mode=mode)))
        server = mpe.cluster.servers[0]
        oracle_store = copy.deepcopy(store)
        oracle_counters = copy.deepcopy(server.counters)
        _oracle_apply(mpe, oracle_store, oracle_counters, own, inbox)
        server.state["store"] = store
        mpe._decode_cache.clear()
        mpe._apply_server_step(server, own, inbox)
        assert _store_content(store) == _store_content(oracle_store)
        assert server.counters.snapshot() == oracle_counters.snapshot()

    def test_decode_counts_exact(self, skewed):
        """Serial executor, N=3 servers: each of the S·N broadcast
        payloads is decoded exactly once; its other N−2 receivers hit."""
        n = 3
        result, _ = _run(
            skewed, PageRank(), MPEConfig(executor="serial"), max_supersteps=8
        )
        steps = result.num_supersteps
        assert result.payload_decode_misses == steps * n
        assert result.payload_decode_hits == steps * n * (n - 2)
        runtime = result.runtime()
        assert runtime["payload_decode_misses"] == steps * n
        assert runtime["payload_decode_hits"] == result.payload_decode_hits

    def test_decode_counts_are_per_run(self, skewed):
        """Host telemetry is zeroed at the top of run(): the second job
        on a warm engine reports its own counts, not the running sum."""
        mpe = _engine(skewed, max_supersteps=6)
        try:
            first = mpe.run(PageRank())
            second = mpe.run(PageRank())
        finally:
            mpe.cluster.close()
        assert first.payload_decode_misses > 0 and first.payload_decode_hits > 0
        assert (second.payload_decode_hits, second.payload_decode_misses) == (
            first.payload_decode_hits,
            first.payload_decode_misses,
        )

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
        # Inbox segments are the only uint8 SharedArrays a run creates
        # besides the tile-blob arena (one per run).
        assert created.count(np.dtype(np.uint8)) == 1

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
        """A dropped broadcast envelope must still be *lost* — the
        decode cache shares decoded payloads, never delivery — so the
        supervisor detects the divergence, restarts, and the retry is
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
    fresh Counters, edge cache emptied, stats zeroed) and its story."""
    reset_simulation(cluster, mpe.channel)
    result = mpe.run(SSSP(source=1))
    caches = [s.cache for s in cluster.servers]
    assert all(c.mode in (3, 4) for c in caches)
    return {
        "values": result.values.tobytes(),
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "cache": [dataclasses.asdict(c.stats) for c in caches],
        "cached": [c.content_keys() for c in caches],
        "modeled": [s.modeled for s in result.supersteps],
        "net": [s.net_bytes for s in result.supersteps],
        "disk": [s.disk_read_bytes for s in result.supersteps],
        "skipped": [s.tiles_skipped for s in result.supersteps],
    }, sum(c.compress_skipped for c in caches)


class TestSpillingRememberedSizes:
    """Admission before compression across executors × prefetch depth:
    a second run on the same engine decides every rejected insert from
    sizes remembered in the first, and its metered story is still the
    cold one, bit for bit."""

    @pytest.fixture(scope="class")
    def serial_reference(self, skewed):
        cluster, mpe = _spilling_engine(skewed, "serial", 0)
        try:
            first, skipped_first = _cold_run(cluster, mpe)
            learned = sum(len(s.cache.remembered_sizes()) for s in cluster.servers)
            second, skipped_both = _cold_run(cluster, mpe)
        finally:
            cluster.close()
        rejected = sum(c["rejected"] for c in first["cache"])
        stored = sum(c["insertions"] for c in first["cache"])
        assert second == first
        # A size is learned at a blob's first insert.  Admit-until-full
        # stores a blob then or never, so the first run's rejects skip
        # the codec except the one per never-stored blob that learned
        # its size; the second run re-learns nothing.
        assert 0 < learned - stored < rejected
        assert skipped_first == rejected - (learned - stored)
        assert skipped_both - skipped_first == rejected
        return first, skipped_first, skipped_both

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize(
        "executor",
        ["serial", "parallel", pytest.param("process", marks=needs_process)],
    )
    def test_second_run_matches_cold_engine(
        self, skewed, serial_reference, executor, depth
    ):
        reference, skipped_first, skipped_both = serial_reference
        cluster, mpe = _spilling_engine(skewed, executor, depth)
        try:
            first, after_first = _cold_run(cluster, mpe)
            second, after_second = _cold_run(cluster, mpe)
        finally:
            cluster.close()
        assert first == reference
        assert second == reference
        # Host telemetry, equal here because every executor learns the
        # same sizes at the same puts — under process only if the sizes
        # (and the fingerprints that let them decide) learned in the
        # first run's forked workers reached the parent.
        assert (after_first, after_second) == (skipped_first, skipped_both)

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
