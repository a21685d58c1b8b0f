"""Tests for ``repro.delta``: evolving graphs + incremental computation.

The subsystem invariants:

* **Incremental ≡ scratch** — a program restarted from its previous
  fixed point with a mutation batch's dirty set converges to the same
  fixed point as a from-scratch run over the mutated graph: bitwise for
  min-programs (SSSP / WCC — min is order-independent), and within
  float tolerance for PageRank (the repair replays additions in a
  different order; observed max diff ~2e-9, asserted at 1e-7).  Holds
  at every executor × selective on/off.
* **Off = bitwise no-op** and **fault determinism** — the ``mutations``
  row's ``identical`` contract and incremental runs under fault
  schedules are cases of ``tests/contract.py``'s matrix; here, the
  retry's replayed plan and a failed run's clean abort.
* **Compaction is atomic** — a batch that fails validation (deleting a
  missing edge) leaves the store untouched; replay is idempotent by
  watermark.
* **Merges are invisible** — folding an overlay into a rewritten base
  tile preserves the composed CSR exactly, so values match the
  overlay-composed engine bitwise.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SSSP, PageRank, WCC
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.core.checkpoint import latest_checkpoint, write_checkpoint
from repro.delta import (
    DeltaStore,
    Mutation,
    MutationLog,
    TileOverlay,
    mirrored,
    random_mutations,
)
from repro.delta.mutlog import OP_DELETE, OP_INSERT
from repro.faults import CRASH, FaultEvent, FaultSchedule, Supervisor
from repro.graph import chung_lu_graph
from repro.obs import Tracer
from repro.partition.tiles import Tile
from repro.runtime import process_runtime_available
from repro.runtime.shm import outstanding_segments
from tests import contract
from tests.contract import Case, check, recovery, restarts, run

needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)

N_SERVERS = 3

EXECUTORS = ["serial", "parallel"] + (
    ["process"] if process_runtime_available() else []
)


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(250, 2500, seed=95, name="delta-g")


@pytest.fixture(scope="module")
def batch(skewed):
    return random_mutations(skewed, num_inserts=60, num_deletes=40, seed=7)


def _engine(graph, cfg=None, tile_edges=None):
    """Fresh cluster + preprocessed tiles + engine; caller closes."""
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    spe = SPE(cluster.dfs)
    manifest = spe.preprocess(
        graph,
        tile_edges or max(1, graph.num_edges // (48 * N_SERVERS)),
        name=graph.name,
    )
    mpe = MPE(cluster, manifest, cfg or MPEConfig(mutations=True))
    return mpe, cluster


def _story(mpe, result):
    """The full observable story of one run (for bitwise comparisons)."""
    return {
        "counters": [
            s.counters.snapshot() for s in mpe.cluster.servers
        ],
        "modeled": [
            r["modeled_s"] for r in result.trace() if "modeled_s" in r
        ],
        "skipped": [s.tiles_skipped for s in result.supersteps],
    }


_ORACLE_ROWS = [3, 40, 41, 77, 118]


@functools.cache
def _oracle_graph(weighted):
    return chung_lu_graph(120, 700, seed=3, weighted=weighted, name="delta-oracle")


def _assert_held_tiles_compose(mpe, affected):
    """Every overlaid tile's decoded-cache entry — present for each tile
    the last batch changed — is the tile its overlay composes to from
    its base: the same bytes and the same source set."""
    delta = mpe.delta
    for tile_id, overlay in delta.store.overlays.items():
        held = delta.held_tile(tile_id)
        assert held is not None or tile_id not in affected
        if held is not None:
            want = overlay.compose(delta.base_tile(tile_id))
            assert held.to_bytes() == want.to_bytes()
            assert held.source_vertices.dtype == want.source_vertices.dtype
            assert np.array_equal(held.source_vertices, want.source_vertices)


# ----------------------------------------------------------------------
# The core invariant: incremental ≡ scratch on the mutated graph
# ----------------------------------------------------------------------
class TestIncrementalMatchesScratch:
    def _compare(self, graph, ops, program_factory, executor, selective,
                 exact, expect_change=True):
        cfg = MPEConfig(
            mutations=True,
            executor=executor,
            selective_scheduling=selective,
        )
        mpe, cluster = _engine(graph, cfg)
        try:
            base = mpe.run(program_factory())  # records the fixed point
            assert base.converged
            report = mpe.apply_mutations(ops)
            assert report["applied"] == len(ops)

            mpe.config = dataclasses.replace(cfg, incremental=True)
            inc = mpe.run(program_factory())
            assert inc.converged
            assert inc.delta["incremental"] is True
            assert inc.delta["dirty_vertices"] > 0

            mpe.config = cfg  # scratch on the same overlaid engine
            scratch = mpe.run(program_factory())
            assert scratch.converged
            assert scratch.delta["incremental"] is False

            if exact:
                assert np.array_equal(inc.values, scratch.values)
            else:
                assert np.allclose(inc.values, scratch.values, atol=1e-7)
            if expect_change:  # the batch actually changed the answer
                assert not np.array_equal(scratch.values, base.values)
            # and the incremental restart did less work than scratch
            assert inc.num_supersteps <= scratch.num_supersteps
        finally:
            cluster.close()

    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sssp(self, skewed, batch, executor, selective):
        self._compare(
            skewed, batch, lambda: SSSP(source=1), executor, selective,
            exact=True,
        )

    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pagerank(self, skewed, batch, executor, selective):
        self._compare(
            skewed, batch, PageRank, executor, selective, exact=False
        )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_wcc_on_symmetrised_graph(self, skewed, batch, executor):
        sym = skewed.to_undirected_edges()
        # the graph stays one component, so the labels legitimately
        # don't change — the invariant under test is inc ≡ scratch
        self._compare(
            sym, mirrored(batch), WCC, executor, selective=True, exact=True,
            expect_change=False,
        )

    def test_second_batch_repairs_from_new_fixed_point(self, skewed, batch):
        """Fixed-point memory advances: mutate → incremental → mutate →
        incremental, each repair starting from the last converged run."""
        cfg = MPEConfig(mutations=True, incremental=True)
        mpe, cluster = _engine(skewed, MPEConfig(mutations=True))
        try:
            mpe.run(SSSP(source=1))
            mpe.apply_mutations(batch)
            mpe.config = cfg
            first = mpe.run(SSSP(source=1))
            mpe.apply_mutations(
                random_mutations(
                    skewed, num_inserts=30, num_deletes=0, seed=13
                )
            )
            second = mpe.run(SSSP(source=1))
            assert second.delta["watermark"] == len(batch) + 30
            mpe.config = MPEConfig(mutations=True)
            scratch = mpe.run(SSSP(source=1))
            assert np.array_equal(second.values, scratch.values)
            assert first.converged and second.converged
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Off = bitwise no-op
# ----------------------------------------------------------------------
class TestNoOpIdentity:
    def test_incremental_requires_mutations(self):
        with pytest.raises(ValueError, match="requires mutations"):
            MPEConfig(incremental=True)

    def test_incremental_without_prior_run_raises(self, skewed):
        mpe, cluster = _engine(
            skewed, MPEConfig(mutations=True, incremental=True)
        )
        try:
            with pytest.raises(ValueError, match="previous completed run"):
                mpe.run(SSSP(source=1))
        finally:
            cluster.close()

    def test_empty_incremental_batch_converges_immediately(self, skewed):
        mpe, cluster = _engine(skewed, MPEConfig(mutations=True))
        try:
            base = mpe.run(SSSP(source=1))
            mpe.config = MPEConfig(mutations=True, incremental=True)
            rerun = mpe.run(SSSP(source=1))
            assert rerun.converged
            assert rerun.num_supersteps == 1
            assert np.array_equal(rerun.values, base.values)
        finally:
            cluster.close()

    def test_apply_mutations_requires_config(self, skewed):
        mpe, cluster = _engine(skewed, MPEConfig())
        try:
            with pytest.raises(ValueError, match="mutations"):
                mpe.apply_mutations([{"op": "insert", "src": 0, "dst": 1}])
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Fault determinism: incremental repair under a crash schedule
# ----------------------------------------------------------------------
class _Boom(RuntimeError):
    pass


class _FailingParticipant:
    """A run participant (DESIGN.md §5o) that raises at one call point.
    Appended to the engine's own, so it begins last and ends first."""

    def __init__(self, point, superstep=1):
        self.point, self.superstep = point, superstep

    def begin_run(self, prep, graph):
        if self.point == "begin_run":
            raise _Boom(self.point)

    def begin_superstep(self, prep, superstep):
        pass

    def end_superstep(self, prep, done):
        if self.point == "end_superstep" and done.report.superstep == self.superstep:
            raise _Boom(self.point)

    def end_run(self, prep, result):
        pass


def _run_story(mpe, result):
    """One run as a fresh engine must repeat it, bitwise (cumulative
    counters excluded: a failed attempt's work stays on them)."""
    return {
        "values": result.values.tobytes(),
        "steps": [
            (s.superstep, s.updated_vertices, s.tiles_processed, s.tiles_skipped,
             s.net_bytes, s.disk_read_bytes, s.modeled)
            for s in result.supersteps
        ],
        "tuning": result.tuning,
        "delta": result.delta,
        "plan": mpe.tuner.plan.trace(),
    }


class TestFaultDeterminism:
    def _supervised_incremental(self, graph, ops, schedule_events, tune=False):
        cfg = MPEConfig(
            mutations=True, checkpoint_every=2, max_supersteps=60, tune=tune
        )
        mpe, cluster = _engine(graph, cfg)
        try:
            mpe.run(SSSP(source=1))
            mpe.apply_mutations(ops)
            mpe.config = dataclasses.replace(cfg, incremental=True)
            schedule = FaultSchedule(
                [FaultEvent(**e) for e in schedule_events]
            )
            supervisor = Supervisor(mpe, schedule=schedule)
            try:
                result, report = supervisor.run(SSSP(source=1))
            finally:
                supervisor.injector.detach()
            values = result.values.copy()
            story = _story(mpe, result)
            if tune:
                story["plan"] = mpe.tuner.plan.trace()
            return values, report.to_dict(), story
        finally:
            cluster.close()

    # An incremental, tuned repair under seeded schedules of crashes,
    # stragglers, drops and disk errors: the serial run's story, the
    # fault-free run's values.
    REPAIR = Case(
        program="sssp",
        participant="mutation",
        context=(("incremental", True), ("tune", True)),
    )

    def test_crash_replay_is_deterministic(self):
        case = dataclasses.replace(self.REPAIR, fault=3, executor="process", width=2)
        check(case)
        assert contract.run.__wrapped__(case) == run(case)
        assert restarts(case) == [("crash", 1, 0)]

    def test_crash_recovery_matches_fault_free_values(self):
        case = dataclasses.replace(self.REPAIR, fault=8)
        check(case)
        assert restarts(case) == [("crash", 2, 2)]

    def test_disk_error_retries_are_deterministic(self):
        case = dataclasses.replace(self.REPAIR, fault=35, executor="parallel", width=2)
        check(case)
        report = recovery(case)
        assert (report["restarts"], report["fault_retries"]) == (0, 3)

    def test_supervised_retry_replays_plan_and_seed_tiles(
        self, skewed, batch, monkeypatch
    ):
        """A crash before the first checkpoint restarts the incremental,
        tuned run from superstep 0: the retry forces the same tiles over
        the same dirty set and replays the recorded knob decisions."""
        seeds = []
        resolve = MPE._resolve_schedule

        def recording(self, superstep, prev_updated, num_vertices, forced=frozenset()):
            if superstep == 0 and prev_updated is not None:
                seeds.append((forced, prev_updated.tobytes()))
            return resolve(self, superstep, prev_updated, num_vertices, forced)

        monkeypatch.setattr(MPE, "_resolve_schedule", recording)
        crash = [dict(kind=CRASH, superstep=1, server=0)]
        faulted = self._supervised_incremental(skewed, batch, crash, tune=True)
        clean = self._supervised_incremental(skewed, batch, [], tune=True)
        assert faulted[1]["restarts"] == 1
        assert faulted[1]["records"][0]["resume_superstep"] == 0
        # Two attempts of the faulted run, one of the clean one.
        assert len(seeds) == 3 and seeds[0] == seeds[1] == seeds[2]
        assert seeds[0][0]  # deletions force tiles
        assert np.array_equal(faulted[0], clean[0])
        assert faulted[2]["plan"] == clean[2]["plan"]

    @pytest.mark.parametrize(
        "executor", ["serial", pytest.param("process", marks=needs_process)]
    )
    @pytest.mark.parametrize(
        "failure", ["begin_run", "end_superstep", "checkpoint_write"]
    )
    def test_failed_run_leaves_nothing_behind(
        self, skewed, batch, executor, failure, monkeypatch
    ):
        """A participant raising at run start or after a superstep, and
        a checkpoint write the DFS refuses, abort an incremental, tuned,
        checkpointed run.  Nothing is left open or advanced, and the
        next run on that engine is a fresh engine's, bitwise."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        cfg = MPEConfig(
            mutations=True, tune=True, checkpoint_every=2, max_supersteps=60,
            executor=executor, num_workers=2,
        )

        def prepared():
            mpe, cluster = _engine(skewed, cfg)
            mpe.tracer = Tracer()
            mpe.setup()
            # No merges: every blob stays in the edge cache, so a failed
            # attempt's loads cannot change what the next run reads.
            mpe.delta.store.merge_ratio = 1e9
            assert mpe.run(SSSP(source=1)).converged
            mpe.apply_mutations(batch)
            mpe.config = dataclasses.replace(cfg, incremental=True)
            return mpe, cluster

        fresh, fresh_cluster = prepared()
        mpe, cluster = prepared()
        try:
            expected = _run_story(fresh, fresh.run(SSSP(source=1)))
            assert len(expected["steps"]) > 2 and expected["delta"]["forced_tiles"]

            fixed_point = mpe.delta.fixed_points["sssp"]
            if failure == "checkpoint_write":
                write = cluster.dfs.write

                def refusing(path, data):
                    if "/ckpt-" in path:
                        raise IOError("injected: no live datanodes to write to")
                    return write(path, data)

                monkeypatch.setattr(cluster.dfs, "write", refusing)
                raised = IOError
            else:
                participants = MPE._participants
                monkeypatch.setattr(
                    MPE,
                    "_participants",
                    lambda self, resume: participants(self, resume)
                    + (_FailingParticipant(failure),),
                )
                raised = _Boom
            with pytest.raises(raised):
                mpe.run(SSSP(source=1))

            assert outstanding_segments() == []
            assert all(buf.depth == 0 for buf in mpe.tracer.buffers())
            assert all(
                mpe.channel.pending(s.server_id) == 0 for s in cluster.servers
            )
            assert mpe._run is None
            assert mpe.delta.fixed_points["sssp"] is fixed_point
            assert latest_checkpoint(cluster.dfs, skewed.name, "sssp") is None
            # The aborted attempt decided at most the supersteps it
            # began — a prefix of what the whole run records.
            decided = mpe.tuner.plan.trace()
            assert decided == expected["plan"][: len(decided)]
            assert len(decided) == {"begin_run": 0}.get(failure, 2)

            monkeypatch.undo()
            assert _run_story(mpe, mpe.run(SSSP(source=1))) == expected
        finally:
            fresh_cluster.close()
            cluster.close()


# ----------------------------------------------------------------------
# Mutation log: round-trips + validation
# ----------------------------------------------------------------------
class TestMutationLog:
    def test_json_round_trip(self):
        log = MutationLog(num_vertices=10)
        log.insert(1, 2)
        log.insert(3, 4, weight=0.5)
        log.delete(1, 2)
        back = MutationLog.from_json(log.to_json())
        assert back.mutations == log.mutations
        assert back.num_vertices == 10
        unsized = MutationLog()
        unsized.insert(7, 8, weight=2.25)
        unsized.delete(9, 0)
        back = MutationLog.from_json(unsized.to_json())
        assert back.mutations == unsized.mutations
        assert back.num_vertices is None

    def test_save_load(self, tmp_path):
        log = MutationLog(num_vertices=64)
        log.extend(random_mutations(
            chung_lu_graph(64, 300, seed=3), 10, 5, seed=3
        ))
        path = str(tmp_path / "mutlog.json")
        log.save(path)
        assert MutationLog.load(path).mutations == log.mutations
        # Written a row at a time, yet one dumps' bytes.
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(log.to_json(), sort_keys=True) + "\n"
        log.save(path, upto=3)
        assert MutationLog.load(path).mutations == log.mutations[:3]

    def test_ids_are_dense_and_monotonic(self):
        log = MutationLog()
        muts = log.extend(
            [{"op": "insert", "src": 0, "dst": 1}] * 5
        )
        assert [m.mut_id for m in muts] == [1, 2, 3, 4, 5]
        assert log.last_id == 5
        assert [m.mut_id for m in log.since(2)] == [3, 4, 5]

    def test_from_json_rejects_sparse_ids(self):
        log = MutationLog()
        log.insert(0, 1)
        payload = log.to_json()
        payload["mutations"][0]["mut_id"] = 4
        with pytest.raises(ValueError, match="dense"):
            MutationLog.from_json(payload)

    def test_endpoint_validation(self):
        log = MutationLog(num_vertices=4)
        with pytest.raises(ValueError, match="cannot add vertices"):
            log.insert(0, 4)
        with pytest.raises(ValueError, match=">= 0"):
            log.delete(-1, 0)

    def test_mirrored_doubles_the_batch(self):
        ops = [
            {"op": "insert", "src": 1, "dst": 2, "weight": 3.0},
            {"op": "delete", "src": 4, "dst": 5},
        ]
        out = mirrored(ops)
        assert len(out) == 4
        assert {(o["src"], o["dst"]) for o in out} == {
            (1, 2), (2, 1), (4, 5), (5, 4)
        }


# ----------------------------------------------------------------------
# Compaction: atomicity, idempotence, merges
# ----------------------------------------------------------------------
class TestCompaction:
    def test_failed_batch_leaves_store_untouched(self, skewed):
        mpe, cluster = _engine(skewed, MPEConfig(mutations=True))
        try:
            mpe.setup()
            mpe.apply_mutations([{"op": "insert", "src": 0, "dst": 1}])
            before = mpe.delta.store.summary()
            # deleting an edge that does not exist fails validation
            with pytest.raises(ValueError):
                mpe.apply_mutations([
                    {"op": "insert", "src": 2, "dst": 3},
                    {"op": "delete", "src": 0, "dst": 0},
                ])
            # watermark and overlays unchanged: nothing partially landed
            after = mpe.delta.store.summary()
            assert after["watermark"] == before["watermark"]
            assert after["overlay_edges"] == before["overlay_edges"]
        finally:
            cluster.close()

    def test_replay_is_idempotent_by_watermark(self, skewed, batch):
        mpe, cluster = _engine(skewed, MPEConfig(mutations=True))
        try:
            mpe.apply_mutations(batch)
            log = mpe.mutation_log
            watermark = mpe.delta.store.watermark
            # re-adopting the same full log applies nothing new
            report = mpe.apply_mutations(log=log)
            assert report["applied"] == 0
            assert mpe.delta.store.watermark == watermark
        finally:
            cluster.close()

    def test_stale_log_adoption_rejected(self, skewed, batch):
        mpe, cluster = _engine(skewed, MPEConfig(mutations=True))
        try:
            mpe.apply_mutations(batch)
            with pytest.raises(ValueError, match="already applied"):
                mpe.apply_mutations(log=MutationLog())
        finally:
            cluster.close()

    def test_merge_is_invisible_to_values(self, skewed, batch):
        """A forced merge (tiny threshold) rewrites base tiles; values
        stay bitwise identical to the overlay-composed engine."""
        overlay_mpe, overlay_cluster = _engine(
            skewed, MPEConfig(mutations=True)
        )
        merged_mpe, merged_cluster = _engine(
            skewed, MPEConfig(mutations=True)
        )
        try:
            overlay_mpe.setup()
            # large ratio: overlays never merge
            overlay_mpe.delta.store.merge_ratio = 1e9
            overlay_mpe.apply_mutations(batch)
            assert overlay_mpe.delta.store.merges == 0

            merged_mpe.setup()
            merged_mpe.delta.store.merge_ratio = 1e-9  # every overlay merges
            report = merged_mpe.apply_mutations(batch)
            assert len(report["merged"]) > 0
            assert merged_mpe.delta.store.summary()["overlay_edges"] == 0

            a = overlay_mpe.run(SSSP(source=1))
            b = merged_mpe.run(SSSP(source=1))
            assert np.array_equal(a.values, b.values)
            # merged engine still supports incremental repair
            merged_mpe.apply_mutations(
                random_mutations(skewed, 20, 0, seed=21)
            )
            merged_mpe.config = MPEConfig(mutations=True, incremental=True)
            inc = merged_mpe.run(SSSP(source=1))
            merged_mpe.config = MPEConfig(mutations=True)
            scratch = merged_mpe.run(SSSP(source=1))
            assert np.array_equal(inc.values, scratch.values)
        finally:
            overlay_cluster.close()
            merged_cluster.close()

    def test_merged_tile_is_found_under_its_versioned_name(self, skewed, batch):
        """A merge only renames: the tile keeps its server and slot, the
        lookup answers the versioned blob, and a respawn refetches the
        merged bytes under it."""
        mpe, cluster = _engine(skewed, MPEConfig(mutations=True))
        try:
            mpe.setup()
            tiles = range(mpe.manifest.num_tiles)
            before = {t: mpe.tile_home(t) for t in tiles}
            assert [name for _s, _i, name in before.values()] == [
                f"tile-{t}" for t in tiles
            ]
            mpe.delta.store.merge_ratio = 1e-9  # every overlay merges
            merged = {m["tile"]: m for m in mpe.apply_mutations(batch)["merged"]}
            assert merged and len(merged) < len(tiles)
            for t in tiles:
                server, index, name = mpe.tile_home(t)
                assert (server, index) == before[t][:2]
                if t not in merged:
                    assert name == before[t][2]
                    continue
                m = merged[t]
                assert name == f"tile-{t}-v{m['generation']}"
                assert mpe._assignments[server.server_id][index] == (
                    t, name, m["nbytes"]
                )
                blob = server.disk.peek(name)
                assert blob == cluster.dfs.read(mpe.manifest.tile_path(t))
                assert mpe.delta.base_tile(t).num_edges == (
                    mpe.delta.parse(blob).num_edges
                )  # the overlay is folded in
                server.disk.delete(name)
                refetched = mpe.respawn_server(server.server_id)
                assert server.disk.peek(name) == blob
                assert refetched == sum(
                    n for _t, _n, n in mpe._assignments[server.server_id]
                )
        finally:
            cluster.close()

    def test_overlay_blob_round_trip(self):
        log = MutationLog()
        log.insert(3, 5, weight=1.5)
        log.insert(2, 5)
        log.delete(3, 5)
        overlay = TileOverlay(tile_id=0)
        for mut in log.mutations:
            overlay.apply(mut)
        back = TileOverlay.from_bytes(overlay.to_bytes())
        assert back.tile_id == overlay.tile_id
        assert back.num_ops == overlay.num_ops
        assert back.to_bytes() == overlay.to_bytes()

    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),  # insert / delete
                st.integers(0, 5),
                st.integers(0, 5),
                st.one_of(st.none(), st.floats(0.5, 4.0)),
            ),
            max_size=40,
        )
    )
    def test_nbytes_is_the_serialised_length(self, ops):
        """``nbytes`` is a closed form (the sweep asks per scheduled
        overlaid tile); it has to stay the blob's length — inserts,
        cancelled inserts, repeated base deletes, weighted or not."""
        overlay = TileOverlay(tile_id=7)
        for i, (insert, src, dst, weight) in enumerate(ops):
            op = OP_INSERT if insert else OP_DELETE
            overlay.apply(Mutation(i, op, src, dst, weight if insert else None))
        assert overlay.nbytes() == len(overlay.to_bytes())
        # Sealed, the pair is read, not recomputed — and still right;
        # the next edit unseals.
        ops_before = overlay.num_ops
        overlay.seal()
        assert (overlay.nbytes(), overlay.num_ops) == (
            len(overlay.to_bytes()), ops_before
        )
        overlay.apply(Mutation(len(ops), OP_INSERT, 1, 2, None))
        assert overlay.num_ops == ops_before + 1
        assert overlay.nbytes() == len(overlay.to_bytes())

    def test_compaction_seals_what_the_sweep_charges(self, skewed):
        """The sweep charges ``delta_bytes`` / ``delta_edges`` per
        scheduled overlaid tile from the sealed pair; it is the pair a
        walk over the overlay gives."""
        mpe, cluster = _engine(
            skewed,
            MPEConfig(  # every tile scheduled every superstep
                mutations=True, selective_scheduling=False,
                use_bloom_filters=False, max_supersteps=4,
            ),
        )
        try:
            mpe.apply_mutations(random_mutations(skewed, 30, 20, seed=9))
            mpe.apply_mutations(random_mutations(skewed, 10, 0, seed=10))
            overlays = list(mpe.delta.store.overlays.values())
            assert overlays
            for overlay in overlays:
                assert overlay._sealed == (
                    len(overlay.to_bytes()),
                    len(overlay.inserts) + sum(overlay.deletes.values()),
                )
            result = mpe.run(PageRank(tolerance=0.0))
            steps = result.num_supersteps
            assert all(s.tiles_skipped == 0 for s in result.supersteps)
            counters = [s.counters for s in cluster.servers]
            assert sum(c.delta_bytes for c in counters) == steps * sum(
                len(o.to_bytes()) for o in overlays
            )
            assert sum(c.delta_edges for c in counters) == steps * sum(
                len(o.inserts) + sum(o.deletes.values()) for o in overlays
            )
        finally:
            cluster.close()

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 3), st.floats(0.5, 4.0)),
            max_size=30,
        ),
        ops=st.lists(
            st.tuples(
                st.booleans(),  # insert / delete
                st.integers(0, 7),
                st.integers(0, 3),
                st.floats(0.5, 4.0),
            ),
            max_size=30,
        ),
        weighted=st.booleans(),
    )
    def test_compose_orders_like_lexsort(self, base, ops, weighted):
        """``compose`` sorts by one packed ``target * |V| + src`` key; the
        tile must be the one ``np.lexsort((src, target))`` orders —
        duplicate edges, base deletes and weights included."""
        n = 8
        src = np.array([s for s, _, _ in base], dtype=np.int64)
        dst = np.array([d for _, d, _ in base], dtype=np.int64)
        val = np.array([w for _, _, w in base], dtype=np.float64)
        by_target = np.argsort(dst, kind="stable")  # sources left unsorted
        src, dst, val = src[by_target], dst[by_target], val[by_target]
        tile = Tile(
            tile_id=0, target_lo=0, target_hi=4, num_graph_vertices=n,
            row=np.searchsorted(dst, np.arange(5)).astype(np.int64),
            col=src.astype(np.uint32), val=val if weighted else None,
        )
        overlay = TileOverlay(tile_id=0)
        present = {}
        for s, d in zip(src.tolist(), dst.tolist()):
            present[(s, d)] = present.get((s, d), 0) + 1
        for i, (insert, s, d, w) in enumerate(ops):
            if insert:
                overlay.apply(Mutation(i, OP_INSERT, s, d, w if weighted else None))
                present[(s, d)] = present.get((s, d), 0) + 1
            elif present.get((s, d)):
                overlay.apply(Mutation(i, OP_DELETE, s, d))
                present[(s, d)] -= 1
        if overlay.is_empty:
            assert overlay.compose(tile) is tile
            return
        # The reference: drop the first base instances of each delete in
        # storage order, append the inserts, lexsort.
        owed = dict(overlay.deletes)
        rows = []
        for s, d, w in zip(src.tolist(), dst.tolist(), val.tolist()):
            if owed.get((s, d)):
                owed[(s, d)] -= 1
            else:
                rows.append((s, d, w))
        rows += [(s, d, 1.0 if w is None else w) for s, d, w in overlay.inserts]
        ref_src = np.array([r[0] for r in rows], dtype=np.int64)
        ref_dst = np.array([r[1] for r in rows], dtype=np.int64)
        ref_val = np.array([r[2] for r in rows], dtype=np.float64)
        order = np.lexsort((ref_src, ref_dst))
        composed = overlay.compose(tile)
        assert np.array_equal(
            composed.row, np.searchsorted(ref_dst[order], np.arange(5))
        )
        assert np.array_equal(composed.col, ref_src[order])
        if weighted:
            assert composed.val.tobytes() == ref_val[order].tobytes()
        else:
            assert composed.val is None

    @settings(max_examples=40, deadline=None)
    @given(
        weighted=st.booleans(),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.one_of(st.integers(0, 3), st.integers(0, 119)),
                    st.sampled_from(_ORACLE_ROWS),  # few rows: equal keys
                    st.sampled_from([0.5, 1.5, None]),
                ),
                min_size=1,
                max_size=10,
            ),
            min_size=4,
            max_size=7,
        ),
        data=st.data(),
    )
    def test_held_tiles_are_what_their_overlays_compose(
        self, weighted, batches, data
    ):
        """The oracle for composing onto the last composed tile: after
        every batch, each overlaid tile's decoded-cache entry is what its
        overlay composes to from its base.  Insert-only batches with
        duplicate edges and equal keys of different weights; one batch
        with a delete (composed from the base), one after the decoded
        cache is cleared, one that merges a tile mid-sequence."""
        last = len(batches) - 1
        delete_at = data.draw(st.integers(1, last), label="delete_at")
        clear_at = data.draw(st.integers(1, last), label="clear_at")
        merge_at = data.draw(st.integers(1, last - 1), label="merge_at")
        graph = _oracle_graph(weighted)
        mpe, cluster = _engine(graph, tile_edges=40)
        try:
            mpe.setup()
            store = mpe.delta.store
            for i, inserts in enumerate(batches):
                # The first edge again, twice: equal keys, weights not
                # in append order.
                src, dst, _ = inserts[0]
                inserts = inserts + [(src, dst, 2.5), (src, dst, 0.25)]
                ops = [
                    {"op": OP_INSERT, "src": s, "dst": d, "weight": w}
                    for s, d, w in inserts
                ]
                if i == delete_at:
                    # A base edge into an overlaid row: the delete sends
                    # a tile with an overlay back to its base.
                    j = int(np.flatnonzero(np.isin(graph.dst, _ORACLE_ROWS))[i])
                    ops.append(
                        {
                            "op": OP_DELETE,
                            "src": int(graph.src[j]),
                            "dst": int(graph.dst[j]),
                        }
                    )
                if i == merge_at:
                    flooded = store.tile_of(77)
                    overlay = store.overlays.get(flooded)
                    need = mpe.delta.base_tile(flooded).num_edges // 4 + 1
                    need -= 0 if overlay is None else overlay.num_ops
                    ops += [{"op": OP_INSERT, "src": 5, "dst": 77}] * max(1, need)
                if i == clear_at:
                    for server in cluster.servers:
                        server.decoded_cache.clear()
                report = mpe.apply_mutations(ops)
                if i == merge_at:
                    assert flooded in [m["tile"] for m in report["merged"]]
                _assert_held_tiles_compose(mpe, {store.tile_of(o["dst"]) for o in ops})
        finally:
            cluster.close()

    @needs_process
    def test_held_tiles_compose_under_process_executor(self, skewed, monkeypatch):
        """The same oracle with a run between batches under the process
        executor: forked workers parse through the same overlays, the
        parent's decoded cache comes back holding composed tiles, and
        every run's values equal the serial engine's bitwise."""
        batches = [random_mutations(skewed, 20, 0, seed=s) for s in range(30, 36)]
        batches.append(random_mutations(skewed, 20, 10, seed=36))
        values = {}
        for executor in ("serial", "process"):
            monkeypatch.setenv("REPRO_EXECUTOR", executor)
            mpe, cluster = _engine(skewed)
            try:
                mpe.run(SSSP(source=1))
                runs = []
                for ops in batches:
                    mpe.apply_mutations(ops)
                    affected = {mpe.delta.store.tile_of(op["dst"]) for op in ops}
                    _assert_held_tiles_compose(mpe, affected)
                    runs.append(mpe.run(SSSP(source=1)).values.tobytes())
                    _assert_held_tiles_compose(mpe, affected)
                values[executor] = runs
            finally:
                cluster.close()
        assert values["serial"] == values["process"]

    def test_since_reads_the_applied_slice(self, skewed, batch):
        """An incremental plan reads the engine's log by slice, up to
        the store's watermark: what a scan of every applied mutation
        returns, even with a failed batch's rows past the watermark."""
        mpe, cluster = _engine(skewed)
        try:
            mpe.apply_mutations(batch)
            mpe.apply_mutations(random_mutations(skewed, 20, 0, seed=21))
            applied = list(mpe.mutation_log.mutations)
            with pytest.raises(ValueError):
                mpe.apply_mutations([{"op": "delete", "src": 0, "dst": 0}])
            log, watermark = mpe.mutation_log, mpe.delta.store.watermark
            assert watermark == len(applied) < log.last_id
            for mark in range(watermark + 2):
                assert log.since(mark, watermark) == [
                    m for m in applied if m.mut_id > mark
                ]
        finally:
            cluster.close()

    def test_a_batch_composes_each_changed_tile_once(
        self, skewed, monkeypatch
    ):
        """The batch hands its composed tiles to the decoded cache: the
        next run composes nothing, and meters its loads exactly as an
        engine that parses (and so composes) them again.  A tile is
        composed once per batch that changes it — from its base, or onto
        the tile the last batch composed (``recompose``).  Serial, so
        every compose of the next run happens in this process."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        calls, recomposed = [], []
        compose, recompose = TileOverlay.compose, TileOverlay.recompose
        monkeypatch.setattr(
            TileOverlay,
            "compose",
            lambda self, base: calls.append(self.tile_id) or compose(self, base),
        )

        def counted_recompose(self, prior, added):
            calls.append(self.tile_id)
            recomposed.append(self.tile_id)
            return recompose(self, prior, added)

        monkeypatch.setattr(TileOverlay, "recompose", counted_recompose)
        stories = []
        for parse_again in (False, True):
            mpe, cluster = _engine(skewed)
            try:
                mpe.run(SSSP(source=1))  # every tile decoded and cached
                for seed in (5, 11):  # the second batch meets overlays
                    calls.clear()
                    report = mpe.apply_mutations(
                        random_mutations(skewed, 40, 0, seed=seed)
                    )
                    assert not report["merged"]
                    assert sorted(calls) == sorted(set(calls))
                    assert len(calls) == report["affected_tiles"]
                assert recomposed
                if parse_again:
                    for server in cluster.servers:
                        server.decoded_cache.clear()
                calls.clear()
                for server in cluster.servers:
                    server.counters = type(server.counters)()
                result = mpe.run(SSSP(source=1))
                assert (len(calls) > 0) == parse_again
                stories.append((result.values.tobytes(), _story(mpe, result)))
            finally:
                cluster.close()
        assert stories[0] == stories[1]

    def test_a_batch_loads_each_affected_base_once(self, skewed, monkeypatch):
        """Compaction reads a tile's base at most once per batch, and only
        when it composes from it: a tile with no overlay yet, no held
        composed tile, or a delete in the batch.  Every other affected
        tile is composed onto its held tile (a base tile is not
        canonical, so a first overlay always reads the base)."""
        from repro.delta.attach import EvolvingGraph

        loads = []
        base_tile = EvolvingGraph.base_tile
        monkeypatch.setattr(
            EvolvingGraph,
            "base_tile",
            lambda self, tile_id: loads.append(tile_id) or base_tile(self, tile_id),
        )
        mpe, cluster = _engine(skewed)
        try:
            mpe.setup()  # attaches the (empty) evolving graph
            for seed in (5, 6):  # the second batch meets existing overlays
                ops = random_mutations(skewed, 30, 10, seed=seed)
                delta = mpe.delta
                tile_of = delta.store.tile_of
                affected = {tile_of(op["dst"]) for op in ops}
                expected = {
                    t
                    for t in affected
                    if t not in delta.store.overlays
                    or delta.held_tile(t) is None
                    or any(
                        op["op"] == OP_DELETE and tile_of(op["dst"]) == t
                        for op in ops
                    )
                }
                loads.clear()
                report = mpe.apply_mutations(ops)
                assert report["affected_tiles"] == len(affected) > 1
                assert sorted(loads) == sorted(expected)
                if seed == 5:
                    assert expected == affected
                else:
                    assert 0 < len(expected) < len(affected)
        finally:
            cluster.close()

    def test_incremental_plan_reads_held_tiles(self, skewed, monkeypatch):
        """An incremental plan after a mixed batch scans tiles for the
        delete targets' forward reach: with a warm decoded cache it reads
        no blob, and plans and converges exactly as when every tile is
        parsed from its blob."""
        from repro.delta.attach import EvolvingGraph

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        blobs = []
        blob = EvolvingGraph._blob
        monkeypatch.setattr(
            EvolvingGraph,
            "_blob",
            lambda self, tile_id: blobs.append(tile_id) or blob(self, tile_id),
        )
        outcomes = []
        for held in (True, False):
            if not held:
                monkeypatch.setattr(EvolvingGraph, "held_tile", lambda *_: None)
            mpe, cluster = _engine(skewed)
            try:
                mpe.run(SSSP(source=1))
                mpe.apply_mutations(random_mutations(skewed, 30, 10, seed=5))
                mpe.config = MPEConfig(mutations=True, incremental=True)
                blobs.clear()
                result = mpe.run(SSSP(source=1))
                assert result.delta["incremental"]
                assert result.delta["reset_vertices"] > 0  # reach was scanned
                assert (len(blobs) == 0) == held
                outcomes.append(
                    (result.values.tobytes(), result.delta, _story(mpe, result))
                )
            finally:
                cluster.close()
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Checkpoint durability: incremental state survives restore
# ----------------------------------------------------------------------
class TestCheckpointDurability:
    def test_batch_drops_this_datasets_snapshots_only(self, skewed, batch):
        """Snapshots predate the batch they would resume over: every
        program's go — another dataset's stay, and an empty batch drops
        nothing."""
        cfg = MPEConfig(mutations=True, checkpoint_every=1, max_supersteps=3)
        mpe, cluster = _engine(skewed, cfg)
        try:
            dfs = cluster.dfs
            mpe.run(SSSP(source=1))
            mpe.run(PageRank())
            values = np.zeros(skewed.num_vertices)
            other = write_checkpoint(
                dfs, skewed.name + "-2", "sssp", 0, values, values[:0]
            )
            mine = dfs.list_files(f"{skewed.name}/ckpt-")
            assert {p.split("-")[-2] for p in mine} == {"sssp", "pagerank"}
            assert mpe.apply_mutations([])["applied"] == 0
            assert dfs.list_files(f"{skewed.name}/ckpt-") == mine
            assert mpe.apply_mutations(batch)["applied"] == len(batch)
            assert dfs.list_files(f"{skewed.name}/ckpt-") == []
            assert dfs.exists(other)
        finally:
            cluster.close()

    def test_overlaid_run_resumes_from_checkpoint(self, skewed, batch):
        """Kill a scratch-on-overlay run mid-flight; resume completes
        over the same overlays and matches an uninterrupted run."""
        cfg = MPEConfig(mutations=True, checkpoint_every=2)
        mpe, cluster = _engine(skewed, cfg)
        try:
            mpe.apply_mutations(batch)
            full = mpe.run(SSSP(source=1))
            assert full.converged
            # partial run: cut off after 3 supersteps, then resume
            mpe.config = dataclasses.replace(cfg, max_supersteps=3)
            partial = mpe.run(SSSP(source=1))
            assert not partial.converged
            mpe.config = cfg
            resumed = mpe.run(SSSP(source=1), resume=True)
            assert resumed.converged
            assert np.array_equal(resumed.values, full.values)
        finally:
            cluster.close()
