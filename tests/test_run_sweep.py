"""The unit of compute is a run (DESIGN.md, "The unit of compute is a run").

A sweep meters every scheduled tile first, in sweep order (a held
stretch in one step), and leaves it in the server's
:class:`~repro.partition.tiles.TileSlab`; then each stretch of scheduled
tiles consecutive in the assignment is computed by one
gather-reduce-apply over slices of the slab, whatever the edge cache
holds.  Neither shows in any number the engine reports: that is the
contract harness's ``runs-of-one`` and ``per-tile-meter`` references
(``tests/contract.py``), which this file also forces where a cache
under pressure or a mutation batch ends held stretches.  Here: the
slab's plans, the heads probe, and what one engine's sweeps compute,
meter, call and leave behind.
"""

import contextlib
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mpe as mpe_module
import repro.partition.tiles as tiles_module
from repro.apps import (
    BFS,
    SSSP,
    WCC,
    InDegreeCentrality,
    KatzCentrality,
    MaxLabelPropagation,
    PageRank,
    PersonalizedPageRank,
    VertexProgram,
)
from repro.apps.base import check_elementwise_in_target
from repro.cluster import Cluster, ClusterSpec
from repro.comm.channel import Channel
from repro.core import MPE, SPE, MPEConfig
from repro.core.facade import GraphH
from repro.core.vertexstore import AllInAllStore, OnDemandStore
from repro.delta import random_mutations
from repro.faults.errors import DiskReadFault, ServerCrashFault
from repro.graph import chung_lu_graph
from repro.obs.trace import Tracer
from repro.partition.tiles import Tile, TileSlab
from repro.runtime import process_runtime_available
from repro.runtime.active import ActiveBitmap, SourceHeads, TileSourceSummary
from repro.storage.codecs import CACHE_MODES
from repro.utils import segments
from repro.utils.segments import SegmentPlan, gather_sum, segment_reduce
from tests.contract import REFERENCES, fingerprint

N_SERVERS = 3
needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)


# ----------------------------------------------------------------------
# (i) joined segment plans reduce like their parts
# ----------------------------------------------------------------------
def _tile(tile_id, lo, lengths, rng, num_vertices=1 << 12):
    row = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    return Tile(
        tile_id=tile_id,
        target_lo=lo,
        target_hi=lo + len(lengths),
        num_graph_vertices=num_vertices,
        row=row,
        col=rng.integers(0, num_vertices, int(row[-1])).astype(np.uint32),
        val=None,
    )


# Tiles of 0..6 targets with 0..5 edges each: empty rows and empty tiles.
_row_lengths = st.lists(
    st.lists(st.integers(0, 5), min_size=0, max_size=6), min_size=1, max_size=7
)


class TestJoinedPlans:
    @settings(max_examples=60, deadline=None)
    @given(lengths=_row_lengths, seed=st.integers(0, 2**16), data=st.data())
    def test_reduceat_over_a_run_equals_the_tiles_bit_for_bit(
        self, lengths, seed, data
    ):
        rng = np.random.default_rng(seed)
        tiles, lo = [], 0
        for tile_id, rows in enumerate(lengths):
            tiles.append(_tile(tile_id, lo, rows, rng))
            lo += len(rows)
        names = [f"tile-{t.tile_id}" for t in tiles]
        slab = TileSlab(
            names,
            [TileSlab.shape_of(t) for t in tiles],
            np.arange(lo, dtype=np.int64),
        )
        for name, tile in zip(names, tiles):
            assert slab.slot(name, tile) == tile.tile_id
            assert tile.col_int64.base is slab._col  # born there, not copied
        first = data.draw(st.integers(0, len(tiles) - 1))
        last = data.draw(st.integers(first, len(tiles) - 1))
        run = slab.run(first, last)
        assert run.tiles == tuple(tiles[first : last + 1])
        assert run.col.tolist() == [
            c for t in run.tiles for c in t.col.tolist()
        ]
        assert run.target_ids.tolist() == list(
            range(run.tiles[0].target_lo, run.tiles[-1].target_hi)
        )
        plane = rng.standard_normal(1 << 12) * 10.0 ** rng.integers(-8, 8, 1 << 12)
        for op in ("add", "min", "max"):
            joined = segment_reduce(plane[run.col], run.plan, op)
            parts = [
                segment_reduce(plane[t.col_int64], SegmentPlan(t.row), op)
                for t in run.tiles
            ]
            assert joined.tobytes() == np.concatenate(parts).tobytes()
        assert run.col_max == max(run.col.tolist(), default=-1)
        joined = gather_sum(plane, run.col, run.col_max, run.plan)
        parts = [
            gather_sum(plane, t.col_int64, int(t.col.max(initial=0)), SegmentPlan(t.row))
            for t in run.tiles
        ]
        assert joined.tobytes() == np.concatenate(parts).tobytes()

    def test_a_joined_run_is_kept_until_a_slot_is_refilled(self):
        """A run's plan — and with it its mat-vec chunks — is built once
        while the slab's slots hold the same tiles; a refilled slot drops
        every joined run, so none names a tile the slab no longer holds."""
        rng = np.random.default_rng(4)
        tiles = [_tile(0, 0, [2, 0, 3], rng), _tile(1, 3, [1, 4], rng)]
        names = ["tile-0", "tile-1"]
        slab = TileSlab(
            names, [TileSlab.shape_of(t) for t in tiles], np.arange(5, dtype=np.int64)
        )
        for name, tile in zip(names, tiles):
            slab.slot(name, tile)
        run = slab.run(0, 1)
        assert slab.run(0, 1) is run
        slab.slot("tile-0", tiles[0])  # already held: nothing refilled
        assert slab.run(0, 1) is run
        again = _tile(0, 0, [2, 0, 3], rng)
        slab.slot("tile-0", again)
        rebuilt = slab.run(0, 1)
        assert rebuilt is not run and rebuilt.tiles == (again, tiles[1])
        assert rebuilt.col.tolist() == again.col.tolist() + tiles[1].col.tolist()

    def test_a_tile_that_does_not_fit_its_slot_is_refused(self):
        rng = np.random.default_rng(0)
        tile = _tile(0, 0, [2, 0, 3], rng)
        grown = _tile(0, 0, [2, 1, 3], rng)
        slab = TileSlab(["tile-0"], [TileSlab.shape_of(tile)], np.arange(3))
        slab.slot("tile-0", tile)
        with pytest.raises(RuntimeError, match="re-layout"):
            slab.slot("tile-0", grown)
        with pytest.raises(RuntimeError, match="re-layout"):
            slab.slot("tile-0-v1", tile)
        relaid = slab.relaid({0: ("tile-0-v1", grown)})
        assert relaid.slot("tile-0-v1", grown) == 0
        assert relaid.run(0, 0).col.tolist() == grown.col.tolist()

    def test_relaid_copies_unchanged_slots_and_refills_only_changed_ones(
        self, monkeypatch
    ):
        """A relaid slab, once its changed slots are filled, equals a
        slab filled from scratch with the same tiles; the unchanged
        slots move over without a fill, and the edge index is dropped."""
        rng = np.random.default_rng(11)
        lengths = [[2, 0, 3], [1, 4], [0, 0], [5, 1, 1], [2, 2], [3]]
        tiles, lo = [], 0
        for tile_id, rows in enumerate(lengths):
            tiles.append(_tile(tile_id, lo, rows, rng))
            lo += len(rows)
        names = [f"tile-{t.tile_id}" for t in tiles]
        targets = np.arange(lo, dtype=np.int64)
        slab = TileSlab(names, [TileSlab.shape_of(t) for t in tiles], targets)
        for name, tile in zip(names, tiles[:-1]):  # the last slot stays empty
            slab.slot(name, tile)
        slab.run(0, 2)
        assert slab.build_edge_index(1 << 12) is None  # a slot is empty
        slab.slot(names[-1], tiles[-1])
        assert slab.build_edge_index(1 << 12) is slab.edge_index is not None

        fills = []

        class CountedPlan(segments.SegmentPlan):
            def __init__(self, indptr):
                fills.append(len(indptr))
                super().__init__(indptr)

        monkeypatch.setattr(tiles_module, "SegmentPlan", CountedPlan)
        now = list(tiles)
        now[1] = _tile(1, tiles[1].target_lo, [1, 6], rng)  # grown
        now[3] = _tile(3, tiles[3].target_lo, [0, 1, 1], rng)  # shrunk
        now_names = list(names)
        now_names[1], now_names[3] = "tile-1-v1", "tile-3-v1"
        relaid = slab.relaid({1: (now_names[1], now[1]), 3: (now_names[3], now[3])})
        assert relaid.edge_index is None
        assert relaid.build_edge_index(1 << 12) is None  # slots 1 and 3 wait
        for name, tile in zip(now_names, now):
            relaid.slot(name, tile)
        assert len(fills) == 2
        assert now[0].col_int64.base is relaid._col  # moved, not left behind
        fresh = TileSlab(now_names, [TileSlab.shape_of(t) for t in now], targets)
        for name, tile in zip(now_names, now):
            fresh.slot(name, tile)
        assert np.array_equal(relaid._col, fresh._col)
        assert np.array_equal(relaid._starts, fresh._starts)
        assert np.array_equal(relaid._nonempty, fresh._nonempty)
        assert relaid._col_max == fresh._col_max
        for first in range(len(now)):
            for last in range(first, len(now)):
                a, b = relaid.run(first, last), fresh.run(first, last)
                assert a.tiles == b.tiles
                assert (a.first_row, a.col_max) == (b.first_row, b.col_max)
                for x, y in (
                    (a.col, b.col),
                    (a.target_ids, b.target_ids),
                    (a.plan.starts, b.plan.starts),
                    (a.plan.nonempty, b.plan.nonempty),
                ):
                    assert np.array_equal(x, y)
                assert a.plan.n_values == b.plan.n_values


# ----------------------------------------------------------------------
# (ii) the heads probe is the exact predicate, batched
# ----------------------------------------------------------------------
_NV = 700


def _frontiers(rng):
    sparse = np.sort(rng.choice(_NV, 9, replace=False))
    return {
        "empty": np.zeros(0, dtype=np.int64),
        "singleton": np.array([int(rng.integers(_NV))]),
        "sparse": sparse,
        "all-but-one": np.delete(np.arange(_NV), int(rng.integers(_NV))),
        "dense": np.arange(_NV),
    }


class TestHeadsProbe:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_probe_is_intersects_wherever_it_answers(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [0, 1, 63, 64, 65, 400] + rng.integers(0, 130, 6).tolist()
        summaries = {
            tile_id: TileSourceSummary(
                tile_id, np.sort(rng.choice(_NV, size, replace=False))
            )
            for tile_id, size in enumerate(sizes)
        }
        heads = SourceHeads(summaries)
        for name, ids in _frontiers(rng).items():
            bitmap = ActiveBitmap.seed_from_ids(ids, _NV)
            exact = [summaries[t].intersects(bitmap) for t in range(len(sizes))]
            verdicts = heads.probe(bitmap)
            for tile_id, (verdict, truth) in enumerate(zip(verdicts, exact)):
                if verdict is None:
                    # Undecided only where it can be: a long tile whose
                    # first 64 sources are all inactive.
                    assert sizes[tile_id] > 64, name
                else:
                    assert verdict is truth, (name, tile_id)
            resolved = [
                summaries[t].intersects(bitmap) if v is None else v
                for t, v in enumerate(verdicts)
            ]
            assert resolved == exact

    def test_refresh_rewrites_one_row(self):
        summaries = {
            0: TileSourceSummary(0, np.array([5, 9])),
            1: TileSourceSummary(1, np.array([7])),
        }
        heads = SourceHeads(summaries)
        bitmap = ActiveBitmap.seed_from_ids([3], 16)
        assert heads.probe(bitmap) == [False, False]
        heads.refresh(TileSourceSummary(1, np.array([3, 7])))
        assert heads.probe(bitmap) == [False, True]
        heads.refresh(TileSourceSummary(1, np.zeros(0, dtype=np.int64)))
        assert heads.probe(ActiveBitmap.seed_from_ids([0], 16)) == [False, False]


# ----------------------------------------------------------------------
# (iii) engine level: what a joined sweep computes, on one engine (that
# it equals runs of one in every reported bit is the contract harness's
# ``runs-of-one`` reference)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(260, 3200, seed=23, weighted=True, name="runs-g")


def _engine(graph, tracer=None, tiles_per_server=10, **cfg):
    """A set-up engine; caller closes."""
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    manifest = SPE(cluster.dfs).preprocess(
        graph,
        max(1, graph.num_edges // (tiles_per_server * N_SERVERS)),
        name=graph.name,
    )
    cfg.setdefault("max_supersteps", 12)
    mpe = MPE(cluster, manifest, MPEConfig(**cfg), tracer=tracer)
    mpe.setup()
    return mpe, cluster


def _stretches(slots, cap=None):
    """Lengths of the maximal stretches of consecutive ``slots``, each
    cut every ``cap`` slots: the runs a sweep of those slots computes."""
    out = []
    for i, pos in enumerate(slots):
        if i and pos == slots[i - 1] + 1 and out[-1] != cap:
            out[-1] += 1
        else:
            out.append(1)
    return out


def _run_lengths(monkeypatch):
    """Record ``len(run.tiles)`` of every kernel call (this process)."""
    lengths: list[int] = []
    kernel = mpe_module._sweep_run

    def counted(program, run, store, slot):
        lengths.append(len(run.tiles))
        return kernel(program, run, store, slot)

    monkeypatch.setattr(mpe_module, "_sweep_run", counted)
    return lengths


PROGRAMS = {
    "pagerank": lambda: PageRank(tolerance=0.0),
    "sssp": lambda: SSSP(source=1),
    "bfs": lambda: BFS(source=1),
}


class TestRunPositions:
    """A run carries where its rows sit in the server's target index, so
    the sweep hands the broadcast its changed rows' positions instead of
    the engine searching the index for the changed ids: whatever formed
    the run, they are the positions that search would find.  The runs
    are the stretches of consecutive scheduled slots, whatever the edge
    cache holds."""

    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        # Checked inside the kernel, in this process.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    CASES = {
        "slab runs": (PROGRAMS["pagerank"], {}),
        "runs of one": (PROGRAMS["sssp"], {}),
        # An edge cache of 0 bytes holds no tile: every tile streams
        # through the per-tile load, and is still computed in a run of
        # consecutive slots.
        "spill": (PROGRAMS["bfs"], {"cache_capacity_bytes": 0, "cache_mode": 1}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_positions_are_what_searching_the_index_finds(
        self, graph, monkeypatch, case
    ):
        make, cfg = self.CASES[case]
        kernel = mpe_module._sweep_run
        lengths = []
        # The server sweeping right now (serial: one at a time); every
        # AA server views the one replica, so the store cannot say.
        sweeping = []

        def checked(program, run, store, slot):
            ids, vals, rows = kernel(program, run, store, slot)
            own = mpe._server_target_ids[sweeping[-1]]
            span = own[run.first_row : run.first_row + run.target_ids.size]
            assert np.array_equal(span, run.target_ids)
            assert np.array_equal(rows, np.searchsorted(own, ids))
            lengths.append(len(run.tiles))
            return ids, vals, rows

        monkeypatch.setattr(mpe_module, "_sweep_run", checked)
        mpe, cluster = _engine(graph, **cfg)
        compute = mpe._compute_server_step

        # Per dense sweep: the runs computed, and the stretches of
        # consecutive assignment slots its schedule leaves.
        swept, expected = [], []

        def tracked(program, server, superstep, sched):
            sweeping.append(server.server_id)
            before = len(lengths)
            step = compute(program, server, superstep, sched)
            if not step.sparse:
                slot = {name: pos for pos, (_t, name, _n) in enumerate(
                    mpe._assignments[server.server_id])}
                cap = 1 if program.uses_edge_weight else None
                swept.append(lengths[before:])
                expected.append(_stretches([slot[n] for _t, n, _b in sched.run], cap))
            return step

        mpe._compute_server_step = tracked
        try:
            for _ in range(2):  # cold, then warm
                mpe.run(make())
        finally:
            cluster.close()
        assert lengths
        assert swept == expected
        assert (max(lengths) > 1) == (case in ("slab runs", "spill"))


class TestJoinedSweep:
    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    def test_dense_warm_sweep_is_one_run_per_server(self, graph, monkeypatch):
        lengths = _run_lengths(monkeypatch)
        mpe, cluster = _engine(graph)
        try:
            mpe.run(PageRank(tolerance=0.0))
            lengths.clear()
            warm = mpe.run(PageRank(tolerance=0.0))
            per_server = [len(a) for a in mpe._assignments]
        finally:
            cluster.close()
        assert all(s.tiles_skipped == 0 for s in warm.supersteps)
        assert lengths == per_server * warm.num_supersteps

    def test_weighted_after_unweighted_on_one_warm_engine(self, graph, monkeypatch):
        """A weighted program reads edge values, which the slab does not
        hold: on an engine whose slab an unweighted program just filled
        it must still see every tile's own values."""
        lengths = _run_lengths(monkeypatch)
        mpe, cluster = _engine(graph)
        try:
            mpe.run(PageRank(tolerance=0.0))
            lengths.clear()
            warm = mpe.run(SSSP(source=1))
            gh = GraphH(num_servers=N_SERVERS)
            try:
                gh.load_graph(graph, name="cold")
                cold = gh.run(SSSP(source=1))
            finally:
                gh.close()
        finally:
            cluster.close()
        assert set(lengths) == {1}  # tile by tile
        assert np.array_equal(warm.values, cold.values)

    def test_a_selective_schedule_splits_a_run_in_three(self, graph, monkeypatch):
        """Skipped tiles leave gaps: what is left of server 0's sweep is
        three runs, each computed as one, none across a gap."""

        def gapped(resolve):
            def resolved(superstep, *args):
                schedule = resolve(superstep, *args)
                if superstep == 0:
                    return schedule
                run = list(schedule[0].run)
                gaps = [run.pop(5), run.pop(2)]
                skipped = schedule[0].skipped + tuple(
                    (tile[0], "bitmap") for tile in gaps
                )
                return [type(schedule[0])(tuple(run), skipped), *schedule[1:]]

            return resolved

        lengths = _run_lengths(monkeypatch)
        mpe, cluster = _engine(graph, max_supersteps=3)
        try:
            mpe._resolve_schedule = gapped(mpe._resolve_schedule)
            mpe.run(PageRank(tolerance=0.0))
            width = len(mpe._assignments[0])
        finally:
            cluster.close()
        # Superstep 0 is one run per server; then server 0 sweeps
        # positions 0-1, 3-4 and 6-.
        assert lengths[N_SERVERS : N_SERVERS + 3] == [2, 2, width - 6]

    @pytest.mark.parametrize("fault", [DiskReadFault, ServerCrashFault])
    def test_a_fault_on_the_fourth_tile_of_a_server(self, graph, fault, monkeypatch):
        """The metering walk is the serial sweep: an error raised while a
        tile is metered aborts at that tile, before any kernel runs, and
        the engine runs clean afterwards.  On a warm engine every tile is
        held, so the fourth tile is metered by the held-run meter."""

        class FourthLoad:
            """Server 1's ``load_held``, raising when the stretch it
            meters holds its fourth tile of superstep 2."""

            def __init__(self, load_held):
                self.load_held = load_held
                self.loads, self.superstep, self.fired = 0, None, None

            def __call__(self, names):
                before, self.loads = self.loads, self.loads + len(names)
                if self.superstep == 2 and before < 4 <= self.loads:
                    self.fired = (1, names[3 - before])
                    raise fault("injected", superstep=2, server=1)
                return self.load_held(names)

        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer=tracer, max_supersteps=4)
        try:
            clean = mpe.run(PageRank(tolerance=0.0)).values
            server = cluster.servers[1]
            hook = FourthLoad(server.load_held)
            monkeypatch.setattr(server, "load_held", hook)
            resolve = mpe._resolve_schedule

            def resolved(superstep, *args):
                hook.superstep, hook.loads = superstep, 0
                return resolve(superstep, *args)

            mpe._resolve_schedule = resolved
            tracer.clear_events()
            with pytest.raises(fault):
                mpe.run(PageRank(tolerance=0.0))
            # The walk comes first: the sweep aborted before any
            # kernel ran.
            lane = tracer.span_trees()["server-1"]
            aborted = [node for node in lane if node.name == "compute"][-1]
            opened = [child.name for child in aborted.children]
            monkeypatch.delattr(server, "load_held")
            mpe._resolve_schedule = resolve
            after = mpe.run(PageRank(tolerance=0.0)).values
        finally:
            cluster.close()
        assert hook.fired == (1, mpe._assignments[1][3][1])
        assert "tile" in opened and "gather-apply" not in opened
        assert after.tobytes() == clean.tobytes()

    def test_mutations_and_a_merge_between_two_runs(self, graph):
        """A batch changes tiles' edge counts, a merge renames a blob:
        the slab is laid out again, and the values are a cold engine's
        of the mutated graph."""
        batch = random_mutations(graph, 40, 25, seed=5)
        make = PROGRAMS["pagerank"]
        mpe, cluster = _engine(graph, mutations=True)
        try:
            before = mpe.run(make()).values
            slabs = [s.decoded_cache.slab for s in cluster.servers]
            report = mpe.apply_mutations(batch[:30])
            overlaid = mpe.run(make()).values
            mpe.delta.store.merge_ratio = 1e-9  # every overlay merges
            assert mpe.apply_mutations(batch[30:])["merged"]
            after = mpe.run(make()).values
            names = [n for a in mpe._assignments for _t, n, _b in a]
            relaid = [s.decoded_cache.slab for s in cluster.servers]
        finally:
            cluster.close()
        assert report["affected_tiles"] and any("-v1" in n for n in names)
        assert all(a is not b for a, b in zip(slabs, relaid))
        assert [n for s in relaid for n in s.names] == names
        assert before.tobytes() != overlaid.tobytes()
        mpe, cluster = _engine(graph, mutations=True)
        try:
            mpe.apply_mutations(batch)
            cold = mpe.run(make())
        finally:
            cluster.close()
        assert after.tobytes() == cold.values.tobytes()


def _left_to_right(program, graph, supersteps):
    """``program`` for ``supersteps`` synchronous supersteps, its
    messages summed per target by a plain loop: one by one, in the
    tiles' edge order (the graph's CSC order)."""
    values = program.init_values(graph).astype(np.float64)
    indptr, sources, _ = graph.csc_arrays()
    degrees = graph.out_degrees if program.uses_out_degree else None
    for _ in range(supersteps):
        messages = program.edge_message(values, degrees, None).tolist()
        accum = []
        for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
            total = messages[sources[lo]] if hi > lo else 0.0
            for e in range(lo + 1, hi):
                total += messages[sources[e]]
            accum.append(total)
        values = program.apply(np.array(accum), values)
    return values


ADDITIVE = {
    "pagerank": lambda: PageRank(tolerance=0.0),
    "ppr": lambda: PersonalizedPageRank([3, 17], tolerance=0.0),
    "katz": lambda: KatzCentrality(tolerance=0.0),
    "indegree": InDegreeCentrality,
}


class TestAdditiveSumsLeftToRight:
    """An additive program's gather-reduce is one mat-vec per run, and
    every store and transport sums each target's messages left to
    right: the values are a plain loop's, bit for bit.  The kernel's
    calls are cut to 7 edges, so rows straddle calls."""

    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.setattr(segments, "CHUNK_EDGES", 7)

    @pytest.mark.parametrize(
        "executor,width",
        [("serial", None), ("parallel", 2), pytest.param("process", 2, marks=needs_process)],
    )
    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("name", sorted(ADDITIVE))
    def test_values_equal_a_left_to_right_loop(self, graph, name, policy, executor, width):
        mpe, cluster = _engine(
            graph,
            max_supersteps=5,
            replication_policy=policy,
            executor=executor,
            num_workers=width,
            num_threads=width,
        )
        try:
            result = mpe.run(ADDITIVE[name]())
        finally:
            cluster.close()
        expected = _left_to_right(ADDITIVE[name](), graph, result.num_supersteps)
        assert result.values.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# (iv) a held stretch is metered in one step, as its tiles' loads would
# be (the harness's ``per-tile-meter`` reference)
# ----------------------------------------------------------------------
EXECUTORS = [
    ("serial", None),
    ("parallel", 2),
    pytest.param("process", 2, marks=needs_process),
]


def _count_spans(tracer, name):
    def count(nodes):
        return sum((node.name == name) + count(node.children) for node in nodes)

    return sum(count(forest) for forest in tracer.span_trees().values())


class TestHeldStretches:
    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_cache_modes(self, graph, mode):
        """A warm run opens one ``tile`` span per held stretch, fewer
        than the tiles it processes; raw mode 1 charges no
        decompression, the others their codec's."""
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer=tracer, cache_mode=mode)
        try:
            mpe.run(PageRank(tolerance=0.0))
            tracer.clear_events()
            warm = mpe.run(PageRank(tolerance=0.0))
            counters = cluster.servers[0].counters.snapshot()
        finally:
            cluster.close()
        tiles = sum(s.tiles_processed for s in warm.supersteps)
        assert _count_spans(tracer, "tile") < tiles
        charged = counters.get(f"decompressed_{CACHE_MODES[mode - 1]}")
        assert (charged is None) == (mode == 1)

    @pytest.mark.parametrize("forced", [False, True])
    def test_a_held_blob_rewritten_behind_the_cache(self, graph, forced):
        reference = REFERENCES["per-tile-meter"].force() if forced else contextlib.nullcontext()
        mpe, cluster = _engine(graph)
        try:
            with reference:
                mpe.run(PageRank(tolerance=0.0))
                server = cluster.servers[0]
                name = mpe._assignments[0][3][1]
                assert server.held_stretch([name], 0) == (0 if forced else 1)
                server.disk.write(name, server.disk.peek(name))  # not store_blob
                with pytest.raises(RuntimeError, match="stale"):
                    mpe.run(PageRank(tolerance=0.0))
        finally:
            cluster.close()


class TestHeldRunMetering:
    """What ends a held stretch — a full edge cache, an LRU eviction, a
    pending mutation batch — under every executor: three runs on one
    engine are the ``per-tile-meter`` reference's, bit for bit, with
    fewer ``tile`` spans than tiles."""

    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @staticmethod
    def _runs(graph, make, eviction="none", between=None, **cfg):
        """Cold, warm, then (after ``between(mpe)``) one more run on one
        engine: each run's fingerprint, the ``tile`` spans and the tiles
        processed."""
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer=tracer, **cfg)
        try:
            for server in cluster.servers:
                server.cache.eviction = eviction
            prints, spans, tiles = [], 0, 0
            for step in range(3):
                if step == 2 and between is not None:
                    between(mpe)
                tracer.clear_events()
                result = mpe.run(make())
                fp = fingerprint(cluster, result)
                prints.append((fp["values"], fp["metered"], fp["traced"]["decoded_stats"]))
                spans += _count_spans(tracer, "tile")
                tiles += sum(s.tiles_processed for s in result.supersteps)
            return prints, spans, tiles
        finally:
            cluster.close()

    def _check(self, graph, make, **kw):
        held, spans, tiles = self._runs(graph, make, **kw)
        # Patched before any pool forks: workers inherit it.
        with REFERENCES["per-tile-meter"].force():
            per_tile, per_tile_spans, per_tile_tiles = self._runs(graph, make, **kw)
        assert per_tile_spans == per_tile_tiles == tiles  # a span per tile
        assert spans < tiles  # ... and held stretches metered as one
        assert held == per_tile
        return [metered for _values, metered, _decoded in held]

    @pytest.mark.parametrize("executor,width", EXECUTORS)
    @pytest.mark.parametrize(
        "eviction,make,share",
        [
            # Admit until full: a miss is rejected, and the held
            # stretches are what superstep 0 admitted.
            ("none", PROGRAMS["pagerank"], 0.5),
            # LRU under a cyclic sweep: an admission evicts the tile the
            # sweep reaches next, so held-ness is decided per stretch.
            ("lru", PROGRAMS["sssp"], 0.7),
        ],
    )
    def test_capacity_pressure(self, graph, eviction, make, share, executor, width):
        mpe, cluster = _engine(graph)
        smallest = min(sum(n for _t, _b, n in a) for a in mpe._assignments)
        cluster.close()
        metered = self._check(
            graph, make,
            eviction=eviction,
            cache_capacity_bytes=int(smallest * share),
            cache_mode=1,
            executor=executor, num_workers=width, num_threads=width,
        )
        stats = metered[-1]["cache_stats"]
        assert sum(s["hits"] for s in stats) > 0
        assert (sum(s["evictions"] for s in stats) > 0, sum(s["rejected"] for s in stats) > 0) == (
            eviction == "lru",
            eviction == "none",
        )

    @pytest.mark.parametrize("executor,width", EXECUTORS)
    def test_pending_mutation_batch(self, graph, executor, width):
        batch = random_mutations(graph, 40, 25, seed=5)
        metered = self._check(
            graph, PROGRAMS["pagerank"],
            between=lambda mpe: mpe.apply_mutations(batch),
            mutations=True,
            executor=executor, num_workers=width, num_threads=width,
        )
        # Overlay charges: none before the batch, then on its tiles.
        assert not any(c["delta_bytes"] for c in metered[1]["counters"])
        assert any(c["delta_bytes"] for c in metered[2]["counters"])


class TestGatherApplySpans:
    def test_one_per_computed_run_and_one_tile_span_per_held_stretch(
        self, graph, monkeypatch
    ):
        """``gather-apply`` wraps the run kernel, so its spans are the
        kernel calls; a warm dense sweep is one held stretch per server
        and superstep, so one ``tile`` span each."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)  # counted here
        lengths = _run_lengths(monkeypatch)
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer=tracer, max_supersteps=4)
        try:
            mpe.run(PageRank(tolerance=0.0))
            lengths.clear()
            tracer.clear_events()
            warm = mpe.run(PageRank(tolerance=0.0))
        finally:
            cluster.close()
        assert _count_spans(tracer, "gather-apply") == len(lengths)
        assert _count_spans(tracer, "tile") == N_SERVERS * warm.num_supersteps
        assert _count_spans(tracer, "load") == 0


# ----------------------------------------------------------------------
# (v) the call-count guard: no per-tile loop behind the run sweep
# ----------------------------------------------------------------------
def _count_kernel_calls(monkeypatch):
    calls = {"gather": 0, "reduce": 0}
    # PageRank's gather-reduce is one fused call; a reduceat would be a
    # second kernel call per run, so it counts too.
    for name in ("gather_sum", "segment_reduce"):
        kernel = getattr(mpe_module, name)

        def counted_reduce(*args, _kernel=kernel, **kwargs):
            calls["reduce"] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(mpe_module, name, counted_reduce)
    for store in (AllInAllStore, OnDemandStore):
        gather = store.gather_values

        def counted_gather(self, *args, _gather=gather, **kwargs):
            calls["gather"] += 1
            return _gather(self, *args, **kwargs)

        monkeypatch.setattr(store, "gather_values", counted_gather)
    return calls


def _assert_call_guard(mpe, calls, program):
    mpe.run(program())  # fills both caches and the slab
    calls.update(gather=0, reduce=0)
    warm = mpe.run(program())
    assert all(s.tiles_skipped == 0 for s in warm.supersteps)  # dense
    server_steps = len(mpe.cluster.servers) * warm.num_supersteps
    # Per server and superstep: one fused gather-reduce over the run and
    # the old-target read.  (AA collects the final values without a
    # gather.)
    assert calls["reduce"] == server_steps
    assert calls["gather"] + calls["reduce"] <= 4 * server_steps


class TestCallCountGuard:
    def test_at_most_four_kernel_calls_per_server_superstep(self, graph, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)  # counted in-process
        calls = _count_kernel_calls(monkeypatch)
        mpe, cluster = _engine(graph, max_supersteps=5)
        try:
            assert sum(len(a) for a in mpe._assignments) > 4 * N_SERVERS
            _assert_call_guard(mpe, calls, lambda: PageRank(tolerance=0.0))
        finally:
            cluster.close()

    def test_a_half_missing_edge_cache_still_sweeps_one_run_per_stretch(
        self, graph, monkeypatch
    ):
        """The edge cache decides what a tile's load costs, not how it is
        computed: with half the tiles rejected, a warm PageRank still
        makes one ``_sweep_run`` call per maximal stretch of consecutive
        scheduled tiles — here, with nothing skipped, one per server and
        superstep — and one fused gather-reduce each."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        mpe, cluster = _engine(graph)
        per_server = sum(n for _t, _b, n in mpe._assignments[0])
        cluster.close()
        calls = _count_kernel_calls(monkeypatch)
        lengths = _run_lengths(monkeypatch)
        mpe, cluster = _engine(
            graph, max_supersteps=5, cache_capacity_bytes=per_server // 2, cache_mode=1
        )
        try:
            _assert_call_guard(mpe, calls, lambda: PageRank(tolerance=0.0))
            held = [
                [name in server.cache for _t, name, _n in tiles]
                for server, tiles in zip(cluster.servers, mpe._assignments)
            ]
        finally:
            cluster.close()
        assert all(any(h) and not all(h) for h in held)
        # Cold and warm alike: each server's whole assignment, in order.
        assert lengths == [len(h) for h in held] * (len(lengths) // N_SERVERS)

    def test_a_sparse_gather_is_one_kernel_call_per_server(self, graph, monkeypatch):
        """With every frontier gathered sparsely, a warm SSSP run makes
        one sparse kernel call per server and superstep and no run call:
        one reduce and two gathers (sources, old targets) each."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        calls = _count_kernel_calls(monkeypatch)
        kernels = {"_sweep_sparse": 0, "_sweep_run": 0}
        for name in kernels:

            def counted(*args, _kernel=getattr(mpe_module, name), _name=name):
                kernels[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(mpe_module, name, counted)
        monkeypatch.setattr(mpe_module, "gathers_sparse", lambda *_args: True)
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer=tracer)
        source = int(np.argmax(graph.out_degrees))
        try:
            mpe.run(SSSP(source=source))  # fills the slab, builds the index
            calls.update(gather=0, reduce=0)
            kernels.update(_sweep_sparse=0, _sweep_run=0)
            before = tracer.metrics.to_text()
            warm = mpe.run(SSSP(source=source))
            after = tracer.metrics.to_text()
        finally:
            cluster.close()

        def sparse(text):
            (line,) = [x for x in text.splitlines() if x.startswith("repro_gather_sparse ")]
            return int(float(line.split()[1]))

        assert kernels["_sweep_run"] == 0
        assert kernels["_sweep_sparse"] == sparse(after) - sparse(before) > 0
        assert kernels["_sweep_sparse"] <= N_SERVERS * warm.num_supersteps
        assert calls["reduce"] == kernels["_sweep_sparse"]
        assert calls["gather"] == 2 * kernels["_sweep_sparse"]

    def test_a_min_fold_over_a_long_run_gathers_a_chunk_at_a_time(self, monkeypatch):
        """A min/max program's dense gather over a joined run of many
        tiles builds no run-sized temporary: ``gather_fold`` hands
        ``np.take`` and ``reduceat`` at most ``CHUNK_EDGES`` elements at
        a time (a run-sized one cost warm WCC 0.30 s against 0.20 s on
        the ``sssp-spill`` graph, and no ledger workload would show it)."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        sizes: list[int] = []
        runs: list[tuple[int, int]] = []

        class Recording:
            def __init__(self, target):
                self._target = target

            def __getattr__(self, name):
                return getattr(self._target, name)

            def __call__(self, *args, **kwargs):
                return self._target(*args, **kwargs)

            def take(self, a, indices, *args, **kwargs):
                sizes.append(np.size(indices))
                return np.take(a, indices, *args, **kwargs)

            def reduceat(self, array, indices, *args, **kwargs):
                sizes.append(np.size(array))
                return self._target.reduceat(array, indices, *args, **kwargs)

        monkeypatch.setattr(segments, "np", Recording(np))
        monkeypatch.setitem(segments.OPS, "min", Recording(np.minimum))
        kernel = mpe_module._sweep_run

        def recorded(program, run, store, slot):
            runs.append((len(run.tiles), run.col.size))
            return kernel(program, run, store, slot)

        monkeypatch.setattr(mpe_module, "_sweep_run", recorded)
        big = chung_lu_graph(20_000, 90_000, seed=3, name="fold-big")
        big = big.to_undirected_edges()
        cluster = Cluster(ClusterSpec(num_servers=1))
        try:
            manifest = SPE(cluster.dfs).preprocess(
                big, big.num_edges // 12, name=big.name
            )
            MPE(cluster, manifest, MPEConfig(max_supersteps=2)).run(WCC())
        finally:
            cluster.close()
        assert any(tiles > 1 and edges > 2 * segments.CHUNK_EDGES for tiles, edges in runs)
        assert sizes and max(sizes) <= segments.CHUNK_EDGES

    @pytest.mark.slow
    def test_million_edge_pagerank_sweeps_runs_and_holds_its_memory(self, monkeypatch):
        """10^6 edges: the guard at scale, and the slab really replaces
        the per-tile shadows — warm runs must not grow the high-water
        mark (a second copy of ``col`` would, by a third)."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

        def vm_hwm_kb():
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
            pytest.skip("no /proc/self/status")

        big = chung_lu_graph(60_000, 1_000_000, seed=3, name="runs-big")
        calls = _count_kernel_calls(monkeypatch)
        mpe, cluster = _engine(big, tiles_per_server=48, max_supersteps=6)
        try:
            _assert_call_guard(mpe, calls, lambda: PageRank(tolerance=0.0))
            second = vm_hwm_kb()
            for _ in range(4):
                mpe.run(PageRank(tolerance=0.0))
            assert vm_hwm_kb() < 1.03 * second
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Satellite guards
# ----------------------------------------------------------------------
class TileNormalised(PageRank):
    """Not a vertex program: scales by whatever targets share the call."""

    name = "tile-normalised"

    def apply(self, accum, old_values, vertex_ids=None):
        new = super().apply(accum, old_values, vertex_ids)
        return new / new.sum()


class WindowedChange(PageRank):
    name = "windowed-change"

    def value_changed(self, new, old):
        return np.abs(new - old) > np.abs(new - old).mean()


class TestElementwiseInTarget:
    def test_shipped_programs_pass_including_position_dependent_ones(self, graph):
        for program in (
            PageRank(),
            SSSP(source=1),
            BFS(source=1),
            WCC(),
            MaxLabelPropagation(),
            PersonalizedPageRank([0, 3, 40]),  # reads vertex_ids
        ):
            check_elementwise_in_target(program, program.init_values(graph))

    @pytest.mark.parametrize("bad", [TileNormalised, WindowedChange])
    def test_a_program_that_looks_across_the_array_is_refused(self, graph, bad):
        with pytest.raises(ValueError, match="elementwise in the target"):
            check_elementwise_in_target(bad(), bad().init_values(graph))
        mpe, cluster = _engine(graph)
        try:
            with pytest.raises(ValueError, match=r"repro\.apps\.base"):
                mpe.run(bad())
        finally:
            cluster.close()

    def test_base_class_contract_mentions_it(self):
        assert "elementwise in the target" in VertexProgram.apply.__doc__


@needs_process
class TestProcessTransportShipsNoValues:
    def test_returned_steps_carry_no_vals_and_values_match_serial(
        self, graph, monkeypatch
    ):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        shipped: list[int] = []
        account = MPE._account_superstep

        def spy(self, prep, superstep, t0, before, schedule, steps):
            shipped.extend(step.vals.size for step in steps)
            assert all(step.ids.size for step in steps)
            return account(self, prep, superstep, t0, before, schedule, steps)

        monkeypatch.setattr(MPE, "_account_superstep", spy)
        results = {}
        for executor in ("serial", "process"):
            shipped.clear()
            mpe, cluster = _engine(
                graph, executor=executor, num_workers=2, max_supersteps=4
            )
            try:
                results[executor] = mpe.run(PageRank(tolerance=0.0))
            finally:
                cluster.close()
            if executor == "process":
                assert shipped and set(shipped) == {0}
            else:
                assert all(shipped)
        assert results["process"].executor == "process"
        assert np.array_equal(results["serial"].values, results["process"].values)

    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_a_record_carries_its_values_only_under_od(
        self, graph, policy, monkeypatch
    ):
        """Under AA a forked sender's record comes back without its
        values (receivers read the shared replica); under OD with all of
        them.  Positions, mode and length are the serial record's."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        records: list = []
        broadcast = Channel.broadcast

        def recording(self, src, payload):
            records.append((src, payload))
            broadcast(self, src, payload)

        monkeypatch.setattr(Channel, "broadcast", recording)
        sent = {}
        for executor in ("serial", "process"):
            records.clear()
            mpe, cluster = _engine(
                graph, executor=executor, num_workers=2, max_supersteps=4,
                replication_policy=policy,
            )
            try:
                mpe.run(SSSP(source=1))
            finally:
                cluster.close()
            sent[executor] = list(records)
        assert len(sent["serial"]) == len(sent["process"]) > 0
        for (src, ref), (src2, rec) in zip(sent["serial"], sent["process"]):
            assert src == src2
            assert (rec.mode, rec.nbytes, rec.num_vertices) == (
                ref.mode, ref.nbytes, ref.num_vertices
            )
            assert (rec.positions is None) == (ref.positions is None)
            if ref.positions is not None:
                assert np.array_equal(rec.positions, ref.positions)
            if policy == "aa":
                assert rec.values.size == 0
            else:
                assert rec.values.tobytes() == ref.values.tobytes()
        if policy == "aa":
            assert any(ref.values.size for _src, ref in sent["serial"])


# ----------------------------------------------------------------------
# (vi) fork warm: a process pool's workers inherit what a serial run left
# ----------------------------------------------------------------------
def _slab_state(slab):
    """Everything a sweep leaves in a slab, as comparable data: the
    three laid-out arrays, each slot's largest source and one-tile run,
    the joined runs kept with whether their chunks are cut, and the edge
    index."""

    def run_state(run):
        plan = run.plan
        return (
            run.col.tobytes(), plan.n_rows, plan.n_values,
            plan.starts.tobytes(), plan.nonempty.tobytes(),
            run.target_ids.tobytes(), run.first_row, run.col_max,
            tuple(t.tile_id for t in run.tiles), plan._chunks is not None,
        )

    index = slab.edge_index
    return {
        "arrays": None if slab._col is None else tuple(
            a.tobytes() for a in (slab._col, slab._starts, slab._nonempty)
        ),
        "col_max": list(slab._col_max),
        "unfilled": slab._unfilled,
        "single": [None if r is None else run_state(r) for r in slab._single],
        "joined": {k: run_state(r) for k, r in slab._joined.items()},
        "index": None if index is None else tuple(
            a.tobytes() for a in (index.ptr, index.low, index.high)
        ),
    }


def _count_worker_fills(monkeypatch):
    """Slot fills and edge-index builds made in forked workers, counted
    in shared memory (patched in before any pool forks)."""
    parent = os.getpid()
    counts = multiprocessing.get_context("fork").Array("i", 2)
    slot, build = TileSlab.slot, TileSlab.build_edge_index

    def counted_slot(self, name, tile):
        before = self._single[self._index[name]]
        pos = slot(self, name, tile)
        if os.getpid() != parent and self._single[pos] is not before:
            with counts.get_lock():  # two workers count at once
                counts[0] += 1
        return pos

    def counted_build(self, num_vertices):
        index = build(self, num_vertices)
        if os.getpid() != parent and index is not None:
            with counts.get_lock():
                counts[1] += 1
        return index

    monkeypatch.setattr(TileSlab, "slot", counted_slot)
    monkeypatch.setattr(TileSlab, "build_edge_index", counted_build)
    return counts


@needs_process
class TestForkWarm:
    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize("name", ["pagerank", "sssp"])
    def test_the_parent_slab_is_a_serial_twins_after_each_run(self, graph, name):
        make = PROGRAMS[name]
        states = {}
        for executor in ("serial", "process"):
            mpe, cluster = _engine(graph, executor=executor, num_workers=2)
            try:
                states[executor] = []
                for _ in range(2):
                    mpe.run(make())
                    states[executor].append(
                        [_slab_state(s.decoded_cache.slab) for s in cluster.servers]
                    )
            finally:
                cluster.close()
        assert states["process"] == states["serial"]
        last = states["serial"][-1]
        assert all(s["unfilled"] == 0 for s in last)
        if name == "sssp":
            assert all(s["index"] is not None for s in last)
        else:
            assert all(s["joined"] and s["index"] is None for s in last)

    def test_a_warm_pools_workers_fill_no_slot_and_build_no_index(
        self, graph, monkeypatch
    ):
        counts = _count_worker_fills(monkeypatch)
        mpe, cluster = _engine(graph, executor="process", num_workers=2)
        try:
            mpe.run(SSSP(source=1))
            cold = list(counts)
            counts[0] = counts[1] = 0
            mpe.run(SSSP(source=1))
            mpe.run(PageRank(tolerance=0.0))
            warm = list(counts)
        finally:
            cluster.close()
        tiles = sum(len(a) for a in mpe._assignments)
        assert cold == [tiles, N_SERVERS]
        assert warm == [0, 0]

    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("mutate", [False, True], ids=["frozen", "retile"])
    def test_two_runs_equal_serial(self, graph, policy, mutate):
        """Values, reports, modeled costs, Counters and both caches'
        stats over two consecutive process runs — with a mutation batch
        relaying the slabs between them — are the serial engine's."""
        batch = random_mutations(graph, 40, 25, seed=5)
        stories = {}
        for executor in ("serial", "process"):
            mpe, cluster = _engine(
                graph, executor=executor, num_workers=2, mutations=mutate,
                replication_policy=policy,
            )
            try:
                stories[executor] = [fingerprint(cluster, mpe.run(SSSP(source=1)))]
                if mutate:
                    mpe.apply_mutations(batch)
                stories[executor].append(fingerprint(cluster, mpe.run(PageRank(tolerance=0.0))))
                stories[executor].append(fingerprint(cluster, mpe.run(SSSP(source=1))))
            finally:
                cluster.close()
        assert stories["process"] == stories["serial"]
