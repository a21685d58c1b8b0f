"""The unit of compute is a run (DESIGN.md, "The unit of compute is a run").

A server's scheduled tiles that are consecutive in its assignment and
live in both of its caches are swept by one gather-reduce-apply over
slices of the server's :class:`~repro.partition.tiles.TileSlab`; every
tile still takes the one metered load, in sweep order.  Everything here
is an *identity*: joining tiles must not show in any number the engine
reports.  The reference is the same engine with runs capped at one tile
(``TileSlab(max_run=1)``) — the tile-at-a-time sweep out of the same
code — so the executor sweep (``tests/test_runtime_executor.py``) is not
repeated, only crossed with the cap.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mpe as mpe_module
from repro.apps import (
    BFS,
    SSSP,
    WCC,
    MaxLabelPropagation,
    PageRank,
    PersonalizedPageRank,
    VertexProgram,
)
from repro.apps.base import check_elementwise_in_target
from repro.cluster import Cluster, ClusterSpec
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
from repro.service import Engine, JobSpec, reset_simulation
from repro.utils.segments import SegmentPlan, segment_reduce

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
# (iii) engine level: runs joined == runs of one, in every reported bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(260, 3200, seed=23, weighted=True, name="runs-g")


@pytest.fixture(scope="module")
def symmetric(graph):
    return graph.to_undirected_edges()


def _engine(graph, max_run=None, tracer=None, tiles_per_server=10, **cfg):
    """A set-up engine whose slabs cap runs at ``max_run`` tiles (the
    grouping helper's test-only constructor argument); caller closes."""
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    manifest = SPE(cluster.dfs).preprocess(
        graph,
        max(1, graph.num_edges // (tiles_per_server * N_SERVERS)),
        name=graph.name,
    )
    cfg.setdefault("max_supersteps", 12)
    mpe = MPE(cluster, manifest, MPEConfig(**cfg), tracer=tracer)
    mpe.setup()
    for server in cluster.servers:
        _cap(server, max_run)
    return mpe, cluster


def _cap(server, max_run):
    dcache = server.decoded_cache
    slab = dcache.slab
    dcache.slab = TileSlab(slab.names, slab.shapes, slab.target_ids, max_run)


def _story(mpe, result, tracer=None):
    servers = mpe.cluster.servers
    story = {
        "values": result.values.tobytes(),
        "converged": result.converged,
        "supersteps": [
            (
                s.updated_vertices,
                s.tiles_processed,
                s.tiles_skipped,
                s.net_bytes,
                s.disk_read_bytes,
                s.cache_hit_ratio,
                tuple(s.message_modes),
                s.modeled,
            )
            for s in result.supersteps
        ],
        "counters": [s.counters.snapshot() for s in servers],
        "cache_stats": [dataclasses.astuple(s.cache.stats) for s in servers],
        "cache_recency": [s.cache.content_keys() for s in servers],
        "decoded_stats": [dataclasses.astuple(s.decoded_cache.stats) for s in servers],
        "decoded_recency": [s.decoded_cache.content_keys() for s in servers],
    }
    if tracer is not None:
        story["spans"] = {
            label: [node.as_tuple() for node in forest]
            for label, forest in tracer.span_trees().items()
        }
    return story


def _stories(graph, programs, max_run, **cfg):
    """One warm engine, the programs in order (each run twice: the cold
    run fills the slab, the warm one sweeps whole runs); every story."""
    tracer = Tracer()
    mpe, cluster = _engine(graph, max_run, tracer=tracer, **cfg)
    try:
        out = []
        for make in programs:
            for _ in range(2):
                tracer.clear_events()
                out.append(_story(mpe, mpe.run(make()), tracer))
        return out
    finally:
        cluster.close()


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
    "pagerank": (lambda: PageRank(tolerance=0.0), False),
    "sssp": (lambda: SSSP(source=1), False),
    "bfs": (lambda: BFS(source=1), False),
    "wcc": (WCC, True),
    "maxlabel": (MaxLabelPropagation, True),
}
TRANSPORTS = [
    ("serial", None),
    ("parallel", 2),
    pytest.param("process", 1, marks=needs_process),
    pytest.param("process", 2, marks=needs_process),
]


class TestRunPositions:
    """A run carries where its rows sit in the server's target index, so
    the sweep hands the broadcast its changed rows' positions instead of
    the engine searching the index for the changed ids: whatever formed
    the run, they are the positions that search would find."""

    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        # Checked inside the kernel, in this process.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    CASES = {
        "slab runs": (PROGRAMS["pagerank"][0], None, {}),
        "runs of one": (PROGRAMS["sssp"][0], None, {}),
        "max_run=1": (PROGRAMS["pagerank"][0], 1, {}),
        # An edge cache of 0 bytes holds no tile: every tile streams
        # through as a run of one.
        "spill": (
            PROGRAMS["bfs"][0], None, {"cache_capacity_bytes": 0, "cache_mode": 1}
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_positions_are_what_searching_the_index_finds(
        self, graph, monkeypatch, case
    ):
        make, max_run, cfg = self.CASES[case]
        kernel = mpe_module._sweep_run
        lengths = []

        def checked(program, run, store, slot):
            ids, vals, rows = kernel(program, run, store, slot)
            (server,) = [
                s for s in mpe.cluster.servers if s.state.get("store") is store
            ]
            own = mpe._server_target_ids[server.server_id]
            span = own[run.first_row : run.first_row + run.target_ids.size]
            assert np.array_equal(span, run.target_ids)
            assert np.array_equal(rows, np.searchsorted(own, ids))
            lengths.append(len(run.tiles))
            return ids, vals, rows

        monkeypatch.setattr(mpe_module, "_sweep_run", checked)
        mpe, cluster = _engine(graph, max_run, **cfg)
        try:
            for _ in range(2):  # cold, then warm: slab runs need a filled slab
                mpe.run(make())
        finally:
            cluster.close()
        assert lengths
        assert (max(lengths) > 1) == (case == "slab runs")


class TestRunsOfOneIdentity:
    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize("executor,width", TRANSPORTS)
    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_program_by_store_by_transport(
        self, graph, symmetric, name, policy, executor, width
    ):
        make, undirected = PROGRAMS[name]
        g = symmetric if undirected else graph
        cfg = dict(
            replication_policy=policy,
            executor=executor,
            num_workers=width,
            num_threads=width,
        )
        assert _stories(g, [make], None, **cfg) == _stories(g, [make], 1, **cfg)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_prefetch_pipeline(self, graph, depth):
        cfg = dict(prefetch_depth=depth)
        make = PROGRAMS["pagerank"][0]
        assert _stories(graph, [make], None, **cfg) == _stories(
            graph, [make], 1, **cfg
        )

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
        order = [PROGRAMS["pagerank"][0], PROGRAMS["sssp"][0], PROGRAMS["bfs"][0]]
        assert _stories(graph, order, None) == _stories(graph, order, 1)
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

        stories, lengths = [], _run_lengths(monkeypatch)
        for max_run in (None, 1):
            lengths.clear()
            tracer = Tracer()
            mpe, cluster = _engine(graph, max_run, tracer=tracer, max_supersteps=3)
            try:
                mpe._resolve_schedule = gapped(mpe._resolve_schedule)
                stories.append(_story(mpe, mpe.run(PageRank(tolerance=0.0)), tracer))
                width = len(mpe._assignments[0])
            finally:
                cluster.close()
            if max_run is None:
                # Superstep 0 is one run per server; then server 0 sweeps
                # positions 0-1, 3-4 and 6-.
                assert lengths[N_SERVERS : N_SERVERS + 3] == [2, 2, width - 6]
        assert stories[0] == stories[1]

    def test_edge_cache_capped_so_that_half_the_tiles_miss(self, graph, monkeypatch):
        mpe, cluster = _engine(graph)
        per_server = sum(n for _t, _b, n in mpe._assignments[0])
        cluster.close()
        cfg = dict(cache_capacity_bytes=per_server // 2, cache_mode=1)
        make = PROGRAMS["pagerank"][0]
        joined = _stories(graph, [make], None, **cfg)
        assert joined == _stories(graph, [make], 1, **cfg)
        # A tile the edge cache rejected streams through: it joins no run.
        lengths = _run_lengths(monkeypatch)
        mpe, cluster = _engine(graph, **cfg)
        try:
            mpe.run(make())
            lengths.clear()
            warm = mpe.run(make())
            held = [
                [name in server.cache for _t, name, _n in tiles]
                for server, tiles in zip(cluster.servers, mpe._assignments)
            ]
        finally:
            cluster.close()
        assert all(any(h) and not all(h) for h in held)
        # Per server: maximal stretches of held tiles, the others alone.
        expected = []
        for server_held in held:
            stretch = 0
            for is_held in server_held:
                if is_held:
                    stretch += 1
                    continue
                expected += [stretch] * bool(stretch) + [1]
                stretch = 0
            expected += [stretch] * bool(stretch)
        assert max(expected) > 1
        assert lengths == expected * warm.num_supersteps

    @pytest.mark.parametrize("fault", [DiskReadFault, ServerCrashFault])
    def test_a_fault_on_the_fourth_tile_of_a_server(self, graph, fault):
        """The metering pass is the serial sweep: the fault fires at the
        same load, and what the abort leaves behind is the same."""

        class FourthLoad:
            def __init__(self):
                self.loads, self.superstep, self.fired = 0, None, None

            def on_tile_load(self, server, blob_name):
                self.loads += 1
                if self.superstep == 2 and self.loads == 4:
                    self.fired = (server.server_id, blob_name)
                    raise fault("injected", superstep=2, server=server.server_id)

        outcomes = []
        for max_run in (None, 1):
            tracer = Tracer()
            mpe, cluster = _engine(graph, max_run, tracer=tracer, max_supersteps=4)
            try:
                mpe.run(PageRank(tolerance=0.0))
                hook = cluster.servers[1].fault_injector = FourthLoad()
                resolve = mpe._resolve_schedule

                def resolved(superstep, *args):
                    hook.superstep, hook.loads = superstep, 0
                    return resolve(superstep, *args)

                mpe._resolve_schedule = resolved
                tracer.clear_events()
                with pytest.raises(fault):
                    mpe.run(PageRank(tolerance=0.0))
                outcomes.append(
                    {
                        "fired": hook.fired,
                        "counters": [s.counters.snapshot() for s in cluster.servers],
                        "cache": [
                            dataclasses.astuple(s.cache.stats) for s in cluster.servers
                        ],
                        "decoded": [
                            dataclasses.astuple(s.decoded_cache.stats)
                            for s in cluster.servers
                        ],
                        "spans": {
                            label: [node.as_tuple() for node in forest]
                            for label, forest in tracer.span_trees().items()
                        },
                    }
                )
                # The engine runs clean afterwards.
                cluster.servers[1].fault_injector = None
                mpe._resolve_schedule = resolve
                outcomes[-1]["after"] = mpe.run(PageRank(tolerance=0.0)).values.tobytes()
            finally:
                cluster.close()
        assert outcomes[0]["fired"] == (1, mpe._assignments[1][3][1])
        assert outcomes[0] == outcomes[1]

    def test_mutations_and_a_merge_between_two_runs(self, graph):
        """A batch changes tiles' edge counts, a merge renames a blob:
        the slab is laid out again, and nothing else shows."""
        batch = random_mutations(graph, 40, 25, seed=5)
        stories = []
        for max_run in (None, 1):
            mpe, cluster = _engine(graph, max_run, mutations=True)
            try:
                make = PROGRAMS["pagerank"][0]
                before = _story(mpe, mpe.run(make()))
                slabs = [s.decoded_cache.slab for s in cluster.servers]
                report = mpe.apply_mutations(batch[:30])
                overlaid = _story(mpe, mpe.run(make()))
                mpe.delta.store.merge_ratio = 1e-9  # every overlay merges
                merged = mpe.apply_mutations(batch[30:])
                assert merged["merged"]
                for server in cluster.servers:
                    _cap(server, max_run)
                after = _story(mpe, mpe.run(make()))
                names = [n for a in mpe._assignments for _t, n, _b in a]
                relaid = [s.decoded_cache.slab for s in cluster.servers]
            finally:
                cluster.close()
            assert report["affected_tiles"] and any("-v1" in n for n in names)
            assert all(a is not b for a, b in zip(slabs, relaid))
            assert [n for s in relaid for n in s.names] == names
            assert before["values"] != overlaid["values"]
            stories.append((before, overlaid, after))
        assert stories[0] == stories[1]
        # ... and the mutated graph's values are a cold engine's.
        mpe, cluster = _engine(graph, mutations=True)
        try:
            mpe.apply_mutations(batch)
            cold = mpe.run(PROGRAMS["pagerank"][0]())
        finally:
            cluster.close()
        assert stories[0][2]["values"] == cold.values.tobytes()

    def test_warm_equals_cold_through_the_service(self, graph):
        spec = JobSpec(
            graph=graph.name, algorithm="pagerank",
            params={"tolerance": 0.0}, max_supersteps=6,
        )
        engine = Engine(num_servers=N_SERVERS)
        try:
            engine.register_graph(graph)
            warm = []
            for _ in range(2):  # the second job sweeps a filled slab
                record = engine.submit(spec)
                assert engine.run_next() is record and record.status == "done"
                warm.append(record.result)
        finally:
            engine.shutdown()
        gh = GraphH(num_servers=N_SERVERS, config=spec.overlay(MPEConfig()))
        try:
            gh.load_graph(graph, name=graph.name)
            gh.mpe.setup()
            reset_simulation(gh.cluster, gh.mpe.channel)
            cold = gh.mpe.run(spec.build_program())
            counters = {
                str(s.server_id): s.counters.snapshot() for s in gh.cluster.servers
            }
            cache = {
                str(s.server_id): dataclasses.asdict(s.cache.stats)
                for s in gh.cluster.servers
            }
        finally:
            gh.close()
        for job in warm:
            assert job.values.tobytes() == cold.values.tobytes()
            assert job.counters == counters
            assert job.cache_stats == cache


# ----------------------------------------------------------------------
# (iv) the call-count guard: no per-tile loop behind the run sweep
# ----------------------------------------------------------------------
def _count_kernel_calls(monkeypatch):
    calls = {"gather": 0, "reduce": 0}
    reduce = mpe_module.segment_reduce

    def counted_reduce(*args, **kwargs):
        calls["reduce"] += 1
        return reduce(*args, **kwargs)

    monkeypatch.setattr(mpe_module, "segment_reduce", counted_reduce)
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
    # Per server and superstep: the run's gather, the old-target read,
    # the broadcast staging, one reduce.  (AA collects the final values
    # without a gather.)
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
