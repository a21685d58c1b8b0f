"""The §IV-A message slot: one ``edge_message`` per source vertex per
superstep, gathered per edge.

Three things keep that equal to evaluating per edge: ``edge_message`` is
elementwise in the source (every shipped program, checked bitwise here),
the engine refuses a program for which it is not, and the sweep never
writes the replica through a slot that aliases it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.apps.base import check_elementwise_in_source
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.core.mpe import _sweep_run
from repro.core.vertexstore import AllInAllStore, OnDemandStore
from repro.graph import chung_lu_graph
from repro.partition import build_tiles
from repro.partition.tiles import Tile, TileSlab
from repro.runtime import process_runtime_available
from repro.runtime.shm import SharedAllocator

UNWEIGHTED = {
    "pagerank": PageRank,
    "ppr": lambda: PersonalizedPageRank([0, 3]),
    "bfs": BFS,
    "wcc": WCC,
    "katz": KatzCentrality,
    "maxlabel": MaxLabelPropagation,
    "indegree": InDegreeCentrality,
}
# Programs whose message *is* the value array.
ALIASING = ("wcc", "katz", "maxlabel")

N_VERTICES = 24
# Resident under OD: not a prefix, not everything.
LOCAL = np.array([0, 1, 2, 3, 5, 8, 9, 13, 17, 21, 23])


def _store(policy, values, degrees):
    if policy == "aa":
        return AllInAllStore(values, degrees)
    return OnDemandStore(values, degrees, LOCAL)


def test_every_shipped_unweighted_program_is_listed():
    import repro.apps as apps

    shipped = {
        cls.name
        for cls in vars(apps).values()
        if isinstance(cls, type)
        and issubclass(cls, VertexProgram)
        and cls is not VertexProgram
        and not cls.uses_edge_weight
    }
    assert shipped == set(UNWEIGHTED)
    assert SSSP.uses_edge_weight  # the one program that stays per-edge


class TestElementwiseContract:
    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("name", sorted(UNWEIGHTED))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_message_then_gather_is_gather_then_message(self, name, policy, data):
        program = UNWEIGHTED[name]()
        special = st.sampled_from([0.0, -0.0, np.inf, 1.0, 1e-300, 1e300])
        values = np.array(
            data.draw(
                st.lists(
                    st.one_of(special, st.floats(0, 1e6, allow_nan=False)),
                    min_size=N_VERTICES,
                    max_size=N_VERTICES,
                )
            )
        )
        degrees = None
        if program.uses_out_degree:
            degrees = np.array(
                data.draw(
                    st.lists(
                        st.integers(0, 50), min_size=N_VERTICES, max_size=N_VERTICES
                    )
                )
            )
        col = np.array(
            data.draw(st.lists(st.sampled_from(LOCAL.tolist()), max_size=60)),
            dtype=np.int64,
        )
        store = _store(policy, values, degrees)
        before = store.gather_values(LOCAL).copy()

        per_vertex = store.gather_values(col, store.message_slot(program, 0))
        per_edge = program.edge_message(
            store.gather_values(col),
            store.gather_out_degrees(col) if degrees is not None else None,
            None,
        )
        assert per_vertex.dtype == per_edge.dtype
        assert per_vertex.tobytes() == per_edge.tobytes()
        assert store.gather_values(LOCAL).tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", sorted(UNWEIGHTED))
    def test_shipped_programs_pass_the_engine_check(self, name):
        program = UNWEIGHTED[name]()
        values = np.linspace(0.0, 3.0, 100)
        degrees = np.arange(100) % 7 if program.uses_out_degree else None
        for n in (100, 1, 0):
            check_elementwise_in_source(
                program, values[:n], None if degrees is None else degrees[:n]
            )


class _SumNormalised(PageRank):
    """Breaks the contract: every message depends on every source."""

    name = "sum-normalised"

    def edge_message(self, src_values, out_degrees, weights):
        return src_values / src_values.sum()


class _WrongLength(PageRank):
    name = "wrong-length"

    def edge_message(self, src_values, out_degrees, weights):
        return src_values[:1]


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(300, 3000, seed=29, name="slot-g")


def _engine(graph, num_servers=3, **cfg):
    cluster = Cluster(ClusterSpec(num_servers=num_servers))
    manifest = SPE(cluster.dfs).preprocess(
        graph, max(1, graph.num_edges // (4 * num_servers)), name=graph.name
    )
    return MPE(cluster, manifest, MPEConfig(**cfg)), cluster


class TestEngineEnforcesTheContract:
    @pytest.mark.parametrize("program", [_SumNormalised, _WrongLength])
    def test_run_rejects_a_non_elementwise_program(self, graph, program):
        mpe, cluster = _engine(graph)
        try:
            with pytest.raises(ValueError, match=program.__name__):
                mpe.run(program())
        finally:
            cluster.close()

    def test_a_weighted_program_is_not_probed(self, graph):
        """Per-edge evaluation makes no such assumption (and a weighted
        ``edge_message`` cannot be called with ``weights=None``)."""
        mpe, cluster = _engine(graph, max_supersteps=3)
        try:
            mpe.run(SSSP(source=0))
        finally:
            cluster.close()


class TestSlot:
    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_slot_lives_in_the_stores_index_space(self, policy):
        values = np.arange(N_VERTICES, dtype=np.float64)
        degrees = np.full(N_VERTICES, 2)
        store = _store(policy, values, degrees)
        slot = store.message_slot(PageRank(), 0)
        assert slot.size == store.num_stored()
        assert store.gather_values(np.array([8, 2]), slot).tolist() == [4.0, 1.0]
        if policy == "od":
            with pytest.raises(KeyError):
                store.gather_values(np.array([4]), slot)

    @pytest.mark.parametrize("name", ALIASING)
    @pytest.mark.parametrize("policy", ["aa", "od"])
    def test_aliasing_slot_is_read_only_and_the_sweep_leaves_it_alone(
        self, name, policy
    ):
        graph = chung_lu_graph(N_VERTICES, 120, seed=3)
        tile = build_tiles(graph, avg_tile_edges=graph.num_edges).tiles[0]
        program = UNWEIGHTED[name]()
        values = program.init_values(graph)
        if policy == "aa":
            store = AllInAllStore(values, None)
        else:
            store = OnDemandStore(values, None, np.arange(N_VERTICES))
        slot = store.message_slot(program, 0)
        assert np.shares_memory(slot, store._values)
        assert not slot.flags.writeable
        with pytest.raises(ValueError):
            slot[0] = -1.0
        assert store._values.flags.writeable  # the replica itself still is
        slab = TileSlab(["tile"], [TileSlab.shape_of(tile)], tile.target_ids)
        pos = slab.slot("tile", tile)
        ids, _, rows = _sweep_run(program, slab.run(pos, pos), store, slot)
        assert ids.size  # the sweep changed something, but applied nothing
        assert rows.tolist() == ids.tolist()  # the tile starts the index at 0
        assert store._values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("policy,error", [("aa", IndexError), ("od", KeyError)])
    def test_a_source_outside_the_store_is_refused(self, policy, error):
        """The fused gather reads unchecked, so its bounds come from the
        slab: a tile naming a source id >= |V| (AA) or one that is not
        resident (OD: vertex 4) fails the sweep instead of reading past
        the slot."""
        bad = N_VERTICES if policy == "aa" else 4
        tile = Tile(
            tile_id=0,
            target_lo=0,
            target_hi=3,
            num_graph_vertices=N_VERTICES,
            row=np.array([0, 2, 2, 3], dtype=np.int64),
            col=np.array([1, bad, 2], dtype=np.uint32),
            val=None,
        )
        store = _store(policy, np.ones(N_VERTICES), np.ones(N_VERTICES))
        program = PageRank()
        slab = TileSlab(["tile"], [TileSlab.shape_of(tile)], tile.target_ids)
        pos = slab.slot("tile", tile)
        assert slab.run(pos, pos).col_max == bad
        with pytest.raises(error):
            _sweep_run(program, slab.run(pos, pos), store, store.message_slot(program, 0))

    def test_concurrent_askers_share_one_build_per_superstep(self, monkeypatch):
        """Stress: eight threads (more than the cores) ask the one AA
        replica for each superstep's slot at once, with thread switches
        forced as often as the interpreter allows; each superstep is
        built once and every asker gets that one array."""
        import sys
        import threading

        builds = []
        edge_message = PageRank.edge_message

        def counted(self, src_values, out_degrees, weights):
            builds.append(1)
            return edge_message(self, src_values, out_degrees, weights)

        monkeypatch.setattr(PageRank, "edge_message", counted)
        store = AllInAllStore(np.ones(1000), np.arange(1000))
        program = PageRank()
        supersteps, threads = 20, 8
        start = threading.Barrier(threads, timeout=30)
        got = [[None] * threads for _ in range(supersteps)]

        def ask(t):
            for superstep in range(supersteps):
                start.wait()
                got[superstep][t] = store.message_slot(program, superstep)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=ask, args=(t,)) for t in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert len(builds) == supersteps
        for slots in got:
            assert all(slot is slots[0] for slot in slots)

    @pytest.mark.skipif(
        not process_runtime_available(), reason="platform lacks POSIX shared memory"
    )
    def test_slot_is_a_heap_array_whatever_holds_the_values(self):
        allocator = SharedAllocator()
        store = AllInAllStore(np.ones(8), np.arange(8), allocator)
        try:
            slot = store.message_slot(PageRank(), 0)
            assert not np.shares_memory(slot, store._values)
            assert slot.tolist() == (1.0 / np.maximum(np.arange(8), 1)).tolist()
            del slot
        finally:
            store.release()
            allocator.release()


class TestCallCounts:
    """The guard against sliding back to per-edge work."""

    def test_one_message_build_per_server_superstep_and_one_plan_per_tile(
        self, graph, monkeypatch
    ):
        # Counted in this process: forked workers would count in theirs.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        sizes: list[int] = []
        degree_gathers: list[int] = []
        plans: list[int] = []
        edge_message = PageRank.edge_message

        def counted_message(self, src_values, out_degrees, weights):
            sizes.append(src_values.size)
            return edge_message(self, src_values, out_degrees, weights)

        monkeypatch.setattr(PageRank, "edge_message", counted_message)
        monkeypatch.setattr(
            AllInAllStore,
            "gather_out_degrees",
            lambda self, ids: degree_gathers.append(ids.size),
        )

        class CountedPlan(tiles_module.SegmentPlan):
            """Counts plans derived from a row pointer (a run's plan is
            sliced from those, not derived)."""

            __slots__ = ()

            def __init__(self, indptr):
                plans.append(1)
                super().__init__(indptr)

        monkeypatch.setattr(tiles_module, "SegmentPlan", CountedPlan)

        num_servers = 3
        mpe, cluster = _engine(
            graph, num_servers, executor="serial", max_supersteps=6
        )
        try:
            first = mpe.run(PageRank(tolerance=0.0))
            built = len(plans)
            assert built == mpe.manifest.num_tiles
            sizes.clear()
            warm = mpe.run(PageRank(tolerance=0.0))
        finally:
            cluster.close()
        assert np.array_equal(first.values, warm.values)
        assert len(plans) == built  # decoded tiles kept theirs
        assert degree_gathers == []
        # tolerance=0: every server sweeps a non-empty run list every
        # superstep, and all of them read the one AA replica's slot,
        # built once per superstep.  The two small calls are
        # _begin_run's contract probe.
        assert all(s.tiles_processed for s in warm.supersteps)
        slot_builds = [n for n in sizes if n == graph.num_vertices]
        assert len(slot_builds) == warm.num_supersteps
        assert sorted(set(sizes) - {graph.num_vertices}) == [32, 64]
        assert len(sizes) == len(slot_builds) + 2

    def test_one_slot_build_per_superstep_under_two_threads(
        self, graph, monkeypatch
    ):
        """Two threads sweep servers at once against the one AA replica;
        the slot is still built once per superstep."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        sizes: list[int] = []
        edge_message = PageRank.edge_message

        def counted_message(self, src_values, out_degrees, weights):
            sizes.append(src_values.size)
            return edge_message(self, src_values, out_degrees, weights)

        monkeypatch.setattr(PageRank, "edge_message", counted_message)
        mpe, cluster = _engine(
            graph, 3, executor="parallel", num_threads=2, max_supersteps=6
        )
        try:
            result = mpe.run(PageRank(tolerance=0.0))
        finally:
            cluster.close()
        assert result.executor == "parallel"
        assert all(s.tiles_processed for s in result.supersteps)
        assert sizes.count(graph.num_vertices) == result.num_supersteps
