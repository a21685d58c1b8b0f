"""Tests for the AA / OD vertex stores (over every allocator) and the
OD engine path."""

import numpy as np
import pytest

from repro.apps import PageRank, SSSP, reference_solution
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.core.vertexstore import AllInAllStore, OnDemandStore
from repro.graph import chung_lu_graph, grid_graph
from repro.runtime import outstanding_segments, process_runtime_available
from repro.runtime.shm import SharedAllocator
from repro.storage.backing import BackingStore


class TestAllInAllStore:
    def test_gather_and_range(self):
        store = AllInAllStore(np.arange(10.0), np.arange(10))
        assert store.gather_values(np.array([3, 7])).tolist() == [3.0, 7.0]
        assert store.gather_out_degrees(np.array([2])).tolist() == [2]
        assert store.gather_values(np.arange(4, 6)).tolist() == [4.0, 5.0]

    def test_write(self):
        store = AllInAllStore(np.zeros(5), None)
        store.write(np.array([1, 3]), np.array([9.0, 8.0]))
        assert store.full_values().tolist() == [0, 9, 0, 8, 0]

    def test_memory_eq2(self):
        # Eq. 2 sizing: 8B value + 8B message (+4B degree).
        store = AllInAllStore(np.zeros(100), np.arange(100))
        vertex, messages = store.memory_bytes()
        assert vertex == 100 * 12
        assert messages == 100 * 8
        assert store.num_stored() == 100

    def test_init_values_copied(self):
        init = np.zeros(3)
        store = AllInAllStore(init, None)
        store.write(np.array([0]), np.array([5.0]))
        assert init[0] == 0.0


class TestOnDemandStore:
    def test_subset_only(self):
        store = OnDemandStore(np.arange(10.0), None, np.array([2, 5, 7]))
        assert store.num_stored() == 3
        assert store.gather_values(np.array([5, 2])).tolist() == [5.0, 2.0]

    def test_gather_missing_raises(self):
        store = OnDemandStore(np.arange(10.0), None, np.array([2, 5]))
        with pytest.raises(KeyError):
            store.gather_values(np.array([3]))

    def test_write_ignores_nonresident(self):
        store = OnDemandStore(np.zeros(10), None, np.array([2, 5]))
        store.write(np.array([2, 3, 9]), np.array([1.0, 2.0, 3.0]))
        assert store.gather_values(np.array([2])).tolist() == [1.0]
        assert store.gather_values(np.array([5])).tolist() == [0.0]

    def test_full_values_unavailable(self):
        store = OnDemandStore(np.zeros(4), None, np.array([0]))
        with pytest.raises(RuntimeError):
            store.full_values()

    def test_memory_eq3(self):
        # Eq. 3 sizing: 8B value + 8B message + 4B id (+4B degree).
        store = OnDemandStore(np.zeros(100), np.arange(100), np.arange(40))
        vertex, messages = store.memory_bytes()
        assert vertex == 40 * (8 + 4 + 4)
        assert messages == 40 * 8

    def test_duplicate_local_ids_deduped(self):
        store = OnDemandStore(np.arange(5.0), None, np.array([1, 1, 3]))
        assert store.num_stored() == 2


def _allocator(kind, tmp_path):
    if kind == "shm":
        if not process_runtime_available():
            pytest.skip("platform lacks POSIX shared memory")
        return SharedAllocator()
    return BackingStore(root=str(tmp_path)) if kind == "mmap" else None


class TestStoresOverAllocators:
    """Two stores × three allocators: where the arrays live changes
    neither a store's answers nor its Eq. 2/3 accounting."""

    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("kind", ["heap", "shm", "mmap"])
    def test_same_semantics_and_accounting(self, kind, policy, tmp_path):
        init = np.arange(12.0)
        degrees = np.arange(12, dtype=np.int64) * 3
        local = np.array([1, 2, 3, 4, 7, 9])

        def build(allocator):
            if policy == "aa":
                return AllInAllStore(init, degrees, allocator)
            return OnDemandStore(init, degrees, local, allocator)

        reference = build(None)
        allocator = _allocator(kind, tmp_path)
        store = build(allocator)
        ids = np.array([2, 9, 4])
        for s in (reference, store):
            s.write(np.array([3, 7, 11]), np.array([-3.0, -7.0, -11.0]))
        assert store.gather_values(ids).tolist() == [2.0, 9.0, 4.0]
        assert store.gather_out_degrees(ids).tolist() == [6, 27, 12]
        assert store.gather_out_degrees(ids).dtype == np.int32
        assert store.gather_values(np.arange(2, 5)).tolist() == [2.0, -3.0, 4.0]
        assert np.array_equal(
            store.gather_values(local), reference.gather_values(local)
        )
        assert store.memory_bytes() == reference.memory_bytes()
        assert store.memory_bytes() == (
            (12 * (8 + 4), 12 * 8) if policy == "aa" else (6 * (8 + 4 + 4), 6 * 8)
        )
        assert store.num_stored() == reference.num_stored()
        # The caller's arrays were copied, never adopted.
        assert init[3] == 3.0
        # Views first, memory second (SharedMemory.close() refuses
        # while an ndarray still references the buffer).
        store.release()
        if allocator is not None:
            allocator.release()
            allocator.release()  # idempotent
        assert outstanding_segments() == []


def run_with_policy(graph, program, policy, num_servers=3):
    with Cluster(ClusterSpec(num_servers=num_servers)) as cluster:
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // 7), name=graph.name
        )
        config = MPEConfig(replication_policy=policy)
        mpe = MPE(cluster, manifest, config)
        result = mpe.run(program)
        mem = max(s.counters.mem_vertex for s in cluster.servers)
        return result, mem


class TestOnDemandEngine:
    @pytest.fixture(scope="class")
    def skewed(self):
        return chung_lu_graph(200, 2000, seed=60)

    def test_od_pagerank_matches_reference(self, skewed):
        expected, _ = reference_solution(PageRank(), skewed, 200)
        result, _ = run_with_policy(skewed, PageRank(), "od")
        assert np.allclose(result.values, expected, atol=1e-6)
        assert result.converged

    def test_od_sssp_matches_reference(self):
        road = grid_graph(7, 7, seed=61)
        expected, _ = reference_solution(SSSP(source=0), road, 200)
        result, _ = run_with_policy(road, SSSP(source=0), "od")
        assert np.allclose(result.values, expected)

    def test_od_matches_aa_answers(self, skewed):
        aa, _ = run_with_policy(skewed, PageRank(), "aa")
        od, _ = run_with_policy(skewed, PageRank(), "od")
        assert np.allclose(aa.values, od.values, atol=1e-9)

    def test_aa_cheaper_in_small_cluster(self, skewed):
        """Figure 6a's left side: with few servers each OD server still
        touches nearly every vertex and pays the id overhead, so AA's
        dense arrays win."""
        _, aa_mem = run_with_policy(skewed, PageRank(), "aa", num_servers=2)
        _, od_mem = run_with_policy(skewed, PageRank(), "od", num_servers=2)
        assert aa_mem <= od_mem

    def test_od_stores_fewer_vertices_with_many_servers(self, skewed):
        with Cluster(ClusterSpec(num_servers=8)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(skewed, skewed.num_edges // 16, name="g")
            mpe = MPE(cluster, manifest, MPEConfig(replication_policy="od"))
            mpe.run(PageRank(), graph_for_init=skewed)
            stored = [
                s.state["store"].num_stored() for s in cluster.servers
            ]
            assert max(stored) < skewed.num_vertices

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            MPEConfig(replication_policy="mirror")
