"""Edge-case tests for the GraphH facade and engine error paths."""

import numpy as np
import pytest

from repro.apps import PageRank, reference_solution
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE, GraphH
from repro.graph import Graph, chung_lu_graph


class TestFacadeEdgeCases:
    def test_wcc_reuses_symmetrised_dataset(self):
        g = Graph.from_edges([(0, 1), (2, 3)], num_vertices=4, name="wcc2x")
        with GraphH(num_servers=2) as gh:
            gh.load_graph(g, avg_tile_edges=2)
            first = gh.wcc()
            files_after_first = len(gh.cluster.dfs.list_files())
            second = gh.wcc()  # must hit the cached -sym dataset
            files_after_second = len(gh.cluster.dfs.list_files())
        assert np.array_equal(first, second)
        assert files_after_first == files_after_second

    def test_setup_profile_kept_beside_the_manifest(self, tmp_path):
        g = Graph.from_edges([(0, 1), (2, 3)], num_vertices=4, name="prof")
        with GraphH(num_servers=2, root=str(tmp_path)) as gh:
            assert gh.setup_profile is None
            gh.load_graph(g, avg_tile_edges=2)
            profile = gh.setup_profile
            assert profile["dataset"] == "prof"
            assert profile["num_tiles"] == gh.manifest.num_tiles
            gh.wcc()  # pre-processes prof-sym on the same SPE
            assert gh.spe.last_profile["dataset"] == "prof-sym"
            assert gh.setup_profile is profile
            gh.cluster.dfs.save_namespace()
        # A later process finds the tiles in the DFS: no SPE pass ran.
        with GraphH(num_servers=2, root=str(tmp_path)) as gh:
            gh.load_graph(g, reuse=True)
            assert gh.setup_profile is None

    def test_mpe_property_accessors(self):
        g = chung_lu_graph(50, 300, seed=180, name="acc")
        with GraphH(num_servers=1) as gh:
            gh.load_graph(g)
            assert gh.manifest.num_vertices == 50
            assert gh.mpe is not None

    def test_custom_root_dir_not_deleted(self, tmp_path):
        root = tmp_path / "mycluster"
        with GraphH(num_servers=1, root=str(root)) as gh:
            gh.load_graph(chung_lu_graph(30, 100, seed=181, name="keep"))
        assert root.exists()  # caller-owned roots survive close()

    def test_spec_overrides_num_servers(self):
        spec = ClusterSpec(num_servers=5)
        with GraphH(num_servers=1, spec=spec) as gh:
            assert gh.cluster.num_servers == 5


class TestEngineErrorPaths:
    def test_missing_tile_raises(self):
        g = chung_lu_graph(60, 400, seed=182, name="missing")
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(g, 100, name="missing")
            cluster.dfs.delete(manifest.tile_path(0))
            mpe = MPE(cluster, manifest, MPEConfig())
            with pytest.raises(FileNotFoundError):
                mpe.run(PageRank())

    def test_init_values_size_mismatch_rejected(self):
        g = chung_lu_graph(60, 400, seed=183, name="mismatch")

        class BrokenInit(PageRank):
            def init_values(self, graph):
                return np.zeros(3)

        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(g, 100, name="mismatch")
            mpe = MPE(cluster, manifest, MPEConfig())
            with pytest.raises(ValueError):
                mpe.run(BrokenInit())

    def test_setup_idempotent(self):
        g = chung_lu_graph(60, 400, seed=184, name="idem")
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(g, 100, name="idem")
            mpe = MPE(cluster, manifest, MPEConfig())
            mpe.setup()
            writes_before = sum(s.counters.disk_write for s in cluster.servers)
            mpe.setup()
            writes_after = sum(s.counters.disk_write for s in cluster.servers)
            assert writes_before == writes_after

    def test_run_twice_on_same_mpe(self):
        """Tiles stay staged; two runs give identical results."""
        g = chung_lu_graph(80, 600, seed=185, name="twice")
        expected, _ = reference_solution(PageRank(), g, 300)
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(g, 100, name="twice")
            mpe = MPE(cluster, manifest, MPEConfig())
            a = mpe.run(PageRank())
            b = mpe.run(PageRank())
        assert np.allclose(a.values, expected, atol=1e-6)
        assert np.array_equal(a.values, b.values)

    def test_channel_reset_meters(self):
        from repro.comm import Channel

        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            ch = Channel(cluster.servers)
            ch.send(0, 1, b"abc")
            ch.reset_meters()
            assert ch.total_bytes == 0
            assert ch.total_messages == 0
            assert ch.pending(1) == 1  # mailboxes untouched
