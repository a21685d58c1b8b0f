"""Tests for the SPE pre-processing engine."""

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import SPE, TileManifest
from repro.graph import Graph, chung_lu_graph, grid_graph, rmat_graph
from repro.partition import Tile, build_tiles


@pytest.fixture
def cluster():
    with Cluster(ClusterSpec(num_servers=3)) as c:
        yield c


class TestSPE:
    def test_manifest_counts(self, cluster):
        g = chung_lu_graph(200, 2000, seed=30)
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(g, avg_tile_edges=300, name="g")
        assert manifest.num_vertices == 200
        assert manifest.num_edges == 2000
        assert manifest.num_tiles == manifest.splitter.size - 1
        assert not manifest.weighted

    def test_tiles_match_direct_path_bytes(self, cluster):
        """SPE's map-reduce pipeline and the direct in-memory path must
        produce byte-identical tiles."""
        g = chung_lu_graph(300, 3000, seed=31)
        spe = SPE(cluster.dfs, mapreduce_partitions=5)
        manifest = spe.preprocess(g, avg_tile_edges=400, name="g", chunk_edges=127)
        direct = build_tiles(g, avg_tile_edges=400)
        assert manifest.num_tiles == direct.num_tiles
        for i, tile in enumerate(direct.tiles):
            assert cluster.dfs.read(manifest.tile_path(i)) == tile.to_bytes()

    def test_weighted_tiles_match(self, cluster):
        g = grid_graph(8, 8, seed=32)
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(g, avg_tile_edges=40, name="grid", chunk_edges=33)
        assert manifest.weighted
        direct = build_tiles(g, avg_tile_edges=40)
        for i, tile in enumerate(direct.tiles):
            assert cluster.dfs.read(manifest.tile_path(i)) == tile.to_bytes()

    def test_degree_arrays_persisted(self, cluster):
        g = chung_lu_graph(150, 1500, seed=33)
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(g, avg_tile_edges=200, name="g")
        inn, out = spe.load_degrees(manifest)
        assert np.array_equal(inn, g.in_degrees)
        assert np.array_equal(out, g.out_degrees)

    def test_manifest_roundtrip(self, cluster):
        g = chung_lu_graph(100, 1000, seed=34)
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(g, avg_tile_edges=150, name="g")
        reloaded = spe.load_manifest("g")
        assert reloaded.num_vertices == manifest.num_vertices
        assert reloaded.num_edges == manifest.num_edges
        assert np.array_equal(reloaded.splitter, manifest.splitter)
        assert reloaded.tile_path(0) == "g/tile-0"

    def test_refuses_double_preprocess(self, cluster):
        g = chung_lu_graph(50, 400, seed=35)
        spe = SPE(cluster.dfs)
        spe.preprocess(g, avg_tile_edges=100, name="g")
        with pytest.raises(FileExistsError):
            spe.preprocess(g, avg_tile_edges=100, name="g")

    def test_invalid_tile_size(self, cluster):
        g = chung_lu_graph(50, 400, seed=36)
        with pytest.raises(ValueError):
            SPE(cluster.dfs).preprocess(g, avg_tile_edges=0, name="g")

    def test_total_tile_bytes_smaller_than_csv(self, cluster):
        from repro.graph import edge_list_csv_size

        g = chung_lu_graph(500, 10_000, seed=37)
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(g, avg_tile_edges=2000, name="g")
        assert spe.total_tile_bytes(manifest) < edge_list_csv_size(g)

    def test_graph_with_isolated_tail_vertices(self, cluster):
        """Vertices past the last edge target still get tile coverage."""
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1), (1, 0)], num_vertices=10)
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(g, avg_tile_edges=1, name="g")
        assert manifest.splitter[-1] == 10
        last_tile = Tile.from_bytes(
            cluster.dfs.read(manifest.tile_path(manifest.num_tiles - 1))
        )
        assert last_tile.target_hi == 10

    def test_manifest_from_bytes_validation(self):
        with pytest.raises(ValueError):
            TileManifest.from_bytes(
                "x",
                TileManifest(
                    name="x",
                    num_vertices=5,
                    num_edges=3,
                    num_tiles=2,
                    avg_tile_edges=2,
                    weighted=False,
                    splitter=np.array([0, 5], dtype=np.int64),  # wrong length
                ).to_bytes(),
            )


# ----------------------------------------------------------------------
# Golden output: what the SPE leaves in the DFS, pinned to commit feed9d2
# ----------------------------------------------------------------------
def dfs_digest(dfs) -> str:
    """sha256 over every DFS path, its bytes and its block placement
    (write order shows up as blob names and datanodes)."""
    digest = hashlib.sha256()
    for path in dfs.list_files():
        placement = [
            [(loc.block_index, loc.datanode, loc.blob_name) for loc in replicas]
            for replicas in dfs.info(path).blocks
        ]
        digest.update(path.encode())
        digest.update(dfs.read(path))
        digest.update(repr(placement).encode())
    return digest.hexdigest()


def _chung_multi():
    g = chung_lu_graph(300, 3000, seed=41, name="chung")
    pairs = g.src * g.num_vertices + g.dst
    assert np.unique(pairs).size < pairs.size  # multi-edges present
    return g, 400


def _rmat_tail():
    r = rmat_graph(scale=8, edge_factor=6, weighted=True, seed=42)
    # 40 isolated vertices past the last target; S=90 closes a tile on
    # the last vertex with in-edges, so the trailing tile is empty.
    return Graph(r.num_vertices + 40, r.src, r.dst, r.weights, name="rmat-tail"), 90


def _tiny():
    edges = [(0, 1), (1, 0), (2, 1), (0, 1), (5, 3), (3, 3)]
    return Graph.from_edges(edges, num_vertices=9, name="tiny"), 1


# (graph, (chunk_edges, mapreduce_partitions)) -> (num_tiles, DFS digest,
# (shuffles, records_moved, approx_bytes_moved)), recorded at feed9d2 —
# the commit before the tile job's sorts were narrowed.
GOLDEN = {
    (_chung_multi, (65_536, 8)): (
        8,
        "00f21374e78f0979918127465266d8cd7c229a332197f765b709d238e1b95cb7",
        (2, 16, 86_744),
    ),
    (_chung_multi, (97, 3)): (
        8,
        "00f21374e78f0979918127465266d8cd7c229a332197f765b709d238e1b95cb7",
        (2, 246, 72_129),
    ),
    (_rmat_tail, (65_536, 8)): (
        15,
        "822d246f7b30b264180fe7380ede60ed6078baa550ca5b7d651b20de4f925110",
        (2, 22, 74_888),
    ),
    (_rmat_tail, (97, 3)): (
        15,
        "822d246f7b30b264180fe7380ede60ed6078baa550ca5b7d651b20de4f925110",
        (2, 227, 52_873),
    ),
    (_tiny, (65_536, 8)): (
        4,
        "8c62e19a77fe51590d356af6735c50a96e6f6752e3784776826ce94d1af775ed",
        (2, 11, 1_392),
    ),
    (_tiny, (97, 3)): (
        4,
        "8c62e19a77fe51590d356af6735c50a96e6f6752e3784776826ce94d1af775ed",
        (2, 6, 657),
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "make, shape",
        list(GOLDEN),
        ids=[f"{make.__name__[1:]}-{c}x{p}" for make, (c, p) in GOLDEN],
    )
    def test_dfs_and_shuffle_match_parent(self, cluster, make, shape):
        """Paths, bytes, block placement and shuffle meters are the
        parent commit's: the sorts changed, the dataflow did not."""
        graph, avg_tile_edges = make()
        chunk_edges, partitions = shape
        spe = SPE(cluster.dfs, mapreduce_partitions=partitions)
        manifest = spe.preprocess(
            graph, avg_tile_edges, name=graph.name, chunk_edges=chunk_edges
        )
        stats = spe.mapreduce.shuffle_stats
        assert (
            manifest.num_tiles,
            dfs_digest(cluster.dfs),
            (stats.shuffles, stats.records_moved, stats.approx_bytes_moved),
        ) == GOLDEN[make, shape]

    def test_trailing_tile_is_empty(self, cluster):
        graph, avg_tile_edges = _rmat_tail()
        manifest = SPE(cluster.dfs).preprocess(graph, avg_tile_edges, name="g")
        last = Tile.from_bytes(
            cluster.dfs.read(manifest.tile_path(manifest.num_tiles - 1))
        )
        assert last.num_edges == 0 and last.num_targets == 40
        assert last.val is not None and last.val.size == 0


class TestProfile:
    def test_profile_accounts_for_the_call(self, cluster):
        import time

        g = chung_lu_graph(2000, 60_000, seed=38)
        spe = SPE(cluster.dfs)
        assert spe.last_profile is None
        start = time.perf_counter()
        manifest = spe.preprocess(g, avg_tile_edges=1500, name="g", chunk_edges=4096)
        wall = time.perf_counter() - start
        profile = spe.last_profile
        stages = [
            profile[k]
            for k in (
                "degree_jobs_s", "splitter_s", "tile_map_shuffle_s",
                "tile_reduce_persist_s",
            )
        ]
        assert all(s >= 0.0 for s in stages)
        assert sum(stages) == pytest.approx(wall, rel=0.05)
        stats = spe.mapreduce.shuffle_stats
        assert profile["dataset"] == "g"
        assert profile["num_tiles"] == manifest.num_tiles
        assert (
            profile["shuffles"], profile["records_moved"], profile["approx_bytes_moved"]
        ) == (stats.shuffles, stats.records_moved, stats.approx_bytes_moved)

    def test_profile_is_per_call(self, cluster):
        """The shuffle meters accumulate on the mini-cluster; the
        profile reports the latest call's share."""
        g = chung_lu_graph(100, 1000, seed=39)
        spe = SPE(cluster.dfs)
        spe.preprocess(g, avg_tile_edges=150, name="a")
        first = dict(spe.last_profile)
        spe.preprocess(g, avg_tile_edges=150, name="b")
        assert spe.last_profile["dataset"] == "b"
        for key in ("shuffles", "records_moved", "approx_bytes_moved"):
            assert spe.last_profile[key] == first[key]
        assert spe.mapreduce.shuffle_stats.shuffles == 2 * first["shuffles"]


# ----------------------------------------------------------------------
# Scale: the 10⁷-edge graph CI's tests-scale job already generates
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestScaleSPE:
    def test_ten_million_edges_match_direct_path_bytes(self):
        from repro.graph import rmat_graph_streamed

        graph = rmat_graph_streamed(scale=19, edge_factor=20, seed=42, weighted=True)
        assert graph.num_edges >= 10_000_000
        with Cluster(ClusterSpec(num_servers=4)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(
                graph, avg_tile_edges=graph.num_edges // 192, name="g"
            )
            print(f"\nspe.last_profile: {spe.last_profile}")
            direct = build_tiles(graph, avg_tile_edges=manifest.avg_tile_edges)
            assert manifest.num_tiles == direct.num_tiles
            for i, tile in enumerate(direct.tiles):
                assert cluster.dfs.read(manifest.tile_path(i)) == tile.to_bytes()
