"""Tests for all four partitioning families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, chung_lu_graph, erdos_renyi_graph, grid_graph
from repro.partition import (
    Tile,
    assign_tiles_round_robin,
    build_splitter,
    build_streaming_partitions,
    build_tiles,
    greedy_vertex_cut,
    hash_edge_cut,
    hybrid_vertex_cut,
)
import repro.partition.tiles as tiles_module
from repro.partition.tiles import EdgeIndex, stable_argsort, vertex_tile_table


def fig4_graph() -> Graph:
    """The worked example from the paper's Figure 4."""
    edges = [(1, 0), (3, 0), (0, 2), (1, 2), (2, 3), (4, 3), (1, 4), (2, 4)]
    return Graph.from_edges(edges, num_vertices=5, name="fig4")


class TestSplitter:
    def test_fig4_example(self):
        """Figure 4: S=2, P=4 over the 5-vertex example graph.

        In-degrees are [2, 0, 2, 2, 2]; the scan closes a tile as soon
        as it reaches 2 edges, giving 4 tiles of 2 edges each.
        """
        g = fig4_graph()
        splitter = build_splitter(g.in_degrees, avg_tile_edges=2)
        assert splitter.tolist() == [0, 1, 3, 4, 5]

    def test_covers_all_vertices(self):
        g = chung_lu_graph(500, 5000, seed=1)
        splitter = build_splitter(g.in_degrees, avg_tile_edges=100)
        assert splitter[0] == 0
        assert splitter[-1] == g.num_vertices
        assert np.all(np.diff(splitter) > 0)

    def test_huge_vertex_never_split(self):
        indeg = np.array([1, 1000, 1], dtype=np.int64)
        splitter = build_splitter(indeg, avg_tile_edges=10)
        # Algorithm 4 closes a tile only *after* adding the vertex that
        # crossed S, so vertex 1's 1000 in-edges land whole in tile 0
        # alongside vertex 0 — never split across tiles.
        assert splitter.tolist() == [0, 2, 3]

    def test_empty_graph(self):
        assert build_splitter(np.zeros(0, np.int64), 10).tolist() == [0]

    def test_zero_degree_tail(self):
        indeg = np.array([5, 0, 0, 0], dtype=np.int64)
        splitter = build_splitter(indeg, avg_tile_edges=5)
        assert splitter[-1] == 4

    def test_invalid_tile_size(self):
        with pytest.raises(ValueError):
            build_splitter(np.ones(3, np.int64), 0)

    @settings(max_examples=200, deadline=None)
    @given(
        zero_prefix=st.integers(0, 6),
        # Mostly zeros and small degrees, now and then one vertex
        # heavier than any S drawn below short of the last.
        body=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 7, 90]), max_size=40),
        zero_suffix=st.integers(0, 6),
        # S = 1, a typical S, and S > |E|.
        tile_size=st.one_of(st.just(1), st.integers(1, 60), st.just(10_000)),
    )
    def test_matches_scalar_algorithm(self, zero_prefix, body, zero_suffix, tile_size):
        degrees = [0] * zero_prefix + body + [0] * zero_suffix
        vectorised = build_splitter(np.array(degrees, dtype=np.int64), tile_size)
        assert vectorised.tolist() == scalar_splitter(degrees, tile_size)


def scalar_splitter(in_degrees: list, avg_tile_edges: int) -> list:
    """Algorithm 4 lines 3–8, one vertex at a time."""
    splitter, size = [0], 0
    for vertex, degree in enumerate(in_degrees):
        size += degree
        if size >= avg_tile_edges:
            splitter.append(vertex + 1)
            size = 0
    if splitter[-1] != len(in_degrees):
        splitter.append(len(in_degrees))
    return splitter


class TestSortHelpers:
    """The SPE's tile job: both sides of the 16-bit threshold."""

    @pytest.mark.parametrize("bound", [1, 7, 1 << 16, (1 << 16) + 1, 1 << 20])
    def test_stable_argsort_is_the_stable_argsort(self, bound):
        rng = np.random.default_rng(bound)
        # Heavy duplication: seven values, the extremes among them.
        values = np.concatenate(([0, bound - 1], rng.integers(0, bound, 5)))
        keys = rng.choice(values, size=5000).astype(np.int64)
        order = stable_argsort(keys, bound)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    @settings(max_examples=60, deadline=None)
    @given(
        bound=st.sampled_from(
            [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 20, (1 << 32) - 1, 1 << 32]
        ),
        pool=st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 7), min_size=0, max_size=300),
        dtype=st.sampled_from([np.int64, np.uint32]),
    )
    def test_two_radix_passes_are_the_stable_argsort(self, bound, pool, picks, dtype):
        """Keys drawn from a few values — the bound's extremes among them
        — so every run of duplicates must keep its order."""
        values = [0, bound - 1] + [v % bound for v in pool]
        keys = np.array([values[i % len(values)] for i in picks], dtype=np.int64)
        if dtype is np.uint32 and bound > 1 << 32:
            dtype = np.int64
        keys = keys.astype(dtype)
        order = stable_argsort(keys, bound)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    def test_stable_argsort_takes_narrow_keys_as_they_are(self):
        keys = np.array([3, 0, 3, 65_535, 0], dtype=np.uint16)
        assert stable_argsort(keys, 1 << 16).tolist() == [1, 4, 0, 2, 3]
        assert stable_argsort(keys[:0], 1).size == 0

    @pytest.mark.parametrize(
        "num_tiles, dtype",
        [(1, np.uint16), (5, np.uint16), (1 << 16, np.uint16), ((1 << 16) + 1, np.int64)],
    )
    def test_vertex_tile_table(self, num_tiles, dtype):
        widths = np.ones(num_tiles, dtype=np.int64)
        widths[::3] = 4
        splitter = np.concatenate(([0], np.cumsum(widths)))
        table = vertex_tile_table(splitter)
        assert table.dtype == dtype
        # Algorithm 4's get_tile_id, by search.
        vertices = np.arange(splitter[-1])
        assert np.array_equal(
            table, np.searchsorted(splitter, vertices, side="right") - 1
        )

    def test_vertex_tile_table_of_no_vertices(self):
        assert vertex_tile_table(np.array([0], dtype=np.int64)).size == 0


class TestTiles:
    def test_tile_count_and_sizes(self):
        g = chung_lu_graph(1000, 20_000, seed=2)
        part = build_tiles(g, avg_tile_edges=1000)
        # |E|/S = 20 ideal tiles; heavy-degree vertices merge some.
        assert 8 <= part.num_tiles <= 20
        sizes = np.array([t.num_edges for t in part.tiles])
        assert sizes.sum() == g.num_edges
        # All but possibly the last tile hold >= S edges; none is wildly
        # above S unless a single vertex's in-degree forces it.
        max_indeg = int(g.in_degrees.max())
        assert sizes[:-1].min() >= 1000
        assert sizes.max() <= 1000 + max_indeg

    def test_edges_with_target_in_tile(self):
        g = fig4_graph()
        part = build_tiles(g, avg_tile_edges=2)
        rebuilt = set()
        for tile in part.tiles:
            for local_t in range(tile.num_targets):
                target = tile.target_lo + local_t
                for src in tile.col[tile.row[local_t] : tile.row[local_t + 1]]:
                    rebuilt.add((int(src), target))
        assert rebuilt == set(zip(g.src.tolist(), g.dst.tolist()))

    def test_target_ranges_partition_vertex_space(self):
        g = chung_lu_graph(300, 3000, seed=3)
        part = build_tiles(g, avg_tile_edges=500)
        covered = []
        for tile in part.tiles:
            covered.extend(range(tile.target_lo, tile.target_hi))
        assert covered == list(range(g.num_vertices))

    def test_unweighted_tile_drops_val(self):
        part = build_tiles(fig4_graph(), avg_tile_edges=2)
        assert all(t.val is None for t in part.tiles)

    def test_weighted_tile_keeps_val(self):
        g = grid_graph(4, 4, seed=0)
        part = build_tiles(g, avg_tile_edges=8)
        assert all(t.val is not None for t in part.tiles)
        total = sum(t.val.sum() for t in part.tiles)
        assert total == pytest.approx(g.weights.sum())

    def test_serialisation_roundtrip(self):
        g = grid_graph(5, 5, seed=1)
        for tile in build_tiles(g, avg_tile_edges=20).tiles:
            clone = Tile.from_bytes(tile.to_bytes())
            assert clone.tile_id == tile.tile_id
            assert clone.target_lo == tile.target_lo
            assert clone.target_hi == tile.target_hi
            assert np.array_equal(clone.row, tile.row)
            assert np.array_equal(clone.col, tile.col)
            assert np.allclose(clone.val, tile.val)

    def test_serialisation_rejects_garbage(self):
        with pytest.raises(ValueError):
            Tile.from_bytes(b"notatile")
        tile = build_tiles(fig4_graph(), avg_tile_edges=2).tiles[0]
        blob = tile.to_bytes()
        with pytest.raises(ValueError):
            Tile.from_bytes(blob + b"extra")
        with pytest.raises(ValueError):
            Tile.from_bytes(b"XXXX" + blob[4:])

    def test_source_vertices(self):
        part = build_tiles(fig4_graph(), avg_tile_edges=2)
        tile0 = part.tiles[0]  # targets [0, 1): edges (1,0), (3,0)
        assert tile0.source_vertices.tolist() == [1, 3]

    def test_bloom_filter_covers_sources(self):
        g = chung_lu_graph(200, 2000, seed=5)
        for tile in build_tiles(g, avg_tile_edges=300).tiles:
            bf = tile.build_bloom_filter()
            assert bf.contains_many(tile.source_vertices).all()

    def test_compact_vs_csv(self):
        """Table IV's effect: tiles are much smaller than the CSV list."""
        from repro.graph import edge_list_csv_size

        g = chung_lu_graph(2000, 40_000, seed=6)
        part = build_tiles(g, avg_tile_edges=5000)
        assert part.total_tile_bytes() < edge_list_csv_size(g) / 2

    def test_tile_nbytes_accounting(self):
        g = grid_graph(4, 4, seed=3)
        tile = build_tiles(g, avg_tile_edges=100).tiles[0]
        expected = tile.row.nbytes + tile.col.nbytes + tile.val.nbytes
        assert tile.nbytes() == expected

    def test_total_tile_bytes_matches_blobs(self):
        g = chung_lu_graph(200, 2000, seed=4)
        part = build_tiles(g, avg_tile_edges=300)
        assert part.total_tile_bytes() == sum(
            len(t.to_bytes()) for t in part.tiles
        )

    def test_round_robin_assignment(self):
        assignment = assign_tiles_round_robin(10, 3)
        assert assignment == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]
        with pytest.raises(ValueError):
            assign_tiles_round_robin(5, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(1, 60),
        num_edges=st.integers(0, 300),
        tile_size=st.integers(1, 50),
        seed=st.integers(0, 5),
    )
    def test_tile_invariants_property(self, num_vertices, num_edges, tile_size, seed):
        g = erdos_renyi_graph(num_vertices, num_edges, seed=seed)
        part = build_tiles(g, avg_tile_edges=tile_size)
        # Invariant 1: edge conservation.
        assert sum(t.num_edges for t in part.tiles) == g.num_edges
        # Invariant 2: target ranges tile the vertex space exactly.
        assert part.splitter[0] == 0 and part.splitter[-1] == num_vertices
        # Invariant 3: per-tile CSR is self-consistent.
        for tile in part.tiles:
            assert tile.row[0] == 0
            assert tile.row[-1] == tile.num_edges
            assert np.all(np.diff(tile.row) >= 0)


class TestEdgeCut:
    def test_vertices_evenly_spread(self):
        g = chung_lu_graph(1000, 10_000, seed=7)
        part = hash_edge_cut(g, 4)
        counts = part.vertices_per_server()
        assert sum(counts) == g.num_vertices
        assert max(counts) - min(counts) < 0.2 * g.num_vertices / 4 + 10

    def test_edges_follow_source_owner(self):
        g = fig4_graph()
        part = hash_edge_cut(g, 2)
        rebuilt = set()
        for s in range(2):
            vids = part.server_vertices[s]
            indptr = part.server_indptr[s]
            dst = part.server_dst[s]
            for j, v in enumerate(vids.tolist()):
                assert part.vertex_owner[v] == s
                for t in dst[indptr[j] : indptr[j + 1]]:
                    rebuilt.add((v, int(t)))
        assert rebuilt == set(zip(g.src.tolist(), g.dst.tolist()))

    def test_skewed_graph_imbalanced_edges(self):
        """The §II-B.1 weakness: edge counts skew on power-law graphs."""
        g = chung_lu_graph(2000, 40_000, in_exponent=1.8, out_exponent=1.7, seed=8)
        part = hash_edge_cut(g, 8)
        edges = part.edges_per_server()
        assert max(edges) > 1.2 * (sum(edges) / len(edges))

    def test_single_server(self):
        g = fig4_graph()
        part = hash_edge_cut(g, 1)
        assert part.vertices_per_server() == [5]
        assert part.edges_per_server() == [8]

    def test_invalid(self):
        with pytest.raises(ValueError):
            hash_edge_cut(fig4_graph(), 0)


class TestVertexCut:
    @pytest.mark.parametrize("cut", [greedy_vertex_cut, hybrid_vertex_cut])
    def test_all_edges_placed(self, cut):
        g = chung_lu_graph(300, 3000, seed=9)
        part = cut(g, 4)
        assert part.edge_server.size == g.num_edges
        assert part.edge_server.min() >= 0 and part.edge_server.max() < 4
        assert sum(part.edges_per_server()) == g.num_edges

    @pytest.mark.parametrize("cut", [greedy_vertex_cut, hybrid_vertex_cut])
    def test_replicas_cover_edge_endpoints(self, cut):
        g = chung_lu_graph(200, 1500, seed=10)
        part = cut(g, 3)
        for s in range(3):
            sel = part.edge_server == s
            assert part.replica_mask[s, g.src[sel]].all()
            assert part.replica_mask[s, g.dst[sel]].all()

    def test_replication_factor_at_least_one(self):
        g = chung_lu_graph(200, 1500, seed=11)
        part = greedy_vertex_cut(g, 3)
        assert 1.0 <= part.replication_factor <= 3.0

    def test_greedy_balances_load(self):
        g = erdos_renyi_graph(500, 5000, seed=12)
        part = greedy_vertex_cut(g, 4)
        edges = part.edges_per_server()
        assert max(edges) < 1.5 * min(edges) + 10

    def test_hybrid_beats_random_placement_on_skew(self):
        """PowerLyra's pitch: degree-aware placement cuts replication
        versus uninformed (random) edge placement on skewed graphs."""
        from repro.partition.vertex_cut import _finish

        g = chung_lu_graph(2000, 30_000, in_exponent=1.7, seed=13)
        hybrid = hybrid_vertex_cut(g, 8)
        rng = np.random.default_rng(0)
        random_part = _finish(
            g, 8, rng.integers(0, 8, g.num_edges).astype(np.int64)
        )
        assert hybrid.replication_factor < random_part.replication_factor

    def test_master_is_replica_holder(self):
        g = chung_lu_graph(100, 800, seed=14)
        part = greedy_vertex_cut(g, 3)
        touched = np.zeros(g.num_vertices, dtype=bool)
        touched[g.src] = True
        touched[g.dst] = True
        for v in np.flatnonzero(touched):
            assert part.replica_mask[part.master[v], v]

    def test_isolated_vertex_gets_master(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        part = greedy_vertex_cut(g, 2)
        assert 0 <= part.master[2] < 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            greedy_vertex_cut(fig4_graph(), 0)
        with pytest.raises(ValueError):
            hybrid_vertex_cut(fig4_graph(), 0)


class TestStreaming:
    def test_edges_partitioned_by_source(self):
        g = chung_lu_graph(300, 3000, seed=15)
        parts = build_streaming_partitions(g, 5)
        rebuilt = []
        for p in parts:
            assert np.all(p.src >= p.vertex_lo)
            assert np.all(p.src < p.vertex_hi)
            rebuilt.extend(zip(p.src.tolist(), p.dst.tolist()))
        assert sorted(rebuilt) == sorted(zip(g.src.tolist(), g.dst.tolist()))

    def test_vertex_ranges_cover_space(self):
        g = chung_lu_graph(300, 3000, seed=16)
        parts = build_streaming_partitions(g, 4)
        assert parts[0].vertex_lo == 0
        assert parts[-1].vertex_hi == g.num_vertices
        for a, b in zip(parts, parts[1:]):
            assert a.vertex_hi == b.vertex_lo

    def test_partition_cap_respected(self):
        g = chung_lu_graph(300, 3000, seed=17)
        assert len(build_streaming_partitions(g, 4)) <= 4

    def test_serialisation_roundtrip(self):
        g = grid_graph(4, 4, seed=2)
        for p in build_streaming_partitions(g, 3):
            clone = type(p).from_bytes(p.to_bytes())
            assert np.array_equal(clone.src, p.src)
            assert np.array_equal(clone.dst, p.dst)
            assert np.allclose(clone.weights, p.weights)

    def test_single_partition(self):
        g = fig4_graph()
        parts = build_streaming_partitions(g, 1)
        assert len(parts) == 1
        assert parts[0].num_edges == g.num_edges

    def test_invalid(self):
        with pytest.raises(ValueError):
            build_streaming_partitions(fig4_graph(), 0)


class TestTileViews:
    """from_bytes gives zero-copy read-only views; cached index shadows
    never alias engine state (the decoded-cache satellite)."""

    def _weighted_tile(self):
        g = chung_lu_graph(60, 400, seed=5, weighted=True)
        return build_tiles(g, avg_tile_edges=g.num_edges).tiles[0]

    def test_views_are_zero_copy_and_read_only(self):
        tile = self._weighted_tile()
        blob = tile.to_bytes()
        parsed = Tile.from_bytes(blob)
        for arr in (parsed.row, parsed.col, parsed.val):
            assert arr.base is not None  # a view, not a copy
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            parsed.col[0] = 0

    def test_views_never_alias_source_tile(self):
        tile = self._weighted_tile()
        parsed = Tile.from_bytes(tile.to_bytes())
        before = parsed.col.copy()
        tile.col[:] = 0  # mutate the original; the parsed views must hold
        tile.val[:] = -1.0
        assert np.array_equal(parsed.col, before)
        assert (parsed.val != -1.0).all()

    def test_cached_index_shadows(self):
        tile = Tile.from_bytes(self._weighted_tile().to_bytes())
        col64 = tile.col_int64
        assert col64.dtype == np.int64
        assert np.array_equal(col64, tile.col)
        assert tile.col_int64 is col64  # cached, computed once
        row64 = tile.row_int64
        assert row64.dtype == np.int64
        assert np.array_equal(row64, tile.row)
        ids = tile.target_ids
        assert ids.tolist() == list(range(tile.target_lo, tile.target_hi))
        assert tile.target_ids is ids

    def test_unweighted_edge_values_cached_and_read_only(self):
        g = chung_lu_graph(40, 200, seed=9, weighted=False)
        tile = Tile.from_bytes(
            build_tiles(g, avg_tile_edges=g.num_edges).tiles[0].to_bytes()
        )
        assert tile.val is None
        ones = tile.edge_values()
        assert ones.size == tile.num_edges and (ones == 1.0).all()
        assert tile.edge_values() is ones
        with pytest.raises(ValueError):
            ones[0] = 2.0

    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(2, 80),
        num_edges=st.integers(1, 300),
        weighted=st.booleans(),
        seed=st.integers(0, 1000),
    )
    def test_roundtrip_views_equal_original(
        self, num_vertices, num_edges, weighted, seed
    ):
        g = erdos_renyi_graph(num_vertices, num_edges, seed=seed, weighted=weighted)
        for tile in build_tiles(g, avg_tile_edges=max(1, g.num_edges // 3)).tiles:
            parsed = Tile.from_bytes(tile.to_bytes())
            assert np.array_equal(parsed.row, tile.row)
            assert np.array_equal(parsed.col, tile.col)
            if weighted:
                assert np.array_equal(parsed.val, tile.val)
            else:
                assert parsed.val is None
            # A second serialise from the parsed views is byte-identical.
            assert parsed.to_bytes() == tile.to_bytes()


class TestEdgeIndex:
    """The slab's source -> positions map: each vertex's out-edge
    positions, ascending, whatever the chunking of the build."""

    @staticmethod
    def _expected(col, frontier, num_vertices):
        mask = np.zeros(num_vertices, dtype=bool)
        mask[frontier] = True
        return np.flatnonzero(mask[col])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_vertices=st.sampled_from([1, 5, 300, (1 << 16) + 3]),
        size=st.integers(0, 400),
        chunk=st.sampled_from([1, 3, 64, 1 << 16]),
    )
    def test_positions_are_the_frontiers_edges(self, seed, num_vertices, size, chunk):
        rng = np.random.default_rng(seed)
        # Few distinct sources: long runs of duplicates within and
        # across chunks.
        sources = rng.integers(0, num_vertices, 6)
        col = rng.choice(sources, size).astype(np.int64)
        saved = tiles_module.INDEX_CHUNK
        tiles_module.INDEX_CHUNK = chunk
        try:
            index = EdgeIndex(col, num_vertices)
        finally:
            tiles_module.INDEX_CHUNK = saved
        assert index.nbytes == 4 * (num_vertices + 1) + 3 * size
        frontiers = [
            np.zeros(0, dtype=np.int64),
            np.arange(num_vertices, dtype=np.int64),
            np.sort(rng.choice(num_vertices, min(num_vertices, 4), replace=False)),
        ]
        for frontier in frontiers:
            got = index.positions(frontier)
            assert got.dtype == np.int64
            assert np.array_equal(got, self._expected(col, frontier, num_vertices))

    def test_positions_past_two_to_the_sixteen(self):
        """The high part of a position: a slab of 200 k edges."""
        rng = np.random.default_rng(5)
        col = rng.integers(0, 1000, 200_000).astype(np.int64)
        index = EdgeIndex(col, 1000)
        assert index.high.dtype == np.uint8 and index.ptr.dtype == np.uint32
        for frontier in (np.array([0, 999]), np.arange(0, 1000, 7)):
            assert np.array_equal(
                index.positions(frontier), self._expected(col, frontier, 1000)
            )
