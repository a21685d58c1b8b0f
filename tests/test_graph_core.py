"""Tests for the Graph representation and generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DATASETS,
    Graph,
    chung_lu_graph,
    compute_stats,
    erdos_renyi_graph,
    grid_graph,
    load_dataset,
    load_edge_list_csv,
    rmat_graph,
    save_edge_list_csv,
)


def small_graph() -> Graph:
    # The 5-vertex example from the paper's Figure 4.
    edges = [(1, 0), (3, 0), (0, 2), (1, 2), (2, 3), (4, 3), (1, 4), (2, 4)]
    return Graph.from_edges(edges, num_vertices=5, name="fig4")


class TestGraphBasics:
    def test_counts(self):
        g = small_graph()
        assert g.num_vertices == 5
        assert g.num_edges == 8
        assert g.avg_degree == pytest.approx(1.6)

    def test_degrees(self):
        g = small_graph()
        assert g.in_degrees.tolist() == [2, 0, 2, 2, 2]
        assert g.out_degrees.tolist() == [1, 3, 2, 1, 1]

    def test_neighbors(self):
        g = small_graph()
        indptr, dst, _ = g.csr_arrays()
        cindptr, src, _ = g.csc_arrays()
        assert sorted(src[cindptr[0] : cindptr[1]].tolist()) == [1, 3]
        assert sorted(dst[indptr[1] : indptr[2]].tolist()) == [0, 2, 4]
        assert cindptr[2] == cindptr[1]  # vertex 1 has no in-neighbors

    def test_csr_csc_consistency(self):
        g = small_graph()
        indptr, dst, w = g.csr_arrays()
        assert indptr[-1] == g.num_edges
        assert w.tolist() == [1.0] * 8
        # Rebuild edge multiset from CSR and compare.
        rebuilt = set()
        for v in range(g.num_vertices):
            for t in dst[indptr[v] : indptr[v + 1]]:
                rebuilt.add((v, int(t)))
        assert rebuilt == set(zip(g.src.tolist(), g.dst.tolist()))

        cindptr, csrc, _ = g.csc_arrays()
        rebuilt_csc = set()
        for v in range(g.num_vertices):
            for s in csrc[cindptr[v] : cindptr[v + 1]]:
                rebuilt_csc.add((int(s), v))
        assert rebuilt_csc == rebuilt

    def test_unweighted_default_weights(self):
        g = small_graph()
        assert not g.is_weighted
        assert np.all(g.edge_weights() == 1.0)

    def test_weighted(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2, weights=np.array([2.5]))
        assert g.is_weighted
        assert g.edge_weights().tolist() == [2.5]

    def test_reversed(self):
        g = small_graph().reversed()
        indptr, dst, _ = g.csr_arrays()
        assert sorted(dst[indptr[0] : indptr[1]].tolist()) == [1, 3]

    def test_empty_graph(self):
        g = Graph.from_edges([], num_vertices=3)
        assert g.num_edges == 0
        assert g.in_degrees.tolist() == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 5)], num_vertices=3)
        with pytest.raises(ValueError):
            Graph(3, np.array([0]), np.array([1, 2]))
        with pytest.raises(ValueError):
            Graph(-1, np.zeros(0, np.int64), np.zeros(0, np.int64))
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 1)], num_vertices=2, weights=np.array([1.0, 2.0]))

    def test_without_duplicate_edges(self):
        g = Graph.from_edges([(0, 1), (0, 1), (1, 0)], num_vertices=2)
        assert g.without_duplicate_edges().num_edges == 2

    def test_to_undirected(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2).to_undirected_edges()
        assert g.num_edges == 2
        assert sorted(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (1, 0)]

    def test_repr(self):
        assert "fig4" in repr(small_graph())


class TestGenerators:
    def test_rmat_shape(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=1)
        assert g.num_vertices == 256
        assert g.num_edges == 2048

    def test_rmat_deterministic(self):
        a = rmat_graph(scale=6, seed=5)
        b = rmat_graph(scale=6, seed=5)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_rmat_is_skewed(self):
        g = rmat_graph(scale=10, edge_factor=16, seed=2)
        assert g.in_degrees.max() > 5 * g.avg_degree

    def test_rmat_invalid(self):
        with pytest.raises(ValueError):
            rmat_graph(scale=-1)
        with pytest.raises(ValueError):
            rmat_graph(scale=2, a=0.9, b=0.3, c=0.3)

    def test_chung_lu_profile(self):
        g = chung_lu_graph(2000, 40_000, seed=3)
        assert g.num_vertices == 2000
        assert g.num_edges == 40_000
        # In-degree skew should dominate out-degree skew.
        assert g.in_degrees.max() > g.out_degrees.max()

    def test_chung_lu_invalid(self):
        with pytest.raises(ValueError):
            chung_lu_graph(0, 10)

    def test_erdos_renyi(self):
        g = erdos_renyi_graph(100, 500, seed=4)
        assert g.num_edges == 500
        assert g.in_degrees.max() < 30  # no heavy tail

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        # 2*( (3*3) + (2*4) ) = 34 directed edges.
        assert g.num_edges == 34
        assert g.is_weighted

    def test_grid_symmetric_weights(self):
        g = grid_graph(4, 4, seed=9)
        pairs = {}
        for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist()):
            pairs[(s, d)] = w
        for (s, d), w in pairs.items():
            assert pairs[(d, s)] == w

    def test_weighted_generators(self):
        assert rmat_graph(4, seed=0, weighted=True).is_weighted
        assert chung_lu_graph(50, 100, seed=0, weighted=True).is_weighted
        assert erdos_renyi_graph(50, 100, seed=0, weighted=True).is_weighted


class TestDatasets:
    def test_registry_has_all_four(self):
        assert set(DATASETS) == {
            "twitter2010-s",
            "uk2007-s",
            "uk2014-s",
            "eu2015-s",
        }

    def test_load_dataset_matches_avg_degree(self):
        g = load_dataset("uk2007-s", tier="test")
        spec = DATASETS["uk2007-s"]
        assert g.avg_degree == pytest.approx(spec.avg_degree, rel=0.05)

    def test_relative_scale_preserved(self):
        tw = DATASETS["twitter2010-s"].sizes("test")
        eu = DATASETS["eu2015-s"].sizes("test")
        paper_ratio = DATASETS["eu2015-s"].paper_edges / DATASETS[
            "twitter2010-s"
        ].paper_edges
        assert eu[1] / tw[1] == pytest.approx(paper_ratio, rel=0.2)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("no-such-graph")

    def test_unknown_tier(self):
        with pytest.raises(ValueError):
            DATASETS["uk2007-s"].sizes("huge")


class TestIO:
    def test_csv_roundtrip_unweighted(self, tmp_path):
        g = erdos_renyi_graph(50, 200, seed=7)
        path = tmp_path / "g.csv"
        nbytes = save_edge_list_csv(g, path)
        assert nbytes == path.stat().st_size
        g2 = load_edge_list_csv(path, num_vertices=50)
        assert set(zip(g.src.tolist(), g.dst.tolist())) == set(
            zip(g2.src.tolist(), g2.dst.tolist())
        )

    def test_csv_roundtrip_weighted(self, tmp_path):
        g = grid_graph(3, 3, seed=1)
        path = tmp_path / "g.csv"
        save_edge_list_csv(g, path)
        g2 = load_edge_list_csv(path)
        assert g2.is_weighted
        assert np.allclose(np.sort(g.weights), np.sort(g2.weights), atol=1e-3)

    def test_csv_size_estimate_matches_file(self, tmp_path):
        from repro.graph import edge_list_csv_size

        g = erdos_renyi_graph(30, 100, seed=8)
        path = tmp_path / "g.csv"
        actual = save_edge_list_csv(g, path)
        assert edge_list_csv_size(g) == actual


class TestStats:
    def test_stats_columns(self):
        g = small_graph()
        stats = compute_stats(g)
        assert stats.num_vertices == 5
        assert stats.num_edges == 8
        assert stats.max_in_degree == 2
        assert stats.max_out_degree == 3
        assert stats.csv_bytes > 0
        assert len(stats.row()) == 7

    def test_stats_skip_csv(self):
        stats = compute_stats(small_graph(), include_csv_size=False)
        assert stats.csv_bytes == 0


@settings(max_examples=30)
@given(
    num_vertices=st.integers(1, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
)
def test_degree_sums_equal_edge_count(num_vertices, edges):
    edges = [(s % num_vertices, d % num_vertices) for s, d in edges]
    g = Graph.from_edges(edges, num_vertices=num_vertices)
    assert g.in_degrees.sum() == g.num_edges
    assert g.out_degrees.sum() == g.num_edges
    indptr, _, _ = g.csr_arrays()
    assert indptr[-1] == g.num_edges
