"""Tests for the partition-quality metrics (Figure 2's strategies quantified)."""

import pytest

from repro.graph import chung_lu_graph
from repro.partition import (
    build_tiles,
    greedy_vertex_cut,
    hash_edge_cut,
    hybrid_vertex_cut,
)
from repro.partition.quality import (
    edge_cut_quality,
    tile_quality,
    vertex_cut_quality,
)


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(400, 6000, seed=110)


class TestPartitionQuality:
    def test_edge_cut_row(self, skewed):
        q = edge_cut_quality(skewed, hash_edge_cut(skewed, 4), combine_ratio=0.8)
        assert q.replication_factor == 1.0
        assert q.edge_balance >= 1.0
        assert q.est_messages_per_superstep == pytest.approx(
            0.8 * skewed.num_edges
        )
        assert len(q.row()) == 6

    def test_vertex_cut_row(self, skewed):
        part = greedy_vertex_cut(skewed, 4)
        q = vertex_cut_quality(skewed, part, strategy="greedy")
        assert q.replication_factor == pytest.approx(part.replication_factor)
        assert q.est_messages_per_superstep == pytest.approx(
            2 * part.total_replicas()
        )

    def test_tile_row(self, skewed):
        part = build_tiles(skewed, max(1, skewed.num_edges // 12))
        q = tile_quality(skewed, part, num_servers=3)
        assert q.replication_factor == 3.0
        assert q.est_messages_per_superstep == 2 * skewed.num_vertices

    def test_greedy_better_edge_balance_than_hybrid(self, skewed):
        greedy = vertex_cut_quality(skewed, greedy_vertex_cut(skewed, 4))
        hybrid = vertex_cut_quality(skewed, hybrid_vertex_cut(skewed, 4))
        assert greedy.edge_balance <= hybrid.edge_balance + 0.1

    def test_tiles_balance_edges_well(self, skewed):
        part = build_tiles(skewed, max(1, skewed.num_edges // 24))
        q = tile_quality(skewed, part, num_servers=4)
        assert q.edge_balance < 2.0

    def test_single_server_perfect_balance(self, skewed):
        q = edge_cut_quality(skewed, hash_edge_cut(skewed, 1))
        assert q.edge_balance == 1.0
        assert q.vertex_balance == 1.0
