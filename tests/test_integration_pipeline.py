"""End-to-end pipeline integration tests.

These exercise the seams the unit tests cannot: CSV on disk → CLI-style
load → SPE over DFS with a failed datanode → MPE with constrained cache
and OD policy → results validated, traced, checkpointed, and re-derived
after relabeling.  Each test is a miniature of a real deployment story.
"""

import numpy as np
import pytest

from repro.apps import PageRank, SSSP, reference_solution
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE, GraphH
from repro.graph import (
    chung_lu_graph,
    load_edge_list_csv,
    rmat_graph,
    save_edge_list_csv,
)
from repro.graph.reorder import (
    apply_relabeling,
    degree_sort_relabel,
    invert_relabeling,
)
from repro.obs.report import build_run_report, load_run_report, save_run_report


class TestEndToEnd:
    def test_csv_to_results_with_every_knob_on(self, tmp_path):
        """CSV file → GraphH with cache limits, OD policy, balanced
        placement, checkpointing, compression — answers still exact."""
        graph = rmat_graph(scale=9, edge_factor=8, seed=31, name="e2e")
        path = tmp_path / "g.csv"
        save_edge_list_csv(graph, path)
        loaded = load_edge_list_csv(path, num_vertices=graph.num_vertices)
        expected, _ = reference_solution(PageRank(), loaded, 300)

        config = MPEConfig(
            cache_capacity_bytes=4096,
            message_codec="zlib1",
            comm_mode="hybrid",
            replication_policy="od",
            tile_assignment="balanced",
            checkpoint_every=5,
        )
        with GraphH(num_servers=3, config=config) as gh:
            gh.load_graph(loaded, name="e2e")
            result = gh.run(PageRank())
        assert result.converged
        assert np.allclose(result.values, expected, atol=1e-6)

    def test_datanode_failure_mid_pipeline(self):
        """SPE persists tiles; a datanode dies; repair + MPE still work."""
        graph = chung_lu_graph(200, 2000, seed=32, name="failover")
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(graph, 300, name="failover")
            cluster.dfs.fail_datanode(1)
            cluster.dfs.repair()
            result = MPE(cluster, manifest, MPEConfig()).run(PageRank())
            expected, _ = reference_solution(PageRank(), graph, 300)
            assert np.allclose(result.values, expected, atol=1e-6)

    def test_relabel_compute_unrelabel(self):
        """The locality-preprocessing workflow returns original-id results."""
        graph = chung_lu_graph(300, 3000, seed=33, name="relabel")
        new_ids = degree_sort_relabel(graph)
        relabeled = apply_relabeling(graph, new_ids)
        with GraphH(num_servers=2) as gh:
            gh.load_graph(relabeled, name="rl")
            ranks_shuffled = gh.run(PageRank()).values
        ranks = invert_relabeling(ranks_shuffled, new_ids)
        expected, _ = reference_solution(PageRank(), graph, 300)
        assert np.allclose(ranks, expected, atol=1e-6)

    def test_trace_roundtrips_through_json(self, tmp_path):
        graph = chung_lu_graph(100, 800, seed=34, name="trace-e2e")
        with GraphH(num_servers=2) as gh:
            gh.load_graph(graph)
            result = gh.run(SSSP(source=0))
        path = tmp_path / "trace.json"
        save_run_report(build_run_report(result), str(path))
        trace = load_run_report(str(path))
        assert trace["converged"] == result.converged
        assert len(trace["supersteps"]) == result.num_supersteps
        # Modeled totals must equal the component sums.
        for step in trace["supersteps"]:
            m = step["modeled_s"]
            assert m["total"] == pytest.approx(
                m["disk"]
                + m["network"]
                + m["decompress"]
                + m["compute"]
                + m["sync"]
                + m["fault"]
                + m["probe"]
            )

    def test_two_graphs_one_cluster(self):
        """The DFS namespaces datasets; two graphs coexist."""
        g1 = chung_lu_graph(100, 800, seed=35, name="first")
        g2 = chung_lu_graph(120, 900, seed=36, name="second")
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            spe = SPE(cluster.dfs)
            m1 = spe.preprocess(g1, 200, name="first")
            m2 = spe.preprocess(g2, 200, name="second")
            r1 = MPE(cluster, m1, MPEConfig()).run(PageRank())
            r2 = MPE(cluster, m2, MPEConfig()).run(PageRank())
            e1, _ = reference_solution(PageRank(), g1, 300)
            e2, _ = reference_solution(PageRank(), g2, 300)
            assert np.allclose(r1.values, e1, atol=1e-6)
            assert np.allclose(r2.values, e2, atol=1e-6)

    def test_weighted_graph_full_pipeline(self, tmp_path):
        from repro.graph import grid_graph

        graph = grid_graph(10, 10, seed=37, name="roads")
        path = tmp_path / "roads.csv"
        save_edge_list_csv(graph, path)
        loaded = load_edge_list_csv(path)
        with GraphH(num_servers=2) as gh:
            gh.load_graph(loaded, name="roads")
            result = gh.run(SSSP(source=0))
        expected, _ = reference_solution(SSSP(source=0), graph, 300)
        # CSV stores weights at 3 decimals; distances differ accordingly.
        assert np.allclose(result.values, expected, atol=0.05)
