"""Tests for binary I/O, Watts-Strogatz, streaming generation, and the
run trace export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.graph import (
    Graph,
    chung_lu_graph,
    erdos_renyi_edge_stream,
    graph_from_edge_stream,
    grid_graph,
    load_edge_list_binary,
    rmat_edge_stream,
    rmat_graph_streamed,
    save_edge_list_binary,
    save_edge_list_csv,
    watts_strogatz_graph,
)
from repro.obs.report import build_run_report, load_run_report, save_run_report


class TestStreamingGenerators:
    """Chunked edge streams: deterministic in (seed, chunk_edges), with
    only the output arrays at |E| size."""

    def test_streamed_rmat_is_deterministic(self):
        a = rmat_graph_streamed(scale=10, edge_factor=8, seed=7, chunk_edges=500)
        b = rmat_graph_streamed(scale=10, edge_factor=8, seed=7, chunk_edges=500)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert a.num_edges == 8 * 1024

    def test_chunks_are_consumption_independent(self):
        """Chunk i depends only on (seed, chunk_edges) — reading a
        prefix of the stream yields the same chunks as reading it all."""
        full = list(rmat_edge_stream(scale=9, edge_factor=8, seed=3, chunk_edges=700))
        prefix_iter = rmat_edge_stream(scale=9, edge_factor=8, seed=3, chunk_edges=700)
        first = next(prefix_iter)
        assert np.array_equal(first[0], full[0][0])
        assert np.array_equal(first[1], full[0][1])
        # Last chunk carries the remainder.
        assert sum(s.size for s, _ in full) == 8 * 512

    def test_weighted_stream_assembly(self):
        g = rmat_graph_streamed(scale=8, edge_factor=4, seed=5, weighted=True)
        assert g.is_weighted
        assert g.weights.size == g.num_edges
        assert (g.weights >= 1.0).all() and (g.weights < 10.0).all()

    def test_er_stream_respects_bounds(self):
        g = graph_from_edge_stream(
            50,
            300,
            erdos_renyi_edge_stream(50, 300, seed=9, chunk_edges=77),
            name="er-stream",
        )
        assert g.num_edges == 300
        assert int(g.src.max()) < 50 and int(g.dst.max()) < 50

    def test_edge_count_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="more than"):
            graph_from_edge_stream(
                50, 100, erdos_renyi_edge_stream(50, 200, seed=1)
            )
        with pytest.raises(ValueError, match="expected"):
            graph_from_edge_stream(
                50, 300, erdos_renyi_edge_stream(50, 200, seed=1)
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="chunk_edges"):
            list(rmat_edge_stream(scale=4, chunk_edges=0))
        with pytest.raises(ValueError, match="scale"):
            list(rmat_edge_stream(scale=-1))


class TestBinaryIO:
    def test_roundtrip_unweighted(self, tmp_path):
        g = chung_lu_graph(100, 800, seed=100)
        path = tmp_path / "g.bin"
        save_edge_list_binary(g, path)
        g2 = load_edge_list_binary(path)
        assert g2.num_vertices == g.num_vertices
        assert np.array_equal(g.src, g2.src)
        assert np.array_equal(g.dst, g2.dst)
        assert not g2.is_weighted

    def test_roundtrip_weighted(self, tmp_path):
        g = grid_graph(5, 5, seed=101)
        path = tmp_path / "g.bin"
        save_edge_list_binary(g, path)
        g2 = load_edge_list_binary(path)
        assert np.allclose(g.weights, g2.weights)

    def test_binary_smaller_than_csv(self, tmp_path):
        # Realistic id widths (5-6 decimal digits) are where the fixed
        # 8 B/edge binary layout wins over text.
        g = chung_lu_graph(200_000, 50_000, seed=102)
        csv_bytes = save_edge_list_csv(g, tmp_path / "g.csv")
        bin_bytes = save_edge_list_binary(g, tmp_path / "g.bin")
        assert bin_bytes < csv_bytes

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_edge_list_binary(path)

    def test_rejects_truncation(self, tmp_path):
        g = chung_lu_graph(30, 100, seed=103)
        path = tmp_path / "g.bin"
        save_edge_list_binary(g, path)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError):
            load_edge_list_binary(path)

    def test_empty_graph(self, tmp_path):
        g = Graph.from_edges([], num_vertices=5)
        path = tmp_path / "g.bin"
        save_edge_list_binary(g, path)
        g2 = load_edge_list_binary(path)
        assert g2.num_vertices == 5 and g2.num_edges == 0


class TestWattsStrogatz:
    def test_shape(self):
        g = watts_strogatz_graph(100, k=4, rewire_prob=0.0, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 400
        # Without rewiring, perfectly regular.
        assert np.all(g.out_degrees == 4)
        assert np.all(g.in_degrees == 4)

    def test_rewiring_breaks_regularity(self):
        g = watts_strogatz_graph(200, k=4, rewire_prob=0.5, seed=2)
        assert g.in_degrees.std() > 0

    def test_full_rewire_is_random(self):
        g = watts_strogatz_graph(200, k=4, rewire_prob=1.0, seed=3)
        # Ring structure gone: not all targets are near their source.
        gaps = (g.dst - g.src) % 200
        assert (gaps > 8).mean() > 0.5

    def test_deterministic(self):
        a = watts_strogatz_graph(50, seed=4)
        b = watts_strogatz_graph(50, seed=4)
        assert np.array_equal(a.dst, b.dst)

    def test_validation(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(1)
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, k=0)
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, k=10)
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, rewire_prob=1.5)

    @settings(max_examples=20)
    @given(
        n=st.integers(2, 60),
        data=st.data(),
        p=st.floats(0, 1),
    )
    def test_edge_count_property(self, n, data, p):
        k = data.draw(st.integers(1, n - 1))
        g = watts_strogatz_graph(n, k=k, rewire_prob=p, seed=5)
        assert g.num_edges == n * k


class TestTrace:
    def test_trace_and_json_export(self, tmp_path):
        g = chung_lu_graph(80, 600, seed=104, name="trace-g")
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(g, 100, name="trace-g")
            result = MPE(cluster, manifest, MPEConfig(max_supersteps=5)).run(
                PageRank()
            )
        trace = result.trace()
        assert len(trace) == result.num_supersteps
        assert trace[0]["superstep"] == 0
        assert trace[0]["updated_vertices"] == 80
        assert "modeled_s" in trace[0]
        assert trace[0]["modeled_s"]["total"] > 0

        path = tmp_path / "trace.json"
        save_run_report(build_run_report(result), str(path))
        loaded = load_run_report(str(path))
        assert loaded["supersteps"][0]["net_bytes"] == trace[0]["net_bytes"]
        assert isinstance(loaded["converged"], bool)
