"""Tests for the cost model, Table III formulas, and replication model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Counters
from repro.metrics import (
    CostModel,
    TABLE3,
    expected_memory_aa,
    expected_memory_od,
    expected_od_vertices,
)
from repro.metrics.formulas import GraphParams


def make_spec(**kw):
    defaults = dict(
        num_servers=2,
        workers_per_server=10,
        disk_read_bps=100.0,
        disk_write_bps=50.0,
        network_bps=1000.0,
        compute_edges_per_sec_per_worker=100.0,
        superstep_sync_overhead_s=0.0,
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


class TestCostModel:
    def test_disk_time(self):
        c = Counters()
        c.disk_read = 200
        c.disk_write = 50
        cost = CostModel(make_spec()).server_time(c)
        assert cost.disk_s == pytest.approx(200 / 100 + 50 / 50)

    def test_compute_parallelises_over_workers(self):
        c = Counters()
        c.edges_processed = 1000
        cost = CostModel(make_spec()).server_time(c)
        assert cost.compute_s == pytest.approx(1000 / (100 * 10))

    def test_network_time(self):
        c = Counters()
        c.net_sent = 500
        c.net_recv = 2000
        cost = CostModel(make_spec()).server_time(c)
        assert cost.network_s == pytest.approx(2000 / 1000)

    def test_decompress_time_uses_codec_model(self):
        c = Counters()
        c.add_decompressed("zlib1", 60 * 1024 * 1024)  # 60 MB at 60 MB/s
        cost = CostModel(make_spec()).server_time(c)
        assert cost.decompress_s == pytest.approx(1.0 / 10)  # ÷ 10 workers

    def test_raw_codec_is_free(self):
        c = Counters()
        c.add_decompressed("raw", 10**9)
        assert CostModel(make_spec()).server_time(c).decompress_s == 0.0

    def test_scale_factor(self):
        c = Counters()
        c.disk_read = 100
        small = CostModel(make_spec()).server_time(c).disk_s
        big = CostModel(make_spec(), scale_factor=10).server_time(c).disk_s
        assert big == pytest.approx(10 * small)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            CostModel(make_spec(), scale_factor=0)

    def test_superstep_straggler_gates(self):
        fast, slow = Counters(), Counters()
        fast.edges_processed = 10
        slow.edges_processed = 10_000
        cost = CostModel(make_spec()).superstep_time([fast, slow])
        assert cost.compute_s == pytest.approx(10_000 / (100 * 10))

    def test_superstep_includes_sync(self):
        spec = make_spec(superstep_sync_overhead_s=0.5)
        cost = CostModel(spec).superstep_time([Counters()])
        assert cost.sync_s == 0.5
        assert cost.total_s == pytest.approx(0.5)

    def test_empty_server_list(self):
        with pytest.raises(ValueError):
            CostModel(make_spec()).superstep_time([])


class TestTable3:
    def params(self, **kw):
        defaults = dict(
            num_vertices=1000,
            num_edges=40_000,
            num_servers=9,
            num_partitions=100,
            combine_ratio=0.8,
            replication_factor=5.0,
            cache_miss_ratio=0.1,
        )
        defaults.update(kw)
        return GraphParams(**defaults)

    def test_all_five_systems_present(self):
        assert set(TABLE3) == {"pregel+", "powergraph", "graphd", "chaos", "graphh"}

    def test_memory_ordering_matches_figure1a(self):
        """Out-of-core << hybrid << in-memory per-server RAM."""
        p = self.params()
        ram = {name: f.ram_total(p) for name, f in TABLE3.items()}
        assert ram["graphd"] < ram["graphh"]
        assert ram["chaos"] < ram["graphh"]
        assert ram["graphh"] < ram["pregel+"]
        assert ram["graphh"] < ram["powergraph"]

    def test_graphd_streams_edges(self):
        p = self.params()
        assert TABLE3["graphd"].ram_edges(p) == 0
        assert TABLE3["graphd"].disk_read(p) > 0

    def test_graphh_network_scales_with_vertices_not_edges(self):
        dense = self.params(num_edges=400_000)
        sparse = self.params(num_edges=4_000)
        f = TABLE3["graphh"]
        assert f.network(dense) == f.network(sparse)
        assert TABLE3["pregel+"].network(dense) > TABLE3["pregel+"].network(sparse)

    def test_graphh_disk_goes_to_zero_with_full_cache(self):
        assert TABLE3["graphh"].disk_read(self.params(cache_miss_ratio=0.0)) == 0

    def test_chaos_everything_crosses_network(self):
        p = self.params()
        assert TABLE3["chaos"].network(p) > TABLE3["chaos"].disk_read(p)

    def test_powergraph_double_edge_storage(self):
        p = self.params()
        assert TABLE3["powergraph"].ram_edges(p) == pytest.approx(
            2 * TABLE3["pregel+"].ram_edges(p)
        )


class TestCombineRatio:
    def test_paper_example(self):
        """Footnote 3: EU-2015 (d=85.7) with 216 workers → eta ≈ 0.82."""
        from repro.metrics.formulas import estimate_combine_ratio

        assert estimate_combine_ratio(85.7, 216) == pytest.approx(0.82, abs=0.02)

    def test_limits(self):
        from repro.metrics.formulas import estimate_combine_ratio

        # Many workers relative to degree: almost no combining.
        assert estimate_combine_ratio(1.0, 10_000) == pytest.approx(1.0, abs=0.01)
        # One worker, huge degree: near-total combining.
        assert estimate_combine_ratio(1000.0, 1) == pytest.approx(0.001, abs=1e-3)

    def test_monotone_in_degree(self):
        from repro.metrics.formulas import estimate_combine_ratio

        etas = [estimate_combine_ratio(d, 216) for d in (10, 40, 80, 160)]
        assert etas == sorted(etas, reverse=True)

    def test_validation(self):
        from repro.metrics.formulas import estimate_combine_ratio

        with pytest.raises(ValueError):
            estimate_combine_ratio(0, 10)
        with pytest.raises(ValueError):
            estimate_combine_ratio(10, 0)


class TestReplicationModel:
    def test_aa_independent_of_servers(self):
        assert expected_memory_aa(1000, 1) == expected_memory_aa(1000, 64)

    def test_aa_bytes_per_vertex(self):
        assert expected_memory_aa(10**6) == 20 * 10**6

    def test_od_vertices_bounded_by_v(self):
        assert expected_od_vertices(1000, 85.7, 1) <= 1000

    def test_od_decreases_with_servers(self):
        prev = math.inf
        for n in (1, 2, 4, 8, 16, 64):
            cur = expected_od_vertices(10**6, 40.0, n)
            assert cur <= prev + 1e-9
            prev = cur

    def test_figure6a_shape_small_cluster_aa_wins(self):
        """Fig 6a: AA cheaper than OD for every graph at N < 16."""
        for avg_deg in (35.3, 41.2, 60.4, 85.7):
            for n in range(1, 16):
                assert expected_memory_aa(10**6, n) <= expected_memory_od(
                    10**6, avg_deg, n
                )

    def test_figure6a_shape_large_cluster_od_wins_eu2015(self):
        """Fig 6a: for EU-2015 (d=85.7) AA is no worse below N=16, and
        OD is cheaper somewhere in 16..128."""
        v, d = 10**6, 85.7
        assert all(
            expected_memory_aa(v, n) <= expected_memory_od(v, d, n)
            for n in range(1, 16)
        )
        assert any(
            expected_memory_od(v, d, n) < expected_memory_aa(v, n)
            for n in range(16, 129)
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            expected_od_vertices(10, 5.0, 0)
        with pytest.raises(ValueError):
            expected_memory_aa(-1)

    @given(
        v=st.integers(1, 10**7),
        d=st.floats(0.1, 200),
        n=st.integers(1, 128),
    )
    def test_od_bounds_property(self, v, d, n):
        e = expected_od_vertices(v, d, n)
        assert v / n - 1e-6 <= e <= v + 1e-6
