"""Baseline engines: correctness vs reference + Table III behaviours."""

import dataclasses
import hashlib
import numbers

import numpy as np
import pytest

from repro.apps import (
    BFS,
    SSSP,
    WCC,
    PageRank,
    PersonalizedPageRank,
    reference_solution,
)
from repro.baselines import (
    ChaosEngine,
    GASEngine,
    GraphDEngine,
    GridGraphEngine,
    PregelEngine,
    SYSTEM_PRESETS,
    make_engine,
)
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.counters import Counters
from repro.graph import chung_lu_graph, grid_graph


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(200, 2000, seed=50)


@pytest.fixture(scope="module")
def road():
    return grid_graph(7, 7, seed=51)


def run_engine(factory, graph, program, num_servers=3, **kw):
    with Cluster(ClusterSpec(num_servers=num_servers)) as cluster:
        engine = factory(cluster, **kw)
        return engine.run(program, graph)


ENGINES = [PregelEngine, GraphDEngine, GASEngine, ChaosEngine]


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_pagerank_matches_reference(self, engine_cls, skewed):
        expected, _ = reference_solution(PageRank(), skewed, 200)
        result = run_engine(engine_cls, skewed, PageRank())
        assert np.allclose(result.values, expected, atol=1e-6)
        assert result.converged

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_sssp_matches_reference(self, engine_cls, road):
        expected, _ = reference_solution(SSSP(source=0), road, 200)
        result = run_engine(engine_cls, road, SSSP(source=0))
        assert np.allclose(result.values, expected)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_wcc_matches_reference(self, engine_cls):
        g = chung_lu_graph(100, 350, seed=52).to_undirected_edges()
        expected, _ = reference_solution(WCC(), g, 200)
        result = run_engine(engine_cls, g, WCC())
        assert np.array_equal(result.values, expected)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_bfs_matches_reference(self, engine_cls, road):
        expected, _ = reference_solution(BFS(source=3), road, 200)
        result = run_engine(engine_cls, road, BFS(source=3))
        assert np.allclose(result.values, expected)

    @pytest.mark.parametrize("num_servers", [1, 2, 6])
    def test_cluster_width_invariance(self, skewed, num_servers):
        expected, _ = reference_solution(PageRank(), skewed, 200)
        for engine_cls in ENGINES:
            result = run_engine(
                engine_cls, skewed, PageRank(), num_servers=num_servers
            )
            assert np.allclose(result.values, expected, atol=1e-6), engine_cls

    def test_all_presets_run(self, skewed):
        expected, _ = reference_solution(PageRank(), skewed, 200)
        for name in SYSTEM_PRESETS:
            with Cluster(ClusterSpec(num_servers=2)) as cluster:
                engine = make_engine(name, cluster)
                result = engine.run(PageRank(), skewed)
                assert np.allclose(result.values, expected, atol=1e-6), name

    def test_unknown_preset(self):
        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            with pytest.raises(KeyError):
                make_engine("neo4j", cluster)


class TestTable3Behaviours:
    def test_pregel_keeps_edges_in_memory_graphd_does_not(self, skewed):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            PregelEngine(cluster).run(PageRank(), skewed, max_supersteps=3)
            mem_edges = sum(s.counters.mem_edges for s in cluster.servers)
            disk = sum(s.counters.disk_read for s in cluster.servers)
            assert mem_edges >= skewed.num_edges * 8
            assert disk == 0
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            GraphDEngine(cluster).run(PageRank(), skewed, max_supersteps=3)
            mem_edges = sum(s.counters.mem_edges for s in cluster.servers)
            disk = sum(s.counters.disk_read for s in cluster.servers)
            assert mem_edges == 0
            assert disk > 0

    def test_powergraph_double_edge_memory(self, skewed):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            GASEngine(cluster).run(PageRank(), skewed, max_supersteps=3)
            mem_edges = sum(s.counters.mem_edges for s in cluster.servers)
            assert mem_edges == 2 * skewed.num_edges * 8

    def test_gas_network_scales_with_replicas_not_edges(self, skewed):
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            engine = GASEngine(cluster)
            result = engine.run(PageRank(), skewed, max_supersteps=3)
            m_total = engine.partition.total_replicas()
            per_step = result.supersteps[1].net_bytes
            # gather partials + value sync ≈ 2 × (replicas - masters) msgs.
            mirrors = m_total - skewed.num_vertices
            assert per_step <= 2 * 1.1 * mirrors * 12 + 1000

    def test_chaos_disk_traffic_every_superstep(self, skewed):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            result = ChaosEngine(cluster).run(PageRank(), skewed, max_supersteps=3)
            for step in result.supersteps:
                # Edges cross the disk every superstep — no caching.
                assert step.disk_read_bytes >= skewed.num_edges * 8

    def test_chaos_network_equals_storage_traffic(self, skewed):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            ChaosEngine(cluster).run(PageRank(), skewed, max_supersteps=3)
            agg = cluster.aggregate_counters()
            assert agg.net_sent + agg.net_recv >= agg.disk_read

    def test_giraph_memory_overhead(self, skewed):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            make_engine("pregel+", cluster).run(PageRank(), skewed, max_supersteps=2)
            base = sum(s.counters.mem_vertex for s in cluster.servers)
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            make_engine("giraph", cluster).run(PageRank(), skewed, max_supersteps=2)
            heavy = sum(s.counters.mem_vertex for s in cluster.servers)
        assert heavy == pytest.approx(2.8 * base, rel=0.05)

    def test_min_frontier_processes_fewer_edges(self, road):
        """SSSP's wavefront: baselines shouldn't regather everything."""
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            result = PregelEngine(cluster).run(SSSP(source=0), road)
            total_edges = sum(
                s.counters.edges_processed for s in cluster.servers
            )
            # Far less than |E| × supersteps (full regather would be that).
            assert total_edges < road.num_edges * result.num_supersteps / 2

    @pytest.mark.parametrize("engine_cls", [PregelEngine, GASEngine])
    def test_framework_overhead_moves_both_estimates(self, engine_cls, skewed):
        """Giraph's / GraphX's fixed per-superstep tax reaches the serial
        sum and the overlap estimate alike."""
        overhead = 60.0
        runs = []
        for framework_overhead_s in (0.0, overhead):
            with Cluster(ClusterSpec(num_servers=2)) as cluster:
                engine = engine_cls(cluster, framework_overhead_s=framework_overhead_s)
                runs.append(engine.run(PageRank(), skewed, max_supersteps=4))
        for base, taxed in zip(runs[0].supersteps, runs[1].supersteps):
            assert taxed.modeled.overlap_s == base.modeled.overlap_s + overhead
            assert taxed.modeled.total_s - base.modeled.total_s == pytest.approx(
                overhead, abs=1e-9
            )

    def test_chaos_invalid_config(self):
        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            with pytest.raises(ValueError):
                ChaosEngine(cluster, partitions_per_server=0)


# ---------------------------------------------------------------------------
# Golden digests: every preset (and GridGraph) must keep its answers and its
# metering bit for bit — values, each SuperstepReport field but ``wall_s``,
# each SuperstepCost field, and each server's Counters with the peak of
# every memory category.
# ---------------------------------------------------------------------------

_GOLDEN_PROGRAMS = {
    "pagerank": PageRank,
    "sssp": lambda: SSSP(source=0),
    "wcc": WCC,
    "bfs": lambda: BFS(source=0),
    "ppr": lambda: PersonalizedPageRank(seeds=[0, 7, 19]),
}

_GOLDEN_CASES = [
    (system, program, n)
    for system in [*SYSTEM_PRESETS, "gridgraph"]
    for program in _GOLDEN_PROGRAMS
    for n in ((1,) if system == "gridgraph" else (1, 3))
]

#: sha256 prefixes recorded before the baselines shared one superstep loop;
#: giraph and graphx re-recorded when framework_overhead_s reached overlap_s
#: (nothing else in them moved).
GOLDEN_DIGESTS = {
    "pregel+-pagerank-n1": "70a333416f86cfda",
    "pregel+-pagerank-n3": "156135999499fce9",
    "pregel+-sssp-n1": "52da4057923edf86",
    "pregel+-sssp-n3": "82e78aa016d37b5a",
    "pregel+-wcc-n1": "0481844baadd3c00",
    "pregel+-wcc-n3": "961e26c8057c508e",
    "pregel+-bfs-n1": "fdad2cc8a0550c40",
    "pregel+-bfs-n3": "93060a5c6fe6696e",
    "pregel+-ppr-n1": "87fdf39db42209af",
    "pregel+-ppr-n3": "858289e6fd2975ed",
    "giraph-pagerank-n1": "2302c753b8e401cf",
    "giraph-pagerank-n3": "cb11336a37744888",
    "giraph-sssp-n1": "52d328603f547ed8",
    "giraph-sssp-n3": "d09433aba020cce6",
    "giraph-wcc-n1": "1e89b2d1df16905c",
    "giraph-wcc-n3": "59ba08cd4b1f7cba",
    "giraph-bfs-n1": "ce8608e77d4b4df0",
    "giraph-bfs-n3": "84fdf6c1bcb918fe",
    "giraph-ppr-n1": "41f7a373efbc00eb",
    "giraph-ppr-n3": "3421864b59166092",
    "powergraph-pagerank-n1": "0aaedc49c0c2380d",
    "powergraph-pagerank-n3": "a7c522d8d4ec44ca",
    "powergraph-sssp-n1": "24a06644349bb7e8",
    "powergraph-sssp-n3": "9a7eb2b4d0033a34",
    "powergraph-wcc-n1": "511c4d7be747c0a4",
    "powergraph-wcc-n3": "13e96fba9aaf0375",
    "powergraph-bfs-n1": "2c37f23433255d0e",
    "powergraph-bfs-n3": "d3ace76e9e190bf9",
    "powergraph-ppr-n1": "23265bb978892380",
    "powergraph-ppr-n3": "4ed6d186132da31a",
    "powerlyra-pagerank-n1": "0aaedc49c0c2380d",
    "powerlyra-pagerank-n3": "00a3b3ded2a52d85",
    "powerlyra-sssp-n1": "24a06644349bb7e8",
    "powerlyra-sssp-n3": "0832793af79d28a9",
    "powerlyra-wcc-n1": "511c4d7be747c0a4",
    "powerlyra-wcc-n3": "931078fb99de6545",
    "powerlyra-bfs-n1": "2c37f23433255d0e",
    "powerlyra-bfs-n3": "a84597377f5f3f45",
    "powerlyra-ppr-n1": "23265bb978892380",
    "powerlyra-ppr-n3": "e49eda3fb045d940",
    "graphx-pagerank-n1": "9afb6ed0a1524884",
    "graphx-pagerank-n3": "3fcd2cfd5c27827c",
    "graphx-sssp-n1": "e0e706d61f2f5a0c",
    "graphx-sssp-n3": "2a26ac40c29f8bad",
    "graphx-wcc-n1": "f32e96a9fc9ce057",
    "graphx-wcc-n3": "3c697f7b1f5b38c8",
    "graphx-bfs-n1": "40a3e296648e2eda",
    "graphx-bfs-n3": "43affa0780c888f0",
    "graphx-ppr-n1": "3781587b0ae33d4e",
    "graphx-ppr-n3": "16002ee34a009f2f",
    "graphd-pagerank-n1": "97a3e382d4ed6d19",
    "graphd-pagerank-n3": "81bc6114bfdd9ce7",
    "graphd-sssp-n1": "b0de6c38cf10cbaa",
    "graphd-sssp-n3": "4ee0658ec86262e4",
    "graphd-wcc-n1": "afda7ed10973ae67",
    "graphd-wcc-n3": "112104fe187ec13a",
    "graphd-bfs-n1": "cf84e993bae57487",
    "graphd-bfs-n3": "7cec415a317c64f5",
    "graphd-ppr-n1": "b5bd91be152eaf04",
    "graphd-ppr-n3": "2a3cc7a1e52dcb08",
    "chaos-pagerank-n1": "9a44a07eef94d05c",
    "chaos-pagerank-n3": "ac18d1b561035517",
    "chaos-sssp-n1": "e02f5739dbd6b901",
    "chaos-sssp-n3": "5ca0b26b7e804633",
    "chaos-wcc-n1": "10db330d95cca228",
    "chaos-wcc-n3": "4d9a36542b392d4d",
    "chaos-bfs-n1": "7806b98ff0fbb0f4",
    "chaos-bfs-n3": "1f9646553edef6f0",
    "chaos-ppr-n1": "2b06f9824d96dbfe",
    "chaos-ppr-n3": "77f8fca4e99573fd",
    "gridgraph-pagerank-n1": "a0335be3a1299416",
    "gridgraph-sssp-n1": "908fd4aa89df220c",
    "gridgraph-wcc-n1": "fc79443309c6f225",
    "gridgraph-bfs-n1": "794fe539e6435b8c",
    "gridgraph-ppr-n1": "191116ebda41e84e",
}


@pytest.fixture(scope="module")
def golden_graph():
    return chung_lu_graph(150, 1200, seed=26, weighted=True)


@pytest.fixture
def memory_peaks(monkeypatch):
    """Per Counters object, the largest value each memory category took."""
    peaks: dict[int, dict[str, int]] = {}
    set_memory = Counters.set_memory

    def recording(self, category, nbytes):
        set_memory(self, category, nbytes)
        mine = peaks.setdefault(id(self), {})
        mine[category] = max(mine.get(category, 0), int(nbytes))

    monkeypatch.setattr(Counters, "set_memory", recording)
    return peaks


def _canon(x):
    """A type-blind exact spelling: ints as ints, floats as hex."""
    if isinstance(x, dict):
        return sorted((k, _canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, (bool, np.bool_, str)) or x is None:
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    return float(x).hex()


def run_digest(result, servers, peaks) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.values).tobytes())
    parts = [result.converged]
    for step in result.supersteps:
        for f in dataclasses.fields(step):
            if f.name not in ("wall_s", "modeled"):
                parts.append((f.name, getattr(step, f.name)))
        parts.append(dataclasses.asdict(step.modeled))
    for server in servers:
        parts.append(dataclasses.asdict(server.counters))
        parts.append(peaks.get(id(server.counters), {}))
    h.update(repr(_canon(parts)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "system,program,n", _GOLDEN_CASES, ids=[f"{s}-{p}-n{n}" for s, p, n in _GOLDEN_CASES]
)
def test_golden_digest(system, program, n, golden_graph, memory_peaks):
    graph = golden_graph.to_undirected_edges() if program == "wcc" else golden_graph
    with Cluster(ClusterSpec(num_servers=n)) as cluster:
        if system == "gridgraph":
            engine = GridGraphEngine(cluster)
        else:
            engine = make_engine(system, cluster)
        result = engine.run(_GOLDEN_PROGRAMS[program](), graph)
        digest = run_digest(result, cluster.servers, memory_peaks)
    assert digest == GOLDEN_DIGESTS.get(f"{system}-{program}-n{n}")
