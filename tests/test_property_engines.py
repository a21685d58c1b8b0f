"""Property test: every engine computes the same answers as the
reference executor on arbitrary random graphs and programs.

This is the strongest correctness statement the repository makes: five
fundamentally different execution models (GAB tiles, Pregel messages,
GAS vertex-cut, edge-centric streaming, single-node grid streaming)
plus two GraphH replication policies all derive from one vertex-program
spec, so any divergence is an engine bug, not a modelling choice.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.validate import cross_validate
from repro.apps import BFS, SSSP, WCC, KatzCentrality, PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.graph import Graph


@st.composite
def random_graphs(draw):
    num_vertices = draw(st.integers(2, 25))
    num_edges = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(0, num_vertices, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    weighted = draw(st.booleans())
    weights = rng.uniform(0.5, 5.0, num_edges) if weighted else None
    return Graph(num_vertices, src, dst, weights, name="prop")


def make_program(name, graph, rng_seed):
    if name == "pagerank":
        return PageRank(tolerance=1e-12)
    if name == "sssp":
        return SSSP(source=rng_seed % graph.num_vertices)
    if name == "bfs":
        return BFS(source=rng_seed % graph.num_vertices)
    if name == "katz":
        return KatzCentrality(alpha=0.01, tolerance=1e-12)
    return WCC()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph=random_graphs(),
    program_name=st.sampled_from(["pagerank", "sssp", "bfs", "wcc", "katz"]),
    num_servers=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_all_engines_agree_with_reference(graph, program_name, num_servers, seed):
    # GraphH under both replication policies, the four distributed
    # baselines and GridGraph; a warning (inf - inf on an unreachable
    # vertex, say) is a failure too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cross_validate(
            graph,
            lambda: make_program(program_name, graph, seed),
            num_servers=num_servers,
            max_supersteps=300,
            atol=1e-8,
        )
    assert report.all_match, report.render()


@settings(max_examples=10, deadline=None)
@given(graph=random_graphs(), seed=st.integers(0, 100))
def test_bloom_skipping_is_lossless(graph, seed):
    """Tile skipping must never change SSSP answers, whatever the graph."""
    program = SSSP(source=seed % graph.num_vertices)
    results = {}
    for use_bloom in (True, False):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(graph, max(1, graph.num_edges // 4), name="g")
            mpe = MPE(
                cluster,
                manifest,
                MPEConfig(use_bloom_filters=use_bloom, max_supersteps=300),
            )
            results[use_bloom] = mpe.run(program).values
    assert np.allclose(results[True], results[False], equal_nan=True)
