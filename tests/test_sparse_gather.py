"""The sparse gather (DESIGN.md §5k): a program whose apply folds
(``VertexProgram.apply_folds`` — SSSP, BFS, WCC, max label propagation)
gathers only its frontier's out-edges, through the slab's edge index,
whenever they are at most E / ``GATHER_DIVISOR`` of the run's edges.

That every reported bit equals the full sweep's — under every executor,
replication policy, participant and knob — is the contract harness's
``full-gather`` reference (``tests/contract.py``: ``gathers_sparse``
patched to ``False``), also forced here on a graph whose frontiers
fall on both sides of E/16.  Here, on one engine: how often the sparse
path runs, its incremental repairs, the fold declarations it trusts, and the
edge index's lifetime.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.mpe as mpe_module
from repro.apps import BFS, SSSP, WCC, MaxLabelPropagation, PageRank, reference_solution
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, SPE, MPEConfig
from repro.graph import chung_lu_graph
from repro.obs.trace import Tracer
from repro.runtime import process_runtime_available
from tests.contract import REFERENCES, fingerprint

N_SERVERS = 3
EXECUTORS = ["serial", "parallel"] + (
    ["process"] if process_runtime_available() else []
)
needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(600, 1800, seed=31, weighted=True, name="sparse-g")


@pytest.fixture(scope="module")
def symmetric(graph):
    return graph.to_undirected_edges()


def _hub(graph) -> int:
    return int(np.argmax(graph.out_degrees))


# name -> (program factory given the graph, needs the symmetrised graph)
PROGRAMS = {
    "sssp": (lambda g: SSSP(source=_hub(g)), False),
    "bfs": (lambda g: BFS(source=_hub(g)), False),
    "wcc": (lambda g: WCC(), True),
    "maxlabel": (lambda g: MaxLabelPropagation(), True),
}


def _engine(graph, tracer, **cfg):
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    manifest = SPE(cluster.dfs).preprocess(
        graph, max(1, graph.num_edges // (10 * N_SERVERS)), name=graph.name
    )
    mpe = MPE(cluster, manifest, MPEConfig(**cfg), tracer=tracer)
    mpe.setup()
    return mpe, cluster


def _counter(tracer, name) -> int:
    for line in tracer.metrics.to_text().splitlines():
        if line.startswith(name + " "):
            return int(float(line.split()[1]))
    return 0


def _runs(graph, make, **cfg):
    """Two runs on one engine (the first fills the slab): the last
    result, each run's fingerprint, the sparse server-supersteps and
    the total ones."""
    tracer = Tracer()
    mpe, cluster = _engine(graph, tracer, **cfg)
    try:
        results, prints = [], []
        for _ in range(2):
            results.append(mpe.run(make()))
            fp = fingerprint(cluster, results[-1])
            prints.append((fp["values"], fp["metered"], fp["traced"]["decoded_stats"]))
    finally:
        cluster.close()
    steps = N_SERVERS * sum(r.num_supersteps for r in results)
    return results[-1], prints, _counter(tracer, "repro_gather_sparse"), steps


class TestSparseEqualsFull:
    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_every_program_executor_and_policy(
        self, graph, symmetric, name, executor, policy, monkeypatch
    ):
        """Frontiers on both sides of E/16 gather sparsely in some
        server-supersteps, whole in others, and both runs are the
        ``full-gather`` reference's, bit for bit."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        factory, sym = PROGRAMS[name]
        g = symmetric if sym else graph
        cfg = dict(executor=executor, replication_policy=policy, num_workers=2)
        _result, sparse, count, steps = _runs(g, lambda: factory(g), **cfg)
        assert 0 < count < steps
        # Patched before any pool forks: workers inherit it.
        with REFERENCES["full-gather"].force():
            _result, full, none, _steps = _runs(g, lambda: factory(g), **cfg)
        assert none == 0
        assert sparse == full


class TestSparseShare:
    @pytest.fixture(autouse=True)
    def _configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.mark.parametrize("prefetch", [0, 2])
    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_some_server_supersteps_gather_sparsely(self, graph, symmetric, name, prefetch):
        """Frontiers on both sides of E/16: some server-supersteps gather
        sparsely, some whole — behind the prefetch pipeline too."""
        factory, sym = PROGRAMS[name]
        g = symmetric if sym else graph
        _result, _prints, count, steps = _runs(g, lambda: factory(g), prefetch_depth=prefetch, io_threads=2)
        assert 0 < count < steps

    def test_any_frontier_may_go_sparse(self, graph, symmetric, monkeypatch):
        """The rule E/16 is a speed choice, not a correctness one: with
        every frontier gathered sparsely (WCC's all-active superstep 0
        included) the values are still the reference solution's."""
        monkeypatch.setattr(mpe_module, "gathers_sparse", lambda *_a: True)
        for name, (factory, sym) in PROGRAMS.items():
            g = symmetric if sym else graph
            result, _prints, count, steps = _runs(g, lambda: factory(g))
            # Every server sweeps something in every superstep here but
            # the cold run's superstep 0, which fills the slab first.
            assert count >= steps - 2 * N_SERVERS, name
            expected, _ = reference_solution(factory(g), g)
            assert np.array_equal(result.values, expected), name


class TestIncremental:
    """An incremental run's seed superstep gathers whole when it forces
    tiles; otherwise its dirty set is the frontier, and an inserted
    edge's source must reach the edge through a rebuilt index."""

    def _check(self, graph, batches, make, monkeypatch):
        """Each batch repaired incrementally on a warm engine, which
        gathers sparsely: the repair is a scratch run's values."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer, mutations=True)
        cfg = mpe.config
        try:
            mpe.run(make())
            mpe.run(make())  # the slab is full: the index is built
            for ops in batches:
                mpe.apply_mutations(ops)
                mpe.config = dataclasses.replace(cfg, incremental=True)
                inc = mpe.run(make())
                mpe.config = cfg
                scratch = mpe.run(make())
                assert inc.converged and scratch.converged
                assert np.array_equal(inc.values, scratch.values)
        finally:
            cluster.close()
        assert _counter(tracer, "repro_gather_sparse") > 0
        return tracer

    def test_deletions_force_tiles(self, graph, monkeypatch):
        rng = np.random.default_rng(3)
        src, dst = graph.src, graph.dst
        picks = rng.choice(src.size, 6, replace=False)
        deletes = [
            {"op": "delete", "src": int(src[i]), "dst": int(dst[i])} for i in picks
        ]
        self._check(graph, [deletes], lambda: SSSP(source=_hub(graph)), monkeypatch)

    def test_an_inserted_edge_whose_source_is_the_only_active_vertex(
        self, graph, monkeypatch
    ):
        """One insert, from the source to the farthest reached vertex:
        the dirty set is the source alone, the seed superstep gathers
        sparsely, and the edge it needs sits in a slot the batch
        refilled — so the index is built again."""
        source = _hub(graph)
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer)
        try:
            dist = mpe.run(SSSP(source=source)).values
        finally:
            cluster.close()
        far = int(np.argmax(np.where(np.isfinite(dist), dist, -1.0)))
        insert = [{"op": "insert", "src": source, "dst": far, "weight": 0.5}]
        tracer = self._check(
            graph, [insert], lambda: SSSP(source=source), monkeypatch
        )
        # Built once per server by the first full slab, then again by the
        # one server whose slab the batch relaid.
        assert tracer.instant_counts().get("edge_index_built", 0) == N_SERVERS + 1

    def test_delete_then_insert(self, graph, monkeypatch):
        """The same edge deleted and inserted again, cheaper, in one
        batch — and in two."""
        src, dst, weights = graph.src, graph.dst, graph.edge_weights()
        edge = int(np.argmax(graph.out_degrees[src]))
        u, v = int(src[edge]), int(dst[edge])
        delete = {"op": "delete", "src": u, "dst": v}
        insert = {"op": "insert", "src": u, "dst": v, "weight": float(weights[edge]) / 4}
        for batches in ([[delete, insert]], [[delete], [insert]]):
            self._check(graph, batches, lambda: BFS(source=_hub(graph)), monkeypatch)
            self._check(graph, batches, lambda: SSSP(source=_hub(graph)), monkeypatch)


class NormalisingFold(SSSP):
    """Declares the fold, but scales what it folds."""

    name = "normalising-fold"

    def apply(self, accum, old_values, vertex_ids=None):
        return np.minimum(accum, old_values) / 2.0


class LoudIdle(SSSP):
    """Every vertex starts at 0 but only the source is active: the idle
    ones send finite distances, not the identity."""

    name = "loud-idle"

    def init_values(self, graph):
        return np.zeros(graph.num_vertices)


class AdditiveFold(PageRank):
    name = "additive-fold"
    apply_folds = True


class TestFoldProbe:
    @pytest.mark.parametrize(
        "program, match",
        [
            (NormalisingFold(source=0), "apply_folds"),
            (LoudIdle(source=0), "initially active"),
            (AdditiveFold(tolerance=0.0), "min or max"),
        ],
    )
    def test_a_false_declaration_is_refused_at_run_start(self, graph, program, match):
        mpe, cluster = _engine(graph, None)
        try:
            with pytest.raises(ValueError, match=match):
                mpe.run(program)
        finally:
            cluster.close()

    def test_shipped_folds_pass(self, graph, symmetric):
        for name, (factory, sym) in PROGRAMS.items():
            g = symmetric if sym else graph
            assert factory(g).apply_folds, name


class TestPageRankNeverIndexes:
    @pytest.mark.parametrize("tolerance", [0.0, 1e-6])
    def test_no_index_no_counter(self, graph, tolerance, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer)
        try:
            for _ in range(2):
                mpe.run(PageRank(tolerance=tolerance))
            assert all(
                s.decoded_cache.slab.edge_index is None for s in cluster.servers
            )
        finally:
            cluster.close()
        assert tracer.instant_counts().get("edge_index_built", 0) == 0
        text = tracer.metrics.to_text()
        assert "repro_gather_sparse" not in text
        assert "repro_edge_index_builds" not in text


class TestIndexLifetime:
    @pytest.mark.parametrize(
        "executor", ["serial", pytest.param("process", marks=needs_process)]
    )
    def test_built_once_per_slab_and_traced(self, graph, executor, monkeypatch):
        """One build per server for the engine's life, under either
        executor: a process pool's workers build it in the first run, the
        parent builds its own copy silently as the pool winds down, and
        later pools inherit it.  The instants and counters reach the
        parent."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        tracer = Tracer()
        mpe, cluster = _engine(graph, tracer, executor=executor, num_workers=2)
        try:
            for _ in range(3):
                mpe.run(SSSP(source=_hub(graph)))
            edges = [int(np.sum(s.decoded_cache.slab.shapes[:, 1])) for s in cluster.servers]
        finally:
            cluster.close()
        built = [
            args
            for buf in tracer.buffers()
            for _kind, name, _cat, _ts, args in buf.events()
            if name == "edge_index_built"
        ]
        assert len(built) == N_SERVERS
        v = graph.num_vertices
        assert sorted((a["server"], a["bytes"]) for a in built) == sorted(
            (sid, 4 * (v + 1) + 3 * e) for sid, e in enumerate(edges)
        )
        assert _counter(tracer, "repro_edge_index_builds") == N_SERVERS
