"""``core/mpe.py`` runs supersteps; delta, tuning and checkpoints attach
to it as run participants (DESIGN.md §5o) and the fault replay lives in
``repro.faults``.  These checks read the source, so the subsystems'
engine halves cannot grow back into the engine unnoticed, and a
default-config run is held to attaching nothing."""

import ast
import pathlib

import pytest

from repro.apps import PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.core.checkpoint import Checkpointer
from repro.delta import DeltaStore, EvolvingGraph
from repro.graph import chung_lu_graph
from repro.tuning import TunedRun, Tuner

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src/repro/core/mpe.py"
TREE = ast.parse(SOURCE.read_text())
MPE_DEF = next(
    node for node in TREE.body if isinstance(node, ast.ClassDef) and node.name == "MPE"
)
METHODS = {
    node.name: node for node in MPE_DEF.body if isinstance(node, ast.FunctionDef)
}

# What the superstep loop may not know about.
LOOP = ("run", "_account_superstep", "_phase_handler", "_compute_server_step")
FORBIDDEN = {
    "tuner", "plan", "_delta", "incremental_plan",
    "write_checkpoint", "latest_checkpoint",
}
# What left the engine for the package that owns it.
MOVED = (
    "_superstep_knobs", "_apply_knobs", "_observe_tuning", "_tuning_signature",
    "_base_knobs", "_make_delta_parser", "_tile_location", "_base_tile",
    "_composed_tile", "_resolve_compute_faults", "_forced_tiles",
    "_forced_superstep", "_fixed_points", "_delta", "_load_decoded_tile",
)
# Per owning package, the only names the engine may import from it.
IMPORTS = {
    "repro.delta": {"EvolvingGraph"},
    "repro.tuning": {"TunedRun", "KnobSettings"},
    "repro.core.checkpoint": {"Checkpointer"},
}


@pytest.mark.parametrize("name", LOOP)
def test_superstep_loop_names_no_subsystem(name):
    used = {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(METHODS[name])
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    assert used & FORBIDDEN == set()


def test_engine_imports_participants_only():
    for node in ast.walk(TREE):
        if isinstance(node, ast.Import):
            modules = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in modules:
            for package, allowed in IMPORTS.items():
                if module == package or module.startswith(package + "."):
                    assert name in allowed, f"mpe.py imports {name} from {module}"


def test_moved_names_are_gone_and_sizes_hold(small_engine):
    mpe, _cluster = small_engine
    assert [name for name in MOVED if hasattr(mpe, name)] == []

    def lines(node):
        return node.end_lineno - node.lineno + 1

    assert len(SOURCE.read_text().splitlines()) <= 1800
    assert lines(METHODS["run"]) <= 180
    assert lines(METHODS["_begin_run"]) <= 80


@pytest.fixture()
def small_engine():
    graph = chung_lu_graph(300, 3000, seed=5, name="shape-g")
    cluster = Cluster(ClusterSpec(num_servers=4))
    manifest = SPE(cluster.dfs).preprocess(
        graph, max(1, graph.num_edges // 48), name=graph.name
    )
    # pr-cached-n4's configuration (benchmarks/ledger/workloads.py).
    config = MPEConfig(executor="serial", num_workers=2, num_threads=2)
    yield MPE(cluster, manifest, config), cluster
    cluster.close()


def test_default_config_run_attaches_nothing(small_engine, monkeypatch):
    """Zero participant calls, and no delta store, tuner or checkpoint
    writer is ever built."""
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    calls = []
    for cls in (EvolvingGraph, Checkpointer, TunedRun, DeltaStore, Tuner):
        points = ("__init__", "begin_run", "begin_superstep", "end_superstep", "end_run")
        for point in points:
            if hasattr(cls, point):
                monkeypatch.setattr(
                    cls, point, lambda *a, _p=(cls.__name__, point): calls.append(_p)
                )
    mpe, _cluster = small_engine
    assert mpe._participants(resume=False) == ()
    result = mpe.run(PageRank())
    assert result.num_supersteps > 1 and calls == []
    assert mpe.delta is None and mpe.tuner is None and mpe.mutation_log is None
    assert result.tuning is None and result.delta is None
