"""Golden digests for the MPE: what a GraphH run produces, pinned.

Each digest hashes a run's values, every ``SuperstepReport`` field but
``wall_s``, every ``SuperstepCost`` field, each server's ``Counters``
and edge-cache ``CacheStats``, and the sha256 of every broadcast's wire
message in delivery order — re-encoded from the delivered record, whose
``nbytes`` must be that message's length — so a change to how updates
are staged, encoded or applied that moves one wire byte, one meter or
one value bit fails here, whatever it does to speed.

Three graphs with one program each (Chung–Lu / PageRank at tolerance 0,
weighted R-MAT / SSSP, Erdős–Rényi / WCC), crossed with a pairwise
covering of ``comm_mode`` × ``message_codec`` × ``replication_policy``
at N=4 and two rows at N=1 (no broadcast).  One row per program runs
again under the process executor and must reproduce its serial digest.
The digests were recorded before broadcasts were staged and applied by
position; they hold under every executor, so CI's forced-executor legs
run this file unchanged.  Under All-in-All a forked sender's record
reaches the parent without its values (receivers read the shared
replica); its wire is re-encoded from the values its sender wrote there,
read back after the barrier.

Twelve digests (keys ending ``-nodc``) were recorded with the
decoded-tile cache switched off, when it still had a switch: every tile
was re-parsed on every load.  They now run with the cache on, as every
engine does, and reproduce the same digests — a decoded hit meters
exactly like a re-parse.  Their keys, and so the test ids, keep the
suffix they were recorded under.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.apps import SSSP, WCC, PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.comm import encode_update
from repro.comm.channel import Channel
from repro.core.mpe import MPE, MPEConfig
from repro.core.spe import SPE
from repro.graph.generators import chung_lu_graph, erdos_renyi_graph, rmat_graph
from repro.runtime import process_runtime_available
from tests.test_baselines import _canon

_GRAPHS = {
    "pagerank": lambda: chung_lu_graph(1000, 8000, seed=29, name="golden-cl"),
    "sssp": lambda: rmat_graph(9, 12, seed=29, weighted=True, name="golden-rmat"),
    "wcc": lambda: erdos_renyi_graph(
        1000, 2500, seed=29, name="golden-er"
    ).to_undirected_edges(),
}
_PROGRAMS = {
    "pagerank": lambda: PageRank(tolerance=0.0),
    "sssp": lambda: SSSP(source=0),
    "wcc": WCC,
}

# (servers, comm_mode, message_codec, replication_policy): at N=4 every
# pair of values of any two of the three knobs appears.
_ROWS = [
    (4, "hybrid", "snappylike", "aa"),
    (4, "hybrid", "raw", "aa"),
    (4, "hybrid", "zlib1", "od"),
    (4, "dense", "snappylike", "aa"),
    (4, "dense", "raw", "aa"),
    (4, "dense", "zlib1", "od"),
    (4, "sparse", "snappylike", "od"),
    (4, "sparse", "raw", "od"),
    (4, "sparse", "zlib1", "aa"),
    (1, "hybrid", "snappylike", "aa"),
    (1, "hybrid", "snappylike", "od"),
]
# The rows recorded without the decoded-tile cache (see the docstring).
_RECORDED_REPARSING = {_ROWS[2], _ROWS[4], _ROWS[6], _ROWS[10]}
# The row each program repeats under the process executor.
_PROCESS_ROWS = {"pagerank": _ROWS[0], "sssp": _ROWS[2], "wcc": _ROWS[5]}


def _key(program, row) -> str:
    n, comm, codec, policy = row
    recorded = "nodc" if row in _RECORDED_REPARSING else "dc"
    return f"{program}-n{n}-{comm}-{codec}-{policy}-{recorded}"


#: sha256 prefixes recorded at the MPE that staged a broadcast by
#: ``searchsorted`` and applied all senders in one concatenated scatter;
#: the PageRank rows re-recorded when additive programs began summing
#: each target's messages left to right (one CSR mat-vec per run) —
#: values within 1.7e-15 relative of the old ones, and on the zlib1 rows
#: the broadcasts' compressed lengths moved with the values' last bits.
GOLDEN_DIGESTS = {
    "pagerank-n4-hybrid-snappylike-aa-dc": "0123a42ff9a0b16c",
    "pagerank-n4-hybrid-raw-aa-dc": "255c164033c75a6e",
    "pagerank-n4-hybrid-zlib1-od-nodc": "10bf1b421a3a4be9",
    "pagerank-n4-dense-snappylike-aa-dc": "0123a42ff9a0b16c",
    "pagerank-n4-dense-raw-aa-nodc": "255c164033c75a6e",
    "pagerank-n4-dense-zlib1-od-dc": "10bf1b421a3a4be9",
    "pagerank-n4-sparse-snappylike-od-nodc": "a9cbf22d65a7f650",
    "pagerank-n4-sparse-raw-od-dc": "3b94e072ec116564",
    "pagerank-n4-sparse-zlib1-aa-dc": "1cdcc5705a93952c",
    "pagerank-n1-hybrid-snappylike-aa-dc": "ca53c0d68a855efe",
    "pagerank-n1-hybrid-snappylike-od-nodc": "95efd475ec90b5db",
    "sssp-n4-hybrid-snappylike-aa-dc": "887c5c78547f2d24",
    "sssp-n4-hybrid-raw-aa-dc": "4e716565cdcffc0e",
    "sssp-n4-hybrid-zlib1-od-nodc": "608a0fbe7620aa09",
    "sssp-n4-dense-snappylike-aa-dc": "9df5e0f720bd34dc",
    "sssp-n4-dense-raw-aa-nodc": "fac7582320bcc8ba",
    "sssp-n4-dense-zlib1-od-dc": "88da40695463034e",
    "sssp-n4-sparse-snappylike-od-nodc": "5cf7bc602e531fe5",
    "sssp-n4-sparse-raw-od-dc": "509d4c129a25f466",
    "sssp-n4-sparse-zlib1-aa-dc": "2c6c679cff7f7121",
    "sssp-n1-hybrid-snappylike-aa-dc": "3a1626dad0f28eae",
    "sssp-n1-hybrid-snappylike-od-nodc": "a7c479744b993c5a",
    "wcc-n4-hybrid-snappylike-aa-dc": "6de49e09a37fddd0",
    "wcc-n4-hybrid-raw-aa-dc": "b08693e8f67fded8",
    "wcc-n4-hybrid-zlib1-od-nodc": "41036c28133d513e",
    "wcc-n4-dense-snappylike-aa-dc": "708710ce311084b6",
    "wcc-n4-dense-raw-aa-nodc": "23319ac013bfa199",
    "wcc-n4-dense-zlib1-od-dc": "0928283c88804ace",
    "wcc-n4-sparse-snappylike-od-nodc": "d3c7feca455ee371",
    "wcc-n4-sparse-raw-od-dc": "f9112d55f6db4f31",
    "wcc-n4-sparse-zlib1-aa-dc": "13dc597ea4a691f6",
    "wcc-n1-hybrid-snappylike-aa-dc": "72adcb85b3aec0d6",
    "wcc-n1-hybrid-snappylike-od-nodc": "c54e4b8111d76ac5",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in _GRAPHS.items()}


@pytest.fixture
def payload_log(monkeypatch):
    """Every broadcast record, in delivery order, with its sender — a
    record that arrived without its values (a forked AA sender's) given
    the ones its sender wrote into the replica, once the barrier is past."""
    log: list[tuple[int, object]] = []
    broadcast = Channel.broadcast
    account = MPE._account_superstep

    def recording(self, src, payload):
        log.append((src, payload))
        broadcast(self, src, payload)

    def hydrating(self, *args):
        for i, (src, record) in enumerate(log):
            ids = record.select(self._server_target_ids[src])
            if record.values.size != ids.size:
                store = self.cluster.servers[src].state["store"]
                values = store.gather_values(ids)
                log[i] = (src, dataclasses.replace(record, values=values))
        return account(self, *args)

    monkeypatch.setattr(Channel, "broadcast", recording)
    monkeypatch.setattr(MPE, "_account_superstep", hydrating)
    return log


def wire_of(record, codec: str) -> bytes:
    """A broadcast record's wire message: re-encoded at ``codec`` and
    the record's mode over a zero array holding its values at its
    positions — the bytes the sender's encode measured, so the record's
    ``nbytes`` must be their length."""
    staged = np.zeros(record.num_vertices)
    if record.positions is None:
        staged[:] = record.values
        updated = np.arange(record.num_vertices)
    else:
        staged[record.positions] = record.values
        updated = record.positions
    wire = encode_update(staged, updated, codec, mode=record.mode)
    assert len(wire) == record.nbytes
    return wire


def _wire_hashes(payload_log, codec) -> list[tuple[int, str]]:
    return [
        (src, hashlib.sha256(wire_of(record, codec)).hexdigest())
        for src, record in payload_log
    ]


def _digest(result, servers, payloads) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.values).tobytes())
    parts = [result.converged]
    for step in result.supersteps:
        for f in dataclasses.fields(step):
            if f.name not in ("wall_s", "modeled"):
                parts.append((f.name, getattr(step, f.name)))
        parts.append(dataclasses.asdict(step.modeled))
    for server in servers:
        parts.append(dataclasses.asdict(server.counters))
        parts.append(dataclasses.asdict(server.cache.stats))
    parts.append(payloads)
    h.update(repr(_canon(parts)).encode())
    return h.hexdigest()[:16]


def _run_digest(graph, program, row, payload_log, **extra) -> str:
    n, comm, codec, policy = row
    config = MPEConfig(
        comm_mode=comm,
        message_codec=codec,
        replication_policy=policy,
        max_supersteps=15,
        **extra,
    )
    with Cluster(ClusterSpec(num_servers=n)) as cluster:
        manifest = SPE(cluster.dfs).preprocess(
            graph, max(1, graph.num_edges // 24), name=graph.name
        )
        result = MPE(cluster, manifest, config).run(_PROGRAMS[program]())
        return _digest(result, cluster.servers, _wire_hashes(payload_log, codec))


_CASES = [(program, row) for program in _PROGRAMS for row in _ROWS]


@pytest.mark.parametrize(
    "program,row", _CASES, ids=[_key(p, r) for p, r in _CASES]
)
def test_golden_digest(program, row, graphs, payload_log):
    digest = _run_digest(graphs[program], program, row, payload_log)
    assert digest == GOLDEN_DIGESTS.get(_key(program, row))


@pytest.mark.skipif(
    not process_runtime_available(), reason="platform lacks POSIX shared memory"
)
@pytest.mark.parametrize("program", list(_PROCESS_ROWS))
def test_process_executor_reproduces_the_serial_digest(
    program, graphs, payload_log
):
    row = _PROCESS_ROWS[program]
    digest = _run_digest(
        graphs[program], program, row, payload_log,
        executor="process", num_workers=2,
    )
    assert digest == GOLDEN_DIGESTS[_key(program, row)]
