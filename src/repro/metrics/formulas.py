"""Table III evaluated concretely (PageRank cost expressions).

The paper's Table III gives per-system asymptotics for RAM (vertices /
edges / messages), network traffic, and disk I/O when running PageRank.
We turn each row into a concrete byte/count calculator so that

* ``repro.analysis.experiments.exp_table3_costs`` prints the analytic
  table and checks measured network traffic against it, and
* property tests can check the engines' *measured* counters land within
  a constant factor of the formulas (the asymptotics made executable).

Conventions (matching §IV-A's PageRank sizing): a vertex value or
message is a float64 (8 B), an out-degree is an int32 (4 B), a vertex id
is a uint32 (4 B), and an edge costs one id + pointer share ≈ 8 B in an
in-memory adjacency (16 B in PowerGraph, which "needs double spaces to
store an edge").
"""

from __future__ import annotations

from dataclasses import dataclass

import math

VALUE_BYTES = 8
ID_BYTES = 4
DEGREE_BYTES = 4
EDGE_BYTES = 8


def estimate_combine_ratio(avg_degree: float, total_workers: int) -> float:
    """Footnote 3's message-combining ratio.

    ``η ≈ (1 − exp(−d_avg/(T·N))) · (T·N)/d_avg`` — e.g. PageRank on
    EU-2015 (d_avg = 85.7) with 216 workers gives η ≈ 0.82, the value
    the paper quotes.
    """
    if avg_degree <= 0 or total_workers < 1:
        raise ValueError("avg_degree must be > 0 and total_workers >= 1")
    w = float(total_workers)
    return (1.0 - math.exp(-avg_degree / w)) * w / avg_degree


@dataclass(frozen=True)
class GraphParams:
    """Inputs to the Table III expressions."""

    num_vertices: int
    num_edges: int
    num_servers: int
    num_partitions: int = 1  # P (tiles or streaming partitions)
    combine_ratio: float = 1.0  # η
    replication_factor: float = 1.0  # M
    cache_miss_ratio: float = 0.0  # β


@dataclass(frozen=True)
class SystemCostFormulas:
    """One Table III row as callables over :class:`GraphParams`.

    All memory quantities are *per server*; network and disk are
    cluster-wide per superstep, matching how the paper states the table.
    """

    name: str
    ram_vertices: "callable"
    ram_edges: "callable"
    ram_messages: "callable"
    network: "callable"
    disk_read: "callable"
    disk_write: "callable"

    def ram_total(self, p: GraphParams) -> float:
        """Per-server RAM."""
        return self.ram_vertices(p) + self.ram_edges(p) + self.ram_messages(p)


def _pregel_plus() -> SystemCostFormulas:
    state = VALUE_BYTES + DEGREE_BYTES
    return SystemCostFormulas(
        name="pregel+",
        ram_vertices=lambda p: p.num_vertices / p.num_servers * state,
        ram_edges=lambda p: p.num_edges / p.num_servers * EDGE_BYTES,
        # η|E| buffered at senders + |V| digested at receivers.
        ram_messages=lambda p: (
            p.combine_ratio * p.num_edges + p.num_vertices
        )
        / p.num_servers
        * VALUE_BYTES,
        network=lambda p: p.combine_ratio * p.num_edges * VALUE_BYTES,
        disk_read=lambda p: 0,
        disk_write=lambda p: 0,
    )


def _powergraph() -> SystemCostFormulas:
    state = VALUE_BYTES + DEGREE_BYTES
    return SystemCostFormulas(
        name="powergraph",
        ram_vertices=lambda p: p.replication_factor
        * p.num_vertices
        / p.num_servers
        * state,
        ram_edges=lambda p: 2 * p.num_edges / p.num_servers * EDGE_BYTES,
        ram_messages=lambda p: p.replication_factor
        * p.num_vertices
        / p.num_servers
        * VALUE_BYTES,
        network=lambda p: 2 * p.replication_factor * p.num_vertices * VALUE_BYTES,
        disk_read=lambda p: 0,
        disk_write=lambda p: 0,
    )


def _graphd() -> SystemCostFormulas:
    state = VALUE_BYTES + DEGREE_BYTES
    return SystemCostFormulas(
        name="graphd",
        ram_vertices=lambda p: p.num_vertices / p.num_servers * state,
        ram_edges=lambda p: 0,  # O(1) streaming buffer
        ram_messages=lambda p: 0,  # O(1) streaming buffer
        network=lambda p: p.combine_ratio * p.num_edges * VALUE_BYTES,
        # 2|E|: stream the adjacency + re-read sent message file.
        disk_read=lambda p: 2 * p.num_edges * VALUE_BYTES,
        disk_write=lambda p: p.num_edges * VALUE_BYTES,
    )


def _chaos() -> SystemCostFormulas:
    state = VALUE_BYTES + DEGREE_BYTES
    return SystemCostFormulas(
        name="chaos",
        ram_vertices=lambda p: p.num_servers
        * p.num_vertices
        / max(p.num_partitions, 1)
        * state,
        ram_edges=lambda p: 0,
        ram_messages=lambda p: 0,
        # 3|E| + 3|V|: edges + messages + vertex states all traverse the
        # network because partitions are spread over all servers.
        network=lambda p: (3 * p.num_edges + 3 * p.num_vertices) * VALUE_BYTES,
        disk_read=lambda p: (2 * p.num_edges + 2 * p.num_vertices) * VALUE_BYTES,
        disk_write=lambda p: (p.num_edges + p.num_vertices) * VALUE_BYTES,
    )


def _graphh() -> SystemCostFormulas:
    state = VALUE_BYTES + DEGREE_BYTES
    return SystemCostFormulas(
        name="graphh",
        # All-in-All: every server replicates all |V| states.
        ram_vertices=lambda p: p.num_vertices * state,
        # T tiles in flight ≈ N|E|/P per server worst case.
        ram_edges=lambda p: p.num_servers
        * p.num_edges
        / max(p.num_partitions, 1)
        * EDGE_BYTES,
        ram_messages=lambda p: p.num_vertices * VALUE_BYTES,
        # Broadcast of updated values: each server sends ≤ |V| values to
        # N-1 peers → O(N|V|) cluster-wide.
        network=lambda p: p.num_servers * p.num_vertices * VALUE_BYTES,
        disk_read=lambda p: p.cache_miss_ratio * p.num_edges * EDGE_BYTES,
        disk_write=lambda p: 0,
    )


TABLE3: dict[str, SystemCostFormulas] = {
    f.name: f
    for f in (_pregel_plus(), _powergraph(), _graphd(), _chaos(), _graphh())
}
