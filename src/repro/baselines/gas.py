"""GAS-model engine over a vertex-cut (PowerGraph / PowerLyra / GraphX).

Per superstep (Algorithm 2):

1. **gather** — every server runs the gather locally over *its* edges,
   producing one partial accumulator per (server, target-replica) pair;
2. each mirror sends its partial to the target's master — ``M|V|``
   partial-accumulator messages cluster-wide;
3. **apply** — masters combine partials and update the vertex value;
4. **sync/scatter** — masters push the new value back to all mirrors —
   another ``M|V|`` messages — and activate out-neighbors.

Memory (Table III): ``M|V|`` replica states + ``2|E|`` edge storage
("PowerGraph requires each vertex v to be aware of Γin(v) and Γout(v),
it needs double spaces to store an edge").

Like the Pregel baseline, byte volumes are metered through the channel
with placeholder payloads while the reduction itself is computed
directly — the answers are real, the traffic is faithfully counted, and
the engine validates against the reference executor.

For ``min`` programs only edges whose source changed are re-gathered
(PowerGraph's scatter-driven activation); ``add`` programs re-gather
everything, as they must.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.apps.base import VertexProgram
from repro.baselines.bsp import BSPEngine, Gathered, combine, edge_messages, reduce_into
from repro.cluster.cluster import Cluster
from repro.comm.channel import Channel
from repro.graph.graph import Graph
from repro.partition.vertex_cut import VertexCutPartition, greedy_vertex_cut

#: Partial accumulator / value-sync message: 4 B vertex id + 8 B value.
MESSAGE_BYTES = 12
_VERTEX_STATE_BYTES = 12


class GASEngine(BSPEngine):
    """Gather-Apply-Scatter executor over a vertex-cut placement."""

    name = "powergraph"

    def __init__(
        self,
        cluster: Cluster,
        cut: Callable[[Graph, int], VertexCutPartition] = greedy_vertex_cut,
        memory_overhead: float = 1.0,
        compute_overhead: float = 1.0,
        framework_overhead_s: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.channel = Channel(cluster.servers)
        self.cut = cut
        self.memory_overhead = float(memory_overhead)
        self.compute_overhead = float(compute_overhead)
        self.framework_overhead_s = float(framework_overhead_s)
        self.partition: VertexCutPartition | None = None

    # ------------------------------------------------------------------
    def _prepare(self, program: VertexProgram, graph: Graph):
        servers = self.cluster.servers
        n = self.cluster.num_servers
        part = self.cut(graph, n)
        self.partition = part
        out_degrees = graph.out_degrees
        op = program.reduce_op

        # Per-server edge slices.
        server_edges = []
        weights_all = graph.edge_weights()
        for s in range(n):
            sel = np.flatnonzero(part.edge_server == s)
            server_edges.append(
                (graph.src[sel], graph.dst[sel], weights_all[sel])
            )

        # Memory accounting (Table III row).
        for s, server in enumerate(servers):
            replicas = int(part.replica_mask[s].sum())
            local_edges = server_edges[s][0].size
            server.counters.set_memory(
                "vertex",
                int(replicas * _VERTEX_STATE_BYTES * self.memory_overhead),
            )
            server.counters.set_memory(
                "edges", int(2 * local_edges * 8 * self.memory_overhead)
            )
            server.counters.set_memory(
                "messages", int(replicas * 8 * self.memory_overhead)
            )

        master = part.master

        def gather(values: np.ndarray, sending: np.ndarray) -> Gathered:
            """Local partials per server, plus their traffic to masters."""
            accum = np.full(graph.num_vertices, program.identity)
            got_partial = np.zeros(graph.num_vertices, dtype=bool)
            for s, server in enumerate(servers):
                src, dst, w = server_edges[s]
                if src.size == 0:
                    continue
                if op != "add":
                    live = sending[src]
                    src, dst, w = src[live], dst[live], w[live]
                    if src.size == 0:
                        continue
                contrib = edge_messages(program, values, out_degrees, src, w)
                # Gather touches each in-edge; the scatter phase walks
                # the out-edge structures again to activate neighbors
                # (GAS keeps both directions — the 2|E| of Table III).
                server.counters.edges_processed += int(
                    2 * src.size * self.compute_overhead
                )
                uniq, partial = combine(dst, contrib, op)
                # Each local partial accumulator is one message's worth
                # of work at the mirror and again at the master.
                server.counters.messages_processed += int(
                    2 * uniq.size * self.compute_overhead
                )
                reduce_into(accum, got_partial, uniq, partial, op)
                # Mirrors ship partials to masters.
                remote = uniq[master[uniq] != s]
                for t in range(n):
                    count = int((master[remote] == t).sum()) if remote.size else 0
                    if count:
                        self.channel.send(s, t, b"\x00" * (count * MESSAGE_BYTES))
                        self.channel.receive_all(t)
            return Gathered(accum, got_partial)

        def sync(changed: np.ndarray) -> None:
            """Masters push new values to mirrors."""
            changed_ids = np.flatnonzero(changed)
            if not changed_ids.size:
                return
            replica_on = part.replica_mask[:, changed_ids]
            masters_of = master[changed_ids]
            for m in range(n):
                owned = masters_of == m
                if not owned.any():
                    continue
                for s in range(n):
                    if s == m:
                        continue
                    count = int((replica_on[s] & owned).sum())
                    if count:
                        self.channel.send(m, s, b"\x00" * (count * MESSAGE_BYTES))
                        self.channel.receive_all(s)
                        servers[s].counters.messages_processed += int(
                            count * self.compute_overhead
                        )

        return gather, sync
