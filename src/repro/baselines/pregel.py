"""Pregel-model engines: Pregel+ (in-memory) and GraphD (out-of-core).

Dataflow per superstep (Algorithm 1):

1. every *sending* vertex emits ``edge_message`` along its out-edges;
2. messages addressed to the same target are **combined at the sender
   side per server** (the η combining of footnote 3 — only messages
   inside one server combine, which is why η < 1);
3. combined messages cross the network to each target's owner;
4. the owner reduces incoming messages into accumulators and runs
   ``apply``; vertices whose value changed become the next senders.

Sending policy follows the reduction semantics: ``add`` programs
(PageRank) must hear from *every* in-neighbor each superstep, so all
non-converged vertices send; ``min`` programs (SSSP/WCC/BFS) only
propagate improvements, so the changed frontier sends — exactly how
Pregel applications are written.

GraphD differs only in storage (Table III): the out-adjacency lives on
each server's local disk and is re-streamed every superstep, and the
pre-combine message stream spills through disk at the sender — both
metered.  Vertex states stay in memory.

Overhead factors (``memory_overhead``, ``compute_overhead``) model
framework tax — Giraph is this engine with JVM-ish factors (Figure 1
shows 2.8× Pregel+'s memory and ~3× its time on the same dataflow).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexProgram
from repro.baselines.bsp import BSPEngine, Gathered, combine, edge_messages, reduce_into
from repro.cluster.cluster import Cluster
from repro.comm.channel import Channel
from repro.graph.graph import Graph
from repro.partition.edge_cut import hash_edge_cut

#: Wire cost of one combined message: 4 B target id + 8 B value.
MESSAGE_BYTES = 12
_VERTEX_STATE_BYTES = 12  # value (8) + out-degree (4)


class PregelEngine(BSPEngine):
    """In-memory Pregel (the Pregel+ configuration by default)."""

    name = "pregel+"
    stores_edges_on_disk = False

    def __init__(
        self,
        cluster: Cluster,
        memory_overhead: float = 1.0,
        compute_overhead: float = 1.0,
        framework_overhead_s: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.channel = Channel(cluster.servers)
        self.memory_overhead = float(memory_overhead)
        self.compute_overhead = float(compute_overhead)
        self.framework_overhead_s = float(framework_overhead_s)

    # ------------------------------------------------------------------
    def _prepare(self, program: VertexProgram, graph: Graph):
        servers = self.cluster.servers
        n = self.cluster.num_servers
        part = hash_edge_cut(graph, n)
        owner = part.vertex_owner
        out_degrees = graph.out_degrees
        op = program.reduce_op

        # --- memory accounting + optional disk staging -----------------
        for s, server in enumerate(servers):
            num_local_vertices = part.server_vertices[s].size
            num_local_edges = part.server_dst[s].size
            server.counters.set_memory(
                "vertex",
                int(num_local_vertices * _VERTEX_STATE_BYTES * self.memory_overhead),
            )
            edge_bytes = int(num_local_edges * 8 * self.memory_overhead)
            if self.stores_edges_on_disk:
                server.store_blob(
                    "adjacency",
                    part.server_dst[s].astype(np.int64).tobytes(),
                )
            else:
                server.counters.set_memory("edges", edge_bytes)

        def gather(values: np.ndarray, sending: np.ndarray) -> Gathered:
            # Incoming accumulators for this superstep (per whole graph;
            # conceptually sharded by owner — receipt is metered below).
            accum = np.full(graph.num_vertices, program.identity)
            got_message = np.zeros(graph.num_vertices, dtype=bool)
            max_message_mem = 0

            for s, server in enumerate(servers):
                vids = part.server_vertices[s]
                if vids.size == 0:
                    continue
                local_sending = sending[vids]
                if not local_sending.any():
                    continue
                indptr = part.server_indptr[s]
                dst = part.server_dst[s]
                # Mask edges whose source sends this superstep.
                lengths = np.diff(indptr)
                edge_sending = np.repeat(local_sending, lengths)
                e_dst = dst[edge_sending]
                if e_dst.size == 0:
                    continue
                e_src = np.repeat(vids, lengths)[edge_sending]
                if self.stores_edges_on_disk:
                    # GraphD streams the whole adjacency from disk.
                    server.load_blob("adjacency")
                contrib = edge_messages(
                    program,
                    values,
                    out_degrees,
                    e_src,
                    part.server_weights[s][edge_sending],
                )
                server.counters.edges_processed += int(
                    e_dst.size * self.compute_overhead
                )
                # One message generated per sending edge (combining is
                # itself per-message work at the sender).
                server.counters.messages_processed += int(
                    e_dst.size * self.compute_overhead
                )
                # Sender-side combine per destination server.
                dst_server = owner[e_dst]
                for t in range(n):
                    sel = dst_server == t
                    if not sel.any():
                        continue
                    targets, combined = combine(e_dst[sel], contrib[sel], op)
                    payload_bytes = targets.size * MESSAGE_BYTES
                    if self.stores_edges_on_disk:
                        # GraphD spills the pre-combine stream to disk.
                        server.counters.disk_write += int(sel.sum()) * MESSAGE_BYTES
                        server.counters.disk_read += int(sel.sum()) * MESSAGE_BYTES
                    else:
                        max_message_mem = max(
                            max_message_mem, int(sel.sum()) * MESSAGE_BYTES
                        )
                    if t != s:
                        self.channel.send(s, t, b"\x00" * payload_bytes)
                        self.channel.receive_all(t)  # drain; data applied below
                    # Receiver digests one combined message per target.
                    servers[t].counters.messages_processed += int(
                        targets.size * self.compute_overhead
                    )
                    reduce_into(accum, got_message, targets, combined, op)

            if not self.stores_edges_on_disk:
                for server in servers:
                    server.counters.set_memory(
                        "messages",
                        int(
                            max_message_mem * self.memory_overhead
                            + graph.num_vertices / n * 8
                        ),
                    )
            return Gathered(accum, got_message)

        return gather, None


class GraphDEngine(PregelEngine):
    """Out-of-core Pregel: adjacency and message spills on disk."""

    name = "graphd"
    stores_edges_on_disk = True
