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

import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.apps.base import VertexProgram
from repro.cluster.cluster import Cluster
from repro.cluster.counters import CounterSnapshot
from repro.comm.channel import Channel
from repro.core.mpe import RunResult, SuperstepReport
from repro.graph.graph import Graph
from repro.metrics.cost import CostModel
from repro.partition.vertex_cut import (
    VertexCutPartition,
    greedy_vertex_cut,
    hybrid_vertex_cut,
)

#: Partial accumulator / value-sync message: 4 B vertex id + 8 B value.
MESSAGE_BYTES = 12
_VERTEX_STATE_BYTES = 12


class GASEngine:
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
        # Fixed per-superstep cost of a general-purpose dataflow stack
        # (RDD materialisation per iteration for GraphX) — a constant,
        # like the sync term.
        self.framework_overhead_s = float(framework_overhead_s)
        self.partition: VertexCutPartition | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        graph: Graph,
        max_supersteps: int = 200,
    ) -> RunResult:
        cluster = self.cluster
        servers = cluster.servers
        n = cluster.num_servers
        part = self.cut(graph, n)
        self.partition = part
        values = program.init_values(graph).astype(np.float64, copy=True)
        out_degrees = graph.out_degrees

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
        changed_mask = program.initially_active(graph).copy()
        if program.reduce_op == "add":
            changed_mask = np.ones(graph.num_vertices, dtype=bool)
        reports: list[SuperstepReport] = []
        cost_model = CostModel(cluster.spec)
        converged = False

        for superstep in range(max_supersteps):
            t0 = time.perf_counter()
            before = {s.server_id: CounterSnapshot.capture(s) for s in servers}
            accum = np.full(graph.num_vertices, program.identity)
            got_partial = np.zeros(graph.num_vertices, dtype=bool)

            # --- gather phase (local partials + traffic to masters) ----
            for s, server in enumerate(servers):
                src, dst, w = server_edges[s]
                if src.size == 0:
                    continue
                if program.reduce_op != "add":
                    live = changed_mask[src]
                    src, dst, w = src[live], dst[live], w[live]
                    if src.size == 0:
                        continue
                contrib = program.edge_message(
                    values[src],
                    out_degrees[src] if program.uses_out_degree else None,
                    w if program.uses_edge_weight else None,
                )
                # Gather touches each in-edge; the scatter phase walks
                # the out-edge structures again to activate neighbors
                # (GAS keeps both directions — the 2|E| of Table III).
                server.counters.edges_processed += int(
                    2 * src.size * self.compute_overhead
                )
                uniq, inverse = np.unique(dst, return_inverse=True)
                # Each local partial accumulator is one message's worth
                # of work at the mirror and again at the master.
                server.counters.messages_processed += int(
                    2 * uniq.size * self.compute_overhead
                )
                if program.reduce_op == "add":
                    partial = np.bincount(inverse, weights=contrib, minlength=uniq.size)
                    accum[uniq] += partial
                else:
                    ufunc = {"min": np.minimum, "max": np.maximum}[
                        program.reduce_op
                    ]
                    partial = np.full(uniq.size, program.identity)
                    ufunc.at(partial, inverse, contrib)
                    ufunc.at(accum, uniq, partial)
                got_partial[uniq] = True
                # Mirrors ship partials to masters.
                remote = uniq[master[uniq] != s]
                for t in range(n):
                    count = int((master[remote] == t).sum()) if remote.size else 0
                    if count:
                        self.channel.send(s, t, b"\x00" * (count * MESSAGE_BYTES))
                        self.channel.receive_all(t)

            # --- apply phase at masters ---------------------------------
            new_values = program.apply(accum, values)
            if program.reduce_op != "add":
                new_values = np.where(got_partial, new_values, values)
            changed = program.value_changed(new_values, values)
            values = np.where(changed, new_values, values)
            updated = int(changed.sum())

            # --- sync phase: masters push new values to mirrors ---------
            changed_ids = np.flatnonzero(changed)
            if changed_ids.size:
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
                            self.channel.send(
                                m, s, b"\x00" * (count * MESSAGE_BYTES)
                            )
                            self.channel.receive_all(s)
                            self.cluster.servers[s].counters.messages_processed += int(
                                count * self.compute_overhead
                            )

            if program.reduce_op == "add":
                changed_mask = np.ones(graph.num_vertices, dtype=bool)
            else:
                changed_mask = changed

            step_deltas = [before[s.server_id].delta(s) for s in servers]
            modeled = cost_model.superstep_time(step_deltas)
            if self.framework_overhead_s:
                modeled = replace(
                    modeled, sync_s=modeled.sync_s + self.framework_overhead_s
                )
            reports.append(
                SuperstepReport(
                    superstep=superstep,
                    updated_vertices=updated,
                    tiles_processed=0,
                    tiles_skipped=0,
                    net_bytes=sum(d.net_sent for d in step_deltas),
                    disk_read_bytes=0,
                    cache_hit_ratio=0.0,  # in-memory engine: no cache, zero lookups
                    modeled=modeled,
                    wall_s=time.perf_counter() - t0,
                )
            )
            if updated == 0:
                converged = True
                break
        return RunResult(values=values, supersteps=reports, converged=converged)


def make_powerlyra_engine(cluster: Cluster, **kw) -> GASEngine:
    """PowerLyra = GAS over the degree-differentiated hybrid cut."""
    engine = GASEngine(cluster, cut=hybrid_vertex_cut, **kw)
    engine.name = "powerlyra"
    return engine
