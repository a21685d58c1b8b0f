"""GridGraph-style single-machine out-of-core engine (extension).

The paper's related work (§I) positions GraphH against single-node
out-of-core systems — GraphChi, VENUS, X-Stream, and **GridGraph** [17],
whose "2-level hierarchical partitioning" streams edges grid-block by
grid-block.  This module implements that design so the reproduction can
put the whole related-work quadrant on one axis:

* vertices are split into ``P`` equal chunks;
* edges go into a ``P × P`` grid of blocks — block ``(i, j)`` holds the
  edges from chunk ``i`` to chunk ``j`` — persisted on the machine's
  local disk in compact binary form;
* a superstep streams the grid *column-major* (the dual sliding window):
  for each destination chunk ``j`` the accumulator slice stays hot in
  memory while blocks ``(0..P-1, j)`` stream through, then ``apply``
  runs once for the chunk;
* **selective scheduling**: a block is skipped when no vertex in its
  source chunk changed last superstep — GridGraph's answer to GraphH's
  bloom filters, at chunk granularity.

Memory footprint is two vertex chunks plus one block (O(|V|/P + |E|/P²));
disk traffic is O(active |E|) per superstep with no caching — which is
exactly why Figure 9c/9d-class workloads favour GraphH once the cluster
has idle RAM.
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.base import VertexProgram
from repro.cluster.cluster import Cluster
from repro.cluster.counters import CounterSnapshot
from repro.core.mpe import RunResult, SuperstepReport
from repro.graph.graph import Graph
from repro.metrics.cost import CostModel
from repro.metrics.schedule import effective_parallel_volume


class GridGraphEngine:
    """Single-node edge-grid streaming executor."""

    name = "gridgraph"

    def __init__(self, cluster: Cluster, grid_side: int = 4) -> None:
        if cluster.num_servers != 1:
            raise ValueError("GridGraph is a single-machine system")
        if grid_side < 1:
            raise ValueError("grid_side must be >= 1")
        self.cluster = cluster
        self.grid_side = grid_side

    # ------------------------------------------------------------------
    def _stage_grid(self, graph: Graph) -> tuple[np.ndarray, dict]:
        """Partition edges into the P×P grid and persist the blocks."""
        server = self.cluster.servers[0]
        p = self.grid_side
        bounds = np.linspace(0, graph.num_vertices, p + 1).astype(np.int64)
        src_chunk = np.searchsorted(bounds, graph.src, side="right") - 1
        dst_chunk = np.searchsorted(bounds, graph.dst, side="right") - 1
        weights = graph.edge_weights()
        blocks: dict[tuple[int, int], int] = {}
        for i in range(p):
            sel_i = src_chunk == i
            for j in range(p):
                sel = sel_i & (dst_chunk == j)
                count = int(sel.sum())
                if count == 0:
                    continue
                blob = (
                    graph.src[sel].astype(np.uint32).tobytes()
                    + graph.dst[sel].astype(np.uint32).tobytes()
                    + weights[sel].tobytes()
                )
                server.store_blob(f"grid-{i}-{j}", blob)
                blocks[(i, j)] = count
        return bounds, blocks

    @staticmethod
    def _read_block(blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        count = len(blob) // 16
        src = np.frombuffer(blob, dtype=np.uint32, count=count).astype(np.int64)
        dst = np.frombuffer(
            blob, dtype=np.uint32, count=count, offset=count * 4
        ).astype(np.int64)
        w = np.frombuffer(blob, dtype=np.float64, count=count, offset=count * 8)
        return src, dst, w

    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        graph: Graph,
        max_supersteps: int = 200,
    ) -> RunResult:
        server = self.cluster.servers[0]
        bounds, blocks = self._stage_grid(graph)
        p = self.grid_side
        values = program.init_values(graph).astype(np.float64, copy=True)
        out_degrees = graph.out_degrees
        ufuncs = {"add": np.add, "min": np.minimum, "max": np.maximum}
        ufunc = ufuncs[program.reduce_op]

        # Two vertex chunks + accumulators resident (the sliding window).
        chunk_vertices = int(np.diff(bounds).max(initial=0))
        server.counters.set_memory("vertex", 2 * chunk_vertices * 12)
        server.counters.set_memory("messages", chunk_vertices * 8)

        sending = program.initially_active(graph).copy()
        if program.reduce_op == "add":
            sending = np.ones(graph.num_vertices, dtype=bool)
        # Per-chunk "any source changed" flags for selective scheduling.
        chunk_live = np.array(
            [sending[bounds[i] : bounds[i + 1]].any() for i in range(p)]
        )
        reports: list[SuperstepReport] = []
        cost_model = CostModel(self.cluster.spec)
        converged = False

        for superstep in range(max_supersteps):
            t0 = time.perf_counter()
            before = {server.server_id: CounterSnapshot.capture(server)}
            blocks_streamed = 0
            blocks_skipped = 0
            block_edge_counts: list[int] = []
            new_values = values.copy()
            any_gather = np.zeros(graph.num_vertices, dtype=bool)

            for j in range(p):
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                accum = np.full(hi - lo, program.identity)
                got = np.zeros(hi - lo, dtype=bool)
                for i in range(p):
                    if (i, j) not in blocks:
                        continue
                    if not chunk_live[i]:
                        blocks_skipped += 1
                        continue
                    src, dst, w = self._read_block(
                        server.load_blob(f"grid-{i}-{j}")
                    )
                    live = sending[src]
                    src, dst, w = src[live], dst[live], w[live]
                    blocks_streamed += 1
                    if src.size == 0:
                        continue
                    contrib = program.edge_message(
                        values[src],
                        out_degrees[src] if program.uses_out_degree else None,
                        w if program.uses_edge_weight else None,
                    )
                    block_edge_counts.append(int(src.size))
                    ufunc.at(accum, dst - lo, contrib)
                    got[dst - lo] = True
                old = values[lo:hi]
                applied = program.apply(
                    accum, old, np.arange(lo, hi, dtype=np.int64)
                )
                if program.reduce_op != "add":
                    applied = np.where(got, applied, old)
                new_values[lo:hi] = applied
                any_gather[lo:hi] = got

            server.counters.edges_processed += int(
                round(
                    effective_parallel_volume(
                        block_edge_counts, self.cluster.spec.workers_per_server
                    )
                )
            )
            changed = program.value_changed(new_values, values)
            values = np.where(changed, new_values, values)
            updated = int(changed.sum())
            if program.reduce_op == "add":
                sending = np.ones(graph.num_vertices, dtype=bool)
                if updated == 0:
                    sending[:] = False
            else:
                sending = changed
            chunk_live = np.array(
                [sending[bounds[i] : bounds[i + 1]].any() for i in range(p)]
            )

            step_deltas = [before[server.server_id].delta(server)]
            reports.append(
                SuperstepReport(
                    superstep=superstep,
                    updated_vertices=updated,
                    tiles_processed=blocks_streamed,
                    tiles_skipped=blocks_skipped,
                    net_bytes=0,
                    disk_read_bytes=step_deltas[0].disk_read
                    + step_deltas[0].disk_read_random,
                    cache_hit_ratio=0.0,
                    modeled=cost_model.superstep_time(step_deltas),
                    wall_s=time.perf_counter() - t0,
                )
            )
            if updated == 0:
                converged = True
                break
        return RunResult(values=values, supersteps=reports, converged=converged)
