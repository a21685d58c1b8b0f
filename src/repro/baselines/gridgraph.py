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

import numpy as np

from repro.apps.base import VertexProgram
from repro.baselines.bsp import BSPEngine, Gathered, edge_messages, reduce_into
from repro.cluster.cluster import Cluster
from repro.graph.graph import Graph
from repro.metrics.schedule import effective_parallel_volume


class GridGraphEngine(BSPEngine):
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
    def _prepare(self, program: VertexProgram, graph: Graph):
        server = self.cluster.servers[0]
        bounds, blocks = self._stage_grid(graph)
        p = self.grid_side
        out_degrees = graph.out_degrees

        # Two vertex chunks + accumulators resident (the sliding window).
        chunk_vertices = int(np.diff(bounds).max(initial=0))
        server.counters.set_memory("vertex", 2 * chunk_vertices * 12)
        server.counters.set_memory("messages", chunk_vertices * 8)

        def gather(values: np.ndarray, sending: np.ndarray) -> Gathered:
            # Per-chunk "any source changed" flags for selective scheduling.
            chunk_live = [sending[bounds[i] : bounds[i + 1]].any() for i in range(p)]
            accum = np.full(graph.num_vertices, program.identity)
            got = np.zeros(graph.num_vertices, dtype=bool)
            streamed = skipped = 0
            block_edge_counts: list[int] = []
            # Column-major: destination chunk j's accumulators stay hot
            # while blocks (0..P-1, j) stream through, each edge reduced
            # straight into them in stream order.
            for j in range(p):
                for i in range(p):
                    if (i, j) not in blocks:
                        continue
                    if not chunk_live[i]:
                        skipped += 1
                        continue
                    src, dst, w = self._read_block(server.load_blob(f"grid-{i}-{j}"))
                    live = sending[src]
                    src, dst, w = src[live], dst[live], w[live]
                    streamed += 1
                    if src.size == 0:
                        continue
                    contrib = edge_messages(program, values, out_degrees, src, w)
                    block_edge_counts.append(int(src.size))
                    reduce_into(accum, got, dst, contrib, program.reduce_op)
            server.counters.edges_processed += int(
                round(
                    effective_parallel_volume(
                        block_edge_counts, self.cluster.spec.workers_per_server
                    )
                )
            )
            return Gathered(accum, got, streamed, skipped)

        return gather, None
