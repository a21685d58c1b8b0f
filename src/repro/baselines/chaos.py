"""Chaos: edge-centric streaming GAS over shared storage (Algorithm 3).

Per superstep, three sequential scans:

* **scatter** — stream every partition's vertices + out-edges from the
  cluster DFS (shared, network-attached — "Chaos does not manage a
  streaming partition on a single server.  Instead, it spreads all data
  of a single partition over all servers"), compute one message per
  edge, and append it to the target partition's on-DFS message log;
* **gather** — stream each partition's message log back, reducing into
  per-vertex accumulators;
* **apply** — scan each partition's vertices, applying accumulators.

Table III's volumes fall straight out: per superstep Chaos reads
``2|E| + 2|V|``-ish bytes, writes ``|E| + |V|``, and every byte also
crosses the network.  Only ``N|V|/P`` vertex states are resident per
server.

Messages are written as real ``(target id, value)`` array blobs into the
DFS — the data movement is genuine, and answers validate against the
reference executor.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexProgram
from repro.baselines.bsp import BSPEngine, Gathered, edge_messages, reduce_into
from repro.cluster.cluster import Cluster
from repro.graph.graph import Graph
from repro.partition.streaming import StreamingPartition, build_streaming_partitions

_VERTEX_STATE_BYTES = 12


class ChaosEngine(BSPEngine):
    """Edge-centric out-of-core executor."""

    name = "chaos"

    def __init__(self, cluster: Cluster, partitions_per_server: int = 4) -> None:
        if partitions_per_server < 1:
            raise ValueError("partitions_per_server must be >= 1")
        self.cluster = cluster
        self.partitions_per_server = partitions_per_server

    # ------------------------------------------------------------------
    def _dfs_write(self, path: str, data: bytes, home_server: int) -> None:
        """Write to shared storage: disk + network on the writing server."""
        self.cluster.dfs.write(path, data)
        counters = self.cluster.servers[home_server].counters
        counters.disk_write += len(data)
        counters.net_sent += len(data)

    def _dfs_read(self, path: str, home_server: int) -> bytes:
        """Read from shared storage: disk + network on the reading server."""
        data = self.cluster.dfs.read(path)
        counters = self.cluster.servers[home_server].counters
        counters.disk_read += len(data)
        counters.net_recv += len(data)
        return data

    # ------------------------------------------------------------------
    def _prepare(self, program: VertexProgram, graph: Graph):
        servers = self.cluster.servers
        n = self.cluster.num_servers
        partitions = build_streaming_partitions(graph, n * self.partitions_per_server)
        num_partitions = len(partitions)
        out_degrees = graph.out_degrees

        # Stage partitions into shared storage once (input loading).
        bounds = np.array(
            [p.vertex_lo for p in partitions] + [graph.num_vertices], dtype=np.int64
        )
        for p in partitions:
            self._dfs_write(
                f"chaos/part-{p.partition_id}",
                p.to_bytes(),
                home_server=p.partition_id % n,
            )

        # Resident memory: each server works on one partition's vertices
        # at a time; Table III charges N|V|/P states.
        per_partition_vertices = max(p.num_vertices for p in partitions)
        for server in servers:
            server.counters.set_memory(
                "vertex",
                int(n * per_partition_vertices * _VERTEX_STATE_BYTES),
            )

        def gather(values: np.ndarray, sending: np.ndarray) -> Gathered:
            # --- scatter: stream partitions, emit per-edge messages ----
            outboxes: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
                pid: [] for pid in range(num_partitions)
            }
            for p in partitions:
                home = p.partition_id % n
                blob = self._dfs_read(f"chaos/part-{p.partition_id}", home)
                part = StreamingPartition.from_bytes(blob)
                live = sending[part.src]
                src = part.src[live]
                dst = part.dst[live]
                if src.size == 0:
                    continue
                contrib = edge_messages(
                    program, values, out_degrees, src, part.edge_values()[live]
                )
                servers[home].counters.edges_processed += src.size
                # Edge-centric scatter writes one message per edge.
                servers[home].counters.messages_processed += src.size
                dest_part = np.searchsorted(bounds, dst, side="right") - 1
                for pid in np.unique(dest_part).tolist():
                    sel = dest_part == pid
                    outboxes[pid].append((dst[sel], contrib[sel]))

            # Messages land in per-partition logs on shared storage.
            for pid, chunks in outboxes.items():
                if not chunks:
                    continue
                targets = np.concatenate([c[0] for c in chunks])
                payloads = np.concatenate([c[1] for c in chunks])
                blob = targets.astype(np.int64).tobytes() + payloads.tobytes()
                self._dfs_write(f"chaos/msg-{pid}", blob, home_server=pid % n)

            # --- gather: stream the logs back, reduce ------------------
            accum = np.full(graph.num_vertices, program.identity)
            got_message = np.zeros(graph.num_vertices, dtype=bool)
            for pid, chunks in outboxes.items():
                if not chunks:
                    continue
                home = pid % n
                blob = self._dfs_read(f"chaos/msg-{pid}", home)
                count = len(blob) // 16
                targets = np.frombuffer(blob, dtype=np.int64, count=count)
                payloads = np.frombuffer(blob, dtype=np.float64, offset=count * 8)
                # A vertex's messages all sit in its own partition's log.
                reduce_into(accum, got_message, targets, payloads, program.reduce_op)
                # Gather scans every logged message sequentially.
                servers[home].counters.messages_processed += targets.size
                self.cluster.dfs.delete(f"chaos/msg-{pid}")
            return Gathered(accum, got_message, tiles_streamed=num_partitions)

        def write_back(changed: np.ndarray) -> None:
            """Apply scans also re-write vertex states to shared storage."""
            for pid in range(num_partitions):
                servers[pid % n].counters.disk_write += (
                    partitions[pid].num_vertices * 8
                )

        return gather, write_back
