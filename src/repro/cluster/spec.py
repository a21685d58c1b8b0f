"""Hardware description of a simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.sizes import GB, MB


@dataclass(frozen=True)
class ClusterSpec:
    """Per-server hardware constants plus cluster width.

    Defaults reproduce the paper's testbed (Figure 1 caption): 9 servers
    × (12 cores, 128 GB RAM, RAID5 HDDs, 10 Gbps Ethernet).  The paper
    runs 24 workers per server (216 workers over 9 nodes, footnote 3).
    """

    num_servers: int = 9
    workers_per_server: int = 24
    memory_bytes: int = 128 * GB
    disk_read_bps: float = 310 * MB  # RAID5 sequential read (§IV-B)
    # Effective bandwidth when many workers fetch tiles concurrently on
    # cache misses — seek-bound, a fraction of the sequential rate.
    # This asymmetry (streaming systems read sequentially, a thrashing
    # edge cache reads randomly) is what makes Figure 7's cache-starved
    # mode-1 an order of magnitude slower, not ~2x.
    disk_random_read_bps: float = 62 * MB
    disk_write_bps: float = 200 * MB
    network_bps: float = 10e9 / 8  # 10 Gbps full duplex, bytes/s
    # Per-edge gather throughput, calibrated to the paper's explicit
    # GraphH numbers (EU-2015 PageRank: 10s/superstep on 9 nodes,
    # 131s on one node → ~1e9 edges/s/server → ~40M/worker).
    compute_edges_per_sec_per_worker: float = 40e6
    # Per-message handling (serialise, route, hash-combine) in
    # message-passing engines; ~60M msgs/s/server, calibrated so
    # Pregel+'s modeled gap to GraphH lands at the paper's 7.5x
    # (UK-2007) and 7.8x (Twitter-2010) — Figs 1b / 9a / 9b.
    messages_per_sec_per_worker: float = 2.5e6
    superstep_sync_overhead_s: float = 0.05
    # Schedule-probe cost per *skipped* tile: checking an in-memory
    # bitmap/bloom summary instead of loading the tile.  GraphMP §III
    # treats this as negligible but nonzero; a few µs keeps selective
    # scheduling honest without dominating anything.
    tile_probe_s: float = 5e-6
    # Per-edit cost of composing a delta overlay over its base tile at
    # load time (repro.delta): one insert/delete row applied to the
    # decoded CSR.  Tens of ns/edge — array surgery at memory bandwidth,
    # same order as the gather's per-edge cost.
    delta_edge_apply_s: float = 2e-8

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if self.workers_per_server < 1:
            raise ValueError("workers_per_server must be >= 1")
        for field_name in (
            "memory_bytes",
            "disk_read_bps",
            "disk_random_read_bps",
            "disk_write_bps",
            "network_bps",
            "compute_edges_per_sec_per_worker",
            "messages_per_sec_per_worker",
            "tile_probe_s",
            "delta_edge_apply_s",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @property
    def total_workers(self) -> int:
        """Workers across the whole cluster (the paper's ``T * N``)."""
        return self.num_servers * self.workers_per_server


#: The evaluation testbed (9 nodes).  The 1/3/6-node points of Figures
#: 9-10 are clusters built as ``ClusterSpec(num_servers=n)``
#: (``repro.analysis.experiments.CLUSTER_SIZES``).
PAPER_TESTBED = ClusterSpec()
