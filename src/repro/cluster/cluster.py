"""Cluster container wiring servers, DFS, and the spec together."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.cluster.counters import Counters
from repro.cluster.server import Server
from repro.cluster.spec import ClusterSpec
from repro.dfs import DistributedFileSystem
from repro.utils.sizes import MB


class Cluster:
    """``N`` simulated servers sharing a DFS.

    Use as a context manager (or call :meth:`close`) to clean up the
    on-disk state; by default everything lives in a private temp dir.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        root: str | None = None,
        dfs_block_size: int = 8 * MB,
        dfs_replication: int = 2,
    ) -> None:
        self.spec = spec
        self._owns_root = root is None
        self.root = Path(root) if root else Path(tempfile.mkdtemp(prefix="graphh-"))
        self.root.mkdir(parents=True, exist_ok=True)
        self.dfs = DistributedFileSystem(
            str(self.root / "dfs"),
            num_datanodes=spec.num_servers,
            block_size=dfs_block_size,
            replication=dfs_replication,
        )
        self.servers = [
            Server(i, str(self.root / f"server-{i}")) for i in range(spec.num_servers)
        ]

    @property
    def num_servers(self) -> int:
        """Cluster width ``N``."""
        return self.spec.num_servers

    def aggregate_counters(self) -> Counters:
        """Sum of all per-server counters."""
        total = Counters()
        for server in self.servers:
            total.merge(server.counters)
        return total

    def max_server_memory_peak(self) -> int:
        """Peak memory of the busiest server (Figure 6b's metric)."""
        return max(server.counters.mem_peak for server in self.servers)

    def close(self) -> None:
        """Remove on-disk state if this cluster owns its root dir."""
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Cluster(N={self.num_servers}, root={str(self.root)!r})"
