"""An HDFS-like distributed file system on simulated datanodes.

Files are split into fixed-size blocks; each block is replicated onto
``replication`` distinct datanodes chosen round-robin from a rotating
start (the standard HDFS placement spread).  Block payloads live on real
:class:`repro.storage.LocalDisk` instances, one per datanode, so DFS
reads/writes are genuine file I/O and are metered per datanode.

The API is deliberately small — ``write / read / exists / delete /
list_files / size`` — exactly what SPE (persist tiles) and MPE (fetch
assigned tiles to local disk) need in Figure 3's pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import NULL_BUFFER
from repro.storage.disk import LocalDisk
from repro.utils.sizes import MB

# Namenode image persisted next to the datanode directories so a later
# process on the same root sees the same namespace (block payloads are
# already real files on the datanode disks).
_NAMESPACE_FILE = "namespace.json"


@dataclass(frozen=True)
class BlockLocation:
    """Where one replica of one block lives."""

    block_index: int
    datanode: int
    blob_name: str


@dataclass
class DfsFileInfo:
    """Namenode metadata for one file."""

    path: str
    size: int
    block_size: int
    blocks: list[list[BlockLocation]] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        """Number of logical blocks (not replicas)."""
        return len(self.blocks)


class DistributedFileSystem:
    """Namenode + datanode block stores.

    Parameters
    ----------
    root:
        Directory that holds one subdirectory per datanode.
    num_datanodes:
        Cluster width; block replicas land on distinct datanodes.
    block_size:
        Split granularity (HDFS default is 128 MB; tests use tiny
        blocks to exercise multi-block paths).
    replication:
        Copies per block, clamped to ``num_datanodes``.
    """

    def __init__(
        self,
        root: str,
        num_datanodes: int = 3,
        block_size: int = 8 * MB,
        replication: int = 2,
    ) -> None:
        if num_datanodes < 1:
            raise ValueError("need at least one datanode")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.block_size = int(block_size)
        self.replication = min(int(replication), num_datanodes)
        self._root = Path(root)
        self.datanodes = [
            LocalDisk(f"{root}/datanode-{i}") for i in range(num_datanodes)
        ]
        self._files: dict[str, DfsFileInfo] = {}
        self._next_start = 0
        self._next_block_id = 0
        self._dead: set[int] = set()
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.  May inject transient read errors.
        self.fault_injector = None
        # Engine TraceBuffer (repro.obs.trace) when tracing is on, the
        # null buffer otherwise; records dfs-read/dfs-write spans.  DFS
        # calls happen on the parent/engine side only (setup,
        # checkpoints, recovery), so the single-writer buffer contract
        # holds.
        self.trace = NULL_BUFFER
        # A persisted namenode image from a previous process (see
        # save_namespace) is picked up automatically.
        if (self._root / _NAMESPACE_FILE).exists():
            self.load_namespace()

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether a file is present in the namespace."""
        return path in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        """Sorted paths, optionally filtered by prefix."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def size(self, path: str) -> int:
        """Logical file size in bytes."""
        return self._info(path).size

    def info(self, path: str) -> DfsFileInfo:
        """Full metadata for a file."""
        return self._info(path)

    def _info(self, path: str) -> DfsFileInfo:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(f"no such DFS file: {path}") from None

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def write(self, path: str, data: bytes) -> DfsFileInfo:
        """Create or replace a file (whole-file semantics, like HDFS)."""
        with self.trace.span("dfs-write", "io", path=path, nbytes=len(data)):
            if self.exists(path):
                self.delete(path)
            info = DfsFileInfo(path=path, size=len(data), block_size=self.block_size)
            n_nodes = len(self.datanodes)
            offsets = range(0, max(len(data), 1), self.block_size)
            live_nodes = [i for i in range(n_nodes) if i not in self._dead]
            if not live_nodes:
                raise IOError("no live datanodes to write to")
            replication = min(self.replication, len(live_nodes))
            for block_index, offset in enumerate(offsets):
                chunk = data[offset : offset + self.block_size]
                replicas = []
                for r in range(replication):
                    node = live_nodes[(self._next_start + r) % len(live_nodes)]
                    blob = f"blk-{self._next_block_id}-r{r}"
                    self.datanodes[node].write(blob, chunk)
                    replicas.append(
                        BlockLocation(block_index=block_index, datanode=node, blob_name=blob)
                    )
                self._next_block_id += 1
                self._next_start = (self._next_start + 1) % len(live_nodes)
                info.blocks.append(replicas)
            self._files[path] = info
            return info

    def read(self, path: str, prefer_datanode: int | None = None) -> bytes:
        """Read a whole file back.

        ``prefer_datanode`` models HDFS short-circuit locality: when a
        block has a replica on that datanode it is read there, keeping
        the transfer local to the requesting server.

        An attached fault injector may declare the read transiently
        faulty: each failed attempt re-reads the first block's chosen
        replica (real, metered datanode I/O) before the read succeeds —
        or raises :class:`repro.faults.errors.DfsReadFault` for fatal
        events.
        """
        with self.trace.span("dfs-read", "io", path=path):
            info = self._info(path)
            extra_attempts = 0
            if self.fault_injector is not None:
                extra_attempts = self.fault_injector.on_dfs_read(path)
            parts: list[bytes] = []
            for replicas in info.blocks:
                live = [loc for loc in replicas if loc.datanode not in self._dead]
                if not live:
                    raise IOError(
                        f"block {replicas[0].block_index} of {path} has no "
                        f"live replica (dead datanodes: {sorted(self._dead)})"
                    )
                chosen = live[0]
                if prefer_datanode is not None:
                    for loc in live:
                        if loc.datanode == prefer_datanode:
                            chosen = loc
                            break
                for _ in range(extra_attempts):
                    # Wasted attempt: the replica is read and discarded,
                    # metering the retry traffic on the datanode's disk.
                    self.datanodes[chosen.datanode].read(chosen.blob_name)
                extra_attempts = 0  # transients hit the first block only
                parts.append(self.datanodes[chosen.datanode].read(chosen.blob_name))
            return b"".join(parts)

    def delete(self, path: str) -> None:
        """Remove a file and all block replicas."""
        info = self._files.pop(path, None)
        if info is None:
            return
        for replicas in info.blocks:
            for loc in replicas:
                self.datanodes[loc.datanode].delete(loc.blob_name)

    # ------------------------------------------------------------------
    # Namenode persistence
    # ------------------------------------------------------------------
    def save_namespace(self) -> str:
        """Persist the namenode image (file→block metadata) to the root.

        Datanode block payloads are already durable (real files); this
        makes the *namespace* survive the process, so a later
        ``DistributedFileSystem`` on the same root — e.g. a CLI
        invocation with ``--state-dir`` resuming from a checkpoint —
        sees every file written here.  Returns the image path.
        """
        image = {
            "block_size": self.block_size,
            "replication": self.replication,
            "num_datanodes": len(self.datanodes),
            "next_start": self._next_start,
            "next_block_id": self._next_block_id,
            "dead": sorted(self._dead),
            "files": {
                path: {
                    "size": info.size,
                    "block_size": info.block_size,
                    "blocks": [
                        [
                            [loc.block_index, loc.datanode, loc.blob_name]
                            for loc in replicas
                        ]
                        for replicas in info.blocks
                    ],
                }
                for path, info in self._files.items()
            },
        }
        out = self._root / _NAMESPACE_FILE
        out.write_text(json.dumps(image), encoding="utf-8")
        return str(out)

    def load_namespace(self) -> None:
        """Restore a persisted namenode image (see :meth:`save_namespace`)."""
        image = json.loads(
            (self._root / _NAMESPACE_FILE).read_text(encoding="utf-8")
        )
        if image["num_datanodes"] != len(self.datanodes):
            raise ValueError(
                f"persisted namespace expects {image['num_datanodes']} "
                f"datanodes, this cluster has {len(self.datanodes)} — "
                "use the same cluster width as the original run"
            )
        self._next_start = int(image["next_start"])
        self._next_block_id = int(image["next_block_id"])
        self._dead = set(image["dead"])
        self._files = {}
        for path, meta in image["files"].items():
            info = DfsFileInfo(
                path=path, size=int(meta["size"]), block_size=int(meta["block_size"])
            )
            for replicas in meta["blocks"]:
                info.blocks.append(
                    [
                        BlockLocation(
                            block_index=int(b), datanode=int(d), blob_name=n
                        )
                        for b, d, n in replicas
                    ]
                )
            self._files[path] = info

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def fail_datanode(self, datanode: int) -> None:
        """Mark a datanode dead: reads fall back to surviving replicas,
        new blocks avoid it.  Data on its disk is considered lost."""
        if not 0 <= datanode < len(self.datanodes):
            raise ValueError(f"unknown datanode {datanode}")
        self._dead.add(datanode)

    def revive_datanode(self, datanode: int) -> None:
        """Bring a datanode back (its old blobs become readable again)."""
        self._dead.discard(datanode)

    @property
    def dead_datanodes(self) -> frozenset[int]:
        """Currently failed datanodes."""
        return frozenset(self._dead)

    def under_replicated_blocks(self) -> int:
        """Blocks with fewer live replicas than the replication target."""
        count = 0
        target = min(
            self.replication, len(self.datanodes) - len(self._dead)
        )
        for info in self._files.values():
            for replicas in info.blocks:
                live = sum(1 for loc in replicas if loc.datanode not in self._dead)
                if live < target:
                    count += 1
        return count

    def repair(self) -> int:
        """Re-replicate under-replicated blocks onto live datanodes.

        The namenode's HDFS-style recovery pass: for each block short of
        the (live-node-clamped) replication target, copy a surviving
        replica to a live datanode that does not yet hold one.  Returns
        the number of new replicas created.  Blocks with zero live
        replicas are unrecoverable and are skipped (reads raise).
        """
        live_nodes = [
            i for i in range(len(self.datanodes)) if i not in self._dead
        ]
        target = min(self.replication, len(live_nodes))
        created = 0
        for info in self._files.values():
            for replicas in info.blocks:
                live = [loc for loc in replicas if loc.datanode not in self._dead]
                if not live or len(live) >= target:
                    continue
                data = self.datanodes[live[0].datanode].read(live[0].blob_name)
                holders = {loc.datanode for loc in live}
                for node in live_nodes:
                    if len(live) >= target:
                        break
                    if node in holders:
                        continue
                    blob = f"blk-{self._next_block_id}-repair"
                    self._next_block_id += 1
                    self.datanodes[node].write(blob, data)
                    new_loc = BlockLocation(
                        block_index=live[0].block_index,
                        datanode=node,
                        blob_name=blob,
                    )
                    replicas.append(new_loc)
                    live.append(new_loc)
                    holders.add(node)
                    created += 1
        return created

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_stored_bytes(self) -> int:
        """Physical bytes across all datanodes (counts replicas)."""
        return sum(disk.used_bytes() for disk in self.datanodes)

    def datanode_read_bytes(self) -> list[int]:
        """Per-datanode read meter."""
        return [disk.bytes_read for disk in self.datanodes]

    def __repr__(self) -> str:
        return (
            f"DistributedFileSystem(files={len(self._files)}, "
            f"datanodes={len(self.datanodes)}, block={self.block_size}B, "
            f"replication={self.replication})"
        )
