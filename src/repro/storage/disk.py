"""Metered per-server local disk.

Each simulated server owns a :class:`LocalDisk` rooted in its own
directory.  Blobs are real files (tiles genuinely round-trip through the
filesystem — nothing is mocked), and every read/write is metered so the
cost model can charge paper-calibrated disk time (the testbed's RAID5
sustains ~310 MB/s sequential reads, §IV-B).

A disk also counts the writes of every blob name — its *generation* —
so a fact remembered about a blob (the edge cache's stored sizes) can
tell whether the blob was written again since it was learned.
"""

from __future__ import annotations

import os
from pathlib import Path


class LocalDisk:
    """A directory-backed blob store with byte-level accounting."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        # Blob name -> number of writes under that name.
        self.generations: dict[str, int] = {}

    def _path(self, name: str) -> Path:
        if "/" in name or "\\" in name or name in (".", ".."):
            raise ValueError(f"invalid blob name {name!r}")
        return self.root / name

    def write(self, name: str, data: bytes) -> int:
        """Persist a blob; returns bytes written."""
        path = self._path(name)
        path.write_bytes(data)
        self.generations[name] = self.generations.get(name, 0) + 1
        self.bytes_written += len(data)
        self.write_ops += 1
        return len(data)

    def generation(self, name: str) -> int:
        """How many times blob ``name`` was written here (0: never, or
        before this disk object existed)."""
        return self.generations.get(name, 0)

    def read(self, name: str) -> bytes:
        """Read a blob back; meters the transfer."""
        data = self._path(name).read_bytes()
        self.bytes_read += len(data)
        self.read_ops += 1
        return data

    def meter_read(self, nbytes: int) -> None:
        """Charge the meters for a read of ``nbytes`` that is not made:
        the caller already holds the blob — decoded, or read ahead — and
        replays only the simulated I/O :meth:`read` would meter."""
        self.bytes_read += int(nbytes)
        self.read_ops += 1

    def peek(self, name: str) -> bytes:
        """Unmetered read for host-side plumbing (shared-memory blob
        placement, prefetch speculation, the bytes behind an edge-cache
        hit or a size the edge cache has yet to learn) — never for
        simulated I/O."""
        return self._path(name).read_bytes()

    def exists(self, name: str) -> bool:
        """Whether a blob is present."""
        return self._path(name).exists()

    def size(self, name: str) -> int:
        """On-disk size of a blob in bytes."""
        return self._path(name).stat().st_size

    def delete(self, name: str) -> None:
        """Remove a blob (missing blobs are ignored)."""
        try:
            self._path(name).unlink()
        except FileNotFoundError:
            pass

    def used_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(p.stat().st_size for p in self.root.iterdir() if p.is_file())

    def reset_counters(self) -> None:
        """Zero the I/O meters (storage is untouched)."""
        self.bytes_read = self.bytes_written = 0
        self.read_ops = self.write_ops = 0

    def __repr__(self) -> str:
        return (
            f"LocalDisk({str(self.root)!r}, read={self.bytes_read}B, "
            f"written={self.bytes_written}B)"
        )
