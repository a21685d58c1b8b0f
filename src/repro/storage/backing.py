"""Backing files for semi-external-memory vertex state.

GraphMP's semi-external-memory model keeps vertex data addressable but
not necessarily resident: the vertex arrays that were this engine's
memory ceiling become ``np.memmap`` views over real files, and
the OS pages them in and out on demand.  :class:`BackingStore` owns one
directory of such files (one per array) and hands out writable
``mode="w+"`` maps — ``MAP_SHARED``, so a map created in the parent
before :class:`~repro.runtime.process.ProcessExecutor` forks is visible
to every worker exactly like a shared-memory segment, and barrier writes
land in the parent without any result shipping.

These files are *host plumbing*, not simulated storage: they never touch
:class:`~repro.storage.disk.LocalDisk` meters or the cost model.  The
modeled §IV-A memory accounting is likewise unchanged — stores report
the logical replica size whether the bytes live in RAM or a file.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["BackingStore"]


class BackingStore:
    """A directory of memory-mapped array files.

    Create one per run (rooted under the cluster's tempdir), allocate
    maps with :meth:`create`, and :meth:`release` when the run's stores
    are torn down.  Maps are fork-shareable and survive checkpoint /
    restore untouched — checkpointing reads them through the ordinary
    ndarray interface.
    """

    def __init__(self, root: str | Path | None = None, prefix: str = "vstore-") -> None:
        if root is None:
            self.root = Path(tempfile.mkdtemp(prefix=prefix))
        else:
            self.root = Path(tempfile.mkdtemp(prefix=prefix, dir=str(root)))
        self._seq = 0
        self._maps: list[np.memmap] = []
        self._released = False

    def create(self, source: np.ndarray, tag: str = "arr") -> np.memmap:
        """Allocate a backing file holding a copy of ``source`` and
        return the writable map (same shape/dtype/content)."""
        if self._released:
            raise RuntimeError("BackingStore already released")
        path = self.root / f"{tag}-{self._seq}.bin"
        self._seq += 1
        mm = np.memmap(path, dtype=source.dtype, mode="w+", shape=source.shape)
        mm[...] = source
        self._maps.append(mm)
        return mm

    def used_bytes(self) -> int:
        """Total bytes of live backing files."""
        return sum(int(m.nbytes) for m in self._maps)

    def release(self) -> None:
        """Drop all maps and delete the directory (idempotent)."""
        if self._released:
            return
        self._released = True
        self._maps.clear()
        shutil.rmtree(self.root, ignore_errors=True)

    def __repr__(self) -> str:
        state = "released" if self._released else f"{len(self._maps)} maps"
        return f"BackingStore({str(self.root)!r}, {state})"
