"""Shared-memory substrate for the process executor.

The process runtime keeps every large array — vertex values, degree
arrays, tile blobs — in POSIX shared memory
(:mod:`multiprocessing.shared_memory`) created *before* the worker pool
forks.  Workers inherit the mappings and operate on them zero-copy;
per-superstep dispatch ships only small handles and compact results,
never pickled megabyte payloads.

Every segment created through :class:`SharedArray` is tracked in a
process-local registry so tests can assert nothing leaked
(:func:`outstanding_segments`).  Segments are named
``repro-<pid>-<seq>`` which also makes stale ``/dev/shm`` entries
attributable.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Iterable

import numpy as np

from repro.comm.messages import pack_update, packed_size, unpack_update
from repro.storage.disk import LocalDisk

__all__ = [
    "SharedAllocator",
    "SharedArray",
    "SharedBlobArena",
    "ArenaDisk",
    "InboxResolver",
    "StagedInboxes",
    "attach_segment",
    "front_disks",
    "outstanding_segments",
    "process_runtime_available",
    "segment_prefix",
]

_SEQ = itertools.count()
# Leak registry: name -> SharedMemory for every segment this process
# created and has not yet released.  Forked children inherit a frozen
# copy; only the creating (parent) process releases segments.
_LIVE: dict[str, object] = {}


def segment_prefix() -> str:
    """Name prefix of segments created by this process."""
    return f"repro-{os.getpid()}-"


def outstanding_segments() -> list[str]:
    """Names of shared segments created here and not yet released.

    The leak-check fixture in ``tests/conftest.py`` asserts this is
    empty after every test.
    """
    return sorted(_LIVE)


def process_runtime_available() -> bool:
    """Whether this platform supports the process executor.

    Requires the ``fork`` start method (workers inherit engine state and
    closures without pickling) and POSIX shared memory.  On platforms
    without either (e.g. Windows, some sandboxes) the engine falls back
    to the serial executor and records the fallback.
    """
    if sys.platform == "win32":
        return False
    try:
        import multiprocessing
        import multiprocessing.shared_memory  # noqa: F401

        return "fork" in multiprocessing.get_all_start_methods()
    except (ImportError, OSError):  # pragma: no cover - exotic platforms
        return False


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    Created once in the parent (before fork); workers inherit the
    mapping, so reads and writes on ``.array`` are zero-copy on both
    sides.  The creating process must call :meth:`release` (idempotent)
    to close and unlink the segment.
    """

    def __init__(self, shape, dtype) -> None:
        from multiprocessing import shared_memory

        self._template = np.empty(0, dtype=dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * self._template.itemsize
        self.name = f"{segment_prefix()}{next(_SEQ)}"
        self._shm = shared_memory.SharedMemory(
            create=True, name=self.name, size=max(1, nbytes)
        )
        self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        _LIVE[self.name] = self._shm

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Allocate a segment and copy ``source`` into it."""
        sh = cls(source.shape, source.dtype)
        sh.array[...] = source
        return sh

    def release(self) -> None:
        """Close and unlink the segment (idempotent; parent only)."""
        shm = _LIVE.pop(self.name, None)
        if shm is None:
            return
        # Drop the exported view first: SharedMemory.close() refuses
        # while ndarrays still reference the buffer.
        self.array = None
        shm.close()
        shm.unlink()

    def __repr__(self) -> str:
        state = "released" if self.name not in _LIVE else "live"
        return f"SharedArray({self.name}, {state})"


class SharedAllocator:
    """Array allocator over shared-memory segments, shaped like
    :class:`repro.storage.backing.BackingStore` (``create`` / ``release``)
    so the vertex stores take either.  One per process-executor run,
    created before the pool forks; ``release`` (parent only, after the
    stores dropped their views) unlinks every segment it handed out.
    """

    def __init__(self) -> None:
        self._owned: list[SharedArray] = []

    def create(self, source: np.ndarray, tag: str = "arr") -> np.ndarray:
        """A shared segment holding a copy of ``source`` (``tag`` is
        the BackingStore file tag; segments are anonymous)."""
        self._owned.append(SharedArray.from_array(source))
        return self._owned[-1].array

    def release(self) -> None:
        while self._owned:
            self._owned.pop().release()


def attach_segment(name: str):
    """Attach to an existing segment by name (worker side).

    Per-superstep segments — the shared inboxes — are created in the
    parent *after* the pool forked, so workers cannot inherit the
    mapping and must attach by name instead.  The attachment is
    deliberately kept out of the ``_LIVE`` registry and out of the
    resource tracker: the parent owns the segment's lifetime (it
    registered at create and unregisters at unlink), so a worker-side
    registration would double-unregister and spew tracker KeyErrors.
    Callers only ``close()`` the returned handle.
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        # Python >= 3.13 can opt out of tracking directly.
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:
        pass
    # Older interpreters register every attach with the tracker;
    # suppress that for the duration of the constructor.  Workers are
    # single-threaded when they attach (the apply phase handler).
    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = orig


class StagedInboxes:
    """One superstep's drained mailboxes, staged for the apply dispatch.

    ``inboxes[i]`` is server ``i``'s mailbox as ``(sender id, record)``
    pairs (:class:`~repro.comm.messages.UpdatePayload`); ``handles[i]``
    is the opaque per-server payload the engine ships and the handler
    turns back into those pairs with :meth:`InboxResolver.resolve`.
    With ``shared=False`` (in-process transports) a handle carries the
    pairs themselves.  With ``shared=True`` every distinct record (by
    identity: a broadcast delivers one record to every mailbox) is
    packed once (:func:`~repro.comm.messages.pack_update`, never empty)
    into one shared segment and a handle carries ``(sender, offset,
    length)`` spans.  A superstep that delivered nothing (a single
    server) allocates no segment.  :meth:`release` (idempotent) unlinks
    the segment as soon as the phase returns, so workers never hold it
    across supersteps.
    """

    def __init__(self, inboxes: list[list[tuple]], shared: bool) -> None:
        self._arena: SharedArray | None = None
        self.handles: list = [(None, inbox) for inbox in inboxes]
        distinct = (
            {id(rec): rec for inbox in inboxes for _src, rec in inbox}
            if shared
            else {}
        )
        if not distinct:
            return
        spans, total = {}, 0
        for key, rec in distinct.items():
            spans[key] = (total, packed_size(rec))
            total += -(-spans[key][1] // 8) * 8  # 8-byte aligned spans
        self._arena = SharedArray((total,), np.uint8)
        for key, rec in distinct.items():
            off, n = spans[key]
            # One record's bytes at a time; no local alias of the array:
            # release() cannot close the segment while one is alive.
            self._arena.array[off : off + n] = np.frombuffer(
                pack_update(rec), dtype=np.uint8
            )
        self.handles = [
            (self._arena.name, [(src, *spans[id(rec)]) for src, rec in inbox])
            for inbox in inboxes
        ]

    def release(self) -> None:
        if self._arena is not None:
            self._arena.release()
            self._arena = None


class InboxResolver:
    """Turns :class:`StagedInboxes` handles back into ``(sender id,
    record)`` pairs, on whichever side of a fork the handler runs.

    Shared handles attach to the superstep's segment by name the first
    time this resolver sees it, then serve repeated spans from a
    per-segment memo: each distinct record is unpacked once, into
    read-only views over the segment.  Moving to the next segment drops
    the memo before closing the old attachment, which refuses to close
    while a view of it is alive.
    """

    def __init__(self) -> None:
        # (segment name, attachment, {(offset, length): record}).
        self._attached: tuple[str, object, dict] | None = None

    def resolve(self, handle) -> list[tuple]:
        segment, entries = handle
        if segment is None:
            return entries
        if self._attached is None or self._attached[0] != segment:
            if self._attached is not None:
                self._attached[2].clear()
                self._attached[1].close()
            self._attached = (segment, attach_segment(segment), {})
        _name, shm, memo = self._attached
        inbox = []
        for src, off, ln in entries:
            rec = memo.get((off, ln))
            if rec is None:
                rec = memo[(off, ln)] = unpack_update(shm.buf[off : off + ln])
            inbox.append((src, rec))
        return inbox


class SharedBlobArena:
    """Read-only blob bytes concatenated into one shared segment.

    Tile blobs are immutable after setup; placing them all in a single
    shared mapping means worker tile loads touch the same physical pages
    as the parent instead of each process paging its own file reads.
    The arena is a *host-side* placement detail: metered disk traffic is
    unchanged (see :class:`ArenaDisk`).
    """

    def __init__(self, blobs: Iterable[tuple[str, bytes]]) -> None:
        items = list(blobs)
        total = sum(len(data) for _, data in items)
        self._sh = SharedArray((max(1, total),), np.uint8)
        self._offsets: dict[str, tuple[int, int]] = {}
        view = self._sh.array
        cursor = 0
        for name, data in items:
            n = len(data)
            view[cursor : cursor + n] = np.frombuffer(data, dtype=np.uint8)
            self._offsets[name] = (cursor, n)
            cursor += n
        view.setflags(write=False)

    def __contains__(self, name: str) -> bool:
        return name in self._offsets

    def get(self, name: str) -> bytes | None:
        """Blob bytes (a private copy, like a disk read into a buffer),
        or None if the arena does not hold this name."""
        span = self._offsets.get(name)
        if span is None:
            return None
        off, n = span
        return bytes(self._sh.array[off : off + n])

    @property
    def nbytes(self) -> int:
        return int(self._sh.array.nbytes)

    def release(self) -> None:
        self._sh.release()


class ArenaDisk(LocalDisk):
    """A server's local disk with reads served from a shared arena.

    Byte-for-byte the same accounting as :class:`LocalDisk` — the meters
    advance identically and misses (blobs written after the arena was
    built, e.g. by a respawn) fall through to the real files.  Installed
    on each server for the duration of one process-executor run.  The
    write generations are the wrapped disk's own map, not a copy: a
    size the edge cache learned on either disk is checked against every
    write made through both, and a blob written again since the arena
    was built is read from its file, not from the arena's old copy.
    """

    def __init__(self, inner: LocalDisk, arena: SharedBlobArena) -> None:
        super().__init__(inner.root)
        self._inner = inner
        self._arena = arena
        self.generations = inner.generations
        self._fronted = dict(inner.generations)
        # Continue the wrapped disk's meters so deltas span the swap.
        self.bytes_read = inner.bytes_read
        self.bytes_written = inner.bytes_written
        self.read_ops = inner.read_ops
        self.write_ops = inner.write_ops

    def _shared(self, name: str) -> bytes | None:
        """The arena's copy of blob ``name``, if it still is the blob."""
        if self.generation(name) != self._fronted.get(name, 0):
            return None
        return self._arena.get(name)

    def read(self, name: str) -> bytes:
        data = self._shared(name)
        if data is None:
            return super().read(name)
        self.bytes_read += len(data)
        self.read_ops += 1
        return data

    def peek(self, name: str) -> bytes:
        """Unmetered read served from the shared arena when possible —
        the prefetch pipeline's speculation path inside forked workers."""
        data = self._shared(name)
        if data is None:
            return super().peek(name)
        return data

    def restore(self) -> LocalDisk:
        """Hand the meters back to the wrapped disk and return it."""
        self._inner.bytes_read = self.bytes_read
        self._inner.bytes_written = self.bytes_written
        self._inner.read_ops = self.read_ops
        self._inner.write_ops = self.write_ops
        return self._inner


def front_disks(servers, assignments):
    """Front every server's disk with one shared read-only arena of its
    tile blobs (``assignments[i]``: server ``i``'s ``(tile id, blob
    name, nbytes)`` entries), metering unchanged.  Returns the arena and
    the undo: disks restored with their meters handed back, arena
    released."""
    arena = SharedBlobArena(
        (name, server.disk.peek(name))
        for server, tiles in zip(servers, assignments)
        for _tile_id, name, _nbytes in tiles
        if server.disk.exists(name)
    )
    fronted = [(server, server.disk) for server in servers]
    for server, disk in fronted:
        server.disk = ArenaDisk(disk, arena)

    def restore() -> None:
        for server, original in fronted:
            if isinstance(server.disk, ArenaDisk):
                server.disk.restore()
            server.disk = original
        arena.release()

    return arena, restore
