"""Shared-memory substrate for the process executor.

The process runtime keeps the vertex stores — values and degree
arrays; under All-in-All one pair for the whole cluster — in POSIX
shared memory (:mod:`multiprocessing.shared_memory`) created *before*
the worker pool forks, and, under On-Demand, stages each superstep's
drained inboxes in one more segment for the apply dispatch (an
All-in-All apply ships only each record's length).  Workers
inherit the store mappings and operate on them zero-copy; per-superstep
dispatch ships only small handles and compact results, never pickled
megabyte payloads.  Tile blobs are not shared: a worker reads its
server's own local disk, as the parent does.

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

import numpy as np

from repro.comm.messages import pack_update, packed_size, unpack_update

__all__ = [
    "SharedAllocator",
    "SharedArray",
    "InboxResolver",
    "StagedInboxes",
    "attach_segment",
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
