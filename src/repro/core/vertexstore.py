"""Vertex replica storage policies (paper §IV-A).

The MPE keeps each server's vertex state behind a small store interface
so both replication policies are real, runnable implementations:

* :class:`AllInAllStore` — the paper's choice: every server holds all
  ``|V|`` values in dense arrays indexed directly by vertex id.  20 B
  per vertex (value + message slot + degree), zero indexing overhead.
  In this single-host simulation the N replicas are one object: after
  every barrier the N logical copies are bitwise identical (a fault
  fails a superstep before any write), so one physical array that
  every server views *is* each of them.  ``memory_bytes()`` still
  charges a full logical replica per server (Eq. 2), as a cluster of
  N machines would hold.
* :class:`OnDemandStore` — holds only the vertices that appear in this
  server's tiles (sources ∪ targets), at the cost of a 4-byte id per
  entry and a binary-search translation on every access — exactly the
  trade-off Eq. 3 charges and Figure 6a plots.

Both stores expose identical semantics; the GAB engine is policy-blind.
A gather that is kept — the old targets' values, a weighted program's
per-edge sources — is ``np.take`` over an ``int64`` index
(``mode="raise"``, so out-of-range ids still fail): the same bits as
fancy indexing, with less per-call overhead.  Keep the index ``int64``
— an ``int32`` one is widened to ``intp`` on every call and gathers
about twice as slowly.  The per-edge gather of an additive program is
not kept: :func:`repro.utils.segments.gather_sum` reads the slot
through :meth:`plane_index` and sums it per target in the same pass,
so the run's edges are never gathered into an array of their own.

The *message slot* Eq. 2 charges is real: :meth:`message_slot` runs a
program's ``edge_message`` once over the resident vertices — one message
per source vertex per superstep, in the store's own index space — and
the per-edge gather reads it through the store's usual id translation
(``gather_values(ids, slot)``, or :meth:`plane_index` for the fused
sum).  ``edge_message`` is elementwise in the
source (:mod:`repro.apps.base`), so message-then-gather and
gather-then-message produce the same bits.  The slot never goes
through an allocator: it is a fresh heap array local to whichever
process runs the compute phase (or, for a program whose message *is*
the value, a view of the replica), read-only, and valid only until the
barrier writes the values it was derived from.  The OD store builds one
per server per superstep; the AA replica, which every server shares,
builds it once per superstep and serves it to every server that sweeps
(per process: a forked worker builds its own, once, for its servers).

*Where* a store's arrays live is not the store's business: each takes an
optional allocator — anything with ``create(source, tag) -> ndarray``
and ``release()`` — and copies its value/degree arrays into whatever
that hands back.  No allocator is the heap;
:class:`repro.runtime.shm.SharedAllocator` is
``multiprocessing.shared_memory`` (the process executor's forked workers
read and write vertex state zero-copy);
:class:`~repro.storage.backing.BackingStore` is file-backed memmaps
(GraphMP's semi-external-memory mode, ``MPEConfig.vertex_store="mmap"``:
vertex state stops being the memory ceiling, the OS pages it on
demand).  Both are ``MAP_SHARED`` and fork-shareable, so under AA the
one replica is one array wherever it lives: forked workers write their
servers' updates into the same pages the parent reads.  The indexing code
is the same object code in all three, which is what makes
process-parallel and mmap-backed results bitwise identical to serial:
the bytes live elsewhere, the arithmetic is the same.  The allocator's
owner releases it once, after every store built on it has dropped its
views (:meth:`release` — ``SharedMemory.close()`` refuses while an
ndarray still references the buffer).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.utils.segments import sorted_unique


def _message_slot(program, values, out_degrees) -> np.ndarray:
    """``program``'s message for every resident vertex, read-only —
    programs whose message *is* the value (Katz, WCC) return ``values``
    itself, and nothing may write the replica through that alias."""
    slot = np.asarray(program.edge_message(values, out_degrees, None)).view()
    slot.flags.writeable = False
    return slot


def _place(allocator, source: np.ndarray, tag: str, dtype=None) -> np.ndarray:
    """A private copy of ``source`` (as ``dtype``) in ``allocator``'s
    memory — on the heap when there is none.  Always a plain ndarray
    (a view when the allocator hands back a subclass): ``np.take`` on
    an ``np.memmap`` would answer a memmap-typed array, and every
    gather would carry that subclass into the kernel."""
    if allocator is None:
        return np.array(source, dtype=dtype)
    return np.asarray(allocator.create(np.asarray(source, dtype=dtype), tag))


class AllInAllStore:
    """Dense full-replica store (§IV-A's AA policy): one per run, viewed
    by every server.  Each server writes only its own update into it at
    the barrier — the other senders' updates land through their own
    writes — and the message slot is built once per superstep."""

    policy = "aa"

    def __init__(
        self,
        init_values: np.ndarray,
        out_degrees: np.ndarray | None,
        allocator=None,
    ) -> None:
        self._values = _place(allocator, init_values, "values")
        self._out_degrees = (
            _place(allocator, out_degrees, "degrees", np.int32)
            if out_degrees is not None
            else None
        )
        # (superstep, slot): the slot every server of this process reads
        # in that superstep.  The lock makes concurrent sweeps (the
        # thread executor) build it once.
        self._slot: tuple[int, np.ndarray] | None = None
        self._slot_lock = threading.Lock()

    def message_slot(self, program, superstep: int) -> np.ndarray:
        """This superstep's message per vertex (Eq. 2's slot), built by
        the first server that asks and shared with the rest."""
        with self._slot_lock:
            if self._slot is None or self._slot[0] != superstep:
                self._slot = (
                    superstep,
                    _message_slot(program, self._values, self._out_degrees),
                )
            return self._slot[1]

    def gather_values(
        self, vertex_ids: np.ndarray, plane: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-edge source gather — of the values, or of ``plane``, an
        array in this store's index space (:meth:`message_slot`)."""
        return np.take(self._values if plane is None else plane, vertex_ids)

    def plane_index(self, vertex_ids: np.ndarray, top: int) -> tuple[np.ndarray, int]:
        """``vertex_ids`` as positions in this store's planes, with a
        bound on the largest: under AA an id is its own position, so
        ``top`` (the largest id) is that bound."""
        return vertex_ids, top

    def gather_out_degrees(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Per-edge source out-degree gather."""
        return np.take(self._out_degrees, vertex_ids)

    def write(self, vertex_ids: np.ndarray, values: np.ndarray) -> None:
        """Apply one server's own update (its targets are disjoint from
        every other server's, so concurrent writers never overlap)."""
        self._values[vertex_ids] = values

    def full_values(self) -> np.ndarray:
        """The complete value array (AA has it by construction)."""
        return self._values

    def memory_bytes(self) -> tuple[int, int]:
        """(vertex-state bytes, message-buffer bytes) of one logical
        replica — Eq. 2 terms, charged to every server."""
        vertex = self._values.nbytes
        if self._out_degrees is not None:
            vertex += self._out_degrees.nbytes
        return vertex, self._values.nbytes

    def num_stored(self) -> int:
        """Vertex states resident on this server."""
        return int(self._values.size)

    def release(self) -> None:
        """Drop the array views (their memory belongs to the allocator);
        the slot goes too, since it may be a view of the values."""
        self._slot = None
        self._values = None
        self._out_degrees = None


class OnDemandStore:
    """Subset store with id indexing (§IV-A's OD policy).

    ``local_ids`` must contain every vertex this server's tiles read
    (sources) or write (targets); accesses outside the set are a
    programming error for gathers and are *ignored* for writes (updates
    to vertices this server never reads need no replica — that is the
    whole point of OD).
    """

    policy = "od"

    def __init__(
        self,
        init_values: np.ndarray,
        out_degrees: np.ndarray | None,
        local_ids: np.ndarray,
        allocator=None,
    ) -> None:
        # ``_local_ids`` stays a private heap array under every
        # allocator: it is read-only after construction and forked
        # workers inherit it copy-on-write for free.
        self._local_ids = sorted_unique(np.asarray(local_ids, dtype=np.int64))
        self._values = _place(allocator, init_values[self._local_ids], "values")
        self._out_degrees = (
            _place(allocator, out_degrees[self._local_ids], "degrees", np.int32)
            if out_degrees is not None
            else None
        )

    def _index(self, vertex_ids: np.ndarray) -> np.ndarray:
        slots = np.searchsorted(self._local_ids, vertex_ids)
        if slots.size and (
            slots.max(initial=0) >= self._local_ids.size
            or not np.array_equal(self._local_ids[slots], vertex_ids)
        ):
            raise KeyError("vertex not resident under the OD policy")
        return slots

    def message_slot(self, program, superstep: int) -> np.ndarray:
        """This server's slot over its resident vertices (``superstep``
        is unused: the store is this server's alone)."""
        return _message_slot(program, self._values, self._out_degrees)

    def gather_values(
        self, vertex_ids: np.ndarray, plane: np.ndarray | None = None
    ) -> np.ndarray:
        plane = self._values if plane is None else plane
        return np.take(plane, self._index(vertex_ids))

    def plane_index(self, vertex_ids: np.ndarray, top: int) -> tuple[np.ndarray, int]:
        """``vertex_ids`` as local positions (``KeyError`` for an id not
        resident), bounded by the resident count whatever ``top`` is."""
        return self._index(vertex_ids), self._local_ids.size - 1

    def gather_out_degrees(self, vertex_ids: np.ndarray) -> np.ndarray:
        return np.take(self._out_degrees, self._index(vertex_ids))

    def write(self, vertex_ids: np.ndarray, values: np.ndarray) -> None:
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        if self._local_ids.size == 0 or vertex_ids.size == 0:
            return
        slots = np.searchsorted(self._local_ids, vertex_ids)
        valid = (slots < self._local_ids.size) & (
            self._local_ids[np.minimum(slots, self._local_ids.size - 1)]
            == vertex_ids
        )
        self._values[slots[valid]] = np.asarray(values)[valid]

    def full_values(self) -> np.ndarray:
        raise RuntimeError(
            "OD store does not hold all vertices; collect results from "
            "the union of servers"
        )

    def local_ids(self) -> np.ndarray:
        """The resident vertex id set."""
        return self._local_ids

    def local_values(self) -> np.ndarray:
        """Values aligned with :meth:`local_ids`."""
        return self._values

    def memory_bytes(self) -> tuple[int, int]:
        """Eq. 3: per-entry value + message + 4-byte index."""
        vertex = self._values.nbytes + self._local_ids.size * 4
        if self._out_degrees is not None:
            vertex += self._out_degrees.nbytes
        return vertex, self._values.nbytes

    def num_stored(self) -> int:
        return int(self._local_ids.size)

    def release(self) -> None:
        self._values = None
        self._out_degrees = None
