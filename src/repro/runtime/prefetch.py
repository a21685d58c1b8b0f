"""Pipelined tile I/O: a bounded per-server prefetch stage.

GraphH's workers "stream tiles through memory" (§III-B); its sibling
engine GraphMP pipelines selective scheduling so disk time hides behind
compute.  The seed sweep was strictly sequential per server — read,
decompress, decode, gather, apply, then request the next blob — so I/O
and compute *added*.  :class:`TilePrefetcher` overlaps them: while the
compute thread gathers tile *k*, background I/O threads perform tile
*k+1*'s disk read + CSR decode.

Determinism by construction
---------------------------
The simulation's contract is that values, ``Counters``, ``CacheStats``,
and modeled costs are bitwise identical whatever the host runtime does.
The pipeline keeps that contract with a strict speculate/commit split:

* **Background threads never mutate anything.**  Speculation
  (:func:`speculate_load`) uses only non-mutating probes —
  ``LocalDisk.peek``, ``DecodedTileCache.peek`` — and computes a parse
  *product* (the decoded tile) that is a pure function of immutable
  blob bytes.  No stats, no counters, no cache contents, no recency
  order are touched off-thread.
* **All metering happens at dequeue, on the compute thread, in the
  serial sweep order.**  The sweep pulls ``(item, hint)`` pairs from
  the pipeline and drives the *unchanged* metered path
  (``Server.load_tile``) exactly as the sequential sweep would; the
  hint only lets the metered path *skip* the read and the parse it
  stands for — the edge cache is metered by sizes, so the bytes' only
  consumer is the parse they came with.  A hint can therefore never
  change a branch decision or a byte count — at worst it is empty and
  the metered path reads and parses inline (a stall, not a
  divergence).
* **Faults never reach the pipeline.**  Every compute-phase fault
  fires in the parent, before the sweep is dispatched; neither the
  background threads nor the dequeue consult an injector.

Speculation failures (a blob vanishing mid-flight, parse errors) all
degrade to "no hint": the compute thread reruns the real path and
surfaces any real error deterministically.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

from repro.obs.trace import NULL_BUFFER

__all__ = [
    "PrefetchedLoad",
    "TilePrefetcher",
    "recommend_depth",
    "speculate_load",
]


def recommend_depth(
    io_s: float,
    compute_s: float,
    total_s: float,
    min_overlap: float = 0.02,
    max_depth: int = 2,
) -> tuple[int, int]:
    """Pick ``(prefetch_depth, io_threads)`` from a phase-time estimate.

    The pipeline can hide at most ``min(io_s, compute_s)`` per superstep
    — I/O behind compute or vice versa.  When that overlap is worth less
    than ``min_overlap`` of the superstep, the pipeline's host-side
    thread overhead is not worth paying and the sweep stays sequential
    (depth 0).  Otherwise depth ``max_depth`` keeps the next tile in
    flight, with a second I/O thread only when I/O is the long pole and
    a single thread would itself become the bottleneck.

    Pure arithmetic on its inputs — callers feeding deterministic
    (modeled) phase times get a deterministic recommendation.
    """
    hidden = min(max(io_s, 0.0), max(compute_s, 0.0))
    if max_depth <= 0 or hidden <= min_overlap * max(total_s, 1e-12):
        return 0, 1
    return max_depth, 2 if io_s > compute_s else 1


class PrefetchedLoad:
    """Products of one background speculation for one blob: ``raw``,
    its bytes read ahead (``None`` when the tile was decoded-resident,
    so the metered path reads nothing, or the read failed), and
    ``decoded``, their parse."""

    __slots__ = ("name", "raw", "decoded")

    def __init__(self, name: str) -> None:
        self.name = name
        self.raw: bytes | None = None
        self.decoded: Any | None = None


def _peek(disk, name: str) -> bytes | None:
    try:
        return disk.peek(name)
    except OSError:
        return None


def speculate_load(server, name: str, parser: Callable[[bytes], Any]):
    """Speculatively perform tile ``name``'s I/O work, mutating nothing.

    Mirrors the two shapes of ``Server.load_tile``: a decoded-cache hit
    reads nothing, whatever the edge cache holds, so nothing is staged;
    a decoded-cache miss reads the blob and parses it — the same bytes
    on an edge-cache hit or miss (the edge cache holds sizes) — so both
    are staged.
    """
    out = PrefetchedLoad(name)
    if server.decoded_cache.peek(name) is not None:
        return out
    out.raw = _peek(server.disk, name)
    if out.raw is not None:
        out.decoded = parser(out.raw)
    return out


class TilePrefetcher:
    """Bounded double-buffered pipeline over an explicit tile schedule.

    ``schedule`` is the exact ordered list of tiles the sweep will
    process (bloom-skipped tiles already pruned, so skips cost zero
    I/O).  Up to ``depth`` speculations are in flight at once on a pool
    of ``io_threads`` background threads; :meth:`__iter__` yields
    ``(item, hint, ready)`` in schedule order, where ``hint`` is the
    speculation result (or ``None`` if it failed) and ``ready`` records
    whether it had finished before the compute thread asked — the
    pipeline-occupancy signal.

    Tracing: background threads record ``tile_prefetch`` complete-events
    on ``io_trace`` (a multi-writer-safe buffer; one atomic append per
    event).  The compute thread records one ``prefetch_wait`` span per
    dequeue on ``wait_trace`` (the server's single-writer buffer), so
    trace trees stay deterministic.  With ``io_threads > 1`` the *order*
    of ``tile_prefetch`` events is scheduling-dependent; comparisons
    that pin event order should use one I/O thread.
    """

    def __init__(
        self,
        server,
        schedule: Iterable[Any],
        parser: Callable[[bytes], Any],
        depth: int,
        io_threads: int = 1,
        name_of: Callable[[Any], str] = lambda item: item,
        io_trace=NULL_BUFFER,
        wait_trace=NULL_BUFFER,
    ) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        if io_threads < 1:
            raise ValueError("io_threads must be >= 1")
        self._server = server
        self._schedule = list(schedule)
        self._parser = parser
        self._depth = depth
        self._name_of = name_of
        self._io_trace = io_trace
        self._wait_trace = wait_trace
        self.served_ready = 0
        self.dequeues = 0
        self._pool = ThreadPoolExecutor(
            max_workers=io_threads,
            thread_name_prefix=f"repro-prefetch-{server.server_id}",
        )

    def _speculate(self, name: str):
        """Pool task: speculate, swallowing *every* error.

        A failed speculation must not surface from a background thread —
        the compute thread reruns the real metered path and any genuine
        error reproduces there, deterministically.
        """
        t0 = time.perf_counter()
        try:
            return speculate_load(self._server, name, self._parser)
        except Exception:
            return None
        finally:
            self._io_trace.complete(
                "tile_prefetch", "prefetch", t0, time.perf_counter(), blob=name
            )

    def __iter__(self) -> Iterator[tuple[Any, Any, bool]]:
        pending: list[tuple[Any, Any]] = []  # (item, future), schedule order
        cursor = 0
        while cursor < len(self._schedule) or pending:
            while cursor < len(self._schedule) and len(pending) < self._depth:
                item = self._schedule[cursor]
                cursor += 1
                fut = self._pool.submit(self._speculate, self._name_of(item))
                pending.append((item, fut))
            item, fut = pending.pop(0)
            ready = fut.done()
            with self._wait_trace.span(
                "prefetch_wait", "prefetch", blob=self._name_of(item), ready=ready
            ):
                hint = fut.result()
            self.dequeues += 1
            if ready:
                self.served_ready += 1
            yield item, hint, ready

    def close(self) -> None:
        """Shut the I/O pool down (idempotent); cancels queued work."""
        self._pool.shutdown(wait=True, cancel_futures=True)
