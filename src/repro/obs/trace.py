"""Tracing core: spans and instants over bounded ring buffers.

The engine's evaluation story (Table III of the paper, the per-phase
breakdowns of the *Experimental Analysis of Distributed Graph Systems*
methodology) needs to see **where a superstep spends its time** — not
just the totals ``Counters`` accumulates.  This module records that
timeline:

* **Spans** — begin/end pairs covering a region of work: the run, each
  superstep, each phase (compute / broadcast / apply / account), each
  per-tile load and gather-apply.  Spans nest; nesting is derived from
  begin/end *order within one buffer*, never from timestamps, so the
  recovered tree is deterministic even though wall-clock values differ
  between runs and executors.
* **Instants** — point events: injected faults, cache evictions and
  rejections, bloom-filter tile skips, convergence.

Determinism contract
--------------------
Every simulated server records into **its own** :class:`TraceBuffer`
(one writer per buffer: the server's executor thread, or its sticky
worker process), and the engine records run/superstep/phase structure
into a separate engine buffer touched only between fan-outs.  Worker-
side buffers ride back to the parent in the process executor's result
objects and are merged in server-id order, so the per-buffer event
sequences — and therefore the span trees — are identical across the
serial, thread, and process executors.  (Timestamps are wall-clock and
differ; trees and event names never do.  Fault *instants* are the one
documented exception: the process executor resolves fault decisions in
the parent around the worker dispatch, so their position relative to a
server's compute span is executor-dependent even though the fired set
is identical — compare trees with ``include_instants=False`` under
chaos.)

Cost contract
-------------
Recording appends one tuple to a deque — no I/O, no locks.  When
tracing is disabled there is no tracer object at all and every buffer
slot (``Server.trace``, ``EdgeCache.trace``, the engine's run buffer,
...) holds :data:`NULL_BUFFER`, which has the :class:`TraceBuffer`
recording surface and drops everything.  Instrumented code is therefore
written once, with no traced/untraced fork; the disabled path costs a
no-op method call per site and leaves values, counters, and modeled
costs bitwise untouched.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager

__all__ = ["NULL_BUFFER", "TraceBuffer", "Tracer", "SpanNode", "span_forest"]

# Event kinds (tuple slot 0).
BEGIN = "B"
END = "E"
INSTANT = "I"
# A self-contained span carrying its own duration, recorded with one
# atomic append — the only kind safe for multi-writer buffers (the
# prefetch pipeline's I/O threads share one buffer per server).
COMPLETE = "C"

# Default per-buffer ring capacity.  One superstep of a 9-server run
# over a few hundred tiles is a few thousand events; this bounds a
# pathological run (millions of supersteps) at a few MB per buffer.
DEFAULT_MAX_EVENTS = 200_000

ENGINE_TID = 0
# Prefetch-pipeline buffers live far above the server tids so the two
# ranges can never collide however many servers a run has.
PREFETCH_TID_BASE = 10_000
# The service daemon's job-lifecycle buffer, above every per-server
# range.  Submissions arrive from arbitrary client threads, so only
# single-append event kinds (complete / instant) are recorded on it.
SERVICE_TID = 20_000
# The autotuner's decision lane: knob-switch and model-fit instants,
# recorded by the parent at superstep boundaries.
TUNING_TID = 30_000
# The delta subsystem's lane: mutation/compact/merge instants plus
# dirty-set-size and overlay-bytes gauges, recorded host-side when a
# mutation batch is applied or an incremental run is planned.
DELTA_TID = 40_000


def _now() -> float:
    return time.perf_counter()


class TraceBuffer:
    """One single-writer ring buffer of trace events.

    Events are compact picklable tuples ``(kind, name, cat, ts, args)``
    — the shape the process executor ships from worker to parent.  The
    buffer is a bounded deque: when full, the *oldest* events fall off
    and ``dropped`` counts them, so a runaway run degrades to a rolling
    tail instead of unbounded memory.
    """

    __slots__ = ("tid", "label", "_events", "_depth", "dropped", "_maxlen")

    def __init__(
        self, tid: int, label: str, max_events: int = DEFAULT_MAX_EVENTS
    ) -> None:
        self.tid = int(tid)
        self.label = label
        self._maxlen = int(max_events)
        self._events: deque = deque(maxlen=self._maxlen)
        self._depth = 0
        self.dropped = 0

    # -- recording -----------------------------------------------------
    def begin(self, name: str, cat: str = "phase", **args) -> None:
        """Open a span (close with :meth:`end`; spans nest)."""
        self._append((BEGIN, name, cat, _now(), args or None))
        self._depth += 1

    def end(self) -> None:
        """Close the innermost open span (no-op when none is open)."""
        if self._depth > 0:
            self._depth -= 1
            self._append((END, None, None, _now(), None))

    def instant(self, name: str, cat: str = "instant", **args) -> None:
        """Record a point event."""
        self._append((INSTANT, name, cat, _now(), args or None))

    def complete(
        self, name: str, cat: str, t0: float, t1: float, **args
    ) -> None:
        """Record a self-contained span (begin time + duration) with a
        single atomic append.

        Unlike :meth:`begin`/:meth:`end` this never touches the nesting
        depth, so concurrent writers (the prefetch pipeline's I/O
        threads) cannot corrupt span structure — each event is whole.
        """
        payload = dict(args)
        payload["dur_s"] = t1 - t0
        self._append((COMPLETE, name, cat, t0, payload))

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args):
        """``with buf.span("compute"):`` — begin/end with unwinding."""
        d0 = self._depth
        self.begin(name, cat, **args)
        try:
            yield self
        finally:
            self.close_to(d0)

    @property
    def depth(self) -> int:
        """Currently open span nesting depth."""
        return self._depth

    def close_to(self, depth: int) -> None:
        """Emit ends until nesting is back at ``depth`` (exception
        unwinding: a fault that aborts a superstep mid-span must not
        leave the next attempt's spans nested under dead ones)."""
        while self._depth > max(0, depth):
            self.end()

    def _append(self, event: tuple) -> None:
        if len(self._events) == self._maxlen:
            self.dropped += 1
        self._events.append(event)

    # -- collection ----------------------------------------------------
    def events(self) -> list[tuple]:
        """Snapshot of the recorded events (oldest first)."""
        return list(self._events)

    def drain(self) -> list[tuple]:
        """Return and clear the recorded events (depth preserved).

        The process executor's workers drain after each phase and ship
        the delta to the parent, which :meth:`extend`\\ s its mirror
        buffer — per-phase deltas keep pickles small and merge order
        deterministic.
        """
        out = list(self._events)
        self._events.clear()
        return out

    def extend(self, events) -> None:
        """Append shipped events (parent-side merge of a worker drain)."""
        for event in events:
            self._append(event)
            if event[0] == BEGIN:
                self._depth += 1
            elif event[0] == END and self._depth > 0:
                self._depth -= 1

    def clear(self) -> None:
        """Drop all events and reset depth (fresh buffer, same identity)."""
        self._events.clear()
        self._depth = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (
            f"TraceBuffer(tid={self.tid}, label={self.label!r}, "
            f"events={len(self._events)}, dropped={self.dropped})"
        )


class _NullBuffer:
    """The recording surface of :class:`TraceBuffer`, recording nothing.

    What every buffer slot holds while tracing is off.  ``span()``
    returns the buffer itself, which is its own (re-entrant, stateless)
    context manager, so ``with buf.span(...)`` costs two no-op calls.
    """

    __slots__ = ()
    depth = 0

    def begin(self, name: str, cat: str = "phase", **args) -> None:
        pass

    instant = begin

    def complete(self, name, cat, t0, t1, **args) -> None:
        pass

    def end(self) -> None:
        pass

    def close_to(self, depth: int) -> None:
        pass

    def extend(self, events) -> None:
        pass

    def drain(self) -> tuple:
        return ()

    def span(self, name: str, cat: str = "phase", **args) -> "_NullBuffer":
        return self

    def __enter__(self) -> "_NullBuffer":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_BUFFER"


NULL_BUFFER = _NullBuffer()


class Tracer:
    """A run's trace collector: one engine buffer + one per server.

    The tracer also owns a :class:`repro.obs.metrics.MetricsRegistry`
    so live instruments (the channel's message-size histogram, the
    superstep wall-time histogram) have somewhere to record; counter
    bridging happens at snapshot time via
    :func:`repro.obs.metrics.bridge_cluster`.
    """

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        self._buffers: dict[int, TraceBuffer] = {}
        self.metrics = MetricsRegistry()

    # -- buffer access -------------------------------------------------
    def engine(self) -> TraceBuffer:
        """The engine-structure buffer (run / superstep / phase spans)."""
        return self._buffer(ENGINE_TID, "engine")

    def server(self, server_id: int) -> TraceBuffer:
        """The per-server buffer (tile spans, bloom/cache instants)."""
        return self._buffer(int(server_id) + 1, f"server-{int(server_id)}")

    def prefetch(self, server_id: int) -> TraceBuffer:
        """The per-server prefetch-pipeline buffer (``tile_prefetch``
        complete-events from background I/O threads).  Created only for
        runs with prefetch enabled."""
        return self._buffer(
            PREFETCH_TID_BASE + int(server_id),
            f"server-{int(server_id)}-prefetch",
        )

    def service(self) -> TraceBuffer:
        """The service daemon's job-lifecycle buffer (``job`` complete
        spans, ``job_submit``/``job_reject`` instants).  Multi-writer:
        callers must stick to :meth:`TraceBuffer.complete` /
        :meth:`TraceBuffer.instant`, which append atomically."""
        return self._buffer(SERVICE_TID, "service")

    def tuning(self) -> TraceBuffer:
        """The autotuner's decision lane (``knob_switch`` / ``fit``
        instants at superstep boundaries).  Parent-only, single-writer;
        created only for tuned runs."""
        return self._buffer(TUNING_TID, "tuning")

    def delta(self) -> TraceBuffer:
        """The delta subsystem's lane (``mutate`` / ``compact`` /
        ``merge`` instants, ``dirty_set_size`` / ``overlay_bytes``
        gauges).  Host-side, single-writer; created only for evolving
        graphs."""
        return self._buffer(DELTA_TID, "delta")

    def _buffer(self, tid: int, label: str) -> TraceBuffer:
        buf = self._buffers.get(tid)
        if buf is None:
            buf = TraceBuffer(tid, label)
            self._buffers[tid] = buf
        return buf

    def buffers(self) -> list[TraceBuffer]:
        """All buffers in tid order (engine first, then servers)."""
        return [self._buffers[tid] for tid in sorted(self._buffers)]

    @property
    def total_events(self) -> int:
        return sum(len(b) for b in self._buffers.values())

    @property
    def total_dropped(self) -> int:
        return sum(b.dropped for b in self._buffers.values())

    def clear_events(self) -> None:
        """Clear every buffer's events, keeping buffer identities.

        The process executor's ``child_init`` calls this in each forked
        worker: the fork copies whatever the parent had recorded so far,
        and without the clear the first worker drain would ship those
        pre-fork events back as duplicates.
        """
        for buf in self._buffers.values():
            buf.clear()

    # -- analysis ------------------------------------------------------
    def span_trees(self, include_instants: bool = True) -> dict[str, list]:
        """Deterministic span forest per buffer, keyed by buffer label.

        Trees carry names and categories only — no timestamps — so two
        runs of the same workload compare equal across executors.  Set
        ``include_instants=False`` under fault injection (see module
        docstring).
        """
        return {
            buf.label: span_forest(buf.events(), include_instants)
            for buf in self.buffers()
        }

    def instant_counts(self) -> dict[str, int]:
        """Multiset of instant-event names across all buffers."""
        counts: dict[str, int] = {}
        for buf in self.buffers():
            for kind, name, _cat, _ts, _args in buf.events():
                if kind == INSTANT:
                    counts[name] = counts.get(name, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"Tracer(buffers={len(self._buffers)}, "
            f"events={self.total_events}, dropped={self.total_dropped})"
        )


class SpanNode:
    """One node of a recovered span tree (timestamp-free)."""

    __slots__ = ("name", "cat", "kind", "children")

    def __init__(self, name: str, cat: str, kind: str) -> None:
        self.name = name
        self.cat = cat
        self.kind = kind  # "span" | "instant"
        self.children: list[SpanNode] = []

    def as_tuple(self) -> tuple:
        """Hashable recursive form — what determinism tests compare."""
        return (
            self.kind,
            self.name,
            self.cat,
            tuple(child.as_tuple() for child in self.children),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanNode) and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"SpanNode({self.name!r}, children={len(self.children)})"


def span_forest(events, include_instants: bool = True) -> list[SpanNode]:
    """Rebuild the span forest from one buffer's event sequence.

    Nesting comes purely from begin/end order.  Unmatched ends (the
    ring dropped the matching begin) are ignored; unclosed begins stay
    as ordinary nodes — a truncated tail, not an error.
    """
    roots: list[SpanNode] = []
    stack: list[SpanNode] = []
    for kind, name, cat, _ts, _args in events:
        if kind == BEGIN:
            node = SpanNode(name, cat, "span")
            (stack[-1].children if stack else roots).append(node)
            stack.append(node)
        elif kind == END:
            if stack:
                stack.pop()
        elif kind == INSTANT and include_instants:
            node = SpanNode(name, cat, "instant")
            (stack[-1].children if stack else roots).append(node)
        elif kind == COMPLETE:
            node = SpanNode(name, cat, "complete")
            (stack[-1].children if stack else roots).append(node)
    return roots
