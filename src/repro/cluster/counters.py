"""Per-server resource counters.

Every engine charges its activity here; the Table III property tests and
the cost model both consume these numbers.  Memory is tracked by
category (vertex state / edge storage / message buffers / cache) with a
running peak, mirroring how the paper decomposes each system's RAM row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


@dataclass
class Counters:
    """Mutable counters for one server (or one aggregate view)."""

    # --- memory, current bytes by category -------------------------------
    mem_vertex: int = 0
    mem_edges: int = 0
    mem_messages: int = 0
    mem_cache: int = 0
    mem_scratch: int = 0
    mem_peak: int = 0

    # --- I/O volumes ------------------------------------------------------
    disk_read: int = 0
    # Seek-bound reads (concurrent per-tile cache-miss fetches), charged
    # at the spec's lower random-read bandwidth.
    disk_read_random: int = 0
    disk_write: int = 0
    net_sent: int = 0
    net_recv: int = 0

    # --- work volumes -----------------------------------------------------
    edges_processed: int = 0
    # Every Channel.send counts one message here, *including* local
    # (src == dst) sends — message count is per-send work, while the
    # byte meters (net_sent / net_recv) stay network-only.
    # Channel.total_messages follows the same semantics.
    messages_sent: int = 0
    # Per-message handling work (serialise/route/combine) in
    # message-passing engines; GraphH's dense-array broadcast application
    # is bandwidth-bound and deliberately charges nothing here.
    messages_processed: int = 0
    # Tiles pruned from the schedule before any disk/decompress work
    # (bitmap or bloom — see selective scheduling, GraphMP §III).  The
    # cost model charges each one a small schedule-probe time instead
    # of a load.
    tiles_skipped: int = 0
    decompressed: dict[str, int] = field(default_factory=dict)
    compressed: dict[str, int] = field(default_factory=dict)

    # --- delta overlays (repro.delta) -------------------------------------
    # Overlay bytes decoded on top of base tiles at load time: each
    # scheduled tile with a pending overlay charges the overlay blob
    # size (priced at random-read bandwidth — overlays are small
    # seek-bound reads next to the streamed base tile).
    delta_bytes: int = 0
    # Overlay edge edits applied while composing (insert + delete rows);
    # priced per edit by the spec's delta_edge_apply_s.
    delta_edges: int = 0

    # --- fault injection & recovery (repro.faults) ------------------------
    # Injected faults that hit this server.
    faults_injected: int = 0
    # Retried I/O attempts absorbed in place (transient disk/DFS errors).
    fault_retries: int = 0
    # Modeled seconds lost to stragglers / retry backoff / restarts; the
    # cost model adds this straight into the server's superstep time.
    fault_delay_s: float = 0.0
    # DFS bytes read purely to recover (checkpoint restore, tile
    # re-fetch after a crash) — not part of the algorithm's own I/O.
    recovery_read: int = 0

    @property
    def mem_current(self) -> int:
        """Sum of all live memory categories."""
        return (
            self.mem_vertex
            + self.mem_edges
            + self.mem_messages
            + self.mem_cache
            + self.mem_scratch
        )

    def _bump_peak(self) -> None:
        if self.mem_current > self.mem_peak:
            self.mem_peak = self.mem_current

    def add_memory(self, category: str, nbytes: int) -> None:
        """Adjust a memory category (negative to release) and track peak."""
        attr = f"mem_{category}"
        if not hasattr(self, attr):
            raise ValueError(f"unknown memory category {category!r}")
        new = getattr(self, attr) + int(nbytes)
        if new < 0:
            raise ValueError(f"memory category {category} went negative")
        setattr(self, attr, new)
        self._bump_peak()

    def set_memory(self, category: str, nbytes: int) -> None:
        """Set a memory category to an absolute value."""
        attr = f"mem_{category}"
        if not hasattr(self, attr):
            raise ValueError(f"unknown memory category {category!r}")
        if nbytes < 0:
            raise ValueError("memory cannot be negative")
        setattr(self, attr, int(nbytes))
        self._bump_peak()

    def add_decompressed(self, codec: str, nbytes: int) -> None:
        """Meter decompression work for a codec."""
        self.decompressed[codec] = self.decompressed.get(codec, 0) + int(nbytes)

    def add_compressed(self, codec: str, nbytes: int) -> None:
        """Meter compression work for a codec."""
        self.compressed[codec] = self.compressed.get(codec, 0) + int(nbytes)

    def add_volumes(self, other: "Counters") -> None:
        """Accumulate another counter set's I/O / work / fault *volumes*.

        Memory gauges and peaks are deliberately excluded: they are
        absolute mirrors, not additive quantities.  This is how the
        process executor folds worker-side superstep deltas (shipped as
        volumes-only :class:`Counters`, see
        :meth:`CounterSnapshot.delta`) back into the parent's
        authoritative per-server counters.
        """
        self._add(other, _VOLUMES)

    def merge(self, other: "Counters") -> None:
        """Accumulate another counter set into this one.

        Peaks add (an aggregate view over servers holds all their data
        at once); volumes add.
        """
        self._add(other, _SCALARS)

    def _add(self, other: "Counters", names: tuple[str, ...]) -> None:
        for name in names:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for codec, n in other.decompressed.items():
            self.add_decompressed(codec, n)
        for codec, n in other.compressed.items():
            self.add_compressed(codec, n)

    def snapshot(self) -> dict[str, int]:
        """Flat dict view (for reports and diffing)."""
        out = {name: getattr(self, name) for name in _SCALARS}
        for codec, n in self.decompressed.items():
            out[f"decompressed_{codec}"] = n
        for codec, n in self.compressed.items():
            out[f"compressed_{codec}"] = n
        return out


# The per-codec meters are dicts; every other field is one number.  The
# memory gauges are absolute, the rest are volumes that accumulate.
_CODEC_METERS = ("decompressed", "compressed")
_SCALARS = tuple(f.name for f in fields(Counters) if f.name not in _CODEC_METERS)
_VOLUMES = tuple(name for name in _SCALARS if not name.startswith("mem_"))


@dataclass(frozen=True)
class CounterSnapshot:
    """Frozen copy of a server's :class:`Counters` at one instant.

    :meth:`delta` rebuilds the volumes-only :class:`Counters` accumulated
    since (one superstep's, for the cost model), and the process executor
    ships exactly that delta from worker to parent.  Cache hit/lookup
    totals ride along so per-superstep hit ratios need no second
    bookkeeping structure.
    """

    counters: Counters
    cache_hits: int = 0
    cache_lookups: int = 0
    # Cache-side decompression total at capture time: lets consumers
    # (the autotuner) split a codec's superstep bytes into the edge
    # cache's share vs the message path's share when both use the same
    # codec.
    cache_bytes_decompressed: int = 0

    @classmethod
    def capture(cls, server) -> "CounterSnapshot":
        """Snapshot one server's counters (and cache totals, when a
        cache is attached)."""
        c = server.counters
        copied = replace(
            c, decompressed=dict(c.decompressed), compressed=dict(c.compressed)
        )
        cache = getattr(server, "cache", None)
        if cache is None:
            return cls(copied)
        return cls(
            copied,
            cache_hits=cache.stats.hits,
            cache_lookups=cache.stats.lookups,
            cache_bytes_decompressed=cache.stats.bytes_decompressed,
        )

    def delta(self, server) -> Counters:
        """Volumes accumulated on ``server`` since this snapshot, as a
        :class:`Counters` holding only those volumes (what the cost
        model prices for one superstep)."""
        c, base = server.counters, self.counters
        d = Counters(**{n: getattr(c, n) - getattr(base, n) for n in _VOLUMES})
        for codec, n in c.decompressed.items():
            prev = base.decompressed.get(codec, 0)
            if n > prev:
                d.add_decompressed(codec, n - prev)
        for codec, n in c.compressed.items():
            prev = base.compressed.get(codec, 0)
            if n > prev:
                d.add_compressed(codec, n - prev)
        return d
