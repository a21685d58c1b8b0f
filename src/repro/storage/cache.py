"""The edge cache (paper §IV-B).

A per-server LRU cache over tile blobs that soaks up idle memory.  On a
lookup the worker "firstly searches the cache system.  If hit, the
worker can get the target tile without disk I/O operations.  Otherwise,
the worker reads the target tile from local disks, and leaves it in the
cache system if the cache system is not full."

Tiles may be cached compressed; the four cache modes and the automatic
mode selection rule are implemented verbatim:

    mode-1 raw, mode-2 snappy, mode-3 zlib-1, mode-4 zlib-3;
    pick the smallest i with  S / γ_i ≤ C,  else fall back to mode-3
    (zlib-1) — the best-ratio codec whose decompression speed still
    beats the disk.

All cache activity is metered (:class:`CacheStats`) so Figure 7's hit
ratios and the cost model's decompression charges come from real counts.

The cache is metered by sizes alone, so it holds sizes, not bytes.  Hit,
miss, admission, eviction, ``mem_cache`` and the decompression charge
are functions of each blob's uncompressed and stored lengths, and the
tiles compute reads live decoded in :class:`DecodedTileCache`; no
engine path reads a cached blob's bytes back.  An entry is therefore a
blob's size record under the current mode: its write generation, raw
length and stored length.  The stored length is learned once per (blob,
mode) with the mode codec's :meth:`~repro.storage.codecs.Codec.compressed_size`
(computed for the snappy-like mode; zlib compresses to measure) and
remembered against the blob's write generation
(:meth:`repro.storage.disk.LocalDisk.generation`), so every later
admission — after a cache clear, a mode switch back, or in the next
run — is decided from the remembered number with no read and no codec.
"The same blob" is checked, not assumed: a remembered size or entry
whose blob was written again since is stale, and using it raises (a
stale size would change metered decisions silently).  Same decision
from the same numbers: stats, contents, recency and trace instants are
bitwise what a cache that read and compressed every blob produces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs.trace import NULL_BUFFER
from repro.storage.codecs import CACHE_MODES, Codec, get_codec
from repro.storage.disk import LocalDisk


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    rejected: int = 0
    bytes_decompressed: int = 0
    bytes_compressed_in: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups: every hit (``get`` or ``touch``) and miss."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory (0.0 when idle — an
        idle cache has served nothing, not everything)."""
        return self.hits / self.lookups if self.lookups else 0.0


def _stale(key: str, evidence: str) -> RuntimeError:
    return RuntimeError(
        f"remembered size of blob {key!r} is stale ({evidence}): it was "
        "rewritten without EdgeCache.invalidate / Server.store_blob"
    )


def select_cache_mode(total_tile_bytes: int, capacity_bytes: int) -> int:
    """Pick the cache mode per §IV-B.

    Parameters
    ----------
    total_tile_bytes:
        ``S`` — the aggregate (uncompressed) size of this server's tiles.
    capacity_bytes:
        ``C`` — memory available for the edge cache.

    Returns the 1-based mode number (1..4) to match the paper's figures.
    """
    if capacity_bytes < 0:
        raise ValueError("capacity must be >= 0")
    for index, name in enumerate(CACHE_MODES):
        gamma = get_codec(name).model_ratio
        if total_tile_bytes / gamma <= capacity_bytes:
            return index + 1
    return 3  # zlib-1 fallback


def cache_plan(
    total_tile_bytes: int,
    capacity_bytes: int | None,
    mode: int | None = None,
) -> tuple[int, int]:
    """Resolve one server's effective ``(capacity, mode)`` pair.

    The per-server capacity math that used to live inline in
    ``MPE.setup``: a ``None`` capacity means "all idle RAM", modeled as
    exactly the server's own tile volume (every tile fits raw); a
    ``None`` mode invokes the §IV-B selection rule against the resolved
    capacity.  Shared by the one-shot setup path and the autotuner's
    per-superstep re-evaluation (where ``total_tile_bytes`` is the
    *live* scheduled working set rather than the static tile volume),
    so both consult one implementation of the paper's rule.
    """
    capacity = (
        max(int(total_tile_bytes), 1)
        if capacity_bytes is None
        else int(capacity_bytes)
    )
    if mode is None:
        mode = select_cache_mode(total_tile_bytes, capacity)
    return capacity, mode


@dataclass
class EdgeCache:
    """Cache of tile blobs, optionally compressed, kept as sizes.

    Parameters
    ----------
    capacity_bytes:
        Memory budget.  Entries are charged at their *stored* (possibly
        compressed) size.
    mode:
        1-based cache mode (1 raw, 2 snappylike, 3 zlib-1, 4 zlib-3).
    eviction:
        ``"none"`` (default) is the paper's §IV-B policy — a miss
        "leaves it in the cache system if the cache system is not
        full", i.e. admit until full, never evict.  Under GraphH's
        cyclic tile scans this beats LRU, which degenerates to a 0% hit
        ratio the moment the working set exceeds capacity (sequential
        thrash), whereas admit-until-full pins a stable subset and
        yields the partial hit ratios of Figure 7b.  ``"lru"`` is
        available for non-cyclic workloads.

    An entry is a blob's size record — ``(write generation, raw length,
    stored length)`` — and the bytes it stands for live on the server's
    disk, read (unmetered) by the few callers that need them on a hit
    (:meth:`load`).  Methods that may have to learn a size, or check
    one, take that disk.

    Remembered sizes are a fact about a blob, not about the cache's
    contents: they survive :meth:`clear`, :meth:`reset_stats` and mode
    switches (keyed per mode), and are dropped only by
    :meth:`invalidate` (the blob was rewritten) or with the cache
    object.  ``compress_skipped`` counts the puts rejected from a
    remembered size, i.e. without running the codec; once every blob's
    size is known it advances in step with ``CacheStats.rejected``.
    Host telemetry, deliberately outside :class:`CacheStats` (a warm
    engine legitimately skips more than a cold one while its metered
    story stays identical).
    """

    capacity_bytes: int
    mode: int = 1
    eviction: str = "none"
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if not 1 <= self.mode <= len(CACHE_MODES):
            raise ValueError(f"cache mode must be 1..{len(CACHE_MODES)}")
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        if self.eviction not in ("none", "lru"):
            raise ValueError('eviction must be "none" or "lru"')
        # Blob name -> its size record under the current mode, recency
        # order.
        self._entries: OrderedDict[str, tuple[int, int, int]] = OrderedDict()
        self._used = 0
        # (blob name, mode) -> (write generation, raw length, stored
        # length): the size records.
        self._sizes: dict[tuple[str, int], tuple[int, int, int]] = {}
        self.compress_skipped = 0
        # Owning server's TraceBuffer when tracing is on (see
        # repro.obs.trace); records eviction/rejection instants only —
        # stats and metering are untouched either way.
        self.trace = NULL_BUFFER

    @property
    def codec(self) -> Codec:
        """The codec backing the current mode."""
        return get_codec(CACHE_MODES[self.mode - 1])

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged against the capacity."""
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> int | None:
        """The blob's uncompressed length on hit, ``None`` on miss.

        A hit updates recency and charges the decompression of the
        stored entry (``bytes_decompressed``); a miss is counted.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.bytes_decompressed += entry[1]
        return entry[1]

    def touch(self, key: str, uncompressed_len: int) -> bool:
        """Metering-equivalent hit for callers that already hold the
        decoded object (the decoded-tile cache).

        Updates recency and the hit / decompressed-bytes stats exactly
        as :meth:`get` would — ``uncompressed_len`` is what the codec
        would have produced.  Returns ``False`` with stats untouched
        when the key is absent; the caller then meters the miss
        (:meth:`load` does).
        """
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.bytes_decompressed += int(uncompressed_len)
        return True

    def touch_run(self, keys, uncompressed_lens, disk: LocalDisk) -> int:
        """:meth:`touch` of a stretch of resident keys in one step.

        Every entry's generation is checked against ``disk`` first, as
        :meth:`load` checks one (a rewritten blob refuses the stretch
        before any stat moves); then recency is updated in ``keys``
        order and the hits and decompressed bytes are added once.
        Returns the bytes added.
        """
        entries = self._entries
        generation = disk.generation
        for key in keys:
            if entries[key][0] != generation(key):
                raise _stale(key, "written again since it was cached")
        for key in keys:
            entries.move_to_end(key)
        total = sum(uncompressed_lens)
        self.stats.hits += len(keys)
        self.stats.bytes_decompressed += total
        return total

    def _measure(
        self, key: str, disk: LocalDisk, data: bytes | None = None
    ) -> tuple[int, int, int]:
        """The size record ``(write generation, raw length, stored
        length)`` of blob ``key`` on ``disk`` under the current mode.

        Remembered sizes answer without reading anything, once the
        blob's write generation on ``disk`` matches the one they were
        learned at (and ``data``, when in hand, has the remembered
        length); either mismatch is a rewrite nobody announced:
        ``RuntimeError``.  An unknown size is learned once from the
        codec's ``compressed_size`` — of ``data``, else of an unmetered
        read of the blob.
        """
        generation = disk.generation(key)
        known = self._sizes.get((key, self.mode))
        if known is not None:
            if known[0] != generation:
                raise _stale(key, "written again since it was measured")
            if data is not None and len(data) != known[1]:
                raise _stale(
                    key, f"{known[1]} B remembered, {len(data)} B in hand"
                )
            return known
        if data is None:
            data = disk.peek(key)
        record = (generation, len(data), self.codec.compressed_size(data))
        self._sizes[(key, self.mode)] = record
        return record

    def remembered_sizes(self) -> dict[tuple[str, int], tuple[int, int, int]]:
        """Copy of every remembered size, ``(name, mode) -> (write
        generation, raw length, stored length)`` — what a forked
        worker's cache ships back so the parent's copy does not re-learn
        them next run."""
        return dict(self._sizes)

    def merge_sizes(self, sizes) -> None:
        """Adopt sizes learned by another copy of this cache (a forked
        worker's): ``((name, mode), (write generation, raw length,
        stored length))`` pairs or a mapping of them."""
        self._sizes.update(sizes)

    def _fits(self, key: str, stored_len: int) -> bool:
        """The §IV-B admission rule on a stored length alone."""
        if stored_len > self.capacity_bytes:
            return False
        if self.eviction == "lru":
            return True
        resident = self._entries.get(key)
        held = resident[2] if resident is not None else 0
        return self._used - held + stored_len <= self.capacity_bytes

    def put(self, key: str, disk: LocalDisk, data: bytes | None = None) -> bool:
        """Admit blob ``key`` (on ``disk``); returns False if rejected.

        Under ``eviction="none"`` an entry that does not fit in the
        remaining free space is simply rejected (§IV-B).  Under
        ``"lru"`` least-recently-used entries are evicted to make room;
        blobs bigger than the whole capacity are rejected rather than
        flushing the entire cache.  A rejected insert leaves a resident
        entry of the same key untouched.

        Decided on the blob's remembered stored length (see
        :meth:`_measure`): only a blob not yet measured under this mode
        is compressed — ``data`` when the caller holds the bytes, else
        an unmetered read — and only once.
        """
        known = (key, self.mode) in self._sizes
        record = self._measure(key, disk, data)
        _generation, raw_len, stored_len = record
        self.stats.bytes_compressed_in += raw_len
        if not self._fits(key, stored_len):
            if known:
                self.compress_skipped += 1
            self.stats.rejected += 1
            self.trace.instant("cache-reject", "cache", key=key)
            return False
        if key in self._entries:
            self._used -= self._entries.pop(key)[2]
        while self._used + stored_len > self.capacity_bytes:
            victim, evicted = self._entries.popitem(last=False)
            self._used -= evicted[2]
            self.stats.evictions += 1
            self.trace.instant("cache-evict", "cache", key=victim)
        self._entries[key] = record
        self._used += stored_len
        self.stats.insertions += 1
        return True

    def load(
        self,
        key: str,
        disk: LocalDisk,
        raw_len: int | None = None,
        data: bytes | None = None,
    ) -> bytes | None:
        """The §IV-B lookup path: cache first, else disk + insert.

        What is read depends on what the caller already holds:

        * nothing — the blob's bytes are returned: a miss reads them
          through the metered :meth:`LocalDisk.read`, a hit (the cache
          holds sizes) through the unmetered :meth:`LocalDisk.peek`;
        * the blob decoded (``raw_len``: its uncompressed length, from
          the decoded-tile cache) or read ahead (``data``) — nothing is
          read: a miss charges the read it stands for
          (:meth:`LocalDisk.meter_read`) and ``data`` is returned.

        Hit, miss, admission and every stat are decided the same way in
        all three cases, and a resident entry's generation is checked
        against ``disk`` like a remembered size's.
        """
        entry = self._entries.get(key)
        if entry is not None and entry[0] != disk.generation(key):
            raise _stale(key, "written again since it was cached")
        if data is not None:
            raw_len = len(data)
        if raw_len is None:
            if self.get(key) is not None:
                return disk.peek(key)
            data = disk.read(key)
        elif self.touch(key, raw_len):
            return data
        else:
            self.stats.misses += 1
            disk.meter_read(raw_len)
        self.put(key, disk, data)
        return data

    def switch_mode(self, mode: int, disk: LocalDisk) -> int:
        """Re-admit every resident entry under a new mode's codec.

        The autotuner's mid-run cache-mode switch: entries are re-sized
        under the new codec (a size not yet learned for it is measured
        from an unmetered read of the blob on ``disk``), preserving
        recency order.  Entries that no longer fit (switching to a
        worse-ratio codec inflates the footprint) are dropped
        least-recent-first and counted as evictions.  Returns the total
        *uncompressed* bytes re-encoded so the caller can meter the
        decompression work (compression is uncharged, matching the
        insert path); a same-mode call is a free no-op.

        Deterministic: contents are a pure function of the admitted-key
        sequence and the mode history, so serial, thread, and process
        executors end up with identical caches after a switch.
        """
        if mode == self.mode:
            return 0
        if not 1 <= mode <= len(CACHE_MODES):
            raise ValueError(f"cache mode must be 1..{len(CACHE_MODES)}")
        keys = list(self._entries)
        total_raw = sum(raw for _gen, raw, _stored in self._entries.values())
        self.mode = mode
        self._entries = OrderedDict()
        self._used = 0
        # Re-admit most-recent-first so capacity pressure drops the
        # least recent entries — the same survivors an LRU would keep.
        kept = []
        for key in reversed(keys):
            record = self._measure(key, disk)
            if self._used + record[2] > self.capacity_bytes:
                self.stats.evictions += 1
                self.trace.instant("cache-evict", "cache", key=key)
                continue
            kept.append((key, record))
            self._used += record[2]
        self._entries.update(reversed(kept))
        return total_raw

    def content_keys(self) -> list[str]:
        """Entry keys in recency order (least recent first).

        Contents are a pure function of the admitted-key sequence and
        the remembered sizes, so this list is a complete content
        fingerprint — what the process runtime ships from worker to
        parent to resynchronise the parent's mirror.
        """
        return list(self._entries)

    def rebuild_content(self, keys, disk: LocalDisk) -> None:
        """Replace contents with blobs ``keys`` (blob names on ``disk``,
        least recent first), sized from the remembered sizes.

        Stats are untouched (they are mirrored separately); the entries
        and recency order come out exactly as if the same ``put``
        sequence had run here.
        """
        self._entries = OrderedDict()
        self._used = 0
        for key in keys:
            record = self._measure(key, disk)
            self._entries[key] = record
            self._used += record[2]

    def invalidate(self, key: str) -> None:
        """Forget blob ``key`` entirely — its entry, the bytes it was
        charged, and its remembered sizes under every mode.  For a blob
        rewritten under the same name; no stat is touched."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry[2]
        for mode in range(1, len(CACHE_MODES) + 1):
            self._sizes.pop((key, mode), None)

    def clear(self) -> None:
        """Drop every entry (stats and remembered sizes retained)."""
        self._entries.clear()
        self._used = 0

    def reset_stats(self) -> None:
        """Zero the counters (contents retained)."""
        self.stats = CacheStats()

    def __repr__(self) -> str:
        return (
            f"EdgeCache(mode={self.mode}, used={self._used}/"
            f"{self.capacity_bytes}B, entries={len(self._entries)}, "
            f"hit_ratio={self.stats.hit_ratio:.2f})"
        )


@dataclass
class DecodedCacheStats:
    """Counters for one decoded-tile cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served decoded (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class DecodedTileCache:
    """Per-server map of *live decoded objects* (parsed ``Tile``\\ s).

    The edge cache (§IV-B) holds serialised blobs; the seed engine
    re-ran ``Tile.from_bytes`` on every blob every superstep — work the
    paper's MPE never does, because a worker that holds a tile in
    memory simply reuses it.  This cache closes that gap on the host:
    it maps blob name → the decoded object plus the blob's uncompressed
    length, so a cache-resident tile is parsed once per run.

    Memory accounting: the modeled footprint of a resident tile is
    what the edge cache charges (``mem_cache``: its stored length) —
    the real system holds each tile's arrays exactly once, and the
    edge cache here keeps only sizes, so the decoded tile is the one
    host copy (zero-copy ``np.frombuffer`` views over the bytes the
    blob was parsed from).  The lazily-materialised ``int64`` index
    shadows (`Tile.col_int64` etc.) are a numpy-host artifact with no
    counterpart in the paper's ``uint32``-indexed C++ kernels and are
    deliberately excluded from the modeled RAM.  The engine's cache carries the server's ``slab``
    (:class:`repro.partition.tiles.TileSlab`), where those shadows live
    laid end to end — what lets it sweep a stretch of resident tiles as
    one.

    Metering safety: this cache never replaces the §IV-B lookup — the
    server still drives the edge cache / disk metering for every access
    (:meth:`repro.cluster.server.Server.load_tile`), replayed from the
    blob's length when the tile is held here, or — for a stretch of
    tiles held here and in the edge cache — summed over the stretch in
    one step (:meth:`repro.cluster.server.Server.load_held`), so hit
    ratios, disk traffic, and decompression charges are byte-identical
    to a load that re-read and re-parsed the blob, and the engine
    always attaches one.
    """

    stats: DecodedCacheStats = field(default_factory=DecodedCacheStats)
    slab: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> tuple[object, int] | None:
        """(decoded object, uncompressed blob length) on hit, else None."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def get_run(self, keys) -> list[tuple[object, int]]:
        """:meth:`get` of a stretch of resident keys in one step: their
        entries in ``keys`` order, recency updated in that order, the
        hits added once."""
        entries = self._entries
        out = [entries[key] for key in keys]
        for key in keys:
            entries.move_to_end(key)
        self.stats.hits += len(out)
        return out

    def peek(self, key: str) -> tuple[object, int] | None:
        """Non-mutating probe (no stats, no recency): the prefetch
        pipeline's background speculation, and the parent's rebuild
        after a process run."""
        return self._entries.get(key)

    def put(self, key: str, obj: object, uncompressed_len: int) -> None:
        """Insert a decoded object (most recent)."""
        if key in self._entries:
            self._entries.pop(key)
        self._entries[key] = (obj, int(uncompressed_len))
        self.stats.insertions += 1

    def invalidate(self, key: str) -> None:
        """Drop one entry (blob rewritten → decoded views are stale)."""
        if self._entries.pop(key, None) is not None:
            self.stats.invalidations += 1

    def content_keys(self) -> list[str]:
        """Entry keys in recency order (least recent first) — see
        :meth:`EdgeCache.content_keys`."""
        return list(self._entries)

    def rebuild_content(self, items) -> None:
        """Replace contents from ``(key, decoded object, uncompressed
        length)`` triples, stats untouched."""
        self._entries = OrderedDict(
            (key, (obj, int(n))) for key, obj, n in items
        )

    def clear(self) -> None:
        """Drop every entry (stats retained)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the stats (entries retained) — the service layer's
        per-job boundary: warm decoded tiles survive, but each job's
        hit/miss story starts fresh."""
        self.stats = DecodedCacheStats()

    def __repr__(self) -> str:
        return (
            f"DecodedTileCache(entries={len(self._entries)}, "
            f"hit_ratio={self.stats.hit_ratio:.2f})"
        )
