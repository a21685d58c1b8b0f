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

Admission is decided *before* the codec runs.  A real worker never
compresses a tile it is about to drop, and the only thing ``put`` needs
from the codec to reject is the compressed length — a pure function of
(blob bytes, cache mode).  The cache remembers that length, with the
blob's ``zlib.crc32``, the first time it compresses a blob, and decides
every later insert of the same blob from the remembered number, so the
codec runs only for blobs that will be stored.  "The same blob" is
checked, not assumed: before a remembered length may decide anything
the blob in hand must reproduce the remembered fingerprint (a stale
size would change metered admission decisions silently; the check makes
it an error).  Same decision from the same number: stats, contents,
recency, and trace instants are bitwise what an always-compress cache
produces.
"""

from __future__ import annotations

import zlib
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
        """Total get() calls."""
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
    """Cache of tile blobs, optionally compressed.

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

    Remembered sizes are a fact about a blob, not about the cache's
    contents: they survive :meth:`clear`, :meth:`reset_stats` and mode
    switches (keyed per mode), and are dropped only by
    :meth:`invalidate` (the blob was rewritten) or with the cache
    object.  ``compress_skipped`` counts the puts rejected from a
    remembered, fingerprint-verified size, i.e. without running the
    codec; once every blob's size is known it advances in step with
    ``CacheStats.rejected``.  Host telemetry, deliberately outside
    :class:`CacheStats` (a warm engine legitimately skips more than a
    cold one while its metered story stays identical).
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
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._used = 0
        # (blob name, mode) -> (uncompressed length, crc32 of the
        # uncompressed blob, stored length).
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

    def get(self, key: str, prefetched=None) -> bytes | None:
        """Return the uncompressed blob on hit, ``None`` on miss.

        ``prefetched`` is an optional speculation record from the tile
        prefetch pipeline (:mod:`repro.runtime.prefetch`).  Its decoded
        product is reused *only* when it was derived from the exact
        stored entry (object identity) — the hint can never change the
        hit/miss decision or the metered byte counts, it only skips
        re-running the deterministic codec.
        """
        blob = self._entries.get(key)
        if blob is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if (
            prefetched is not None
            and prefetched.decompressed is not None
            and prefetched.stored is blob
        ):
            data = prefetched.decompressed
        else:
            data = self.codec.decompress(blob)
        self.stats.bytes_decompressed += len(data)
        return data

    def peek_stored(self, key: str) -> bytes | None:
        """Non-mutating probe: the *stored* (possibly compressed) entry
        bytes, or ``None``.  No stats, no recency update — safe for the
        prefetch pipeline's background speculation."""
        return self._entries.get(key)

    def touch(self, key: str, uncompressed_len: int) -> bool:
        """Metering-equivalent hit for callers that already hold the
        decoded object (the decoded-tile cache).

        Updates recency and the hit / decompressed-bytes stats exactly
        as :meth:`get` would — ``uncompressed_len`` is what the codec
        would have produced — without running the codec.  Returns
        ``False`` with stats untouched when the key is absent; the
        caller must then take the real lookup path so miss accounting
        happens there.
        """
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.bytes_decompressed += int(uncompressed_len)
        return True

    def _remembered(self, key: str, data: bytes) -> int | None:
        """Stored length of blob ``key`` under the current mode, if
        ``data`` has been compressed here before; ``None`` when the name
        is new or was last seen at another uncompressed length (it is
        then measured afresh).  Same name and length but another
        fingerprint is a rewrite nobody announced: ``RuntimeError``."""
        known = self._sizes.get((key, self.mode))
        if known is None or known[0] != len(data):
            return None
        if zlib.crc32(data) != known[1]:
            raise _stale(key, "its content fingerprint differs")
        return known[2]

    def _learn(self, key: str, data: bytes, blob: bytes) -> None:
        """Remember that ``data`` is stored as ``blob`` under this mode."""
        self._sizes[(key, self.mode)] = (len(data), zlib.crc32(data), len(blob))

    def remembered_sizes(self) -> dict[tuple[str, int], tuple[int, int, int]]:
        """Copy of every remembered size, ``(name, mode) -> (raw length,
        crc32, stored length)`` — what a forked worker's cache ships
        back so the parent's copy does not re-learn them next run."""
        return dict(self._sizes)

    def merge_sizes(self, sizes) -> None:
        """Adopt sizes learned by another copy of this cache (a forked
        worker's): ``((name, mode), (raw length, crc32, stored
        length))`` pairs or a mapping of them."""
        self._sizes.update(sizes)

    def would_reject(self, key: str, raw_len: int) -> bool:
        """Whether a :meth:`put` of blob ``key`` right now is *known* to
        be rejected; ``False`` whenever the size has not been learned
        yet.  Read-only and length-only — safe for the prefetch
        pipeline's background speculation, which must not raise; the
        committed :meth:`put` verifies the fingerprint."""
        known = self._sizes.get((key, self.mode))
        return (
            known is not None
            and known[0] == raw_len
            and not self._fits(key, known[2])
        )

    def _fits(self, key: str, stored_len: int) -> bool:
        """The §IV-B admission rule on a stored length alone."""
        if stored_len > self.capacity_bytes:
            return False
        if self.eviction == "lru":
            return True
        resident = self._entries.get(key)
        held = len(resident) if resident is not None else 0
        return self._used - held + stored_len <= self.capacity_bytes

    def _compress(self, data: bytes, prefetched=None) -> bytes:
        """Run the codec, unless ``prefetched`` already carries the
        compression of this exact object (compression is deterministic,
        so the bytes are identical)."""
        if (
            prefetched is not None
            and prefetched.compressed is not None
            and prefetched.raw is data
        ):
            return prefetched.compressed
        return self.codec.compress(data)

    def _measure(
        self, key: str, data: bytes, prefetched=None
    ) -> tuple[int, bytes | None]:
        """``(stored length, compressed blob or None)`` for ``data``.

        The codec runs only the first time a blob is seen under the
        current mode; afterwards the remembered length is returned —
        once ``data`` has reproduced the remembered fingerprint — with
        no blob, and the caller compresses only if it goes on to store.
        """
        stored_len = self._remembered(key, data)
        if stored_len is not None:
            return stored_len, None
        blob = self._compress(data, prefetched)
        self._learn(key, data, blob)
        return len(blob), blob

    def _recompress(
        self, key: str, data: bytes, stored_len: int, prefetched=None
    ) -> bytes:
        """Run the codec on a blob whose stored length is remembered;
        the two have to agree."""
        blob = self._compress(data, prefetched)
        if len(blob) != stored_len:
            raise _stale(
                key, f"{stored_len} B remembered, {len(blob)} B now"
            )
        return blob

    def put(self, key: str, data: bytes, prefetched=None) -> bool:
        """Insert an uncompressed blob; returns False if not admitted.

        Under ``eviction="none"`` an entry that does not fit in the
        remaining free space is simply rejected (§IV-B).  Under
        ``"lru"`` least-recently-used entries are evicted to make room;
        blobs bigger than the whole capacity are rejected rather than
        flushing the entire cache.  A rejected insert leaves a resident
        entry of the same key untouched.

        The decision is taken on the blob's stored length before the
        codec runs (see :meth:`_measure`); a rejected blob whose length
        is remembered is not compressed.  A remembered length decides
        only after ``data`` matched the fingerprint remembered with it,
        and when the codec then runs (the blob is stored) its output
        must have that length; either mismatch raises ``RuntimeError``.
        ``prefetched`` may carry a speculatively pre-compressed copy of
        ``data``; it is reused only when compressed from this exact
        object.
        """
        self.stats.bytes_compressed_in += len(data)
        stored_len, blob = self._measure(key, data, prefetched)
        if not self._fits(key, stored_len):
            if blob is None:
                self.compress_skipped += 1
            self.stats.rejected += 1
            self.trace.instant("cache-reject", "cache", key=key)
            return False
        if blob is None:
            blob = self._recompress(key, data, stored_len, prefetched)
        if key in self._entries:
            self._used -= len(self._entries.pop(key))
        while self._used + len(blob) > self.capacity_bytes:
            victim, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)
            self.stats.evictions += 1
            self.trace.instant("cache-evict", "cache", key=victim)
        self._entries[key] = blob
        self._used += len(blob)
        self.stats.insertions += 1
        return True

    def load(self, key: str, disk: LocalDisk, prefetched=None) -> bytes:
        """The §IV-B lookup path: cache first, else disk + insert.

        With a ``prefetched`` record the miss path serves the already-
        peeked bytes through :meth:`LocalDisk.read_cached` (identical
        metering, same returned object) so the insert can reuse the
        speculative compression.  Hit/miss, admission, and every stat
        are decided here exactly as without the hint.
        """
        data = self.get(key, prefetched)
        if data is not None:
            return data
        if prefetched is not None and prefetched.raw is not None:
            data = disk.read_cached(key, prefetched.raw)
        else:
            data = disk.read(key)
        self.put(key, data, prefetched)
        return data

    def switch_mode(self, mode: int) -> int:
        """Re-encode every resident entry under a new mode's codec.

        The autotuner's mid-run cache-mode switch: entries are
        decompressed with the old codec and recompressed with the new
        one, preserving recency order.  Entries that no longer fit
        (switching to a worse-ratio codec inflates the footprint) are
        dropped least-recent-first and counted as evictions.  Returns
        the total *uncompressed* bytes re-encoded so the caller can
        meter the decompression work (compression is uncharged, matching
        the insert path); a same-mode call is a free no-op.  Like
        :meth:`put`, an entry whose new stored length is remembered and
        does not fit is dropped without being recompressed.

        Deterministic: contents are a pure function of the admitted-key
        sequence and the mode history, so serial, thread, and process
        executors end up with byte-identical caches after a switch.
        """
        if mode == self.mode:
            return 0
        if not 1 <= mode <= len(CACHE_MODES):
            raise ValueError(f"cache mode must be 1..{len(CACHE_MODES)}")
        old_codec = self.codec
        items = [
            (key, old_codec.decompress(blob))
            for key, blob in self._entries.items()
        ]
        self.mode = mode
        self._entries = OrderedDict()
        self._used = 0
        total_raw = 0
        # Recompress most-recent-first so capacity pressure drops the
        # least recent entries — the same survivors an LRU would keep.
        kept = []
        for key, data in reversed(items):
            total_raw += len(data)
            stored_len, blob = self._measure(key, data)
            if self._used + stored_len > self.capacity_bytes:
                self.stats.evictions += 1
                self.trace.instant("cache-evict", "cache", key=key)
                continue
            if blob is None:
                blob = self._recompress(key, data, stored_len)
            kept.append((key, blob))
            self._used += len(blob)
        for key, blob in reversed(kept):
            self._entries[key] = blob
        return total_raw

    def content_keys(self) -> list[str]:
        """Entry keys in recency order (least recent first).

        Contents are a pure function of the admitted-key sequence (blobs
        are immutable, compression is deterministic), so this list is a
        complete content fingerprint — what the process runtime ships
        from worker to parent to resynchronise the parent's mirror.
        """
        return list(self._entries)

    def rebuild_content(self, items) -> None:
        """Replace contents from ``(key, uncompressed blob)`` pairs.

        Stats are untouched (they are mirrored separately); the stored
        bytes and recency order come out exactly as if the same ``put``
        sequence had run here.
        """
        self._entries = OrderedDict()
        self._used = 0
        for key, data in items:
            blob = self.codec.compress(data)
            self._learn(key, data, blob)
            self._entries[key] = blob
            self._used += len(blob)

    def invalidate(self, key: str) -> None:
        """Forget blob ``key`` entirely — its entry, the bytes it held,
        and its remembered sizes and fingerprints under every mode.  For
        a blob rewritten under the same name; no stat is touched."""
        blob = self._entries.pop(key, None)
        if blob is not None:
            self._used -= len(blob)
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

    Memory accounting: decoded tiles are zero-copy ``np.frombuffer``
    views over the blob bytes already charged to the edge cache
    (``mem_cache``), so the modeled footprint is unchanged — matching
    the real system, which holds each tile's arrays exactly once.  The
    lazily-materialised ``int64`` index shadows (`Tile.col_int64` etc.)
    are a numpy-host artifact with no counterpart in the paper's
    ``uint32``-indexed C++ kernels and are deliberately excluded from
    the modeled RAM.  The engine's cache carries the server's ``slab``
    (:class:`repro.partition.tiles.TileSlab`), where those shadows live
    laid end to end — what lets it sweep a stretch of resident tiles as
    one.

    Metering safety: this cache never replaces the §IV-B lookup — the
    server still drives the edge cache / disk metering for every access
    (:meth:`repro.cluster.server.Server.load_tile`), so hit ratios,
    disk traffic, and decompression charges are byte-identical to a load
    that re-parsed the blob, and the engine always attaches one.
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

    def peek(self, key: str) -> tuple[object, int] | None:
        """Non-mutating probe (no stats, no recency) for the prefetch
        pipeline's background speculation."""
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
