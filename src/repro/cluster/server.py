"""One simulated server."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.cluster.counters import Counters, CounterSnapshot
from repro.obs.trace import NULL_BUFFER
from repro.storage.cache import (
    CacheStats,
    DecodedCacheStats,
    DecodedTileCache,
    EdgeCache,
)
from repro.storage.disk import LocalDisk


@dataclass
class ServerMirror:
    """What a forked worker reports about the server it owns, so the
    parent's copy of that server tells the same metered story
    (:meth:`Server.export_mirror` builds it after every phase,
    :meth:`Server.absorb_mirror` folds it in).

    ``volumes`` is a *delta*: the parent's counters have a second
    writer — the channel and the fault injector charge them parent-side
    — so the worker's volumes can only be added.  Everything else has
    one writer, the owning worker, and travels as an absolute: memory
    gauges and peak, both caches' stats objects, the edge cache's mode,
    and the caches' content keys in recency order (edge-cache contents
    are a pure function of the key list and the remembered sizes, so
    the parent rebuilds them when the workers are gone —
    :meth:`Server.restore_mirrored_content`).  No tile data and no
    store arrays: the stores live in shared memory, and every tile the
    parent lacks is on the server's own disk.
    """

    volumes: Counters
    mem_cache: int
    mem_scratch: int
    mem_peak: int
    cache_mode: int | None
    cache_stats: CacheStats | None
    cache_keys: tuple | None
    # Every blob size the edge cache remembers, (name, mode) -> (write
    # generation, raw length, stored length) (the pool is forked per
    # run: unshipped, each run would re-learn — re-compress — them; the
    # parent also rebuilds the cache's entries from them) and its
    # compress_skipped count (host telemetry: rejects decided from a
    # remembered size).
    cache_sizes: dict | None
    compress_skipped: int
    decoded_stats: DecodedCacheStats | None
    decoded_keys: tuple | None
    # Events drained from the worker's copies of the two trace buffers
    # (empty when tracing is off).
    trace: tuple
    prefetch_trace: tuple


class Server:
    """A compute server: local disk, optional edge cache, counters, state.

    Engines attach whatever per-server state they need (vertex replica
    arrays, partition indices, message buffers) to :attr:`state`; the
    server object itself only owns the metered resources.
    """

    def __init__(self, server_id: int, disk_root: str) -> None:
        self.server_id = int(server_id)
        self.disk = LocalDisk(disk_root)
        self.cache: EdgeCache | None = None
        self.decoded_cache: DecodedTileCache | None = None
        self.counters = Counters()
        self.state: dict[str, Any] = {}
        # This server's repro.obs.trace.TraceBuffer, installed by the
        # engine when tracing is on; the null buffer in normal runs.
        # Single-writer: this server's executor thread / sticky worker
        # during a phase, the parent (fault instants) between phases.
        self.trace: Any = NULL_BUFFER
        # Separate buffer for the prefetch pipeline's background I/O
        # threads (multi-writer safe: complete-events only, one atomic
        # append each).  Installed alongside ``trace`` when tracing is
        # on and prefetch is enabled.
        self.prefetch_trace: Any = NULL_BUFFER
        # Content keys of the last absorbed mirror, until restored.
        self._mirrored_keys: tuple | None = None

    def export_mirror(self, since: CounterSnapshot) -> ServerMirror:
        """This server's state as the parent must see it: volumes
        accumulated since ``since``, everything else as it stands, trace
        buffers drained."""
        c = self.counters
        cache = self.cache
        decoded = self.decoded_cache
        return ServerMirror(
            volumes=since.delta(self),
            mem_cache=c.mem_cache,
            mem_scratch=c.mem_scratch,
            mem_peak=c.mem_peak,
            cache_mode=cache.mode if cache is not None else None,
            cache_stats=replace(cache.stats) if cache is not None else None,
            cache_keys=(
                tuple(cache.content_keys()) if cache is not None else None
            ),
            cache_sizes=(
                cache.remembered_sizes() if cache is not None else None
            ),
            compress_skipped=cache.compress_skipped if cache is not None else 0,
            decoded_stats=(
                replace(decoded.stats) if decoded is not None else None
            ),
            decoded_keys=(
                tuple(decoded.content_keys()) if decoded is not None else None
            ),
            trace=tuple(self.trace.drain()),
            prefetch_trace=tuple(self.prefetch_trace.drain()),
        )

    def absorb_mirror(self, mirror: ServerMirror) -> None:
        """Fold a worker's report into this (parent-side) copy.  Cache
        *contents* are only noted — :meth:`restore_mirrored_content`
        rebuilds them from the last absorbed key lists."""
        c = self.counters
        c.add_volumes(mirror.volumes)
        c.mem_cache = mirror.mem_cache
        c.mem_scratch = mirror.mem_scratch
        c.mem_peak = max(c.mem_peak, mirror.mem_peak)
        if self.cache is not None:
            if self.cache.mode != mirror.cache_mode:
                # Resident entries are the previous mode's sizes; they
                # are rebuilt from the key list, never read.
                self.cache.clear()
                self.cache.mode = mirror.cache_mode
            self.cache.stats = mirror.cache_stats
            self.cache.merge_sizes(mirror.cache_sizes)
            self.cache.compress_skipped = mirror.compress_skipped
        if self.decoded_cache is not None:
            self.decoded_cache.stats = mirror.decoded_stats
        self._mirrored_keys = (mirror.cache_keys, mirror.decoded_keys)
        self.trace.extend(mirror.trace)
        self.prefetch_trace.extend(mirror.prefetch_trace)

    def restore_mirrored_content(self, parser: Callable[[bytes], Any]) -> None:
        """Rebuild both caches' contents from the key lists of the last
        absorbed mirror (no-op when none was absorbed since the last
        restore).  Entries and recency order come out exactly as a
        single-process run would have left them, so a later run — a
        supervised retry, the next program on this cluster — meters the
        same under every executor.  The edge cache is rebuilt from the
        sizes the worker shipped, with no read and no codec.  A decoded
        tile the parent already holds is taken as is: inside a run the
        decoded cache only gains entries (blobs are written by the
        parent, between runs, and a write invalidates), so the worker's
        entry under that key is the parent's.  Only tiles the worker
        decoded for the first time are read and parsed."""
        if self._mirrored_keys is None:
            return
        cache_keys, decoded_keys = self._mirrored_keys
        self._mirrored_keys = None
        if self.cache is not None:
            self.cache.rebuild_content(cache_keys, self.disk)
        if self.decoded_cache is not None:
            items = []
            for name in decoded_keys:
                held = self.decoded_cache.peek(name)
                if held is None:
                    data = self.disk.peek(name)
                    held = (parser(data), len(data))
                items.append((name, *held))
            self.decoded_cache.rebuild_content(items)

    def attach_cache(self, capacity_bytes: int, mode: int) -> EdgeCache:
        """Install an edge cache (replaces any existing one)."""
        self.cache = EdgeCache(capacity_bytes=capacity_bytes, mode=mode)
        self.cache.trace = self.trace
        return self.cache

    def switch_cache_mode(self, mode: int) -> int:
        """Switch the edge cache's mode mid-run, metering the work.

        Resident entries are re-admitted under the new mode's sizes
        (:meth:`EdgeCache.switch_mode`); their decompression is charged
        like the hit path — old-codec bytes via ``add_decompressed``,
        nothing for raw mode 1 — and the recompression is uncharged,
        matching the insert path.  The
        cache memory gauge is refreshed.  Returns the uncompressed
        bytes re-encoded (0 when there is no cache or no mode change).
        """
        cache = self.cache
        if cache is None or cache.mode == mode:
            return 0
        old_mode = cache.mode
        old_codec = cache.codec.name
        raw_bytes = cache.switch_mode(mode, self.disk)
        if raw_bytes and old_mode != 1:
            self.counters.add_decompressed(old_codec, raw_bytes)
        self.counters.set_memory("cache", cache.used_bytes)
        return raw_bytes

    def attach_decoded_cache(self, slab: Any | None = None) -> DecodedTileCache:
        """Install a decoded-tile cache (replaces any existing one);
        ``slab`` is the empty :class:`~repro.partition.tiles.TileSlab`
        it lays its tiles into."""
        self.decoded_cache = DecodedTileCache(slab=slab)
        return self.decoded_cache

    def load_blob(
        self, name: str, raw_len: int | None = None, data: bytes | None = None
    ) -> bytes | None:
        """Read a blob through the cache if present, metering everything.

        This is the §IV-B lookup path wired into the server's counters:
        disk traffic on a miss, decompression work on a compressed hit,
        and the cache's live size mirrored into the memory accounting.

        ``raw_len`` (the caller holds the blob decoded) or ``data`` (the
        caller read it ahead) make the lookup a replay: every decision
        and counter is the same, nothing is read, and ``data`` is
        returned (see :meth:`EdgeCache.load`).
        """
        disk = self.disk
        if data is not None:
            raw_len = len(data)
        before_read = disk.bytes_read
        if self.cache is not None:
            before_decomp = self.cache.stats.bytes_decompressed
            data = self.cache.load(name, disk, raw_len, data)
            decomp = self.cache.stats.bytes_decompressed - before_decomp
            if decomp and self.cache.mode != 1:
                self.counters.add_decompressed(self.cache.codec.name, decomp)
            self.counters.set_memory("cache", self.cache.used_bytes)
            # Cache misses are concurrent per-tile fetches — seek-bound.
            self.counters.disk_read_random += disk.bytes_read - before_read
        else:
            if raw_len is None:
                data = disk.read(name)
            else:
                disk.meter_read(raw_len)
            self.counters.disk_read += disk.bytes_read - before_read
        return data

    def load_tile(
        self,
        name: str,
        parser: Callable[[bytes], Any],
        prefetched: Any | None = None,
    ) -> Any:
        """Load a blob and return it *decoded*, reading and parsing it
        at most once.

        The decoded-tile cache sits in front of :meth:`load_blob`, but
        never in front of its *metering*: every access drives the §IV-B
        edge-cache / disk accounting, byte-identically to a load that
        re-read and re-parsed the blob —

        * decoded hit: the lookup is replayed from the blob's length
          (``load_blob(raw_len=…)``) — a hit charges its decompression,
          a miss its disk read and admission — and nothing is read,
          decompressed or compressed;
        * decoded miss: the blob is read (or taken from ``prefetched``,
          a :class:`repro.runtime.prefetch.PrefetchedLoad` whose bytes
          were read ahead), metered the same way, parsed (or its
          speculative parse reused), and the decoded object is cached
          for the next superstep.
        """
        with self.trace.span("load", "io", blob=name):
            dcache = self.decoded_cache
            entry = dcache.get(name)
            if entry is not None:
                obj, orig_len = entry
                self.load_blob(name, raw_len=orig_len)
                return obj
            if prefetched is not None and prefetched.raw is not None:
                data = self.load_blob(name, data=prefetched.raw)
                obj = prefetched.decoded
            else:
                data = self.load_blob(name)
                obj = parser(data)
            dcache.put(name, obj, len(data))
            return obj

    def held_stretch(self, names: Sequence[str], start: int) -> int:
        """How many of ``names[start:]``, in a row, this server holds in
        memory: the blob in the edge cache (§IV-B) and the decoded tile
        in the decoded cache.  Such a tile costs its lookup's hits and
        nothing else, so :meth:`load_held` meters the stretch in one
        step.

        Decided from both caches' contents — the metered state, which
        every executor keeps identical — when the sweep reaches
        ``start``: a hit changes no content, so the answer holds for the
        whole stretch, while the tile after it may be evicted by a
        streamed tile's admission and is asked about again.
        """
        cache, decoded = self.cache, self.decoded_cache
        if cache is None:
            return 0
        end, stop = start, len(names)
        while end < stop and names[end] in cache and names[end] in decoded:
            end += 1
        return end - start

    def load_held(self, names: Sequence[str]) -> list:
        """Meter a held stretch (:meth:`held_stretch`) in one step and
        return its decoded tiles, in order.

        What ``len(names)`` :meth:`load_tile` calls would charge, summed:
        each blob's write generation is checked (a rewrite nobody
        announced raises, as on the per-tile path), both caches count
        the hits and move the names to their recent end in sweep order,
        the decompression of the raw lengths is charged (nothing in raw
        mode 1), and the cache gauge is refreshed.  No span: the sweep's
        ``tile`` span covers the stretch.
        """
        cache = self.cache
        entries = self.decoded_cache.get_run(names)
        decomp = cache.touch_run(names, [n for _obj, n in entries], self.disk)
        if decomp and cache.mode != 1:
            self.counters.add_decompressed(cache.codec.name, decomp)
        self.counters.set_memory("cache", cache.used_bytes)
        return [obj for obj, _n in entries]

    def store_blob(self, name: str, data: bytes) -> None:
        """Write a blob to local disk, metering the transfer.  Whatever
        either cache holds under this name is now stale and dropped."""
        self.disk.write(name, data)
        self.counters.disk_write += len(data)
        if self.cache is not None:
            self.cache.invalidate(name)
        if self.decoded_cache is not None:
            self.decoded_cache.invalidate(name)

    def __repr__(self) -> str:
        return f"Server(id={self.server_id}, cache={self.cache is not None})"
