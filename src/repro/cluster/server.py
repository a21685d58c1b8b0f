"""One simulated server."""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.counters import Counters
from repro.obs.trace import NULL_BUFFER
from repro.storage.cache import DecodedTileCache, EdgeCache
from repro.storage.disk import LocalDisk


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
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.  Consulted on the tile-load path only.
        self.fault_injector: Any | None = None
        # This server's repro.obs.trace.TraceBuffer, installed by the
        # engine when tracing is on; the null buffer in normal runs.
        # Single-writer: only this server's executor thread / sticky
        # worker records.
        self.trace: Any = NULL_BUFFER
        # Separate buffer for the prefetch pipeline's background I/O
        # threads (multi-writer safe: complete-events only, one atomic
        # append each).  Installed alongside ``trace`` when tracing is
        # on and prefetch is enabled.
        self.prefetch_trace: Any = NULL_BUFFER

    def attach_cache(self, capacity_bytes: int, mode: int) -> EdgeCache:
        """Install an edge cache (replaces any existing one)."""
        self.cache = EdgeCache(capacity_bytes=capacity_bytes, mode=mode)
        self.cache.trace = self.trace
        return self.cache

    def switch_cache_mode(self, mode: int) -> int:
        """Switch the edge cache's mode mid-run, metering the work.

        Resident entries are decompressed under the old codec and
        re-admitted under the new one (:meth:`EdgeCache.switch_mode`);
        the decompression is charged like the hit path — old-codec
        bytes via ``add_decompressed``, nothing for raw mode 1 — and
        the recompression is uncharged, matching the insert path.  The
        cache memory gauge is refreshed.  Returns the uncompressed
        bytes re-encoded (0 when there is no cache or no mode change).
        """
        cache = self.cache
        if cache is None or cache.mode == mode:
            return 0
        old_mode = cache.mode
        old_codec = cache.codec.name
        raw_bytes = cache.switch_mode(mode)
        if raw_bytes and old_mode != 1:
            self.counters.add_decompressed(old_codec, raw_bytes)
        self.counters.set_memory("cache", cache.used_bytes)
        return raw_bytes

    def attach_decoded_cache(
        self, max_entries: int | None = None
    ) -> DecodedTileCache:
        """Install a decoded-tile cache (replaces any existing one)."""
        self.decoded_cache = DecodedTileCache(max_entries=max_entries)
        self.decoded_cache.trace = self.trace
        return self.decoded_cache

    def load_blob(self, name: str, prefetched: Any | None = None) -> bytes:
        """Read a blob through the cache if present, metering everything.

        This is the §IV-B lookup path wired into the server's counters:
        disk traffic on a miss, decompression work on a compressed hit,
        and the cache's live size mirrored into the memory accounting.

        ``prefetched`` (a :class:`repro.runtime.prefetch.PrefetchedLoad`)
        only substitutes identical precomputed bytes for codec/disk
        work; every decision and counter mutation still happens here.
        """
        before_read = self.disk.bytes_read
        if self.cache is not None:
            before_decomp = self.cache.stats.bytes_decompressed
            data = self.cache.load(name, self.disk, prefetched)
            decomp = self.cache.stats.bytes_decompressed - before_decomp
            if decomp and self.cache.mode != 1:
                self.counters.add_decompressed(self.cache.codec.name, decomp)
            self.counters.set_memory("cache", self.cache.used_bytes)
            # Cache misses are concurrent per-tile fetches — seek-bound.
            self.counters.disk_read_random += self.disk.bytes_read - before_read
        else:
            if prefetched is not None and prefetched.raw is not None:
                data = self.disk.read_cached(name, prefetched.raw)
            else:
                data = self.disk.read(name)
            self.counters.disk_read += self.disk.bytes_read - before_read
        return data

    def load_tile(
        self,
        name: str,
        parser: Callable[[bytes], Any],
        prefetched: Any | None = None,
    ) -> Any:
        """Load a blob and return it *decoded*, parsing at most once.

        The decoded-tile cache sits in front of :meth:`load_blob`, but
        never in front of its *metering*: every access still drives the
        §IV-B edge-cache / disk accounting, byte-identically to the
        undecoded path —

        * decoded hit + edge-cache resident: a metering-equivalent hit
          (:meth:`EdgeCache.touch` recency/stats + the decompression
          charge a real hit would incur), skipping both the codec and
          the parse;
        * decoded hit + edge-cache miss (tiny or thrashing cache): the
          real blob load runs for its disk/admission side effects and
          only the re-parse is skipped — the physical re-read happens,
          exactly what the simulation must meter;
        * decoded miss: the real blob load runs, the blob is parsed,
          and the decoded object is cached for the next superstep.

        The fault injector (when attached) is consulted first: transient
        injected read errors re-read the blob through the metered disk
        and charge retry costs here, before the cache lookup; fatal ones
        raise :class:`repro.faults.errors.DiskReadFault`.
        """
        with self.trace.span("load", "io", blob=name):
            if self.fault_injector is not None:
                self.fault_injector.on_tile_load(self, name)
            dcache = self.decoded_cache
            if dcache is None:
                data = self.load_blob(name, prefetched)
                return self._parse(data, parser, prefetched)
            entry = dcache.get(name)
            if entry is not None:
                obj, orig_len = entry
                if self.cache is not None and self.cache.touch(name, orig_len):
                    if orig_len and self.cache.mode != 1:
                        self.counters.add_decompressed(
                            self.cache.codec.name, orig_len
                        )
                    self.counters.set_memory("cache", self.cache.used_bytes)
                    return obj
                self.load_blob(name, prefetched)
                return obj
            data = self.load_blob(name, prefetched)
            obj = self._parse(data, parser, prefetched)
            dcache.put(name, obj, len(data))
            return obj

    @staticmethod
    def _parse(
        data: bytes, parser: Callable[[bytes], Any], prefetched: Any | None
    ) -> Any:
        """Parse ``data``, reusing a speculative decode only when it was
        produced from this exact bytes object (parsing is a pure
        function of the bytes, so the result is identical)."""
        if (
            prefetched is not None
            and prefetched.decoded is not None
            and prefetched.decoded_from is data
        ):
            return prefetched.decoded
        return parser(data)

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
