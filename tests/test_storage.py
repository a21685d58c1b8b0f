"""Tests for codecs, local disk, and the edge cache."""

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    CODECS,
    EdgeCache,
    LocalDisk,
    get_codec,
    select_cache_mode,
)
from repro.storage.cache import CacheStats
from repro.storage.codecs import CACHE_MODES, SnappyLikeCodec
from repro.utils.varint import encode_uvarints


class TestCodecs:
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_typical_tile_bytes(self, name):
        codec = get_codec(name)
        # int64 ids → long zero runs in the high bytes, like real tiles.
        data = np.arange(0, 5000, 3, dtype=np.int64).tobytes()
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_empty(self, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(b"")) == b""

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_incompressible(self, name):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        codec = get_codec(name)
        out = codec.compress(data)
        assert codec.decompress(out) == data
        # Bounded expansion on incompressible input.
        assert len(out) <= len(data) + 64

    def test_tile_ratio_ordering(self):
        """On real tile bytes (the cache's workload), ratio(zlib3) >=
        ratio(zlib1) > ratio(snappylike) > 1 — Table V's ordering."""
        from repro.graph import chung_lu_graph
        from repro.partition import build_tiles

        g = chung_lu_graph(3000, 120_000, seed=99)
        blobs = [t.to_bytes() for t in build_tiles(g, 8000).tiles]
        sizes = {
            n: sum(len(get_codec(n).compress(b)) for b in blobs) for n in CODECS
        }
        # zlib-3 may tie zlib-1 within noise on small analogs.
        assert sizes["zlib3"] <= sizes["zlib1"] * 1.01
        assert sizes["zlib1"] < sizes["snappylike"] < sizes["raw"]
        # snappy-like lands near its Table V ~1.9x profile.
        assert 1.5 < sizes["raw"] / sizes["snappylike"] < 3.0

    def test_snappylike_speed_profile_is_modeled_not_measured(self):
        """The snappy/zlib speed asymmetry enters results through the
        cost model's Table V throughput constants, not through Python
        wall-clock (a numpy RLE cannot out-run C zlib — the repro band's
        'slow without native extensions' caveat).  Pin the contract:
        modeled snappy decompress must dwarf zlib's, and the cost model
        must consume exactly these constants."""
        from repro.cluster import ClusterSpec, Counters
        from repro.metrics import CostModel

        snappy, z3 = get_codec("snappylike"), get_codec("zlib3")
        assert snappy.model_decompress_mbps >= 10 * z3.model_decompress_mbps
        spec = ClusterSpec(num_servers=1, workers_per_server=1)
        nbytes = 100 * 1024 * 1024
        times = {}
        for name in ("snappylike", "zlib3"):
            c = Counters()
            c.add_decompressed(name, nbytes)
            times[name] = CostModel(spec).server_time(c).decompress_s
        assert times["snappylike"] < times["zlib3"] / 10

    def test_model_constants_match_table5_profile(self):
        snappy = get_codec("snappylike")
        z1, z3 = get_codec("zlib1"), get_codec("zlib3")
        assert snappy.model_decompress_mbps > 10 * z1.model_decompress_mbps
        assert z3.model_ratio > z1.model_ratio > snappy.model_ratio > 1.0

    def test_unknown_codec(self):
        with pytest.raises(KeyError):
            get_codec("lz4")

    def test_snappylike_rejects_garbage(self):
        codec = get_codec("snappylike")
        with pytest.raises(ValueError):
            codec.decompress(b"")
        with pytest.raises(ValueError):
            codec.decompress(b"X123")
        with pytest.raises(ValueError):
            codec.decompress(b"R\x05")

    @settings(max_examples=50)
    @given(st.binary(max_size=5000))
    def test_all_codecs_roundtrip_property(self, data):
        for name in CODECS:
            codec = get_codec(name)
            assert codec.decompress(codec.compress(data)) == data


def _encode_then_choose(plane: np.ndarray) -> bytes:
    """``SnappyLikeCodec._pack_plane`` as it was before the literal-or-
    RLE choice moved ahead of the run encoding — the byte-format
    reference: the choice may be made earlier, never differently."""
    if plane.size == 0:
        return bytes([0]) + (0).to_bytes(8, "little")
    boundaries = np.flatnonzero(np.diff(plane)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [plane.size]))
    lengths = (ends - starts).astype(np.uint64)
    length_block = encode_uvarints(lengths)
    rle = (
        bytes([1])
        + lengths.size.to_bytes(8, "little")
        + len(length_block).to_bytes(8, "little")
        + length_block
        + plane[starts].tobytes()
    )
    literal = bytes([0]) + plane.size.to_bytes(8, "little") + plane.tobytes()
    return rle if len(rle) < len(literal) else literal


class _EncodeThenChooseCodec(SnappyLikeCodec):
    _pack_plane = staticmethod(_encode_then_choose)


def _dense_payload(n: int, seed: int) -> bytes:
    """A dense broadcast's shape: packed bitvector, then float64 ranks
    (incompressible mantissa planes, near-constant exponent planes)."""
    rng = np.random.default_rng(seed)
    bits = np.packbits(rng.random(n) < 0.9)
    ranks = (rng.random(n) / n).astype(np.float64)
    return bits.tobytes() + ranks.tobytes()


_BLOBS = st.one_of(
    st.binary(max_size=600),
    st.builds(lambda b, n: bytes([b]) * n, st.integers(0, 255), st.integers(1, 3000)),
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(1, 400)), max_size=30
    ).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs)),
    st.builds(_dense_payload, st.integers(1, 700), st.integers(0, 10)),
    st.builds(
        lambda n, seed: np.random.default_rng(seed)
        .integers(0, 256, n, dtype=np.uint8)
        .tobytes(),
        st.integers(1, 2001),
        st.integers(0, 10),
    ),
)


class TestSnappyLikeChoosesBeforeEncoding:
    @settings(max_examples=150)
    @given(_BLOBS)
    def test_stream_is_byte_identical_to_the_reference(self, data):
        codec = SnappyLikeCodec()
        out = codec.compress(data)
        assert out == _EncodeThenChooseCodec().compress(data)
        assert codec.decompress(out) == data

    @pytest.mark.parametrize("slack", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("runs", [1, 2, 17, 300])
    def test_planes_on_the_decision_boundary(self, runs, slack):
        """``17 + 2*runs`` against ``9 + size``: planes sized exactly on
        the bound and one or two bytes either side of it, with every
        run short (1-byte varints, where the bound is tight) and with
        one long run (where it is not)."""
        size = 8 + 2 * runs + slack
        values = (np.arange(runs) % 2).astype(np.uint8)
        # Every run short: the remainder is spread so each length is a
        # 1-byte varint and the RLE block is exactly 17 + 2*runs.
        spread = np.full(runs, size // runs, dtype=np.int64)
        spread[: size % runs] += 1
        # One long run instead (a 2-byte varint at runs=300).
        lumped = np.ones(runs, dtype=np.int64)
        lumped[-1] = size - (runs - 1)
        for lengths in (spread, lumped):
            plane = np.repeat(values, lengths)
            assert plane.size == size
            assert SnappyLikeCodec._pack_plane(plane) == _encode_then_choose(
                plane
            )
        tight = SnappyLikeCodec._pack_plane(np.repeat(values, spread))
        assert tight[0] == (1 if slack > 0 else 0)


class TestLocalDisk:
    def test_write_read_roundtrip(self, tmp_path):
        disk = LocalDisk(tmp_path / "d0")
        disk.write("tile-0", b"hello")
        assert disk.read("tile-0") == b"hello"
        assert disk.bytes_written == 5
        assert disk.bytes_read == 5
        assert disk.read_ops == 1 and disk.write_ops == 1

    def test_exists_and_size(self, tmp_path):
        disk = LocalDisk(tmp_path)
        assert not disk.exists("x")
        disk.write("x", b"abc")
        assert disk.exists("x")
        assert disk.size("x") == 3

    def test_delete_idempotent(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("x", b"abc")
        disk.delete("x")
        disk.delete("x")
        assert not disk.exists("x")

    def test_list_and_used(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("b", b"22")
        disk.write("a", b"1")
        assert disk.list_blobs() == ["a", "b"]
        assert disk.used_bytes() == 3

    def test_invalid_names(self, tmp_path):
        disk = LocalDisk(tmp_path)
        for bad in ("../x", "a/b", ".."):
            with pytest.raises(ValueError):
                disk.write(bad, b"")

    def test_reset_counters(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("x", b"abc")
        disk.reset_counters()
        assert disk.bytes_written == 0
        assert disk.exists("x")


class TestModeSelection:
    def test_everything_fits_raw(self):
        assert select_cache_mode(100, 100) == 1

    def test_snappy_when_half_fits(self):
        assert select_cache_mode(100, 60) == 2

    def test_zlib1_when_quarter_fits(self):
        assert select_cache_mode(100, 30) == 3

    def test_zlib3_when_fifth_fits(self):
        assert select_cache_mode(100, 21) == 4

    def test_fallback_to_mode3(self):
        # Paper: "If no mode can satisfy this constraint, GraphH would
        # use mode-3."
        assert select_cache_mode(100, 5) == 3

    def test_zero_capacity(self):
        assert select_cache_mode(100, 0) == 3

    def test_zero_tiles(self):
        assert select_cache_mode(0, 0) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            select_cache_mode(10, -1)

    @given(st.integers(0, 10**12), st.integers(0, 10**12))
    def test_mode_always_valid(self, total, capacity):
        assert 1 <= select_cache_mode(total, capacity) <= 4


def _disk(path, **blobs) -> LocalDisk:
    """A disk at ``path`` holding ``blobs`` (name -> bytes)."""
    disk = LocalDisk(path)
    for name, data in blobs.items():
        disk.write(name, data)
    return disk


class TestEdgeCache:
    def test_miss_then_hit(self, tmp_path):
        disk = _disk(tmp_path, t0=b"x" * 100)
        cache = EdgeCache(capacity_bytes=1000, mode=1)
        assert cache.load("t0", disk) == b"x" * 100
        assert cache.stats.misses == 1
        assert cache.load("t0", disk) == b"x" * 100
        assert cache.stats.hits == 1
        assert disk.read_ops == 1  # second load served from memory

    def test_get_returns_none_on_miss(self):
        cache = EdgeCache(capacity_bytes=10, mode=1)
        assert cache.get("nope") is None

    def test_lru_eviction_order(self, tmp_path):
        disk = _disk(tmp_path, a=b"x" * 100, b=b"y" * 100, c=b"z" * 100)
        cache = EdgeCache(capacity_bytes=250, mode=1, eviction="lru")
        cache.put("a", disk)
        cache.put("b", disk)
        cache.get("a")  # a becomes most-recent
        cache.put("c", disk)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_default_policy_admits_until_full(self, tmp_path):
        """§IV-B: a full cache rejects new tiles instead of evicting —
        the behaviour behind Figure 7b's stable partial hit ratios."""
        disk = _disk(tmp_path, a=b"x" * 100, b=b"y" * 100, c=b"z" * 100)
        cache = EdgeCache(capacity_bytes=250, mode=1)
        assert cache.put("a", disk)
        assert cache.put("b", disk)
        assert not cache.put("c", disk)  # no room, no eviction
        assert "a" in cache and "b" in cache and "c" not in cache
        assert cache.stats.evictions == 0
        assert cache.stats.rejected == 1

    def test_admit_policy_beats_lru_on_cyclic_scan(self, tmp_path):
        """Cyclic tile scans: LRU thrashes to ~0%, admit-until-full
        pins a stable subset."""
        keys = ("t0", "t1", "t2", "t3")
        disk = _disk(tmp_path, **{k: b"v" * 100 for k in keys})

        def run(eviction):
            cache = EdgeCache(capacity_bytes=250, mode=1, eviction=eviction)
            for _ in range(5):  # 5 supersteps over 4 tiles of 100B
                for k in keys:
                    if cache.get(k) is None:
                        cache.put(k, disk)
            return cache.stats.hit_ratio

        assert run("none") > run("lru")
        assert run("lru") == 0.0

    def test_invalid_eviction(self):
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=10, mode=1, eviction="fifo")

    def test_oversized_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        blob = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        disk = _disk(tmp_path, big=blob)
        cache = EdgeCache(capacity_bytes=10, mode=1)
        assert not cache.put("big", disk)
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_compressed_mode_fits_more(self, tmp_path):
        # 3 tiles of very compressible data fit in a capacity sized for
        # one raw tile once zlib mode is on.
        disk = _disk(tmp_path, **{k: b"\x00" * 1000 for k in "abc"})
        raw = EdgeCache(capacity_bytes=1500, mode=1)
        zl = EdgeCache(capacity_bytes=1500, mode=3)
        for k in ("a", "b", "c"):
            raw.put(k, disk)
            zl.put(k, disk)
        assert len(raw) == 1
        assert len(zl) == 3

    def test_compressed_roundtrip_through_cache(self, tmp_path):
        payload = np.arange(500, dtype=np.int64).tobytes()
        disk = _disk(tmp_path, t=payload)
        for mode in range(1, 5):
            cache = EdgeCache(capacity_bytes=100_000, mode=mode)
            assert cache.load("t", disk) == payload
            assert cache.load("t", disk) == payload
            # Charged at the codec's stored length, decompressed in full.
            assert cache.used_bytes == len(cache.codec.compress(payload))
            assert cache.stats.bytes_decompressed == len(payload)

    def test_put_replaces_existing(self, tmp_path):
        disk = _disk(tmp_path, k=b"a" * 100)
        cache = EdgeCache(capacity_bytes=1000, mode=1)
        assert cache.put("k", disk) and cache.put("k", disk)
        assert len(cache) == 1 and cache.used_bytes == 100
        assert cache.get("k") == 100
        assert cache.stats.insertions == 2

    def test_hit_ratio(self, tmp_path):
        disk = _disk(tmp_path, k=b"v")
        cache = EdgeCache(capacity_bytes=1000, mode=1)
        # An untouched cache has served no lookups: idle reads as 0.0,
        # not a perfect 1.0.
        assert cache.stats.hit_ratio == 0.0
        cache.put("k", disk)
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_ratio == 0.5
        assert cache.touch("k", 1) and not cache.touch("missing", 1)
        assert cache.stats.lookups == 3  # touch hits count, its misses not

    def test_clear(self, tmp_path):
        disk = _disk(tmp_path, k=b"v")
        cache = EdgeCache(capacity_bytes=100, mode=1)
        cache.put("k", disk)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=10, mode=0)
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=10, mode=5)
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=-1, mode=1)

    def test_used_never_exceeds_capacity(self, tmp_path):
        rng = np.random.default_rng(7)
        sizes = rng.integers(1, 200, 50)
        disk = _disk(
            tmp_path,
            **{f"k{i}": _noise(int(n), seed=i) for i, n in enumerate(sizes)},
        )
        cache = EdgeCache(capacity_bytes=500, mode=1)
        for i in range(50):
            cache.put(f"k{i}", disk)
            assert cache.used_bytes <= cache.capacity_bytes

    def test_rejected_put_leaves_resident_entry(self, tmp_path):
        """A same-key insert is netted against the key's own resident
        charge — re-admitting a resident blob into a full cache succeeds
        — and a rejected insert leaves every resident entry untouched."""
        big = _noise(300, seed=3)
        disk = _disk(tmp_path, a=b"x" * 100, b=b"y" * 100, c=b"z" * 100, big=big)
        cache = EdgeCache(capacity_bytes=250, mode=1)
        assert cache.put("a", disk) and cache.put("b", disk)
        assert cache.put("a", disk)  # 100 (b) + 100 - 100 (a) + 100
        assert not cache.put("c", disk) and not cache.put("big", disk)
        assert cache.content_keys() == ["b", "a"] and cache.used_bytes == 200
        assert cache.stats.rejected == 2
        # Oversized for the whole cache: same under LRU.
        lru = EdgeCache(capacity_bytes=250, mode=1, eviction="lru")
        lru.put("a", disk)
        assert not lru.put("big", disk)
        assert lru.get("a") == 100 and lru.used_bytes == 100

    def test_invalidate_drops_entry_bytes_and_remembered_size(self, tmp_path):
        zeros, noise = b"\x00" * 64, _noise(64, seed=5)
        disk = _disk(tmp_path, t=zeros)
        cache = EdgeCache(capacity_bytes=40, mode=4)
        assert cache.put("t", disk)  # compresses to a few bytes
        before = dataclasses.asdict(cache.stats)
        disk.write("t", noise)
        cache.invalidate("t")
        assert "t" not in cache and cache.used_bytes == 0
        assert dataclasses.asdict(cache.stats) == before
        cache.invalidate("t")  # absent key: a no-op
        # Same name, same length, now incompressible: the remembered
        # (tiny) size is gone and must not admit it.
        assert cache.remembered_sizes() == {}
        assert not cache.put("t", disk)
        assert cache.used_bytes == 0

    def test_store_blob_invalidates_edge_cache(self, tmp_path):
        """A same-name rewrite must not be served stale by the cache."""
        from repro.cluster.server import Server

        server = Server(0, str(tmp_path))
        server.attach_cache(capacity_bytes=10_000, mode=3)
        server.store_blob("t", b"old" * 50)
        assert server.load_blob("t") == b"old" * 50
        assert "t" in server.cache
        server.store_blob("t", b"new" * 50)
        assert "t" not in server.cache and server.cache.used_bytes == 0
        assert server.load_blob("t") == b"new" * 50

    def test_remembered_size_survives_clear_and_is_per_mode(
        self, tmp_path, monkeypatch
    ):
        calls = _count_compress_calls(monkeypatch)
        disk = _disk(tmp_path, a=_noise(100, seed=1), b=_noise(100, seed=2))
        cache = EdgeCache(capacity_bytes=150, mode=4)
        assert cache.put("a", disk) and not cache.put("b", disk)
        assert len(calls) == 2 and cache.compress_skipped == 0
        assert not cache.put("b", disk)  # from the remembered size
        assert len(calls) == 2 and cache.compress_skipped == 1
        cache.clear()
        cache.reset_stats()
        assert cache.put("b", disk)  # stored from the remembered size
        assert len(calls) == 2
        assert not cache.put("a", disk) and not cache.put("a", disk)
        assert len(calls) == 2 and cache.compress_skipped == 3
        # A new mode knows nothing yet: b is measured as it is
        # re-admitted, a at its first put.
        cache.switch_mode(3, disk)
        assert not cache.put("a", disk) and not cache.put("a", disk)
        assert len(calls) == 4 and cache.compress_skipped == 4
        # Back under mode 4 both sizes are still known: nothing is
        # measured again.
        cache.switch_mode(4, disk)
        assert not cache.put("a", disk)
        assert len(calls) == 4 and cache.compress_skipped == 5

    def test_second_sweep_over_full_cache_makes_no_codec_call(
        self, tmp_path, monkeypatch
    ):
        """The win, pinned by count: the first sweep over a full
        admit-until-full cache compresses each blob once; a later sweep
        never runs the codec — every admission is decided from a
        remembered size.  Through a server whose decoded-tile cache
        holds every tile, the later sweep does not read either, and
        meters exactly what a server that reads every miss does."""
        from repro.cluster.server import Server

        blobs = {f"t{i}": _noise(200, seed=i) for i in range(8)}
        disk = _disk(tmp_path / "cache", **blobs)
        cache = EdgeCache(capacity_bytes=500, mode=4)  # holds two
        calls = _count_compress_calls(monkeypatch)
        for name, data in blobs.items():
            assert cache.load(name, disk) == data
        assert len(calls) == len(blobs)
        assert cache.stats.rejected == 6 and cache.compress_skipped == 0
        cache.reset_stats()
        del calls[:]
        for name, data in blobs.items():
            assert cache.load(name, disk) == data
        assert calls == []
        assert cache.stats.rejected == cache.compress_skipped == 6
        assert cache.stats.bytes_compressed_in == 6 * 200

        servers = []
        for label in ("replay", "oracle"):
            server = Server(0, str(tmp_path / label))
            server.attach_cache(capacity_bytes=500, mode=4)
            server.attach_decoded_cache()
            for name, data in blobs.items():
                server.store_blob(name, data)
            servers.append(server)
        replay, oracle = servers
        for name in blobs:  # cold: read, parse, learn every size
            replay.load_tile(name, bytes)
            oracle.load_blob(name)
        reads = []
        physical = LocalDisk.read

        def counting_read(self, name):
            reads.append((self.root.name, name))
            return physical(self, name)

        monkeypatch.setattr(LocalDisk, "read", counting_read)
        del calls[:]
        for name, data in blobs.items():
            assert replay.load_tile(name, bytes) == data
        assert reads == [] and calls == []
        for name in blobs:  # the always-read oracle reads each miss
            oracle.load_blob(name)
        assert len(reads) == 6 and calls == []
        assert replay.disk.bytes_read == oracle.disk.bytes_read > 0
        assert replay.disk.read_ops == oracle.disk.read_ops
        assert dataclasses.asdict(replay.cache.stats) == dataclasses.asdict(
            oracle.cache.stats
        )
        assert replay.counters.snapshot() == oracle.counters.snapshot()

    def test_fingerprint_catches_a_rewrite_that_skipped_invalidate(
        self, tmp_path
    ):
        """A blob's fingerprint is its write generation: a blob
        rewritten under its name without ``invalidate`` is caught the
        first time its remembered size is consulted, on either side of
        the decision and on the replay path — loudly, not as a silent
        admission change."""
        zeros, noise = b"\x00" * 64, _noise(64, seed=5)
        # Store path: the remembered size says it fits.
        disk = _disk(tmp_path, t=zeros)
        cache = EdgeCache(capacity_bytes=40, mode=4)
        assert cache.put("t", disk)
        cache.clear()
        disk.write("t", noise)
        with pytest.raises(RuntimeError, match="stale"):
            cache.put("t", disk)
        # Reject path: the first reject after the rewrite, whichever
        # reject of the run that is, whether or not the bytes are in
        # hand.
        for rejects_before in (1, 2, 3):
            for held in (None, 64):
                disk.write("t", noise)
                cache = EdgeCache(capacity_bytes=40, mode=4)
                for _ in range(rejects_before):
                    assert not cache.put("t", disk)
                disk.write("t", _noise(40, seed=6) + b"\x00" * 24)  # still too big
                with pytest.raises(RuntimeError, match="stale"):
                    cache.load("t", disk, raw_len=held)
                assert cache.stats.rejected == rejects_before

    @pytest.mark.parametrize("capacity", [40, 100])  # rejected / stored
    def test_fingerprint_catches_a_rewrite_of_identical_stored_length(
        self, tmp_path, capacity
    ):
        """Two bytes of an incompressible blob exchanged under mode 1:
        raw length and stored length both unchanged, so no comparison of
        lengths can tell.  The write generation does."""
        noise = bytearray(_noise(64, seed=5))
        assert noise[3] != noise[40]
        rewrite = bytearray(noise)
        rewrite[3], rewrite[40] = noise[40], noise[3]
        noise, rewrite = bytes(noise), bytes(rewrite)
        raw = get_codec(CACHE_MODES[0])
        assert len(raw.compress(noise)) == len(raw.compress(rewrite)) == 64
        disk = _disk(tmp_path, t=noise)
        cache = EdgeCache(capacity_bytes=capacity, mode=1)
        assert cache.put("t", disk) == (capacity >= 64)
        cache.clear()
        disk.write("t", rewrite)
        with pytest.raises(RuntimeError, match="stale"):
            cache.put("t", disk, rewrite)
        cache.invalidate("t")
        assert cache.put("t", disk, rewrite) == (capacity >= 64)

    def test_stored_length_is_still_checked_on_the_store_path(self, tmp_path):
        """A remembered size that would *admit* is checked like one that
        rejects: a record learned before the blob's last write (it can
        arrive through ``merge_sizes``) fails the put it would decide."""
        zeros = b"\x00" * 64
        disk = _disk(tmp_path, t=zeros)
        donor = EdgeCache(capacity_bytes=100, mode=4)
        assert donor.put("t", disk)
        learned = donor.remembered_sizes()
        disk.write("t", zeros)
        cache = EdgeCache(capacity_bytes=100, mode=4)
        cache.merge_sizes(learned)
        with pytest.raises(RuntimeError, match="stale"):
            cache.put("t", disk)
        donor.invalidate("t")
        assert donor.put("t", disk)
        cache.merge_sizes(donor.remembered_sizes())
        # Bytes in hand are held to the remembered raw length too.
        with pytest.raises(RuntimeError, match="stale"):
            cache.put("t", disk, zeros + b"\x00")
        assert cache.put("t", disk, zeros)

    @pytest.mark.parametrize("fronted", [False, True])
    def test_server_rewrite_fails_first_use_unless_stored(self, tmp_path, fronted):
        """An equal-length ``disk.write`` that bypasses
        ``Server.store_blob`` fails the next load of a decoded-resident
        tile, resident in the edge cache or not, whether the write went
        to the disk or to the shared-memory disk fronting it for a
        process-executor run; ``store_blob`` still invalidates."""
        from repro.cluster.server import Server
        from repro.runtime.shm import front_disks

        blobs = {f"t{i}": _noise(200, seed=i) for i in range(4)}
        server = Server(0, str(tmp_path))
        server.attach_cache(capacity_bytes=450, mode=1)  # holds two
        server.attach_decoded_cache()
        for name, data in blobs.items():
            server.store_blob(name, data)
        for name in blobs:
            server.load_tile(name, bytes)
        assert server.cache.content_keys() == ["t0", "t1"]
        inner = server.disk
        undo = None
        if fronted:
            _arena, undo = front_disks(
                [server], [[(i, name, 200) for i, name in enumerate(blobs)]]
            )
        try:
            for name, via in (("t0", server.disk), ("t3", inner)):
                via.write(name, _noise(200, seed=9))
                with pytest.raises(RuntimeError, match="stale"):
                    server.load_tile(name, bytes)
                server.store_blob(name, _noise(200, seed=9))
                assert server.load_tile(name, bytes) == _noise(200, seed=9)
        finally:
            if undo is not None:
                undo()

def _noise(n: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def _count_compress_calls(monkeypatch) -> list:
    """Route every codec's ``compress`` through a call log."""
    calls: list[tuple[str, int]] = []
    # By class: zlib-1 and zlib-3 are two instances of one.
    for cls in {type(codec) for codec in CODECS.values()}:

        def counting(self, data, _orig=cls.compress):
            calls.append((self.name, len(data)))
            return _orig(self, data)

        monkeypatch.setattr(cls, "compress", counting)
    return calls


class _AlwaysCompressCache:
    """Differential oracle: the edge cache as it was before it kept
    sizes — it holds the compressed bytes, every insert runs the codec
    first and decides second, nothing is remembered."""

    def __init__(self, capacity_bytes: int, mode: int, eviction: str) -> None:
        self.capacity_bytes = capacity_bytes
        self.mode = mode
        self.eviction = eviction
        self.entries: OrderedDict[str, bytes] = OrderedDict()
        self.used_bytes = 0
        self.stats = CacheStats()

    @property
    def codec(self):
        return get_codec(CACHE_MODES[self.mode - 1])

    def get(self, key):
        blob = self.entries.get(key)
        if blob is None:
            self.stats.misses += 1
            return None
        self.entries.move_to_end(key)
        self.stats.hits += 1
        data = self.codec.decompress(blob)
        self.stats.bytes_decompressed += len(data)
        return data

    def touch(self, key, uncompressed_len):
        if key not in self.entries:
            return False
        self.entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.bytes_decompressed += uncompressed_len
        return True

    def put(self, key, data):
        blob = self.codec.compress(data)
        self.stats.bytes_compressed_in += len(data)
        free = self.capacity_bytes - self.used_bytes + len(self.entries.get(key, b""))
        if len(blob) > self.capacity_bytes or (
            self.eviction == "none" and len(blob) > free
        ):
            self.stats.rejected += 1
            return False
        if key in self.entries:
            self.used_bytes -= len(self.entries.pop(key))
        while self.used_bytes + len(blob) > self.capacity_bytes:
            _, evicted = self.entries.popitem(last=False)
            self.used_bytes -= len(evicted)
            self.stats.evictions += 1
        self.entries[key] = blob
        self.used_bytes += len(blob)
        self.stats.insertions += 1
        return True

    def load(self, key, disk):
        data = self.get(key)
        if data is None:
            data = disk.read(key)
            self.put(key, data)
        return data

    def switch_mode(self, mode):
        if mode == self.mode:
            return 0
        items = [(k, self.codec.decompress(b)) for k, b in self.entries.items()]
        self.mode = mode
        self.entries, self.used_bytes = OrderedDict(), 0
        kept = []
        for key, data in reversed(items):
            blob = self.codec.compress(data)
            if self.used_bytes + len(blob) > self.capacity_bytes:
                self.stats.evictions += 1
                continue
            kept.append((key, blob))
            self.used_bytes += len(blob)
        self.entries.update(reversed(kept))
        return sum(len(data) for _, data in items)

    def clear(self):
        self.entries.clear()
        self.used_bytes = 0

    def invalidate(self, key):
        self.used_bytes -= len(self.entries.pop(key, b""))


def _blob_variants() -> list[tuple[bytes, bytes]]:
    """(content, same-length rewrite) per blob: sizes and
    compressibility spread so every mode sees admits, rejects and
    evictions at the test capacity."""
    ramp = np.arange(150, dtype=np.uint32).tobytes()
    return [
        (b"\x00" * 400, _noise(400, seed=11)),
        (ramp, ramp[::-1]),
        (_noise(300, seed=12), b"\x07" * 300),
        (_noise(150, seed=13), _noise(150, seed=14)),
        (b"ab" * 300, b"abc" * 200),
        (_noise(50, seed=15), b"\x00" * 50),
        (_noise(900, seed=16), b"\x01" * 900),  # raw: over the whole capacity
    ]


# Inserts are weighted up: a remembered size only matters on the second
# insert of a blob, so most of a sequence should be inserts.  "replay"
# is the lookup of a caller holding the blob decoded: EdgeCache reads
# nothing, the oracle reads the blob.
_OPS = (
    ("put", "load", "replay") * 3
    + ("get", "touch", "clear", "switch_mode", "invalidate", "invalidate")
)


class TestAdmissionBeforeCompression:
    """EdgeCache keeps sizes and decides from remembered ones; the
    oracle keeps bytes and compresses every time.  Whatever the
    operation sequence, nobody can tell."""

    @pytest.mark.parametrize("eviction", ["none", "lru"])
    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    @settings(max_examples=120, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(0, len(_blob_variants()) - 1),
                st.integers(1, 4),
            ),
            min_size=8,
            max_size=80,
        )
    )
    def test_matches_always_compress_oracle(self, tmp_path_factory, mode, eviction, ops):
        disk = LocalDisk(tmp_path_factory.mktemp("diff"))
        variants = _blob_variants()
        current = {}
        for i, (content, _) in enumerate(variants):
            current[f"t{i}"] = content
            disk.write(f"t{i}", content)
        cache = EdgeCache(capacity_bytes=700, mode=mode, eviction=eviction)
        oracle = _AlwaysCompressCache(700, mode, eviction)
        for op, index, new_mode in ops:
            name = f"t{index}"
            data = current[name]
            if op == "put":
                assert cache.put(name, disk, data) == oracle.put(name, data)
            elif op == "get":
                blob = oracle.get(name)
                assert cache.get(name) == (None if blob is None else len(blob))
            elif op == "touch":
                assert cache.touch(name, len(data)) == oracle.touch(name, len(data))
            elif op == "load":
                assert cache.load(name, disk) == oracle.load(name, disk) == data
            elif op == "replay":
                assert cache.load(name, disk, raw_len=len(data)) is None
                oracle.load(name, disk)
            elif op == "clear":
                cache.clear()
                oracle.clear()
            elif op == "switch_mode":
                assert cache.switch_mode(new_mode, disk) == oracle.switch_mode(
                    new_mode
                )
            else:  # the blob is rewritten under its name, same length
                a, b = variants[index]
                current[name] = b if data is a else a
                disk.write(name, current[name])
                cache.invalidate(name)
                oracle.invalidate(name)
            assert dataclasses.asdict(cache.stats) == dataclasses.asdict(oracle.stats)
            assert cache.content_keys() == list(oracle.entries)
            sizes = cache.remembered_sizes()
            assert [sizes[(k, cache.mode)][2] for k in oracle.entries] == [
                len(blob) for blob in oracle.entries.values()
            ]
            assert cache.used_bytes == oracle.used_bytes <= 700
            assert cache.mode == oracle.mode


@pytest.mark.slow
def test_warm_spill_run_makes_no_tile_codec_call(monkeypatch):
    """The semi-external regime at the ledger's ``sssp-spill-n4`` shape
    (10⁶-edge weighted R-MAT, N=4, edge cache at 24 % of a server's
    tiles): once a run has learned every tile's stored size, the next
    finds the admitted tiles resident and turns the rest away
    unmeasured — the zlib cache codec does not run, and the only codec
    calls left are the broadcasts' snappy-like encodes."""
    from collections import Counter

    from repro.apps import SSSP
    from repro.core import MPEConfig
    from repro.core.facade import ClusterBuild
    from repro.graph import rmat_graph_streamed

    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    calls = _count_compress_calls(monkeypatch)
    n = 4
    graph = rmat_graph_streamed(scale=16, edge_factor=16, weighted=True, seed=5)
    assert graph.num_edges >= 1_000_000
    build = ClusterBuild(num_servers=n)
    try:
        manifest = build.load(graph)
        per_server = build.spe.total_tile_bytes(manifest) / n
        mpe = build.mpe(
            graph.name,
            config=MPEConfig(
                executor="serial", cache_capacity_bytes=int(0.24 * per_server)
            ),
        )
        mpe.setup()
        program = SSSP(source=int(np.argmax(graph.out_degrees)))
        first = mpe.run(program)
        caches = [s.cache for s in build.cluster.servers]
        assert {c.mode for c in caches} <= {3, 4}
        rejected = sum(c.stats.rejected for c in caches)
        skipped = sum(c.compress_skipped for c in caches)
        assert rejected > 0 and any(name.startswith("zlib") for name, _ in calls)
        del calls[:]
        second = mpe.run(program)
        assert np.array_equal(second.values, first.values)
        # A warm run stores nothing new and learns nothing new.
        assert Counter(name for name, _ in calls) == {
            "snappylike": n * len(second.supersteps)
        }
        assert (
            sum(c.compress_skipped for c in caches) - skipped
            == sum(c.stats.rejected for c in caches) - rejected
            > 0
        )
    finally:
        build.close()
