"""Tests for the cluster simulation and communication layer."""

import contextlib
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, Counters, PAPER_TESTBED
from repro.cluster.counters import CounterSnapshot
from repro.cluster.server import ServerMirror
from repro.obs.trace import TraceBuffer
from repro.comm import (
    DENSE,
    SPARSE,
    Channel,
    choose_mode,
    decode_update,
    encode_update,
)
from repro.service import reset_simulation


class TestSpec:
    def test_paper_testbed_constants(self):
        assert PAPER_TESTBED.num_servers == 9
        assert PAPER_TESTBED.workers_per_server == 24
        assert PAPER_TESTBED.total_workers == 216  # footnote 3
        assert PAPER_TESTBED.memory_bytes == 128 * 1024**3

    def test_with_servers(self):
        spec3 = PAPER_TESTBED.with_servers(3)
        assert spec3.num_servers == 3
        assert spec3.memory_bytes == PAPER_TESTBED.memory_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_servers=0)
        with pytest.raises(ValueError):
            ClusterSpec(workers_per_server=0)
        with pytest.raises(ValueError):
            ClusterSpec(memory_bytes=0)


class TestCounters:
    def test_memory_categories_and_peak(self):
        c = Counters()
        c.add_memory("vertex", 100)
        c.add_memory("messages", 50)
        assert c.mem_current == 150
        assert c.mem_peak == 150
        c.add_memory("messages", -50)
        assert c.mem_current == 100
        assert c.mem_peak == 150  # peak sticks

    def test_set_memory(self):
        c = Counters()
        c.set_memory("cache", 500)
        assert c.mem_cache == 500
        c.set_memory("cache", 100)
        assert c.mem_cache == 100
        assert c.mem_peak == 500

    def test_invalid_category(self):
        c = Counters()
        with pytest.raises(ValueError):
            c.add_memory("gpu", 10)
        with pytest.raises(ValueError):
            c.set_memory("gpu", 10)

    def test_negative_guard(self):
        c = Counters()
        with pytest.raises(ValueError):
            c.add_memory("vertex", -1)
        with pytest.raises(ValueError):
            c.set_memory("vertex", -1)

    def test_codec_meters(self):
        c = Counters()
        c.add_decompressed("zlib1", 10)
        c.add_decompressed("zlib1", 5)
        c.add_compressed("snappylike", 7)
        assert c.decompressed == {"zlib1": 15}
        assert c.compressed == {"snappylike": 7}

    def test_merge(self):
        a, b = Counters(), Counters()
        a.add_memory("vertex", 10)
        b.add_memory("vertex", 20)
        b.disk_read = 100
        b.add_decompressed("raw", 5)
        a.merge(b)
        assert a.mem_vertex == 30
        assert a.disk_read == 100
        assert a.decompressed["raw"] == 5

    def test_snapshot(self):
        c = Counters()
        c.add_memory("edges", 10)
        c.add_decompressed("zlib3", 4)
        snap = c.snapshot()
        assert snap["mem_edges"] == 10
        assert snap["decompressed_zlib3"] == 4


class TestCluster:
    def test_creation_and_cleanup(self):
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            assert len(cluster.servers) == 3
            assert cluster.dfs is not None
            root = cluster.root
            assert root.exists()
        assert not root.exists()

    def test_server_blob_roundtrip(self):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            server = cluster.servers[0]
            server.store_blob("tile-0", b"payload")
            assert server.load_blob("tile-0") == b"payload"
            assert server.counters.disk_write == 7
            assert server.counters.disk_read == 7

    def test_cached_blob_skips_disk(self):
        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            server.attach_cache(capacity_bytes=1000, mode=3)
            server.store_blob("t", b"z" * 100)
            server.load_blob("t")
            first_read = server.counters.disk_read_random
            assert first_read == 100  # miss charged as a random read
            server.load_blob("t")
            assert server.counters.disk_read_random == first_read  # hit
            assert server.counters.disk_read == 0  # never sequential
            assert server.counters.decompressed.get("zlib1", 0) >= 100

    def test_reset_counters(self):
        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            server.store_blob("t", b"abc")
            reset_simulation(cluster)
            assert server.counters.disk_write == 0

    def test_aggregate_and_peak(self):
        with Cluster(ClusterSpec(num_servers=2)) as cluster:
            cluster.servers[0].counters.add_memory("vertex", 100)
            cluster.servers[1].counters.add_memory("vertex", 300)
            assert cluster.aggregate_counters().mem_vertex == 400
            assert cluster.max_server_memory_peak() == 300


def _mirrored_state(server):
    """The fields a ServerMirror exists to keep equal parent-side."""
    return {
        "counters": server.counters.snapshot(),
        "cache_stats": dataclasses.astuple(server.cache.stats),
        "cache_mode": server.cache.mode,
        "cache_keys": server.cache.content_keys(),
        "stored": [
            len(server.cache.peek_stored(k)) for k in server.cache.content_keys()
        ],
        "sizes": sorted(server.cache.remembered_sizes().items()),
        "compress_skipped": server.cache.compress_skipped,
        "decoded_stats": dataclasses.astuple(server.decoded_cache.stats),
        "decoded_keys": server.decoded_cache.content_keys(),
    }


class TestServerMirror:
    """export_mirror → absorb_mirror without a fork: a deep copy of a
    server plays the worker, the original plays the parent."""

    def test_roundtrip_reproduces_every_field(self):
        rng = np.random.default_rng(5)
        blobs = {
            f"t{i}": rng.integers(0, 6, 1500 + 100 * i, dtype=np.uint8).tobytes()
            for i in range(4)
        }

        def parser(data):
            return data[:8]

        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            server.trace = TraceBuffer(1, "server-0")
            server.prefetch_trace = TraceBuffer(2, "server-0-prefetch")
            # Mode 3 holds two of the four blobs; mode 2 packs worse.
            server.attach_cache(capacity_bytes=1400, mode=3)
            server.attach_decoded_cache()
            for name, data in blobs.items():
                server.store_blob(name, data)
            server.load_tile("t0", parser)  # the parent knew this much

            worker = copy.deepcopy(server)
            since = CounterSnapshot.capture(worker)
            idle = copy.deepcopy(server).export_mirror(since)
            for _ in range(3):  # hits, misses, rejected (and skipped) puts
                for name in blobs:
                    worker.load_tile(name, parser)
            worker.switch_cache_mode(2)
            for name in blobs:
                worker.load_tile(name, parser)
            assert not worker.cache.put("t3", blobs["t3"])
            worker.counters.add_memory("scratch", 7)
            worker.prefetch_trace.complete("tile_prefetch", "prefetch", 0.0, 1.0)
            assert worker.cache.stats.rejected > 0
            assert worker.cache.compress_skipped > 0

            mirror = worker.export_mirror(since)
            # Every field carries something the idle server did not
            # have, so none can be skipped by absorb unnoticed.
            for f in dataclasses.fields(ServerMirror):
                assert getattr(mirror, f.name) != getattr(idle, f.name), f.name
            before_events = len(server.trace)
            server.absorb_mirror(mirror)
            server.restore_mirrored_content(parser)

            assert _mirrored_state(server) == _mirrored_state(worker)
            assert server.trace.events()[before_events:] == list(mirror.trace)
            assert server.prefetch_trace.events() == list(mirror.prefetch_trace)
            assert len(worker.trace) == 0  # drained, not copied
            # The parent would now report exactly what the worker does.
            again, reference = (
                server.export_mirror(since),
                worker.export_mirror(since),
            )
            for f in dataclasses.fields(ServerMirror):
                if f.name not in ("trace", "prefetch_trace"):
                    assert getattr(again, f.name) == getattr(
                        reference, f.name
                    ), f.name
            # Restoring again with no new mirror absorbed changes nothing.
            server.restore_mirrored_content(parser)
            assert _mirrored_state(server) == _mirrored_state(worker)


class TestChannel:
    def _make(self, n=3):
        cluster = Cluster(ClusterSpec(num_servers=n))
        return cluster, Channel(cluster.servers)

    def test_send_and_receive(self):
        cluster, ch = self._make()
        try:
            ch.send(0, 1, b"hello")
            envs = ch.receive_all(1)
            assert len(envs) == 1
            assert envs[0].src == 0 and envs[0].payload == b"hello"
            assert ch.receive_all(1) == []  # drained
        finally:
            cluster.close()

    def test_metering(self):
        cluster, ch = self._make()
        try:
            ch.send(0, 1, b"12345")
            assert cluster.servers[0].counters.net_sent == 5
            assert cluster.servers[1].counters.net_recv == 5
            assert ch.total_bytes == 5
        finally:
            cluster.close()

    def test_local_send_free(self):
        cluster, ch = self._make()
        try:
            ch.send(0, 0, b"local")
            assert cluster.servers[0].counters.net_sent == 0
            assert ch.pending(0) == 1
        finally:
            cluster.close()

    def test_local_send_counts_as_message(self):
        """Self-sends are free on the *byte* meters but still count as
        messages — ``total_messages`` must agree with the per-server
        ``messages_sent`` it mirrors, local or not."""
        cluster, ch = self._make()
        try:
            ch.send(0, 0, b"local")
            ch.send(0, 1, b"remote")
            assert cluster.servers[0].counters.messages_sent == 2
            assert ch.total_messages == 2
            # Byte meters stay network-only.
            assert cluster.servers[0].counters.net_sent == 6
            assert ch.total_bytes == 6
        finally:
            cluster.close()

    def test_broadcast_excludes_sender(self):
        cluster, ch = self._make(4)
        try:
            ch.broadcast(2, b"xy")
            assert ch.pending(2) == 0
            for dst in (0, 1, 3):
                assert ch.pending(dst) == 1
            assert cluster.servers[2].counters.net_sent == 6  # 2B × 3 peers
        finally:
            cluster.close()

    def test_invalid_ids(self):
        cluster, ch = self._make()
        try:
            with pytest.raises(ValueError):
                ch.send(0, 99, b"")
            with pytest.raises(ValueError):
                ch.receive_all(-1)
        finally:
            cluster.close()

    def test_empty_server_list_rejected(self):
        with pytest.raises(ValueError):
            Channel([])


class TestUpdateMessages:
    def test_mode_selection_threshold(self):
        # 80% sparsity boundary: >80% unchanged → sparse.
        assert choose_mode(19, 100) == SPARSE
        assert choose_mode(20, 100) == DENSE
        assert choose_mode(100, 100) == DENSE
        assert choose_mode(0, 0) == SPARSE

    def test_dense_roundtrip(self):
        values = np.arange(10, dtype=np.float64)
        ids = np.array([0, 3, 9])
        msg = encode_update(values, ids, codec_name="raw", mode=DENSE)
        out = decode_update(msg)
        assert out.mode == DENSE
        assert out.ids.tolist() == [0, 3, 9]
        assert out.values.tolist() == [0.0, 3.0, 9.0]
        assert out.num_vertices == 10

    def test_sparse_roundtrip(self):
        values = np.arange(100, dtype=np.float64) * 1.5
        ids = np.array([5, 50, 99])
        msg = encode_update(values, ids, codec_name="raw", mode=SPARSE)
        out = decode_update(msg)
        assert out.mode == SPARSE
        assert out.ids.tolist() == [5, 50, 99]
        assert np.allclose(out.values, [7.5, 75.0, 148.5])

    def test_hybrid_picks_sparse_for_few_updates(self):
        values = np.zeros(1000)
        msg = encode_update(values, np.array([7]), codec_name="raw")
        assert decode_update(msg).mode == SPARSE

    def test_hybrid_picks_dense_for_many_updates(self):
        values = np.zeros(1000)
        msg = encode_update(values, np.arange(900), codec_name="raw")
        assert decode_update(msg).mode == DENSE

    def test_sparse_smaller_when_few_updated(self):
        values = np.random.default_rng(0).random(10_000)
        ids = np.array([17])
        dense = encode_update(values, ids, codec_name="raw", mode=DENSE)
        sparse = encode_update(values, ids, codec_name="raw", mode=SPARSE)
        assert len(sparse) < len(dense) / 100

    def test_dense_smaller_when_all_updated(self):
        values = np.random.default_rng(0).random(10_000)
        ids = np.arange(10_000)
        dense = encode_update(values, ids, codec_name="raw", mode=DENSE)
        sparse = encode_update(values, ids, codec_name="raw", mode=SPARSE)
        assert len(dense) < len(sparse)

    @pytest.mark.parametrize("codec", ["raw", "snappylike", "zlib1", "zlib3"])
    def test_all_codecs_roundtrip(self, codec):
        values = np.linspace(0, 1, 257)
        ids = np.array([0, 128, 256])
        for mode in (DENSE, SPARSE):
            out = decode_update(encode_update(values, ids, codec, mode=mode))
            assert out.ids.tolist() == [0, 128, 256]
            assert np.allclose(out.values, values[[0, 128, 256]])

    def test_compression_shrinks_dense_payload(self):
        # Mostly-zero value arrays (typical early-PageRank deltas)
        # compress well — the Figure 8c effect.
        values = np.zeros(50_000)
        ids = np.arange(0, 50_000, 2)
        raw = encode_update(values, ids, "raw", mode=DENSE)
        z = encode_update(values, ids, "zlib1", mode=DENSE)
        assert len(z) < len(raw) / 5

    def test_empty_update(self):
        out = decode_update(encode_update(np.zeros(10), np.array([], dtype=np.int64)))
        assert out.num_updates == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_update(np.zeros(5), np.array([9]))
        with pytest.raises(ValueError):
            encode_update(np.zeros(5), np.array([3, 1]))
        with pytest.raises(ValueError):
            decode_update(b"\x00")

    @pytest.mark.parametrize("mode", [DENSE, SPARSE, None])
    def test_duplicate_ids_are_refused_in_every_mode(self, mode):
        """A repeated id would decode as itself from the sparse list and
        collapse into one bit of the dense mask (and count twice toward
        the hybrid choice): the wire carries strictly increasing ids."""
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_update(np.zeros(5), np.array([1, 1, 3]), "raw", mode=mode)

    @settings(max_examples=40)
    @given(
        num_vertices=st.integers(1, 300),
        data=st.data(),
        codec=st.sampled_from(["raw", "snappylike", "zlib1", "zlib3"]),
    )
    def test_roundtrip_property(self, num_vertices, data, codec):
        """Hybrid encode/decode never loses or corrupts an update."""
        rng = np.random.default_rng(0)
        values = rng.random(num_vertices)
        k = data.draw(st.integers(0, num_vertices))
        ids = np.sort(
            rng.choice(num_vertices, size=k, replace=False).astype(np.int64)
        )
        out = decode_update(encode_update(values, ids, codec))
        assert out.ids.tolist() == ids.tolist()
        assert np.allclose(out.values, values[ids])
        assert out.num_vertices == num_vertices


class TestDecodeAdversarial:
    """Malformed wire bytes must raise ValueError — never crash with a
    codec-internal exception, never return garbage.  The decode-once
    cache hands one decoded payload to every receiver of a broadcast,
    so a bad envelope has to fail loudly at its first (only) decode."""

    @staticmethod
    def _codec_id(name):
        from repro.storage.codecs import CACHE_MODES

        return list(CACHE_MODES).index(name)

    def test_truncated_header(self):
        for n in range(10):
            with pytest.raises(ValueError, match="truncated update message"):
                decode_update(b"\x00" * n)

    def test_unknown_codec_id(self):
        msg = encode_update(np.zeros(8), np.array([2]), codec_name="raw")
        bad = bytes([msg[0], 255]) + msg[2:]
        with pytest.raises(ValueError, match="unknown codec id"):
            decode_update(bad)

    def test_unknown_mode_byte(self):
        msg = encode_update(np.zeros(8), np.array([2]), codec_name="raw")
        bad = bytes([7]) + msg[1:]
        with pytest.raises(ValueError, match="unknown mode byte"):
            decode_update(bad)

    def test_dense_size_mismatch(self):
        msg = encode_update(
            np.zeros(16), np.arange(16), codec_name="raw", mode=DENSE
        )
        with pytest.raises(ValueError, match="dense payload size mismatch"):
            decode_update(msg[:-1])
        with pytest.raises(ValueError, match="dense payload size mismatch"):
            decode_update(msg + b"\x00")

    def test_sparse_size_mismatch(self):
        msg = encode_update(
            np.arange(100.0), np.array([5, 50]), codec_name="raw", mode=SPARSE
        )
        with pytest.raises(ValueError, match="sparse payload size mismatch"):
            decode_update(msg[:-1])
        with pytest.raises(ValueError, match="sparse payload size mismatch"):
            decode_update(msg + b"\x00")

    def test_sparse_count_exceeds_ids(self):
        """A count field claiming more ids than the varint block holds:
        the length arithmetic can be made to line up, the id count
        cannot."""
        from repro.utils.varint import encode_sorted_ids

        id_block = encode_sorted_ids(np.array([1, 2]))
        count = 3  # lies: block only decodes to 2 ids
        payload = (
            count.to_bytes(8, "little")
            + len(id_block).to_bytes(8, "little")
            + id_block
            + b"\x00" * (8 * count)
        )
        header = bytes([SPARSE, self._codec_id("raw")]) + (8).to_bytes(
            8, "little"
        )
        with pytest.raises(ValueError, match="sparse payload size mismatch"):
            decode_update(header + payload)

    def test_sparse_truncated_varint_block(self):
        from repro.utils.varint import encode_sorted_ids

        id_block = encode_sorted_ids(np.array([300]))[:-1]  # mid-varint cut
        payload = (
            (1).to_bytes(8, "little")
            + len(id_block).to_bytes(8, "little")
            + id_block
            + b"\x00" * 8
        )
        header = bytes([SPARSE, self._codec_id("raw")]) + (512).to_bytes(
            8, "little"
        )
        with pytest.raises(ValueError, match="truncated varint"):
            decode_update(header + payload)

    @pytest.mark.parametrize("codec", ["snappylike", "zlib1", "zlib3"])
    def test_corrupt_compressed_payload(self, codec):
        msg = encode_update(np.arange(64.0), np.arange(64), codec_name=codec)
        bad = msg[:10] + bytes(reversed(msg[10:]))
        with pytest.raises(ValueError):
            decode_update(bad)

    def test_decoded_payload_is_immutable(self):
        """The decode-once cache shares one UpdatePayload across all
        receivers; its arrays must be read-only."""
        for mode in (DENSE, SPARSE):
            out = decode_update(
                encode_update(
                    np.arange(32.0), np.array([1, 9]), "raw", mode=mode
                )
            )
            with pytest.raises(ValueError):
                out.ids[0] = 5
            with pytest.raises(ValueError):
                out.values[0] = 5.0

    @staticmethod
    def _sparse_message(ids, num_vertices, codec="raw"):
        """A sparse envelope around an arbitrary id list (zero values):
        the id block is whatever the gaps say, sorted or not."""
        from repro.storage.codecs import get_codec
        from repro.utils.varint import encode_uvarints

        ids = np.asarray(ids, dtype=np.int64)
        gaps = np.diff(ids, prepend=0) if ids.size else ids
        id_block = encode_uvarints(gaps.astype(np.uint64))
        payload = (
            ids.size.to_bytes(8, "little")
            + len(id_block).to_bytes(8, "little")
            + id_block
            + b"\x00" * (8 * ids.size)
        )
        header = bytes(
            [SPARSE, TestDecodeAdversarial._codec_id(codec)]
        ) + num_vertices.to_bytes(8, "little")
        return header + get_codec(codec).compress(payload)

    def test_sparse_repeated_id_is_rejected(self):
        assert decode_update(self._sparse_message([1, 3], 8)).ids.tolist() == [1, 3]
        with pytest.raises(ValueError, match="strictly increasing"):
            decode_update(self._sparse_message([1, 1, 3], 8))

    def test_sparse_id_at_or_past_the_vertex_count_is_rejected(self):
        assert decode_update(self._sparse_message([7], 8)).ids.tolist() == [7]
        for ids in ([8], [2, 8], [3, 300]):
            with pytest.raises(ValueError, match="below the vertex count"):
                decode_update(self._sparse_message(ids, 8))

    @settings(max_examples=150)
    @given(
        ids=st.lists(st.integers(0, 40), max_size=12),
        num_vertices=st.integers(0, 40),
        codec=st.sampled_from(["raw", "snappylike", "zlib1"]),
    )
    def test_fuzz_sparse_id_blocks(self, ids, num_vertices, codec):
        """Any id list behind a well-formed sparse frame: decoded exactly
        when strictly increasing and below the vertex count, refused
        with ValueError otherwise."""
        valid = all(b > a for a, b in zip(ids, ids[1:])) and all(
            i < num_vertices for i in ids
        )
        msg = self._sparse_message(ids, num_vertices, codec)
        if valid:
            assert decode_update(msg).ids.tolist() == ids
        else:
            with pytest.raises(ValueError):
                decode_update(msg)

    @settings(max_examples=100)
    @given(
        ids=st.lists(st.integers(0, 30), max_size=12),
        mode=st.sampled_from([DENSE, SPARSE, None]),
    )
    def test_fuzz_encode_accepts_exactly_strictly_increasing_ids(self, ids, mode):
        values = np.arange(31, dtype=np.float64)
        updated = np.array(ids, dtype=np.int64)
        if all(b > a for a, b in zip(ids, ids[1:])):
            out = decode_update(encode_update(values, updated, "raw", mode))
            assert out.ids.tolist() == ids
        else:
            with pytest.raises(ValueError):
                encode_update(values, updated, "raw", mode)

    @settings(max_examples=200)
    @given(data=st.binary(max_size=200))
    def test_fuzz_never_crashes(self, data):
        """Arbitrary bytes: decode_update either returns a payload or
        raises ValueError — no other exception type escapes."""
        try:
            decode_update(data)
        except ValueError:
            pass

    @settings(max_examples=100)
    @given(data=st.binary(min_size=10, max_size=200), codec=st.integers(0, 3))
    def test_fuzz_valid_header_never_crashes(self, data, codec):
        """Force a plausible header so the fuzz reaches the payload
        parsers rather than dying at the codec-id check."""
        framed = bytes([data[0] % 2, codec]) + data[2:]
        try:
            decode_update(framed)
        except ValueError:
            pass


def _general_dense_message(values, ids, codec):
    """The dense frame built the general way — bitvector from the ids,
    zeros where nothing changed — independently of encode_update."""
    from repro.comm.messages import _CODEC_IDS
    from repro.storage.codecs import get_codec

    n = values.size
    bits = np.zeros(n, dtype=bool)
    bits[ids] = True
    dense = np.zeros(n)
    dense[ids] = values[ids]
    payload = np.packbits(bits, bitorder="little").tobytes() + dense.tobytes()
    header = bytes([DENSE, _CODEC_IDS[codec]]) + n.to_bytes(8, "little")
    return header + get_codec(codec).compress(payload)


class TestAllUpdatedFraming:
    """A dense message updating every vertex skips the mask work on both
    ends and changes no byte and no decoded bit."""

    @staticmethod
    @contextlib.contextmanager
    def _mask(replace=None):
        """Count the all-ones mask lookups (or answer ``replace(n)``
        instead) for the body of the block."""
        from repro.comm import messages

        calls, mask = [], messages._all_ones_mask
        messages._all_ones_mask = lambda n: calls.append(n) or (replace or mask)(n)
        try:
            yield calls
        finally:
            messages._all_ones_mask = mask

    @settings(max_examples=60)
    @given(
        blocks=st.integers(0, 6),
        tail=st.integers(0, 7),
        codec=st.sampled_from(["raw", "snappylike", "zlib1"]),
        seed=st.integers(0, 2**16),
    )
    def test_all_updated_bytes_equal_the_general_path(self, blocks, tail, codec, seed):
        """Every n mod 8 (the mask's last byte is partial for 1…7)."""
        n = 8 * blocks + tail
        if n == 0:
            return
        values = np.random.default_rng(seed).standard_normal(n)
        values[::3] = 0.0
        ids = np.arange(n)
        msg = encode_update(values, ids, codec, mode=DENSE)
        assert msg == _general_dense_message(values, ids, codec)
        # The hybrid rule picks dense for an all-updated set.
        assert encode_update(values, ids, codec) == msg

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 70),
        codec=st.sampled_from(["raw", "snappylike", "zlib1"]),
        data=st.data(),
    )
    def test_gaps_and_empty_sets_take_the_general_path(self, n, codec, data):
        values = np.linspace(-1.0, 1.0, n)
        k = data.draw(st.integers(0, n - 1))
        ids = np.sort(
            np.random.default_rng(n + k).choice(n, size=k, replace=False)
        ).astype(np.int64)
        with self._mask() as calls:
            msg = encode_update(values, ids, codec, mode=DENSE)
        assert calls == []
        assert msg == _general_dense_message(values, ids, codec)

    def test_duplicates_never_reach_the_all_updated_path(self):
        # n ids, one repeated: the count matches n, the set does not.
        with self._mask() as calls, pytest.raises(ValueError, match="strictly"):
            encode_update(np.zeros(4), np.array([0, 1, 1, 3]), "raw", mode=DENSE)
        assert calls == []

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 70),
        codec=st.sampled_from(["raw", "snappylike", "zlib1"]),
        seed=st.integers(0, 2**16),
    )
    def test_all_ones_decode_equals_the_general_decode(self, n, codec, seed):
        values = np.random.default_rng(seed).standard_normal(n)
        msg = encode_update(values, np.arange(n), codec, mode=DENSE)
        fast = decode_update(msg)
        # A mask no payload can equal: the decoder unpacks the bits.
        with self._mask(replace=lambda m: b"\x00" * (m + 1)):
            general = decode_update(msg)
        for name in ("ids", "values"):
            a, b = getattr(fast, name), getattr(general, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert a.flags.writeable is b.flags.writeable is False
        assert (fast.mode, fast.num_vertices) == (general.mode, general.num_vertices)
        assert fast.values.tobytes() == values.tobytes()
