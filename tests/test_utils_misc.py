"""Tests for varint coding, size parsing, and RNG derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    GB,
    KB,
    MB,
    decode_uvarints,
    encode_uvarints,
    human_bytes,
    make_rng,
    parse_size,
)
from repro.utils.varint import decode_sorted_ids, encode_sorted_ids, uvarints_len


class TestVarint:
    def test_empty(self):
        assert encode_uvarints(np.array([], dtype=np.uint64)) == b""
        assert decode_uvarints(b"").size == 0

    def test_small_values_one_byte_each(self):
        data = encode_uvarints(np.array([0, 1, 127]))
        assert len(data) == 3
        assert decode_uvarints(data).tolist() == [0, 1, 127]

    def test_boundary_values(self):
        values = [0, 127, 128, 16383, 16384, 2**32, 2**62]
        data = encode_uvarints(np.array(values, dtype=np.uint64))
        assert decode_uvarints(data).tolist() == values

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarints(np.array([-1]))

    def test_truncated_stream_rejected(self):
        data = encode_uvarints(np.array([300]))
        with pytest.raises(ValueError):
            decode_uvarints(data[:-1] + b"\x80")

    def test_sorted_ids_roundtrip(self):
        ids = np.array([3, 3, 10, 500, 10_000])
        assert decode_sorted_ids(encode_sorted_ids(ids)).tolist() == ids.tolist()

    def test_sorted_ids_rejects_unsorted(self):
        with pytest.raises(ValueError):
            encode_sorted_ids(np.array([5, 3]))

    def test_delta_coding_is_compact(self):
        # Dense consecutive ids should cost ~1 byte each after deltas.
        ids = np.arange(100_000, 101_000)
        assert len(encode_sorted_ids(ids)) < 1005

    @given(st.lists(st.integers(0, 2**63 - 1), max_size=300))
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.uint64)
        data = encode_uvarints(arr)
        assert decode_uvarints(data).tolist() == values
        assert uvarints_len(arr) == len(data)

    @given(
        st.lists(
            st.one_of(
                # Cluster around every continuation-byte boundary: the
                # single-byte fast path must not fire when any value
                # crosses 127→128, 2¹⁴, 2²¹, ...
                st.integers(120, 135),
                st.integers(16_380, 16_390),
                st.integers(2**21 - 4, 2**21 + 4),
                st.integers(0, 2**63 - 1),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_boundary_mix_roundtrip(self, values):
        arr = np.array(values, dtype=np.uint64)
        data = encode_uvarints(arr)
        assert decode_uvarints(data).tolist() == values
        # Fast path sanity: a stream is 1-byte-per-value iff every
        # value fits in 7 bits.
        if max(values) < 128:
            assert len(data) == len(values)
        else:
            assert len(data) > len(values)

    @given(
        st.lists(st.integers(0, 2**49), min_size=1, max_size=50),
        st.integers(0, 2**62),
    )
    def test_sorted_ids_huge_delta_gaps(self, gaps, base):
        """Delta coding must survive id gaps ≥ 2⁴⁹ (multi-byte varint
        deltas) without wrapping or losing order."""
        ids = np.cumsum(
            np.array([base] + gaps, dtype=np.uint64), dtype=np.uint64
        )
        if int(ids[-1]) >= 2**63:
            return  # stay inside int64-representable ids
        ids = ids.astype(np.int64)
        out = decode_sorted_ids(encode_sorted_ids(ids))
        assert out.tolist() == ids.tolist()

    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
    def test_truncation_always_detected_or_shorter(self, values):
        """Chopping the final byte of a stream never yields the
        original sequence back: either the decoder raises (mid-varint
        cut) or it returns strictly fewer values (clean cut)."""
        arr = np.array(values, dtype=np.uint64)
        data = encode_uvarints(arr)
        try:
            out = decode_uvarints(data[:-1])
        except ValueError:
            return
        assert out.size < arr.size

    @given(st.binary(max_size=100))
    def test_decode_fuzz_never_crashes(self, data):
        """Arbitrary bytes: decode_uvarints returns an array or raises
        ValueError — nothing else escapes."""
        try:
            decode_uvarints(data)
        except ValueError:
            pass

    def test_decode_rejects_dangling_continuation(self):
        # A lone continuation byte promises more bytes that never come.
        with pytest.raises(ValueError, match="truncated varint"):
            decode_uvarints(b"\x80")
        with pytest.raises(ValueError, match="truncated varint"):
            decode_uvarints(b"\x05\xff")


class TestSizes:
    def test_constants(self):
        assert KB == 1024 and MB == 1024**2 and GB == 1024**3

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("128GB", 128 * GB),
            ("1.5 MB", int(1.5 * MB)),
            ("512", 512),
            ("2k", 2 * KB),
            ("3T", 3 * 1024 * GB),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_number_passthrough(self):
        assert parse_size(42) == 42
        assert parse_size(42.9) == 42

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_size("twelve")
        with pytest.raises(ValueError):
            parse_size("12XB")

    def test_human_bytes(self):
        assert human_bytes(0) == "0B"
        assert human_bytes(1536) == "1.50KB"
        assert human_bytes(2 * GB) == "2.00GB"
        assert human_bytes(-GB) == "-1.00GB"

    def test_human_parse_roundtrip(self):
        for n in [1, KB, 3 * MB, 7 * GB]:
            assert abs(parse_size(human_bytes(n)) - n) <= 0.01 * n


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7, "x").random(5)
        b = make_rng(7, "x").random(5)
        assert np.array_equal(a, b)

    def test_different_substreams_differ(self):
        a = make_rng(7, "x").random(5)
        b = make_rng(7, "y").random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_generator_with_stream_rejected(self):
        with pytest.raises(ValueError):
            make_rng(np.random.default_rng(0), "x")

    def test_none_seed_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)
