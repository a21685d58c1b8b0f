"""Tests for the tile-skipping bloom filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import BloomFilter, hash_keys


class TestBloomBasics:
    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(100)
        assert not bf.contains(0)
        assert not bf.contains(12345)
        assert not bf.might_intersect(np.arange(100))

    def test_added_keys_are_found(self):
        bf = BloomFilter(100)
        keys = np.array([1, 5, 99, 1000, 2**40])
        bf.add_many(keys)
        assert bf.contains_many(keys).all()

    def test_single_add(self):
        bf = BloomFilter(10)
        bf.add(7)
        assert 7 in bf

    def test_add_many_empty(self):
        bf = BloomFilter(10)
        bf.add_many(np.array([], dtype=np.int64))
        assert bf.approx_items == 0

    def test_contains_many_empty(self):
        bf = BloomFilter(10)
        assert bf.contains_many(np.array([], dtype=np.int64)).size == 0

    def test_might_intersect(self):
        bf = BloomFilter(1000, false_positive_rate=0.001)
        bf.add_many(np.arange(0, 100))
        assert bf.might_intersect(np.array([50, 200_000]))
        # Disjoint far-away keys: overwhelmingly likely to miss.
        assert not bf.might_intersect(np.array([10**9]))

    def test_false_positive_rate_is_reasonable(self):
        n = 2000
        bf = BloomFilter(n, false_positive_rate=0.01)
        bf.add_many(np.arange(n))
        probes = np.arange(n, n + 20_000)
        fp = bf.contains_many(probes).mean()
        assert fp < 0.05

    def test_invalid_fp_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, false_positive_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(10, false_positive_rate=1.5)

    def test_tiny_expected_items_clamped(self):
        bf = BloomFilter(0)
        bf.add(1)
        assert bf.contains(1)

    def test_nbytes_positive(self):
        assert BloomFilter(100).nbytes > 0

    def test_repr(self):
        assert "BloomFilter" in repr(BloomFilter(10))


class TestHashedKeys:
    """The per-superstep hash-sharing fast path must be decision-
    identical to hashing inside every probe."""

    def test_hashed_matches_raw(self):
        bf = BloomFilter(500, false_positive_rate=0.01)
        bf.add_many(np.arange(0, 1000, 7))
        for probe in (
            np.array([3, 14, 700]),
            np.arange(1000, 1100),
            np.array([10**9]),
        ):
            assert bf.might_intersect(hash_keys(probe)) == bf.might_intersect(
                probe
            )

    def test_hashed_reusable_across_filters(self):
        hashed = hash_keys(np.arange(50))
        hit = BloomFilter(100)
        hit.add(25)
        miss = BloomFilter(100)
        miss.add(10**8)
        assert hit.might_intersect(hashed)
        assert not miss.might_intersect(hashed)

    def test_hashed_arrays_read_only(self):
        hashed = hash_keys(np.arange(10))
        with pytest.raises(ValueError):
            hashed.h1[0] = 0

    def test_empty_batch(self):
        bf = BloomFilter(10)
        bf.add(1)
        assert not bf.might_intersect(hash_keys(np.array([], dtype=np.int64)))


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2**62), min_size=1, max_size=300))
def test_no_false_negatives(keys):
    """THE invariant: a bloom filter must never miss an inserted key.

    A false negative in GraphH's tile filter would silently skip a tile
    whose source vertex was updated, corrupting the computation.
    """
    bf = BloomFilter(len(keys))
    arr = np.array(keys, dtype=np.int64)
    bf.add_many(arr)
    assert bf.contains_many(arr).all()
    assert bf.might_intersect(arr)


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=100),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=100),
)
def test_intersect_superset_of_true_intersection(inserted, probed):
    """If the true sets intersect, might_intersect must say True."""
    bf = BloomFilter(len(inserted))
    bf.add_many(np.array(inserted, dtype=np.int64))
    if set(inserted) & set(probed):
        assert bf.might_intersect(np.array(probed, dtype=np.int64))


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 50_000), min_size=1, max_size=200),
    st.lists(st.integers(0, 50_000), min_size=1, max_size=4000),
)
def test_blocked_probe_equals_full_probe(inserted, probed):
    """Early-exit block probing must agree with the one-shot answer
    (``any`` over blocks == ``any`` over the full batch), including
    batches larger than the probe block size."""
    bf = BloomFilter(len(inserted))
    bf.add_many(np.array(inserted, dtype=np.int64))
    arr = np.array(probed, dtype=np.int64)
    expected = bool(bf.contains_many(arr).any())
    assert bf.might_intersect(arr) == expected
    assert bf.might_intersect(hash_keys(arr)) == expected
