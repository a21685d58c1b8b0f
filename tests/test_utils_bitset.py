"""Unit and property tests for repro.utils.bitset."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import Bitset
from repro.utils import bitset as bitset_module


class TestBitsetBasics:
    def test_new_bitset_is_empty(self):
        bs = Bitset(100)
        assert bs.count() == 0
        assert len(bs) == 0
        assert not bs.test(0)
        assert not bs.test(99)

    def test_set_and_test(self):
        bs = Bitset(130)
        bs.set(0)
        bs.set(64)
        bs.set(129)
        assert bs.test(0) and bs.test(64) and bs.test(129)
        assert not bs.test(1)
        assert bs.count() == 3

    def test_clear(self):
        bs = Bitset(10)
        bs.set(5)
        bs.clear(5)
        assert not bs.test(5)
        assert bs.count() == 0

    def test_contains_protocol(self):
        bs = Bitset(8)
        bs.set(3)
        assert 3 in bs
        assert 4 not in bs

    def test_out_of_range_raises(self):
        bs = Bitset(8)
        with pytest.raises(IndexError):
            bs.set(8)
        with pytest.raises(IndexError):
            bs.test(-1)
        with pytest.raises(IndexError):
            bs.set_many(np.array([0, 8]))

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            Bitset(-1)

    def test_zero_size(self):
        bs = Bitset(0)
        assert bs.count() == 0
        assert bs.to_indices().size == 0

    def test_set_many_and_to_indices(self):
        bs = Bitset(200)
        idx = np.array([0, 63, 64, 65, 127, 128, 199])
        bs.set_many(idx)
        assert np.array_equal(bs.to_indices(), idx)

    def test_set_many_empty(self):
        bs = Bitset(10)
        bs.set_many(np.array([], dtype=np.int64))
        assert bs.count() == 0

    def test_test_many(self):
        bs = Bitset(50)
        bs.set_many(np.array([1, 2, 3]))
        result = bs.test_many(np.array([0, 1, 2, 3, 4]))
        assert result.tolist() == [False, True, True, True, False]

    def test_any_of(self):
        bs = Bitset(50)
        bs.set(10)
        assert bs.any_of(np.array([9, 10]))
        assert not bs.any_of(np.array([9, 11]))

    def test_clear_all(self):
        bs = Bitset(100)
        bs.set_many(np.arange(100))
        bs.clear_all()
        assert bs.count() == 0

    def test_copy_is_independent(self):
        bs = Bitset(10)
        bs.set(1)
        dup = bs.copy()
        dup.set(2)
        assert not bs.test(2)
        assert dup.test(1)

    def test_equality(self):
        a, b = Bitset(10), Bitset(10)
        a.set(3)
        b.set(3)
        assert a == b
        b.set(4)
        assert a != b

    def test_nbytes(self):
        assert Bitset(64).nbytes == 8
        assert Bitset(65).nbytes == 16

    def test_iter(self):
        bs = Bitset(10)
        bs.set_many(np.array([2, 7]))
        assert list(bs) == [2, 7]


@given(
    size=st.integers(1, 500),
    data=st.data(),
)
def test_bitset_matches_python_set(size, data):
    """Bitset behaves exactly like a set of ints under set/clear."""
    bs = Bitset(size)
    model: set[int] = set()
    ops = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["set", "clear"]), st.integers(0, size - 1)),
            max_size=50,
        )
    )
    for op, idx in ops:
        if op == "set":
            bs.set(idx)
            model.add(idx)
        else:
            bs.clear(idx)
            model.discard(idx)
    assert bs.count() == len(model)
    assert bs.to_indices().tolist() == sorted(model)


@given(st.lists(st.integers(0, 999), max_size=200))
def test_set_many_equals_individual_sets(indices):
    bulk = Bitset(1000)
    single = Bitset(1000)
    bulk.set_many(np.array(indices, dtype=np.int64))
    for i in indices:
        single.set(i)
    assert bulk == single


@given(
    size=st.sampled_from([1, 63, 64, 65, 1000]),
    before=st.lists(st.integers(0, 999), max_size=40),
    indices=st.lists(st.integers(0, 999), max_size=300),
)
def test_set_many_packs_the_words_a_scatter_or_builds(size, before, indices):
    """The packed-mask fill against the unbuffered scatter-OR it
    replaced: identical words — duplicates, any order, bits already
    set, a last word only partly inside the capacity."""
    before = np.array([i for i in before if i < size], dtype=np.int64)
    idx = np.array([i for i in indices if i < size], dtype=np.int64)
    bs = Bitset(size)
    bs.set_many(before)
    bs.set_many(idx)
    words = np.zeros_like(bs._words)
    both = np.concatenate([before, idx])
    np.bitwise_or.at(
        words, both >> 6, np.uint64(1) << (both & 63).astype(np.uint64)
    )
    assert bs._words.dtype == np.uint64
    assert bs._words.tobytes() == words.tobytes()
    with pytest.raises(IndexError):
        bs.set_many(np.array([0, size]))
    assert bs._words.tobytes() == words.tobytes()  # refused before any write


# ----------------------------------------------------------------------
# any_of probes a first block, then the rest: same answer as one shot
# ----------------------------------------------------------------------
_BLOCK = bitset_module._PROBE_BLOCK


@given(
    n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
    hit=st.sampled_from(["none", "first", "last", "boundary", "random"]),
    data=st.data(),
)
def test_any_of_matches_one_shot_probe(n, hit, data):
    size = 4 * _BLOCK
    indices = np.array(
        data.draw(st.lists(st.integers(0, size - 2), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    bs = Bitset(size)
    if hit == "random":
        extra = data.draw(st.lists(st.integers(0, size - 1), max_size=8))
        bs.set_many(np.array(extra, dtype=np.int64))
    else:
        # One set bit no drawn index names: a miss unless planted.
        bs.set(size - 1)
        if n and hit != "none":
            at = {"first": 0, "last": n - 1, "boundary": min(_BLOCK, n - 1)}[hit]
            indices[at] = size - 1
    assert bs.any_of(indices) == bool(bs.test_many(indices).any())


def test_any_of_range_check_short_circuits_like_any():
    bs = Bitset(4 * _BLOCK)
    bs.set(5)
    miss = np.arange(100, 100 + _BLOCK)
    with pytest.raises(IndexError):
        bs.any_of(np.concatenate(([-1], miss)))  # in the first block
    with pytest.raises(IndexError):
        bs.any_of(np.concatenate((miss, [bs.size])))  # first block misses
    # A hit in the first block answers before the rest is looked at.
    assert bs.any_of(np.concatenate(([5], miss, [bs.size])))
