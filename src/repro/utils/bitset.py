"""Dense bitset backed by a numpy ``uint64`` word array.

GraphH's dense communication mode ships "a dense array representation for
updated vertex values along with a bitvector to record updated vertex id"
(paper §IV-C).  :class:`Bitset` is that bitvector: fixed capacity, O(1)
single-bit operations, and vectorised bulk set / iteration so that the
per-superstep bookkeeping stays off the Python bytecode hot path.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_WORD_BITS = 64
# Indices :meth:`Bitset.any_of` probes before the rest.
_PROBE_BLOCK = 256


class Bitset:
    """A fixed-capacity set of integers in ``[0, size)``.

    Storage is ``ceil(size / 64)`` ``uint64`` words, i.e. ``size / 8``
    bytes — the same footprint the paper charges for its update bitvector.
    """

    __slots__ = ("_size", "_words")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"bitset size must be >= 0, got {size}")
        self._size = int(size)
        self._words = np.zeros((size + _WORD_BITS - 1) // _WORD_BITS, dtype=np.uint64)

    @property
    def size(self) -> int:
        """Capacity (number of addressable bits)."""
        return self._size

    @property
    def nbytes(self) -> int:
        """Memory footprint of the backing store in bytes."""
        return int(self._words.nbytes)

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range [0, {self._size})")
        return index

    def set(self, index: int) -> None:
        """Set a single bit."""
        index = self._check(index)
        self._words[index >> 6] |= np.uint64(1) << np.uint64(index & 63)

    def clear(self, index: int) -> None:
        """Clear a single bit."""
        index = self._check(index)
        self._words[index >> 6] &= ~(np.uint64(1) << np.uint64(index & 63))

    def test(self, index: int) -> bool:
        """Return whether a single bit is set."""
        index = self._check(index)
        return bool(self._words[index >> 6] >> np.uint64(index & 63) & np.uint64(1))

    __contains__ = test

    def set_many(self, indices: np.ndarray) -> None:
        """Set all bits in ``indices`` (vectorised)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._size:
            raise IndexError("bit index out of range in set_many")
        # One bool per bit, packed eight to a byte, low bit first — the
        # word layout every reader here assumes (bit i of word w is
        # index 64 w + i on the little-endian hosts ``to_indices``
        # already requires).  numpy's unbuffered scatter-OR is 10x
        # slower at frontier sizes.
        mask = np.zeros(self._words.size * _WORD_BITS, dtype=bool)
        mask[idx] = True
        self._words |= np.packbits(mask, bitorder="little").view(np.uint64)

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        """Return a boolean array: which of ``indices`` are set."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._size):
            raise IndexError("bit index out of range in test_many")
        words = self._words[idx >> 6]
        return (words >> (idx & 63).astype(np.uint64) & np.uint64(1)).astype(bool)

    def clear_all(self) -> None:
        """Clear every bit in place."""
        self._words[:] = 0

    def count(self) -> int:
        """Population count."""
        return int(np.bitwise_count(self._words).sum())

    def to_indices(self) -> np.ndarray:
        """Return the sorted array of set bit positions."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits[: self._size]).astype(np.int64)

    def any_of(self, indices: np.ndarray) -> bool:
        """Return True if *any* bit listed in ``indices`` is set.

        Short-circuits like the builtin ``any``: a first block is
        checked and probed, the rest only if that block misses — the
        engine asks this of a tile's tens of thousands of sources
        against a frontier that, when it hits at all, almost always hits
        within the first few.  An out-of-range index raises
        ``IndexError`` unless an earlier block already answered.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        return bool(
            self.test_many(idx[:_PROBE_BLOCK]).any()
            or self.test_many(idx[_PROBE_BLOCK:]).any()
        )

    def copy(self) -> "Bitset":
        """Deep copy."""
        dup = Bitset(self._size)
        dup._words[:] = self._words
        return dup

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_indices().tolist())

    def __len__(self) -> int:
        return self.count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return self._size == other._size and bool(
            np.array_equal(self._words, other._words)
        )

    def __repr__(self) -> str:
        return f"Bitset(size={self._size}, set={self.count()})"
