"""LEB128-style unsigned varint coding for sparse message payloads.

GraphH's sparse communication mode sends ``(index, value)`` pairs rather
than a dense value array (paper §IV-C).  Delta-encoding sorted vertex ids
then varint-packing the gaps is the standard trick for shrinking the
index stream; we expose it here so :mod:`repro.comm` can meter realistic
sparse-payload sizes.

Both directions are vectorised: byte counts per value are computed with
``np.log2``-free bit-length arithmetic and the output is assembled with a
single scatter, so multi-million-entry payloads encode without a Python
per-element loop.
"""

from __future__ import annotations

import numpy as np


def encode_uvarints(values: np.ndarray) -> bytes:
    """Encode an array of non-negative integers as concatenated varints."""
    vals = np.asarray(values, dtype=np.uint64)
    if vals.size == 0:
        return b""
    if np.asarray(values).min() < 0:
        raise ValueError("varint encoding requires non-negative values")
    if vals.max() < 128:
        # Fast path: every value is a single byte with no continuation bit.
        return vals.astype(np.uint8).tobytes()
    # Number of 7-bit groups needed per value (at least one).
    nbytes = np.ones(vals.size, dtype=np.int64)
    shifted = vals >> np.uint64(7)
    while shifted.any():
        nbytes += (shifted > 0).astype(np.int64)
        shifted >>= np.uint64(7)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    max_len = int(nbytes.max())
    remaining = vals.copy()
    for group in range(max_len):
        live = nbytes > group
        pos = starts[live] + group
        chunk = (remaining[live] & np.uint64(0x7F)).astype(np.uint8)
        # Continuation bit on every group except each value's last.
        cont = (group + 1 < nbytes[live]).astype(np.uint8) << 7
        out[pos] = chunk | cont
        remaining[live] >>= np.uint64(7)
    return out.tobytes()


def uvarints_len(values: np.ndarray) -> int:
    """``len(encode_uvarints(values))``, without encoding: one byte per
    value plus one per further 7-bit group."""
    total = values.size
    if total:
        top, threshold = int(values.max()), 128
        while threshold <= top:
            total += int(np.count_nonzero(values >= threshold))
            threshold <<= 7
    return total


def decode_uvarints(data: bytes) -> np.ndarray:
    """Decode concatenated varints back to a ``uint64`` array."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0:
        return np.zeros(0, dtype=np.uint64)
    cont = raw & 0x80
    if not cont.any():
        # Fast path: no continuation bits anywhere — one byte per value.
        return raw.astype(np.uint64)
    is_last = cont == 0
    if not is_last[-1]:
        raise ValueError("truncated varint stream")
    ends = np.flatnonzero(is_last)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    count = ends.size
    values = np.zeros(count, dtype=np.uint64)
    max_len = int(lengths.max())
    payload = (raw & 0x7F).astype(np.uint64)
    for group in range(max_len):
        live = lengths > group
        values[live] |= payload[starts[live] + group] << np.uint64(7 * group)
    return values


def encode_sorted_ids(ids: np.ndarray) -> bytes:
    """Delta + varint encode a sorted array of non-negative ids."""
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        return b""
    if np.any(np.diff(arr) < 0):
        raise ValueError("ids must be sorted ascending")
    deltas = np.empty_like(arr)
    deltas[0] = arr[0]
    np.subtract(arr[1:], arr[:-1], out=deltas[1:])
    return encode_uvarints(deltas)


def decode_sorted_ids(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_sorted_ids`."""
    deltas = decode_uvarints(data).astype(np.int64)
    return np.cumsum(deltas)
