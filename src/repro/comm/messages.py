"""Vertex-update message encoding (dense / sparse / hybrid, §IV-C).

Wire format
-----------
``[1B mode][1B codec id][8B LE vertex count][codec(payload)]`` where

* dense payload  = update bitvector (``ceil(|V|/8)`` packed bits)
  followed by the full ``float64[|V|]`` value array — "a dense array
  representation for updated vertex values along with a bitvector to
  record updated vertex id";
* sparse payload = ``8B LE k`` + delta-varint-encoded sorted updated ids
  + ``float64[k]`` updated values — "a list of indices and values".

The mode is chosen per message: if the **sparsity ratio** (unchanged
vertices / total vertices, footnote 5) exceeds ``SPARSITY_THRESHOLD``
(0.8 in the paper) the sparse form is used.  The codec is applied to the
whole payload; Figure 8c/8d study raw vs snappy vs zlib-1 vs zlib-3 and
the paper settles on snappy as the default.

Ids are positions in the sender's value array and strictly increasing:
an id appears once, so both forms carry the same set (a repeated id
would survive the sparse list and collapse in the bitvector).

All updated
-----------
A dense message whose ids are exactly ``0 … |V|−1`` — every value
changed, as in PageRank's early supersteps — is framed without the
bitvector work: its mask is the cached all-ones mask for ``|V|`` and its
value array is the sender's array as is.  The bytes are the ones the
general path builds, so the wire is unchanged; the decoder recognises
that mask and answers ``arange(|V|)`` without unpacking it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.storage.codecs import CACHE_MODES, get_codec
from repro.utils.varint import decode_sorted_ids, encode_sorted_ids

DENSE = 0
SPARSE = 1

#: Paper §IV-C: "If the sparsity ratio is higher than a given threshold
#: (in this paper, this threshold is set to 0.8), GraphH converts it
#: into a sparse array."
SPARSITY_THRESHOLD = 0.8

_CODEC_IDS = {name: i for i, name in enumerate(CACHE_MODES)}
_CODEC_NAMES = {i: name for name, i in _CODEC_IDS.items()}

# Dense-encode scratch: each server stages the same-sized bitvector and
# value array every superstep, so reuse them per thread (keyed by size —
# servers own slightly different target counts) instead of reallocating
# on every broadcast.
_SCRATCH = threading.local()


def _dense_scratch(num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    pair = pool.get(num_vertices)
    if pair is None:
        pair = pool[num_vertices] = (
            np.zeros(num_vertices, dtype=bool),
            np.zeros(num_vertices, dtype=np.float64),
        )
    else:
        pair[0][...] = False
        pair[1][...] = 0.0
    return pair


@lru_cache(maxsize=64)
def _all_ones_mask(num_vertices: int) -> bytes:
    """The dense bitvector of a message that updates every vertex."""
    return np.packbits(
        np.ones(num_vertices, dtype=bool), bitorder="little"
    ).tobytes()


@dataclass(frozen=True)
class UpdatePayload:
    """Decoded update message: which vertices changed, and their values."""

    ids: np.ndarray  # int64, sorted ascending
    values: np.ndarray  # float64, aligned with ids
    num_vertices: int
    mode: int

    @property
    def num_updates(self) -> int:
        """Number of updated vertices carried."""
        return int(self.ids.size)


def choose_mode(
    num_updated: int,
    num_vertices: int,
    threshold: float = SPARSITY_THRESHOLD,
) -> int:
    """Pick DENSE or SPARSE from the sparsity ratio (unchanged/total)."""
    if num_vertices <= 0:
        return SPARSE
    sparsity = 1.0 - num_updated / num_vertices
    return SPARSE if sparsity > threshold else DENSE


def encode_update(
    values: np.ndarray,
    updated_ids: np.ndarray,
    codec_name: str = "snappylike",
    mode: int | None = None,
    threshold: float = SPARSITY_THRESHOLD,
) -> bytes:
    """Encode one server's per-superstep update broadcast.

    Parameters
    ----------
    values:
        The full ``float64[|V|]`` value array (dense encoding slices
        nothing; sparse encoding gathers ``values[updated_ids]``).
    updated_ids:
        Strictly increasing ids of vertices this server updated this
        superstep (``ValueError`` otherwise).
    codec_name:
        Payload compressor (one of the cache-mode codecs).
    mode:
        Force DENSE/SPARSE; ``None`` applies the hybrid rule.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    ids = np.ascontiguousarray(updated_ids, dtype=np.int64)
    num_vertices = values.size
    if ids.size:
        if ids.min() < 0 or ids.max() >= num_vertices:
            raise ValueError("updated ids out of range")
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("updated ids must be sorted and strictly increasing")
    if mode is None:
        mode = choose_mode(ids.size, num_vertices, threshold)
    if mode == DENSE and ids.size == num_vertices:
        # Strictly increasing and in range: ids are exactly 0 … n−1.
        payload = _all_ones_mask(num_vertices) + values.tobytes()
    elif mode == DENSE:
        bits, dense_values = _dense_scratch(num_vertices)
        bits[ids] = True
        # Non-updated slots are transmitted as zeros — the paper's own
        # framing ("it needs to send many zeros"), which is also what
        # makes late-run dense payloads highly compressible.
        dense_values[ids] = values[ids]
        payload = (
            np.packbits(bits, bitorder="little").tobytes() + dense_values.tobytes()
        )
    elif mode == SPARSE:
        id_block = encode_sorted_ids(ids)
        payload = (
            ids.size.to_bytes(8, "little")
            + len(id_block).to_bytes(8, "little")
            + id_block
            + values[ids].tobytes()
        )
    else:
        raise ValueError(f"unknown mode {mode}")
    codec = get_codec(codec_name)
    header = bytes([mode, _CODEC_IDS[codec_name]]) + num_vertices.to_bytes(8, "little")
    return header + codec.compress(payload)


def decode_update(data: bytes) -> UpdatePayload:
    """Inverse of :func:`encode_update`.

    The returned payload is *immutable* (both arrays are read-only):
    the engine's decode-once cache hands the same object to every
    receiver of a broadcast, so nothing downstream may mutate it.
    Zero-copy where possible — the sparse value array is a ``frombuffer``
    view over the decompressed payload rather than a private copy.
    """
    if len(data) < 10:
        raise ValueError("truncated update message")
    mode = data[0]
    codec_name = _CODEC_NAMES.get(data[1])
    if codec_name is None:
        raise ValueError(f"unknown codec id {data[1]}")
    num_vertices = int.from_bytes(data[2:10], "little")
    try:
        payload = get_codec(codec_name).decompress(data[10:])
    except ValueError:
        raise
    except Exception as exc:  # zlib.error, RLE framing errors, ...
        raise ValueError(f"corrupt {codec_name} payload") from exc
    if mode == DENSE:
        mask_bytes = (num_vertices + 7) // 8
        if len(payload) != mask_bytes + 8 * num_vertices:
            raise ValueError("dense payload size mismatch")
        if payload[:mask_bytes] == _all_ones_mask(num_vertices):
            ids = np.arange(num_vertices, dtype=np.int64)
            updated = np.frombuffer(
                payload, dtype=np.float64, offset=mask_bytes, count=num_vertices
            ).copy()
            ids.setflags(write=False)
            updated.setflags(write=False)
            return UpdatePayload(
                ids=ids, values=updated, num_vertices=num_vertices, mode=DENSE
            )
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=mask_bytes),
            bitorder="little",
        )[:num_vertices]
        values = np.frombuffer(
            payload, dtype=np.float64, offset=mask_bytes, count=num_vertices
        )
        ids = np.flatnonzero(bits).astype(np.int64)
        updated = values[ids]  # fancy indexing already copies
        ids.setflags(write=False)
        updated.setflags(write=False)
        return UpdatePayload(
            ids=ids, values=updated, num_vertices=num_vertices, mode=DENSE
        )
    if mode == SPARSE:
        if len(payload) < 16:
            raise ValueError("sparse payload size mismatch")
        count = int.from_bytes(payload[:8], "little")
        id_len = int.from_bytes(payload[8:16], "little")
        if len(payload) != 16 + id_len + 8 * count:
            raise ValueError("sparse payload size mismatch")
        ids = decode_sorted_ids(payload[16 : 16 + id_len]).astype(np.int64)
        if ids.size != count:
            raise ValueError("sparse payload size mismatch")
        if ids.size and (
            ids[0] < 0 or ids[-1] >= num_vertices or np.any(ids[1:] <= ids[:-1])
        ):
            raise ValueError(
                "sparse ids must be strictly increasing and below the vertex count"
            )
        values = np.frombuffer(
            payload, dtype=np.float64, offset=16 + id_len, count=count
        )
        ids.setflags(write=False)
        return UpdatePayload(
            ids=ids, values=values, num_vertices=num_vertices, mode=SPARSE
        )
    raise ValueError(f"unknown mode byte {mode}")
