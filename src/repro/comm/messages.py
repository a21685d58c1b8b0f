"""Vertex-update message encoding (dense / sparse / hybrid, §IV-C).

Wire format
-----------
``[1B mode][1B codec id][8B LE vertex count][codec(payload)]`` where

* dense payload  = update bitvector (``ceil(|V|/8)`` packed bits)
  followed by the full ``float64[|V|]`` value array — "a dense array
  representation for updated vertex values along with a bitvector to
  record updated vertex id";
* sparse payload = ``8B LE k`` + ``8B LE`` id-block length +
  delta-varint-encoded sorted updated ids + ``float64[k]`` updated
  values — "a list of indices and values".

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
general path builds, so the wire is unchanged.

Sized, not built
----------------
The engine keeps two facts of a broadcast's wire: its length and its
mode byte.  :func:`stage_update` frames the payload exactly as
:func:`encode_update` does (one helper serves both) and asks the codec
for ``compressed_size(payload)`` instead of compressed bytes, so no
broadcast runs a codec.  :func:`encode_update` and :func:`decode_update`
remain the wire format's reference, and the staged length is tested
against ``len(encode_update(...))``.
"""

from __future__ import annotations

import struct
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
_HEADER_LEN = 10  # mode, codec id, uint64 vertex count

# Dense-payload scratch: each server frames a same-sized payload every
# superstep, so reuse one buffer per thread (keyed by size — servers own
# slightly different target counts) instead of reallocating it on every
# broadcast.  It is laid out so the value array starts 8-byte aligned.
_SCRATCH = threading.local()


def _dense_scratch(num_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(bits, payload, values)``: a bool array, the payload buffer
    and the float64 view of its value array, all uninitialised."""
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    scratch = pool.get(num_vertices)
    if scratch is None:
        mask = (num_vertices + 7) // 8
        pad = -mask % 8
        buf = np.empty(pad + mask + 8 * num_vertices, dtype=np.uint8)
        scratch = pool[num_vertices] = (
            np.empty(num_vertices, dtype=bool),
            buf[pad:],
            buf[pad + mask :].view(np.float64),
        )
    return scratch


@lru_cache(maxsize=64)
def _all_ones_mask(num_vertices: int) -> bytes:
    """The dense bitvector of a message that updates every vertex."""
    return np.packbits(
        np.ones(num_vertices, dtype=bool), bitorder="little"
    ).tobytes()


@dataclass(frozen=True, eq=False)
class UpdatePayload:
    """One server's update broadcast as its receivers apply it: which
    positions of the sender's target index changed (``None``: all of
    them), their values, and the length of the wire message carrying
    them, which is what the channel meters as ``len(record)``.  Both
    arrays are read-only; pickled, a record is one raw buffer
    (:func:`pack_update`).
    """

    positions: np.ndarray | None  # int64, strictly increasing
    values: np.ndarray  # float64, aligned with positions
    num_vertices: int
    mode: int
    nbytes: int  # the wire message's full length, header included

    def select(self, index: np.ndarray) -> np.ndarray:
        """The entries of ``index`` (the sender's target index) this
        update writes: ``index`` itself when every position changed."""
        return index if self.positions is None else index[self.positions]

    def __len__(self) -> int:
        return self.nbytes

    def __reduce__(self):
        return unpack_update, (pack_update(self),)


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


def _record(positions, values, num_vertices, mode, nbytes) -> UpdatePayload:
    """A record over read-only views (no positions when they are all)."""
    if positions is not None and positions.size < num_vertices:
        positions = _frozen(positions)
    else:
        positions = None
    return UpdatePayload(positions, _frozen(values), num_vertices, mode, nbytes)


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


def _checked_ids(ids, num_vertices: int) -> np.ndarray:
    """``ids`` as int64, refused unless strictly increasing and below
    ``num_vertices`` (``ValueError``)."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.size:
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("updated ids must be sorted and strictly increasing")
        if ids[0] < 0 or ids[-1] >= num_vertices:
            raise ValueError("updated ids out of range")
    return ids


def _framed(
    ids: np.ndarray,
    vals: np.ndarray,
    num_vertices: int,
    mode: int | None,
    threshold: float,
):
    """``(mode, payload)`` of the message updating ``ids`` to ``vals``
    (checked by :func:`_checked_ids`), ``mode`` resolved by the hybrid rule
    when ``None``.  A dense payload is this thread's scratch buffer,
    valid until its next dense framing of the same size."""
    if mode is None:
        mode = choose_mode(ids.size, num_vertices, threshold)
    if mode == DENSE:
        bits, payload, dense_values = _dense_scratch(num_vertices)
        mask = payload.size - dense_values.nbytes
        if ids.size == num_vertices:
            # Strictly increasing and in range: ids are exactly 0 … n−1.
            payload[:mask] = np.frombuffer(_all_ones_mask(num_vertices), np.uint8)
            dense_values[:] = vals
        else:
            bits[:] = False
            bits[ids] = True
            payload[:mask] = np.packbits(bits, bitorder="little")
            # Non-updated slots are transmitted as zeros — the paper's
            # own framing ("it needs to send many zeros"), which is also
            # what makes late-run dense payloads highly compressible.
            dense_values[:] = 0.0
            dense_values[bits] = vals  # ids ascend: the mask's order
        return mode, payload
    if mode == SPARSE:
        id_block = encode_sorted_ids(ids)
        return mode, (
            ids.size.to_bytes(8, "little")
            + len(id_block).to_bytes(8, "little")
            + id_block
            + vals.tobytes()
        )
    raise ValueError(f"unknown mode {mode}")


def encode_update(
    values: np.ndarray,
    updated_ids: np.ndarray,
    codec_name: str = "snappylike",
    mode: int | None = None,
    threshold: float = SPARSITY_THRESHOLD,
) -> bytes:
    """Encode one server's per-superstep update broadcast.

    The wire format's reference: the engine sizes a broadcast with
    :func:`stage_update`, which is tested to give this message's length
    and mode byte without building it.

    Parameters
    ----------
    values:
        The full ``float64[|V|]`` value array (only the entries at
        ``updated_ids`` are read).
    updated_ids:
        Strictly increasing ids of vertices this server updated this
        superstep (``ValueError`` otherwise).
    codec_name:
        Payload compressor (one of the cache-mode codecs).
    mode:
        Force DENSE/SPARSE; ``None`` applies the hybrid rule.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    num_vertices = values.size
    ids = _checked_ids(updated_ids, num_vertices)
    vals = values if ids.size == num_vertices else values[ids]
    mode, payload = _framed(ids, vals, num_vertices, mode, threshold)
    codec = get_codec(codec_name)
    header = bytes([mode, _CODEC_IDS[codec_name]]) + num_vertices.to_bytes(8, "little")
    return header + codec.compress(bytes(payload))


def stage_update(
    positions: np.ndarray,
    values: np.ndarray,
    num_vertices: int,
    codec_name: str = "snappylike",
    mode: int | None = None,
    threshold: float = SPARSITY_THRESHOLD,
) -> UpdatePayload:
    """The record of the broadcast that sets ``positions`` (strictly
    increasing, below ``num_vertices``) to ``values``: its length and
    mode byte are those of :func:`encode_update` over any array holding
    ``values`` at ``positions``, computed from the framed payload with
    ``codec.compressed_size`` — no compressed bytes are produced.  So
    the mode and codec move what a broadcast costs, never what it
    delivers.  Its arrays are read-only views of the caller's, which
    must not write them afterwards."""
    ids = _checked_ids(positions, num_vertices)
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if vals.size != ids.size:
        raise ValueError("updated ids and values differ in length")
    mode, payload = _framed(ids, vals, num_vertices, mode, threshold)
    nbytes = _HEADER_LEN + get_codec(codec_name).compressed_size(payload)
    return _record(ids, vals, num_vertices, mode, nbytes)


# A packed record (pickle and shared-inbox form): this header, the values,
# then (unless all changed) the positions as the dense wire's bitmask.
_PACKED = struct.Struct("<B?6xqqq")  # mode, all updated, |V|, wire bytes, count


def packed_size(update: UpdatePayload) -> int:
    """``len(pack_update(update))``, without packing."""
    mask = 0 if update.positions is None else (update.num_vertices + 7) // 8
    return _PACKED.size + update.values.nbytes + mask


def pack_update(update: UpdatePayload) -> bytes:
    """``update`` as one raw buffer; :func:`unpack_update` inverts it."""
    n, positions = update.num_vertices, update.positions
    tail = b""
    if positions is not None:
        bits = np.zeros(n, dtype=bool)
        bits[positions] = True
        tail = np.packbits(bits, bitorder="little").tobytes()
    header = _PACKED.pack(
        update.mode, positions is None, n, update.nbytes, update.values.size
    )
    return b"".join((header, update.values.tobytes(), tail))


def unpack_update(buf) -> UpdatePayload:
    """The record packed in ``buf`` (bytes or a memoryview); its values
    are a read-only view over ``buf``."""
    mode, everything, n, nbytes, k = _PACKED.unpack_from(buf)
    values = np.frombuffer(buf, dtype=np.float64, count=k, offset=_PACKED.size)
    positions = None
    if not everything:
        at = _PACKED.size + 8 * k
        bits = np.frombuffer(buf, dtype=np.uint8, count=(n + 7) // 8, offset=at)
        positions = np.flatnonzero(np.unpackbits(bits, count=n, bitorder="little"))
    return _record(positions, values, n, mode, nbytes)


def decode_update(data: bytes) -> UpdatePayload:
    """Inverse of :func:`encode_update`: the wire's record, equal
    bitwise to the one :func:`stage_update` builds from the same
    positions and values (``nbytes`` is ``len(data)``).

    Nothing in the engine decodes — a broadcast delivers its record —
    so this is the wire format's tested inverse and the reference an
    apply is checked against.  Malformed bytes raise ``ValueError``.
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
        values = np.frombuffer(
            payload, dtype=np.float64, offset=mask_bytes, count=num_vertices
        )
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=mask_bytes),
            count=num_vertices,
            bitorder="little",
        )
        ids = np.flatnonzero(bits).astype(np.int64)
        return _record(ids, values[ids], num_vertices, DENSE, len(data))
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
        return _record(ids, values, num_vertices, SPARSE, len(data))
    raise ValueError(f"unknown mode byte {mode}")
