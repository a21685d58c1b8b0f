"""Compression codecs for tiles and broadcast messages.

The paper (Table V) characterises three compressors on its tile data:

| codec   | ratio (tiles) | throughput / core     |
|---------|---------------|-----------------------|
| snappy  | ~1.9×         | ~900 MB/s decompress  |
| zlib-1  | ~2.8–4.4×     | ~55–65 MB/s           |
| zlib-3  | ~3.2–5.9×     | ~46–56 MB/s           |

``zlib-1``/``zlib-3`` are real (stdlib).  python-snappy is not available
offline, so :class:`SnappyLikeCodec` substitutes a numpy-vectorised
run-length codec with the same *profile* — markedly faster and lower
ratio than zlib — which is all the cache-mode / message-compression
selection logic depends on (DESIGN.md §2).

Each codec also carries *modeled* per-core throughputs taken from Table V
so the cost model can charge paper-calibrated (de)compression time
independent of how fast the Python implementation happens to run.

Every codec answers :meth:`Codec.compressed_size` — exactly
``len(compress(data))`` — which is all a size record or a metered
broadcast needs.  :class:`SnappyLikeCodec` computes it from byte-plane
statistics (per-plane change counts, and run lengths for the planes
that could be run-length coded) without producing compressed bytes;
zlib has no closed form and compresses to measure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.utils.varint import decode_uvarints, encode_uvarints, uvarints_len


_SHUFFLE_STRIDE = 4


def byte_shuffle(data: bytes, stride: int = _SHUFFLE_STRIDE) -> np.ndarray:
    """Blosc-style shuffle filter: regroup bytes into per-position planes.

    Graph storage blobs are dominated by 4-byte-aligned integers whose
    high bytes are small and repetitive; transposing ``(n, stride)`` to
    plane order turns that structure into long byte runs that both the
    RLE stand-in and zlib exploit (this is exactly why real snappy/zlib
    reach Table V's 1.9-5.9x on tile data).  Input is zero-padded to a
    stride multiple; callers must remember the original length.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    pad = (-arr.size) % stride
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
    return arr.reshape(-1, stride).T.ravel()


def byte_unshuffle(
    planes: np.ndarray, orig_len: int, stride: int = _SHUFFLE_STRIDE
) -> bytes:
    """Inverse of :func:`byte_shuffle`."""
    if planes.size % stride:
        raise ValueError("shuffled buffer not a stride multiple")
    out = planes.reshape(stride, -1).T.ravel()
    if orig_len > out.size:
        raise ValueError("orig_len exceeds shuffled buffer")
    return out[:orig_len].tobytes()


# SnappyLikeCodec framing: b'P' + stride + uint64 length; a literal plane
# is tag + uint64 length + bytes; an RLE plane is tag + uint64 run count
# + uint64 varint-block length + varints + one value byte per run.
_BLOB_HEADER = 10
_LITERAL_HEADER = 9
_RLE_HEADER = 17

# Lane sums run over whole rows as one unsigned word per row, in blocks
# of at most 255 rows, so no byte lane of a word can carry into the next.
_WORDS = {4: np.uint32, 8: np.uint64}
_BLOCK_ROWS = 255


def _rle_wins(size: int, runs: int, varint_len: int) -> bool:
    """The snappy-like format's one plane rule: a plane of ``size``
    bytes in ``runs`` runs whose lengths take ``varint_len`` varint
    bytes is RLE-coded iff that block is strictly shorter than the
    literal (a tie stays literal).  With ``varint_len = runs``, its
    lower bound, a ``False`` rules RLE out before any run is measured."""
    return _RLE_HEADER + varint_len + runs < _LITERAL_HEADER + size


def _plane_changes(arr: np.ndarray, stride: int) -> np.ndarray:
    """Where each plane of ``byte_shuffle(arr, stride)`` changes:
    element ``[i, p]`` is ``plane_p[i + 1] != plane_p[i]``.

    Row ``i`` of the planes is bytes ``i*stride … (i+1)*stride - 1`` of
    ``arr``, so this is one contiguous compare of ``arr`` against itself
    a row later, plus the zero-padded last row when ``arr`` ends
    mid-row; nothing is shuffled or copied."""
    full, tail = divmod(arr.size, stride)
    rows = full + (tail > 0)
    out = np.empty((max(rows - 1, 0), stride), dtype=bool)
    flat = out.reshape(-1)
    body = max(full - 1, 0) * stride
    np.not_equal(arr[stride : full * stride], arr[:body], out=flat[:body])
    if tail and full:
        last = np.zeros(stride, dtype=np.uint8)
        last[:tail] = arr[full * stride :]
        np.not_equal(last, arr[body : body + stride], out=flat[body:])
    return out


def _lane_counts(changes: np.ndarray) -> np.ndarray:
    """Per-plane change counts of :func:`_plane_changes` (its column
    sums), added a row at a time as one machine word per row."""
    stride = changes.shape[1]
    word = _WORDS[stride]
    words = changes.reshape(-1).view(word)
    blocks, rest = divmod(words.size, _BLOCK_ROWS)
    sums = np.empty(blocks + 1, dtype=word)
    words[: blocks * _BLOCK_ROWS].reshape(blocks, _BLOCK_ROWS).sum(
        axis=1, dtype=word, out=sums[:blocks]
    )
    sums[blocks] = words[words.size - rest :].sum(dtype=word)
    return sums.view(np.uint8).reshape(-1, stride).sum(axis=0, dtype=np.int64)


def _run_lengths(change: np.ndarray) -> np.ndarray:
    """The run lengths of a plane whose row-to-row changes are
    ``change`` (one entry fewer than the plane has rows)."""
    at = np.flatnonzero(change)
    edges = np.empty(at.size + 2, dtype=np.int64)
    edges[0], edges[-1] = -1, change.size
    edges[1:-1] = at
    return edges[1:] - edges[:-1]


@dataclass(frozen=True)
class Codec:
    """A byte-blob compressor plus its modeled performance constants.

    Attributes
    ----------
    name:
        Registry key (``raw`` / ``snappylike`` / ``zlib1`` / ``zlib3``).
    model_ratio:
        The γ_i estimate the auto mode selector uses (paper §IV-B uses
        γ = 1, 2, 4, 5 for modes 1–4).
    model_compress_mbps / model_decompress_mbps:
        Table V per-core throughputs in MB/s of *uncompressed* data,
        used by :class:`repro.metrics.CostModel`.
    """

    name: str
    model_ratio: float
    model_compress_mbps: float
    model_decompress_mbps: float

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def compressed_size(self, data) -> int:
        """``len(self.compress(data))`` for any bytes-like ``data``."""
        return len(self.compress(bytes(data)))


@dataclass(frozen=True)
class RawCodec(Codec):
    """Identity codec (cache mode 1, uncompressed messages)."""

    name: str = "raw"
    model_ratio: float = 1.0
    model_compress_mbps: float = float("inf")
    model_decompress_mbps: float = float("inf")

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)

    def compressed_size(self, data) -> int:
        return memoryview(data).nbytes


@dataclass(frozen=True)
class SnappyLikeCodec(Codec):
    """Fast low-ratio codec standing in for snappy (cache mode 2).

    Format: ``b'P'`` + uint8(stride) + uint64-LE(orig len), then one
    block per byte plane of the shuffled input — each tagged literal
    (``0`` + uint64 len + raw bytes) or RLE (``1`` + uint64 n_runs +
    uint64 varint-block len + varint run lengths + one value byte per
    run).  Per-plane choice is the key: on tile bytes the high planes
    of 4-byte ids are near-constant (RLE collapses them) while the low
    planes are incompressible (kept literal), landing at snappy's ~2x
    Table V ratio.  A whole-blob ``b'L'`` literal fallback bounds
    expansion.  Both strides (4 and 8) are tried and the smaller wins,
    since graph blobs mix uint32 ids with int64/float64 payloads.  All
    passes are single numpy operations (``np.diff`` / ``np.repeat``).
    :meth:`compressed_size` computes the winner's length per stride
    (:meth:`_packed_size`) without packing either.
    """

    name: str = "snappylike"
    model_ratio: float = 2.0
    model_compress_mbps: float = 880.0
    model_decompress_mbps: float = 900.0

    @staticmethod
    def _packed_size(arr: np.ndarray, stride: int) -> int:
        """``len(self._pack(arr, stride))``, from plane statistics.

        One compare of ``arr`` against itself a row later gives every
        plane's change count (:func:`_plane_changes`,
        :func:`_lane_counts`); only a plane whose count leaves RLE a
        chance (:func:`_rle_wins` at the one-byte-per-run lower bound)
        needs the varint byte count of its run lengths."""
        changes = _plane_changes(arr, stride)
        rows = changes.shape[0] + 1
        size = _BLOB_HEADER + stride * (_LITERAL_HEADER + rows)
        for p, count in enumerate(_lane_counts(changes).tolist()):
            runs = count + 1
            if _rle_wins(rows, runs, runs):
                varint_len = uvarints_len(_run_lengths(changes[:, p]))
                if _rle_wins(rows, runs, varint_len):
                    size += _RLE_HEADER + varint_len + runs - (_LITERAL_HEADER + rows)
        return size

    @staticmethod
    def _pack_plane(plane: np.ndarray) -> bytes:
        literal = bytes([0]) + plane.size.to_bytes(8, "little") + plane.tobytes()
        # Choose before encoding: a plane with too many runs for RLE to
        # win even at one varint byte per run — every mantissa plane of
        # a float payload — is never varint-encoded just to be discarded.
        change = plane[1:] != plane[:-1]
        runs = int(np.count_nonzero(change)) + 1
        if not _rle_wins(plane.size, runs, runs):
            return literal
        lengths = _run_lengths(change)
        length_block = encode_uvarints(lengths)
        if not _rle_wins(plane.size, runs, len(length_block)):
            return literal
        return (
            bytes([1])
            + lengths.size.to_bytes(8, "little")
            + len(length_block).to_bytes(8, "little")
            + length_block
            + plane[np.cumsum(lengths) - lengths].tobytes()
        )

    def _pack(self, data: bytes, stride: int) -> bytes:
        shuffled = byte_shuffle(data, stride)
        plane_len = shuffled.size // stride
        parts = [b"P", bytes([stride]), len(data).to_bytes(8, "little")]
        for p in range(stride):
            parts.append(self._pack_plane(shuffled[p * plane_len : (p + 1) * plane_len]))
        return b"".join(parts)

    def compressed_size(self, data) -> int:
        arr = np.frombuffer(data, dtype=np.uint8)
        if not arr.size:
            return _BLOB_HEADER + 4 * _LITERAL_HEADER
        return min(self._packed_size(arr, 4), self._packed_size(arr, 8), arr.size + 1)

    def compress(self, data: bytes) -> bytes:
        if not data:
            return b"P" + bytes([4]) + (0).to_bytes(8, "little") + bytes(
                [0, 0, 0, 0, 0, 0, 0, 0, 0]
            ) * 4
        packed = min((self._pack(data, stride) for stride in (4, 8)), key=len)
        if len(packed) >= len(data) + 1:
            return b"L" + data
        return packed

    def decompress(self, data: bytes) -> bytes:
        if not data:
            raise ValueError("empty snappylike stream")
        tag, body = data[:1], data[1:]
        if tag == b"L":
            return body
        if tag != b"P":
            raise ValueError(f"bad snappylike tag {tag!r}")
        if len(body) < 9:
            raise ValueError("truncated snappylike header")
        stride = body[0]
        if stride not in (4, 8):
            raise ValueError(f"bad snappylike stride {stride}")
        orig_len = int.from_bytes(body[1:9], "little")
        offset = 9
        planes: list[np.ndarray] = []
        for _ in range(stride):
            if offset >= len(body):
                raise ValueError("truncated snappylike plane")
            plane_tag = body[offset]
            offset += 1
            if plane_tag == 0:
                size = int.from_bytes(body[offset : offset + 8], "little")
                offset += 8
                planes.append(
                    np.frombuffer(body, dtype=np.uint8, count=size, offset=offset)
                )
                offset += size
            elif plane_tag == 1:
                n_runs = int.from_bytes(body[offset : offset + 8], "little")
                block_len = int.from_bytes(body[offset + 8 : offset + 16], "little")
                offset += 16
                lengths = decode_uvarints(
                    body[offset : offset + block_len]
                ).astype(np.int64)
                offset += block_len
                values = np.frombuffer(
                    body, dtype=np.uint8, count=n_runs, offset=offset
                )
                offset += n_runs
                if lengths.size != n_runs:
                    raise ValueError("snappylike run count mismatch")
                planes.append(np.repeat(values, lengths))
            else:
                raise ValueError(f"bad snappylike plane tag {plane_tag}")
        if offset != len(body):
            raise ValueError("snappylike trailing bytes")
        flat = np.concatenate(planes) if planes else np.zeros(0, dtype=np.uint8)
        return byte_unshuffle(flat, orig_len, stride)


@dataclass(frozen=True)
class ZlibCodec(Codec):
    """Stdlib zlib at a fixed level behind the shuffle filter.

    Cache modes 3 and 4.  Shuffling before deflate is the standard
    storage-codec construction for numeric blobs; since deflate's
    LZ+Huffman strictly dominates plain RLE on identical input, the
    ratio ordering ``zlib >= snappylike`` holds structurally, matching
    Table V.  Format: uint64-LE(orig len) + deflate(shuffled bytes).
    """

    name: str = "zlib1"
    model_ratio: float = 4.0
    model_compress_mbps: float = 60.0
    model_decompress_mbps: float = 60.0
    level: int = field(default=1)

    def compress(self, data: bytes) -> bytes:
        shuffled = byte_shuffle(data)
        return len(data).to_bytes(8, "little") + zlib.compress(
            shuffled.tobytes(), self.level
        )

    def decompress(self, data: bytes) -> bytes:
        if len(data) < 8:
            raise ValueError("truncated zlib stream")
        orig_len = int.from_bytes(data[:8], "little")
        planes = np.frombuffer(zlib.decompress(data[8:]), dtype=np.uint8)
        return byte_unshuffle(planes, orig_len)


CODECS: dict[str, Codec] = {
    codec.name: codec
    for codec in (
        RawCodec(),
        SnappyLikeCodec(),
        ZlibCodec(
            name="zlib1",
            model_ratio=4.0,
            model_compress_mbps=60.0,
            model_decompress_mbps=60.0,
            level=1,
        ),
        ZlibCodec(
            name="zlib3",
            model_ratio=5.0,
            model_compress_mbps=50.0,
            model_decompress_mbps=51.0,
            level=3,
        ),
    )
}

# Paper §IV-B cache modes 1-4 in order; index i (0-based) has estimated
# ratio γ_i = (1, 2, 4, 5).
CACHE_MODES: tuple[str, ...] = ("raw", "snappylike", "zlib1", "zlib3")


def get_codec(name: str) -> Codec:
    """Look up a codec by registry name."""
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; available: {sorted(CODECS)}") from None
