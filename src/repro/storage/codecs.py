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
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.utils.varint import decode_uvarints, encode_uvarints


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
    """

    name: str = "snappylike"
    model_ratio: float = 2.0
    model_compress_mbps: float = 880.0
    model_decompress_mbps: float = 900.0

    @staticmethod
    def _pack_plane(plane: np.ndarray) -> bytes:
        literal = bytes([0]) + plane.size.to_bytes(8, "little") + plane.tobytes()
        if plane.size == 0:
            return literal
        # Choose before encoding: an RLE block is at least 17 + 2*runs
        # bytes (>= 1 varint byte + 1 value byte per run) against the
        # literal's 9 + size, so a plane with too many runs — every
        # mantissa plane of a float payload — is never varint-encoded
        # just to be discarded.  Same bytes out for every input.
        change = plane[1:] != plane[:-1]
        if 17 + 2 * (int(np.count_nonzero(change)) + 1) >= len(literal):
            return literal
        boundaries = np.flatnonzero(change) + 1
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
        return rle if len(rle) < len(literal) else literal

    def _pack(self, data: bytes, stride: int) -> bytes:
        shuffled = byte_shuffle(data, stride)
        plane_len = shuffled.size // stride
        parts = [b"P", bytes([stride]), len(data).to_bytes(8, "little")]
        for p in range(stride):
            parts.append(self._pack_plane(shuffled[p * plane_len : (p + 1) * plane_len]))
        return b"".join(parts)

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
