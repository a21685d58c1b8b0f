"""Shared low-level utilities for the GraphH reproduction.

This package collects small, dependency-free building blocks used across
the substrates: compact bitsets, the bloom filter that GraphH attaches to
every tile (paper §III-C.4), varint coding for sparse message payloads,
deterministic RNG construction, and human-readable size formatting.
"""

from repro.utils.bitset import Bitset
from repro.utils.bloom import BloomFilter, HashedKeys, hash_keys
from repro.utils.rng import make_rng
from repro.utils.sizes import GB, KB, MB, human_bytes, parse_size
from repro.utils.varint import decode_uvarints, encode_uvarints

__all__ = [
    "Bitset",
    "BloomFilter",
    "HashedKeys",
    "hash_keys",
    "make_rng",
    "KB",
    "MB",
    "GB",
    "human_bytes",
    "parse_size",
    "encode_uvarints",
    "decode_uvarints",
]
