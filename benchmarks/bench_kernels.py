"""Micro-benchmarks for the hot kernels every superstep runs.

Unlike the table/figure benches (one-shot regeneration), these use
pytest-benchmark's repeated timing to track the per-call cost of the
inner loops: the tile gather/apply kernel, segment reduction, codecs,
and hybrid message encoding.
"""

import numpy as np
import pytest

from repro.apps import PageRank, SSSP
from repro.comm import decode_update, encode_update, stage_update
from repro.core.mpe import _sweep_run
from repro.core.vertexstore import AllInAllStore
from repro.graph import chung_lu_graph, grid_graph
from repro.partition import build_tiles
from repro.partition.tiles import TileSlab
from repro.storage import get_codec
from repro.utils.segments import segment_reduce


def _one_tile_run(tile):
    """``tile`` as the run of one the sweep would hand the kernel."""
    slab = TileSlab(["tile"], [TileSlab.shape_of(tile)], tile.target_ids)
    pos = slab.slot("tile", tile)
    return slab.run(pos, pos)


@pytest.fixture(scope="module")
def web_tile():
    g = chung_lu_graph(20_000, 400_000, seed=77)
    part = build_tiles(g, avg_tile_edges=400_000)
    return g, part.tiles[0]


def test_kernel_gather_apply_pagerank(benchmark, web_tile):
    g, tile = web_tile
    program = PageRank()
    store = AllInAllStore(program.init_values(g), g.out_degrees)
    # The slot is per superstep, not per tile: built outside the timing.
    slot = store.message_slot(program, 0)
    ids, vals, rows = benchmark(
        _sweep_run, program, _one_tile_run(tile), store, slot
    )
    assert ids.size == rows.size <= g.num_vertices


def test_kernel_gather_apply_sssp(benchmark):
    g = grid_graph(150, 150, seed=3)
    tile = build_tiles(g, avg_tile_edges=g.num_edges).tiles[0]
    program = SSSP(source=0)
    store = AllInAllStore(program.init_values(g), None)
    # weighted: evaluated per edge
    benchmark(_sweep_run, program, _one_tile_run(tile), store, None)


def test_kernel_segment_reduce_add(benchmark):
    rng = np.random.default_rng(0)
    indptr = np.concatenate(([0], np.cumsum(rng.integers(0, 40, 50_000))))
    values = rng.random(int(indptr[-1]))
    result = benchmark(segment_reduce, values, indptr, "add")
    assert result.size == 50_000


@pytest.mark.parametrize("codec", ["snappylike", "zlib1", "zlib3"])
def test_kernel_tile_compress(benchmark, web_tile, codec):
    _, tile = web_tile
    blob = tile.to_bytes()
    compressed = benchmark(get_codec(codec).compress, blob)
    assert len(compressed) < len(blob)


@pytest.mark.parametrize("codec", ["snappylike", "zlib1", "zlib3"])
def test_kernel_tile_decompress(benchmark, web_tile, codec):
    _, tile = web_tile
    blob = tile.to_bytes()
    compressed = get_codec(codec).compress(blob)
    out = benchmark(get_codec(codec).decompress, compressed)
    assert out == blob


def test_kernel_dense_message_roundtrip(benchmark):
    values = np.random.default_rng(1).random(100_000)
    ids = np.arange(0, 100_000, 3)

    def roundtrip():
        return decode_update(encode_update(values, ids, "snappylike", mode=0))

    out = benchmark(roundtrip)
    assert out.values.size == ids.size


def test_kernel_stage_update(benchmark):
    """One sender's dense broadcast sized as the engine stages it: the
    ``pr-fanout-n9`` shape, about 33 k targets with 97 % updated."""
    rng = np.random.default_rng(1)
    n = 33_000
    ids = np.flatnonzero(rng.random(n) < 0.97)
    values = rng.random(ids.size) / n
    record = benchmark(stage_update, ids, values, n, "snappylike", mode=0)
    staged = np.zeros(n)
    staged[ids] = values
    assert record.nbytes == len(encode_update(staged, ids, "snappylike", mode=0))


def test_kernel_sparse_message_roundtrip(benchmark):
    values = np.random.default_rng(1).random(100_000)
    ids = np.sort(
        np.random.default_rng(2).choice(100_000, size=500, replace=False)
    ).astype(np.int64)

    def roundtrip():
        return decode_update(encode_update(values, ids, "snappylike", mode=1))

    out = benchmark(roundtrip)
    assert out.values.size == 500
