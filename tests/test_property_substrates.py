"""Deep property tests over the substrates' strongest invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.comm import DENSE, SPARSE, decode_update, encode_update
from repro.core import SPE
from repro.graph import Graph
from repro.partition import build_tiles
from repro.storage import EdgeCache, LocalDisk


@st.composite
def small_graphs(draw):
    num_vertices = draw(st.integers(1, 30))
    num_edges = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(0, num_vertices, num_edges)
    dst = rng.integers(0, num_vertices, num_edges)
    weighted = draw(st.booleans())
    weights = rng.uniform(0.1, 9.9, num_edges) if weighted else None
    return Graph(num_vertices, src, dst, weights, name="prop-sub")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=small_graphs(), tile_edges=st.integers(1, 40), chunk=st.integers(3, 64))
def test_spe_byte_identical_to_direct_path(graph, tile_edges, chunk):
    """The map-reduce pre-processing pipeline and the in-memory tiler
    must agree byte-for-byte on every tile, for any graph, tile size,
    and input chunking."""
    direct = build_tiles(graph, tile_edges)
    with Cluster(ClusterSpec(num_servers=2)) as cluster:
        spe = SPE(cluster.dfs, mapreduce_partitions=3)
        manifest = spe.preprocess(graph, tile_edges, name="p", chunk_edges=chunk)
        assert manifest.num_tiles == direct.num_tiles
        for i, tile in enumerate(direct.tiles):
            assert cluster.dfs.read(manifest.tile_path(i)) == tile.to_bytes()


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(0, 400),
    mode=st.integers(1, 4),
    eviction=st.sampled_from(["none", "lru"]),
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 120)), max_size=40
    ),
)
def test_cache_returns_exact_blobs(tmp_path_factory, capacity, mode, eviction, ops):
    """Whatever the capacity, codec, policy, and access pattern, a cache
    load always returns exactly the bytes that were written to disk."""
    root = tmp_path_factory.mktemp("cache-prop")
    disk = LocalDisk(root)
    rng = np.random.default_rng(0)
    blobs = {}
    for key_id, size in ops:
        key = f"b{key_id}"
        if key not in blobs:
            blobs[key] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            disk.write(key, blobs[key])
    cache = EdgeCache(capacity_bytes=capacity, mode=mode, eviction=eviction)
    for key_id, _ in ops:
        key = f"b{key_id}"
        if key in blobs:
            assert cache.load(key, disk) == blobs[key]
    assert cache.used_bytes <= cache.capacity_bytes


@settings(max_examples=40)
@given(
    num_vertices=st.integers(1, 200),
    data=st.data(),
)
def test_dense_and_sparse_updates_decode_identically(num_vertices, data):
    """Both wire forms must carry exactly the same information."""
    rng = np.random.default_rng(0)
    values = rng.random(num_vertices)
    k = data.draw(st.integers(0, num_vertices))
    ids = np.sort(rng.choice(num_vertices, size=k, replace=False).astype(np.int64))
    dense = decode_update(encode_update(values, ids, "raw", mode=DENSE))
    sparse = decode_update(encode_update(values, ids, "raw", mode=SPARSE))
    assert (dense.positions is None) == (sparse.positions is None)
    if dense.positions is not None:
        assert np.array_equal(dense.positions, sparse.positions)
    assert dense.values.tobytes() == sparse.values.tobytes()


@settings(max_examples=25, deadline=None)
@given(graph=small_graphs(), num_servers=st.integers(1, 5))
def test_tile_targets_partition_matches_ownership(graph, num_servers):
    """Every vertex is owned by exactly one server's target set."""
    from repro.partition import assign_tiles_round_robin

    part = build_tiles(graph, max(1, graph.num_edges // 4))
    assignment = assign_tiles_round_robin(part.num_tiles, num_servers)
    seen = np.zeros(graph.num_vertices, dtype=int)
    for tiles in assignment:
        for t in tiles:
            tile = part.tiles[t]
            seen[tile.target_lo : tile.target_hi] += 1
    assert np.all(seen == 1)
