"""SPE: the Spark-based graph pre-processing engine (§III-B).

Runs Algorithm 4 as three map-reduce jobs on :class:`repro.mapreduce.
MiniCluster` and persists the results into DFS:

1. out-degree  = edges.map(e ⇒ (e.src, 1)).reduce(SUM)
2. in-degree   = edges.map(e ⇒ (e.target, 1)).reduce(SUM)
3. tile build  = edges keyed by ``get_tile_id(target, splitter)``,
   grouped, converted to the enhanced CSR format.

The driver-side splitter scan between jobs 2 and 3 is
:func:`repro.partition.build_splitter`, verbatim Algorithm 4 lines 3–8.

Per the hpc-parallel guides, records flow through the engine as *numpy
chunk* partitions and the per-record map/reduce of jobs 1–2 is expressed
with ``map_partitions`` + ``bincount`` (the mapPartitions idiom any real
Spark job at this scale would use); job 3's shuffle moves per-tile edge
chunks, not Python tuples.

Job 3 is one stable sort of the target id in the mixed radix (tile,
offset in tile), split at the shuffle: tiles are target ranges, so the
map side reads each target's tile off a vertex → tile table and sorts
its chunk on that digit; the reduce side sorts each tile on the other.
Either digit is a radix sort while it fits 16 bits
(:func:`repro.partition.tiles.stable_argsort`), and a stable sort's
permutation is unique, so the tiles do not depend on which sort ran.
Tiles are built, written and dropped one at a time in id order — the
DFS turns write order into blob names and datanode placement, so the
order is part of the output.

Output layout in DFS (all binary, no pickle)::

    {name}/meta        — counts + splitter (little-endian int64s)
    {name}/indegree    — int64[|V|]
    {name}/outdegree   — int64[|V|]
    {name}/tile-{i}    — Tile blob (see repro.partition.tiles)

SPE "can be called one time for each input graph, since the
pre-processing results are persisted into DFS, and can be reused by MPE
to run many vertex-centric programs."
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from repro.dfs import DistributedFileSystem
from repro.graph.graph import Graph
from repro.mapreduce import MiniCluster
from repro.partition.tiles import (
    Tile,
    build_splitter,
    stable_argsort,
    vertex_tile_table,
)

_META = struct.Struct("<qqqqB")  # num_vertices, num_edges, num_tiles, avg_tile_edges, weighted


@dataclass(frozen=True)
class TileManifest:
    """What SPE leaves behind in DFS for MPE to consume."""

    name: str
    num_vertices: int
    num_edges: int
    num_tiles: int
    avg_tile_edges: int
    weighted: bool
    splitter: np.ndarray

    def tile_path(self, tile_id: int) -> str:
        """DFS path of one tile blob."""
        return f"{self.name}/tile-{tile_id}"

    @property
    def meta_path(self) -> str:
        return f"{self.name}/meta"

    @property
    def indegree_path(self) -> str:
        return f"{self.name}/indegree"

    @property
    def outdegree_path(self) -> str:
        return f"{self.name}/outdegree"

    def to_bytes(self) -> bytes:
        header = _META.pack(
            self.num_vertices,
            self.num_edges,
            self.num_tiles,
            self.avg_tile_edges,
            1 if self.weighted else 0,
        )
        return header + self.splitter.astype(np.int64).tobytes()

    @classmethod
    def from_bytes(cls, name: str, data: bytes) -> "TileManifest":
        v, e, p, s, weighted = _META.unpack_from(data)
        splitter = np.frombuffer(data, dtype=np.int64, offset=_META.size)
        if splitter.size != p + 1:
            raise ValueError("manifest splitter size mismatch")
        return cls(
            name=name,
            num_vertices=v,
            num_edges=e,
            num_tiles=p,
            avg_tile_edges=s,
            weighted=bool(weighted),
            splitter=splitter,
        )


class SPE:
    """The pre-processing engine.

    Parameters
    ----------
    dfs:
        Destination file system.
    mapreduce_partitions:
        Parallelism of the mini map-reduce cluster (the paper's Spark
        executor count; affects dataflow shape, not results).
    """

    def __init__(
        self, dfs: DistributedFileSystem, mapreduce_partitions: int = 8
    ) -> None:
        self.dfs = dfs
        self.mapreduce = MiniCluster(num_partitions=mapreduce_partitions)
        # Where the latest preprocess() spent its wall time (None before
        # the first): dataset name, seconds per stage of Algorithm 4,
        # tile count and that call's shuffle meters.
        self.last_profile: dict | None = None

    # ------------------------------------------------------------------
    def preprocess(
        self,
        graph: Graph,
        avg_tile_edges: int,
        name: str,
        chunk_edges: int = 65_536,
    ) -> TileManifest:
        """Run Algorithm 4 and persist tiles + degrees into DFS."""
        if avg_tile_edges < 1:
            raise ValueError("avg_tile_edges must be >= 1")
        if self.dfs.exists(f"{name}/meta"):
            raise FileExistsError(f"dataset {name!r} already pre-processed")
        t_start = perf_counter()
        shuffled_before = asdict(self.mapreduce.shuffle_stats)

        # Edge dataset: partitions of (src, dst, weight) numpy chunks.
        chunks = []
        weights = graph.edge_weights() if graph.is_weighted else None
        for start in range(0, max(graph.num_edges, 1), chunk_edges):
            stop = min(start + chunk_edges, graph.num_edges)
            chunks.append(
                (
                    graph.src[start:stop],
                    graph.dst[start:stop],
                    weights[start:stop] if weights is not None else None,
                )
            )
        edges = self.mapreduce.parallelize(chunks)
        num_vertices = graph.num_vertices

        # --- jobs 1 & 2: degree map-reduce (bincount per partition,
        # summed in the reduce) ----------------------------------------
        def partition_degrees(part):
            out = np.zeros(num_vertices, dtype=np.int64)
            inn = np.zeros(num_vertices, dtype=np.int64)
            for src, dst, _ in part:
                out += np.bincount(src, minlength=num_vertices)
                inn += np.bincount(dst, minlength=num_vertices)
            return [("deg", (out, inn))]

        def sum_degrees(a, b):
            return (a[0] + b[0], a[1] + b[1])

        degree_ds = edges.map_partitions(partition_degrees).reduce_by_key(sum_degrees)
        (_, (out_degrees, in_degrees)), = degree_ds.collect() or [
            ("deg", (np.zeros(num_vertices, np.int64), np.zeros(num_vertices, np.int64)))
        ]
        t_degrees = perf_counter()

        # --- driver: splitter scan (Algorithm 4 lines 3-8) -------------
        splitter = build_splitter(in_degrees, avg_tile_edges)
        num_tiles = splitter.size - 1
        # Broadcast variable of job 3: get_tile_id(target, splitter) as a
        # lookup, narrow enough for a radix sort while P fits 16 bits.
        tile_of = vertex_tile_table(splitter)
        t_splitter = perf_counter()

        # --- job 3: key edges by tile id, group, convert to CSR --------
        # Map side of the sort (module docstring): each chunk ordered by
        # tile id once, its pieces emitted as slices of the permuted chunk.
        def key_by_tile(part):
            keyed = []
            for src, dst, w in part:
                if src.size == 0:
                    continue
                tile_ids = tile_of[dst]
                order = stable_argsort(tile_ids, num_tiles)
                src, dst = src[order], dst[order]
                if w is not None:
                    w = w[order]
                counts = np.bincount(tile_ids, minlength=num_tiles)
                present = np.flatnonzero(counts)
                a = 0
                for tile_id, b in zip(
                    present.tolist(), np.cumsum(counts[present]).tolist()
                ):
                    keyed.append(
                        (
                            tile_id,
                            (src[a:b], dst[a:b], w[a:b] if w is not None else None),
                        )
                    )
                    a = b
            return keyed

        pieces_by_tile = dict(
            edges.map_partitions(key_by_tile).group_by_key().collect()
        )
        t_shuffle = perf_counter()

        # A target range that got no edges is still a tile (all-empty).
        no_edges = [
            (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64) if graph.is_weighted else None,
            )
        ]

        # Reduce side: a tile's pieces arrive in chunk order and are
        # ordered by the target's offset in the tile.
        def to_tile(tile_id: int, pieces) -> Tile:
            lo, hi = int(splitter[tile_id]), int(splitter[tile_id + 1])
            src = np.concatenate([p[0] for p in pieces])
            offsets = np.concatenate([p[1] for p in pieces]) - lo
            order = stable_argsort(offsets, hi - lo)
            row = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(np.bincount(offsets, minlength=hi - lo), out=row[1:])
            val = None
            if graph.is_weighted:
                val = np.concatenate([p[2] for p in pieces])[order]
            return Tile(
                tile_id=tile_id,
                target_lo=lo,
                target_hi=hi,
                num_graph_vertices=num_vertices,
                row=row,
                col=src[order].astype(np.uint32),
                val=val,
            )

        # --- persist ----------------------------------------------------
        # Write order is part of the output: the DFS turns it into blob
        # names and datanode placement, which MPE.setup's locality reads.
        manifest = TileManifest(
            name=name,
            num_vertices=num_vertices,
            num_edges=graph.num_edges,
            num_tiles=num_tiles,
            avg_tile_edges=avg_tile_edges,
            weighted=graph.is_weighted,
            splitter=splitter,
        )
        self.dfs.write(manifest.meta_path, manifest.to_bytes())
        self.dfs.write(manifest.indegree_path, in_degrees.tobytes())
        self.dfs.write(manifest.outdegree_path, out_degrees.tobytes())
        # Tiles in id order, one in memory at a time.
        for tile_id in range(num_tiles):
            tile = to_tile(tile_id, pieces_by_tile.pop(tile_id, no_edges))
            self.dfs.write(manifest.tile_path(tile_id), tile.to_bytes())
        t_persist = perf_counter()

        shuffled = asdict(self.mapreduce.shuffle_stats)
        self.last_profile = {
            "dataset": name,
            "degree_jobs_s": t_degrees - t_start,
            "splitter_s": t_splitter - t_degrees,
            "tile_map_shuffle_s": t_shuffle - t_splitter,
            "tile_reduce_persist_s": t_persist - t_shuffle,
            "num_tiles": num_tiles,
            **{meter: shuffled[meter] - shuffled_before[meter] for meter in shuffled},
        }
        return manifest

    # ------------------------------------------------------------------
    def load_manifest(self, name: str) -> TileManifest:
        """Re-open a previously pre-processed dataset."""
        return TileManifest.from_bytes(name, self.dfs.read(f"{name}/meta"))

    def load_degrees(self, manifest: TileManifest) -> tuple[np.ndarray, np.ndarray]:
        """(in_degrees, out_degrees) from DFS."""
        inn = np.frombuffer(self.dfs.read(manifest.indegree_path), dtype=np.int64)
        out = np.frombuffer(self.dfs.read(manifest.outdegree_path), dtype=np.int64)
        return inn, out

    def total_tile_bytes(self, manifest: TileManifest) -> int:
        """Aggregate serialised tile size (Table IV's GraphH column)."""
        return sum(
            self.dfs.size(manifest.tile_path(i)) for i in range(manifest.num_tiles)
        )
