"""GraphH tiles: 1-D target-range partitions in enhanced CSR (§III-B).

A tile owns the in-edges of a consecutive target-vertex range
``[target_lo, target_hi)`` and stores them in the paper's enhanced CSR
format: ``row`` offsets per target, ``col`` source ids, and ``val`` edge
values — the latter omitted entirely for unweighted graphs ("its tiles
would not manage the array val to save storage spaces").

Tile boundaries come from Algorithm 4's splitter scan: walk the
in-degree array, close a tile once it has accumulated ≥ ``S = |E|/P``
edges.  Properties guaranteed (and property-tested):

1. every tile holds ≈ ``|E|/P`` edges (within one vertex's in-degree);
2. edges appear in the same tile as their *target* vertex;
3. target ids within a tile are consecutive, and the tile ranges
   exactly partition ``[0, |V|)``.

Serialisation is a raw little-endian header + array dump (no pickle on
the hot path); ids are 4-byte ``uint32`` like the paper's, halving tile
bytes versus ``int64`` for every graph under 4.3 B vertices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.bloom import BloomFilter
from repro.utils.segments import CHUNK_EDGES, SegmentPlan, sorted_unique

_MAGIC = b"GHTL"
_HEADER = struct.Struct("<4sIqqqqB")  # magic, tile_id, lo, hi, n_edges, n_vertices, weighted
_RADIX_BOUND = 1 << 16  # distinct values a uint16 key can hold
#: Edges an :class:`EdgeIndex` build sorts at a time (its largest
#: temporaries are a few ``int64`` arrays of this length).
INDEX_CHUNK = 1 << 16


@dataclass
class Tile:
    """One partition of the adjacency matrix (targets ``[lo, hi)``).

    Deserialised tiles hold *read-only zero-copy views* over the source
    blob (:meth:`from_bytes` uses ``np.frombuffer``); directly built
    tiles hold their own arrays.  Either way the ``int64`` shadows
    (:attr:`row_int64`, :attr:`col_int64`, :attr:`target_ids`) are
    materialised lazily and cached on the instance, for code that reads
    one tile on its own (mutation overlays, incremental repair).  A tile
    the engine sweeps has its shadows in the server's :class:`TileSlab`
    instead, and ``col_int64`` is set to its slice there.
    """

    tile_id: int
    target_lo: int
    target_hi: int
    num_graph_vertices: int
    row: np.ndarray  # int offsets[hi - lo + 1] into col (uint32 view when deserialised)
    col: np.ndarray  # uint32[num_edges] source ids
    val: np.ndarray | None  # float64[num_edges] or None when unweighted

    @property
    def num_edges(self) -> int:
        """Edges stored in this tile."""
        return int(self.col.size)

    @property
    def num_targets(self) -> int:
        """Width of the target range."""
        return self.target_hi - self.target_lo

    @cached_property
    def source_vertices(self) -> np.ndarray:
        """Sorted unique source ids appearing in this tile."""
        return sorted_unique(self.col).astype(np.int64)

    @cached_property
    def row_int64(self) -> np.ndarray:
        """``row`` as int64 (no copy when already int64) — the dtype the
        segment-reduce kernel consumes without per-call conversion."""
        return np.asarray(self.row, dtype=np.int64)

    @cached_property
    def col_int64(self) -> np.ndarray:
        """``col`` widened to int64 once, for repeated fancy gathers
        (numpy converts index arrays to intp internally on every use;
        caching the conversion keeps warm supersteps copy-free)."""
        return self.col.astype(np.int64)

    @cached_property
    def target_ids(self) -> np.ndarray:
        """Global ids of this tile's target range, int64 ascending."""
        return np.arange(self.target_lo, self.target_hi, dtype=np.int64)

    @cached_property
    def _unit_values(self) -> np.ndarray:
        ones = np.ones(self.num_edges, dtype=np.float64)
        ones.setflags(write=False)
        return ones

    def edge_values(self) -> np.ndarray:
        """Edge value array (cached read-only all-ones when unweighted)."""
        if self.val is not None:
            return self.val
        return self._unit_values

    def nbytes(self) -> int:
        """In-memory footprint of the CSR arrays."""
        total = self.row.nbytes + self.col.nbytes
        if self.val is not None:
            total += self.val.nbytes
        return int(total)

    def build_bloom_filter(self, false_positive_rate: float = 0.01) -> BloomFilter:
        """The in-memory source-vertex filter used to skip inactive tiles."""
        bf = BloomFilter(
            max(1, self.source_vertices.size), false_positive_rate=false_positive_rate
        )
        bf.add_many(self.source_vertices)
        return bf

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Binary blob: header + row (uint32 offsets) + col [+ val].

        Row offsets are bounded by the tile's edge count (≤ 25M in the
        paper's configuration), so 4 bytes suffice and the serialised
        tile costs ~4 B/edge + ~4 B/target — the compaction behind
        Table IV's GraphH column.
        """
        header = _HEADER.pack(
            _MAGIC,
            self.tile_id,
            self.target_lo,
            self.target_hi,
            self.num_edges,
            self.num_graph_vertices,
            1 if self.val is not None else 0,
        )
        parts = [
            header,
            self.row.astype(np.uint32, copy=False).tobytes(),
            self.col.tobytes(),
        ]
        if self.val is not None:
            parts.append(self.val.astype(np.float64).tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tile":
        """Inverse of :meth:`to_bytes`.

        Every array is a zero-copy read-only ``np.frombuffer`` view
        over ``data`` — deserialisation allocates nothing per edge, so
        a decoded-cache-resident tile costs no memory beyond the blob
        the edge cache already charges.  The views can never alias
        engine state: they reference the immutable blob, not whatever
        arrays the serialising tile held.
        """
        if len(data) < _HEADER.size:
            raise ValueError("truncated tile blob")
        magic, tile_id, lo, hi, n_edges, n_vertices, weighted = _HEADER.unpack_from(
            data
        )
        if magic != _MAGIC:
            raise ValueError("bad tile magic")
        offset = _HEADER.size
        n_rows = hi - lo + 1
        row = np.frombuffer(data, dtype=np.uint32, count=n_rows, offset=offset)
        offset += n_rows * 4
        col = np.frombuffer(data, dtype=np.uint32, count=n_edges, offset=offset)
        offset += n_edges * 4
        val = None
        if weighted:
            val = np.frombuffer(data, dtype=np.float64, count=n_edges, offset=offset)
            offset += n_edges * 8
        if offset != len(data):
            raise ValueError("tile blob size mismatch")
        return cls(
            tile_id=tile_id,
            target_lo=lo,
            target_hi=hi,
            num_graph_vertices=n_vertices,
            row=row,
            col=col,
            val=val,
        )

    def __repr__(self) -> str:
        return (
            f"Tile(id={self.tile_id}, targets=[{self.target_lo}, "
            f"{self.target_hi}), edges={self.num_edges})"
        )


class TileRun(NamedTuple):
    """A stretch of one server's tiles presented as one tile — what a
    single gather–reduce–apply consumes (the engine's unit of compute).

    Targets of different tiles are disjoint and edges are grouped by
    target, so joining tiles end to end joins their segment plans: row
    ``i`` of the run is ``target_ids[i]``, reduced over its own edges
    only, exactly as inside its tile.

    ``first_row`` is where row 0 sits in the server's target index (the
    concatenation of its tiles' target ranges), so row ``i`` is position
    ``first_row + i`` there — the address a broadcast carries (§IV-C),
    known without searching for the id.

    ``col_max`` bounds the gather: it is recorded when a tile's slot is
    filled, so a run checks its reads with one comparison, not a pass
    over ``col``.
    """

    col: np.ndarray  # int64 source id per edge
    plan: SegmentPlan  # edges -> target rows
    target_ids: np.ndarray  # int64 global id per target row
    tiles: tuple  # the tiles covered, in sweep order
    first_row: int  # position of target_ids[0] in the server's target index
    col_max: int  # largest source id in col (-1 when it is empty)

    def edge_values(self) -> np.ndarray:
        """Edge value per element of ``col`` — of a one-tile run: tiles
        hold their values as views of the blob, and a program that reads
        them sweeps tile by tile, because joining them measured worse
        (DESIGN §5n)."""
        (tile,) = self.tiles
        return tile.edge_values()


class EdgeIndex:
    """Per source vertex, the slab positions of its out-edges, ascending:
    the transpose of a :class:`TileSlab`'s ``col``, which lets a sweep
    gather only the edges a frontier sources (Ligra's sparse
    ``EdgeMap``) instead of every edge of every scheduled tile.

    ``ptr`` (``uint32[V + 1]``) delimits each vertex's entries; an
    entry is a position split into its low 16 bits (``uint16``) and the
    rest (``uint8`` while the slab holds at most 2**24 edges, else
    ``uint16``), so the index costs ``4 (V + 1) + 3 E`` bytes for a
    slab of ``E`` edges — 2.49 MB for 655 k edges over 131 k vertices,
    where ``uint32`` positions would take 3.14 MB.

    Built by a counting sort in chunks of :data:`INDEX_CHUNK` edges: one
    ``bincount`` for the pointers, then each chunk stably sorted by
    source (:func:`stable_argsort`) and scattered behind the entries of
    the chunks before it, so no ``int64`` temporary is longer than a
    chunk.
    """

    __slots__ = ("ptr", "low", "high")

    def __init__(self, col: np.ndarray, num_vertices: int) -> None:
        n = col.size
        if n >= 1 << 32:
            raise ValueError("an edge index addresses at most 2**32 edges")
        fill = np.bincount(col, minlength=num_vertices)
        np.cumsum(fill, out=fill)
        self.ptr = np.zeros(num_vertices + 1, dtype=np.uint32)
        self.ptr[1:] = fill
        fill[1:] = self.ptr[1:-1]  # each vertex's next free entry
        fill[0] = 0
        self.low = np.empty(n, dtype=np.uint16)
        self.high = np.empty(n, dtype=np.uint8 if n <= 1 << 24 else np.uint16)
        for c0 in range(0, n, INDEX_CHUNK):
            keys = col[c0 : c0 + INDEX_CHUNK]
            order = stable_argsort(keys, num_vertices)
            keys = keys[order]
            first = np.empty(keys.size, dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            lengths = np.diff(starts, append=keys.size)
            present = keys[starts]
            dest = np.repeat(fill[present] - starts, lengths)
            dest += np.arange(keys.size)
            fill[present] += lengths
            order += c0
            self.low[dest] = order  # integer casts keep the low bits
            self.high[dest] = order >> 16

    @property
    def nbytes(self) -> int:
        """Bytes the index holds."""
        return int(self.ptr.nbytes + self.low.nbytes + self.high.nbytes)

    def positions(self, frontier: np.ndarray) -> np.ndarray:
        """The slab positions of the out-edges of ``frontier`` (``int64``
        vertex ids), ascending, as ``int64``."""
        first = self.ptr[frontier].astype(np.int64)
        lengths = self.ptr[frontier + 1] - first
        idx = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
        idx += np.arange(idx.size)
        pos = self.high[idx].astype(np.int64)
        pos <<= 16
        pos |= self.low[idx]
        pos.sort()
        return pos


class TileSlab:
    """One server's decoded tiles' ``int64`` shadows, laid end to end in
    assignment order, so that any stretch of consecutive tiles is a
    :class:`TileRun` of plain slices — no per-run concatenation.

    Three sibling arrays share one layout, fixed from the tiles' shapes
    (targets, edges, non-empty targets): the widened ``col``, the
    segment starts (offset to the slab's start) and the non-empty
    mask; the fourth, the target ids, is the server's static target
    index.  A tile's slots are filled the first time a sweep sees it
    (:meth:`slot` — its ``col_int64`` *is* the slab slice from then on,
    not a second array), so the slab replaces the per-tile shadows byte
    for byte: nothing is allocated before the first tile arrives.  A
    forked worker's sweeps fill its copy-on-write copy; when the pool
    winds down the parent fills its own slab the same way, through
    :meth:`slot`, so the next pool forks with the slots filled.  A tile
    decoded again — its blob was rewritten — is a new object and refills
    its slot.

    The layout is only as good as the shapes: a tile whose edge count
    changes (a mutation overlay, a merge) needs a new slab
    (:meth:`relaid`), and a tile that does not fit its slot is refused.

    Once every slot is filled the slab can carry an :class:`EdgeIndex`
    (:meth:`build_edge_index`): the sparse gather's source -> position
    map.  It is never patched: a slot fill drops it, and a relaid slab
    starts without one.
    """

    def __init__(self, names: Iterable[str], shapes, target_ids: np.ndarray) -> None:
        self.names = tuple(names)
        self.shapes = np.asarray(shapes, dtype=np.int64).reshape(len(self.names), 3)
        self.target_ids = target_ids
        self._index = {name: pos for pos, name in enumerate(self.names)}
        offsets = np.zeros((len(self.names) + 1, 3), dtype=np.int64)
        np.cumsum(self.shapes, axis=0, out=offsets[1:])
        self._row_off, self._edge_off, self._seg_off = offsets.T.tolist()
        if self._row_off[-1] != target_ids.size:
            raise ValueError("tile shapes do not cover the server's targets")
        self._col = self._starts = self._nonempty = None
        # Largest source id per filled slot.
        self._col_max = [-1] * len(self.names)
        # Each filled slot as a run of one, built when it is filled (a
        # sweep that does not join tiles takes these, tile by tile).
        self._single: list[TileRun | None] = [None] * len(self.names)
        # Joined runs by (first, last) slot, kept while no slot is
        # refilled so a plan's mat-vec chunks are cut once, not once per
        # superstep; cleared when their rows pass twice the slab's.
        self._joined: dict[tuple[int, int], TileRun] = {}
        self._joined_rows = 0
        self._unfilled = len(self.names)
        self.edge_index: EdgeIndex | None = None

    @staticmethod
    def shape_of(tile: Tile) -> tuple[int, int, int]:
        """(targets, edges, non-empty targets) — a tile's slot sizes."""
        return (
            tile.num_targets,
            tile.num_edges,
            int(np.count_nonzero(tile.row[1:] != tile.row[:-1])),
        )

    def relaid(self, changes: dict[int, tuple[str, Tile]]) -> TileSlab:
        """This slab with the slots in ``changes`` (position -> (blob
        name, tile)) renamed, resized and left empty for their next
        fill.  Every other filled slot keeps its tile: its arrays are
        copied into the new layout in bulk, a stretch of consecutive
        slots at a time, and the tile's ``col_int64`` and plan move with
        them, so only the changed slots are filled again."""
        names, shapes = list(self.names), self.shapes.copy()
        for pos, (name, tile) in changes.items():
            names[pos], shapes[pos] = name, self.shape_of(tile)
        new = TileSlab(names, shapes, self.target_ids)
        kept = [
            pos
            for pos, held in enumerate(self._single)
            if held is not None and pos not in changes
        ]
        if not kept:
            return new
        new._allocate()
        # One copy per stretch of consecutive kept slots.  Rows do not
        # move (the targets are the server's); edges and segments shift
        # by what the changed slots before the stretch did.
        cuts = [i for i in range(1, len(kept)) if kept[i] != kept[i - 1] + 1]
        for i, j in zip([0] + cuts, cuts + [len(kept)]):
            first, last = kept[i], kept[j - 1] + 1
            a, b = self._edge_off[first], self._edge_off[last]
            s0, s1 = self._seg_off[first], self._seg_off[last]
            r0, r1 = self._row_off[first], self._row_off[last]
            na, ns = new._edge_off[first], new._seg_off[first]
            np.copyto(new._col[na : na + b - a], self._col[a:b])
            np.add(self._starts[s0:s1], na - a, out=new._starts[ns : ns + s1 - s0])
            np.copyto(new._nonempty[r0:r1], self._nonempty[r0:r1])
        for pos in kept:
            held = self._single[pos]
            a, r = new._edge_off[pos], held.first_row
            col = new._col[a : a + held.col.size]
            tile = held.tiles[0]
            tile.col_int64 = col
            held.plan.nonempty = new._nonempty[r : r + held.plan.n_rows]
            new._col_max[pos] = held.col_max
            new._single[pos] = held._replace(col=col)
        new._unfilled -= len(kept)
        return new

    def _allocate(self) -> None:
        self._col = np.empty(self._edge_off[-1], dtype=np.int64)
        self._starts = np.empty(self._seg_off[-1], dtype=np.int64)
        self._nonempty = np.empty(self._row_off[-1], dtype=bool)

    def slot(self, name: str, tile: Tile) -> int:
        """The position of blob ``name``'s slots, filled from ``tile``
        if they do not hold it yet.  The row pointer is checked at the
        fill, once per decoded tile (:class:`SegmentPlan`), and the
        largest source id recorded (:attr:`TileRun.col_max`)."""
        pos = self._index.get(name)
        held = self._single[pos] if pos is not None else None
        if held is not None and held.tiles[0] is tile:
            return pos
        plan = SegmentPlan(tile.row)
        shape = (plan.n_rows, plan.n_values, plan.starts.size)
        if (
            pos is None
            or shape != tuple(self.shapes[pos])
            or tile.num_edges != plan.n_values
        ):
            raise RuntimeError(
                f"decoded tile {name!r} does not fit the slab layout: it "
                "was rewritten (or renamed) without a re-layout"
            )
        self._joined.clear()
        self._joined_rows = 0
        self.edge_index = None
        if self._col is None:
            self._allocate()
        if held is None:
            self._unfilled -= 1
        a, r, s = self._edge_off[pos], self._row_off[pos], self._seg_off[pos]
        col = self._col[a : a + tile.num_edges]
        np.copyto(col, tile.col)
        tile.col_int64 = col  # fills the cached property's slot
        self._col_max[pos] = int(col.max()) if col.size else -1
        np.add(plan.starts, a, out=self._starts[s : s + plan.starts.size])
        self._nonempty[r : r + plan.n_rows] = plan.nonempty
        plan.nonempty = self._nonempty[r : r + plan.n_rows]
        self._single[pos] = TileRun(
            col, plan, self.target_ids[r : r + plan.n_rows], (tile,), r,
            self._col_max[pos],
        )
        return pos

    def run(self, first: int, last: int) -> TileRun:
        """Filled slots ``first..last`` as one run."""
        if first == last:
            return self._single[first]
        run = self._joined.get((first, last))
        if run is not None:
            return run
        a, b = self._edge_off[first], self._edge_off[last + 1]
        r0, r1 = self._row_off[first], self._row_off[last + 1]
        starts = self._starts[self._seg_off[first] : self._seg_off[last + 1]]
        plan = SegmentPlan.from_parts(
            b - a, self._nonempty[r0:r1], starts - a if a else starts
        )
        if self._joined_rows + r1 - r0 > 2 * self._row_off[-1]:
            self._joined.clear()
            self._joined_rows = 0
        self._joined_rows += r1 - r0
        run = self._joined[first, last] = TileRun(
            self._col[a:b],
            plan,
            self.target_ids[r0:r1],
            tuple(one.tiles[0] for one in self._single[first : last + 1]),
            r0,
            max(self._col_max[first : last + 1]),
        )
        return run

    def runs(self, positions: Iterable[int], join: bool = True) -> Iterator[TileRun]:
        """Filled slots ``positions`` (ascending) as the runs to compute:
        each maximal stretch of consecutive slots — or every slot on its
        own when not ``join``."""
        limit = None if join else 1
        first = last = None
        for pos in positions:
            if first is not None and pos == last + 1 and pos - first != limit:
                last = pos
                continue
            if first is not None:
                yield self.run(first, last)
            first = last = pos
        if first is not None:
            yield self.run(first, last)

    def replay(
        self, named: Iterable[tuple[str, Tile]], sparse: bool, join: bool,
        num_vertices: int,
    ) -> None:
        """Leave this slab as one engine sweep over ``named`` ((blob
        name, decoded tile) pairs, in sweep order) leaves the slab it
        runs on, without computing anything: each slot filled
        (:meth:`slot`), then the edge index built if the sweep gathered
        ``sparse``-ly, else — when it joined runs, as a program that
        reads no edge weight does — each run's mat-vec chunks cut.  How
        a process pool's parent keeps what its workers' sweeps built."""
        swept = [self.slot(name, tile) for name, tile in named]
        if sparse:
            if self.edge_index is None:
                self.build_edge_index(num_vertices)
        elif join:
            for run in self.runs(swept):
                run.plan.chunks(CHUNK_EDGES)

    # ------------------------------------------------------------------
    # The sparse gather's side of the slab
    # ------------------------------------------------------------------
    def build_edge_index(self, num_vertices: int) -> EdgeIndex | None:
        """Index every slot's edges by source (:attr:`edge_index`) —
        ``None`` while a slot is empty: its positions hold no edges."""
        if self._unfilled:
            return None
        self.edge_index = EdgeIndex(self._col, num_vertices)
        return self.edge_index

    def sources(self, positions: np.ndarray) -> np.ndarray:
        """The source id of the edge at each slab position."""
        return self._col.take(positions)

    def edge_values_at(self, positions: np.ndarray) -> np.ndarray:
        """The edge value at each slab position (ascending), taken from
        the tiles the positions fall in — the slab holds none."""
        out = np.empty(positions.size, dtype=np.float64)
        cuts = np.searchsorted(positions, self._edge_off).tolist()
        for pos in np.flatnonzero(np.diff(cuts)).tolist():
            a, b = cuts[pos], cuts[pos + 1]
            tile = self._single[pos].tiles[0]
            local = positions[a:b] - self._edge_off[pos]
            out[a:b] = tile.edge_values().take(local)
        return out

    def touched(self, positions: np.ndarray) -> tuple[SegmentPlan, np.ndarray]:
        """The target rows a non-empty ascending set of slab positions
        falls in: a plan reducing the positions' values row by row, and
        each row's position in the server's target index."""
        segment = self._starts.searchsorted(positions, "right") - 1
        first = np.empty(segment.size, dtype=bool)
        first[0] = True
        np.not_equal(segment[1:], segment[:-1], out=first[1:])
        bounds = np.flatnonzero(first)
        plan = SegmentPlan.from_parts(
            positions.size, np.ones(bounds.size, dtype=bool), bounds
        )
        return plan, np.flatnonzero(self._nonempty)[segment[bounds]]


@dataclass
class TilePartition:
    """The full stage-one output: all tiles plus the degree arrays."""

    tiles: list[Tile]
    splitter: np.ndarray  # int64[P + 1] target-range boundaries
    in_degrees: np.ndarray
    out_degrees: np.ndarray

    @property
    def num_tiles(self) -> int:
        """``P``."""
        return len(self.tiles)

    def total_tile_bytes(self) -> int:
        """Aggregate serialised size of all tiles."""
        return sum(len(t.to_bytes()) for t in self.tiles)


def build_splitter(
    in_degrees: np.ndarray, avg_tile_edges: int
) -> np.ndarray:
    """Algorithm 4's splitter scan, vectorised.

    Closes a tile at the first vertex whose cumulative in-degree reaches
    ``S`` (the paper's ``size >= S`` check fires *after* adding the
    vertex, so a huge-degree vertex never splits across tiles).  Returns
    boundaries ``splitter`` with ``splitter[0] == 0`` and
    ``splitter[-1] == |V|``; tile ``t`` owns targets
    ``[splitter[t], splitter[t+1])``.
    """
    if avg_tile_edges < 1:
        raise ValueError("avg_tile_edges must be >= 1")
    in_degrees = np.asarray(in_degrees, dtype=np.int64)
    num_vertices = in_degrees.size
    if num_vertices == 0:
        return np.array([0], dtype=np.int64)
    cumulative = np.cumsum(in_degrees)
    boundaries = [0]
    consumed = 0
    while boundaries[-1] < num_vertices:
        # First vertex index where this tile's running size reaches S:
        # everything before the tile's start is <= consumed < consumed + S,
        # so the whole array can be searched without slicing it.
        hit = np.searchsorted(cumulative, consumed + avg_tile_edges)
        end = min(int(hit) + 1, num_vertices)
        boundaries.append(end)
        consumed = int(cumulative[end - 1])
    return np.array(boundaries, dtype=np.int64)


def vertex_tile_table(splitter: np.ndarray) -> np.ndarray:
    """``table[v]`` = id of the tile whose target range holds ``v``.

    Tiles are target *ranges*, so ``get_tile_id(target, splitter)`` is a
    lookup, not a search.  ``uint16`` while the ids fit, which is what
    lets :func:`stable_argsort` sort them by radix.
    """
    num_tiles = splitter.size - 1
    dtype = np.uint16 if num_tiles <= _RADIX_BOUND else np.int64
    return np.repeat(np.arange(num_tiles, dtype=dtype), np.diff(splitter))


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    numpy's stable sort is a radix sort on integers of at most 16 bits
    and a comparison sort above, so keys that fit are narrowed first,
    and keys below 2**32 are sorted in two 16-bit radix passes: by their
    low half, then stably by their high half through that permutation
    (least significant digit first).  A stable sort's permutation is
    unique: every branch returns the same array, the radix ones several
    times sooner (655 k keys below 2**17: 27 against 108 ms; 65 k: 2.6
    against 6.7 ms, on a 2-core host).
    """
    if bound <= _RADIX_BOUND:
        return np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    if bound > _RADIX_BOUND * _RADIX_BOUND:
        return np.argsort(keys, kind="stable")
    # Integer casts keep the low bits: astype(uint16) is the low half.
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def build_tiles(graph: Graph, avg_tile_edges: int) -> TilePartition:
    """Stage-one partitioning: graph → tiles (direct in-memory path).

    :class:`repro.core.spe.SPE` produces byte-identical tiles through
    the map-reduce pipeline; this fast path backs tests, examples, and
    the engines' internal needs.
    """
    splitter = build_splitter(graph.in_degrees, avg_tile_edges)
    indptr, src_sorted, weights_sorted = graph.csc_arrays()
    tiles: list[Tile] = []
    for tile_id in range(splitter.size - 1):
        lo, hi = int(splitter[tile_id]), int(splitter[tile_id + 1])
        e_lo, e_hi = int(indptr[lo]), int(indptr[hi])
        row = (indptr[lo : hi + 1] - e_lo).astype(np.int64)
        col = src_sorted[e_lo:e_hi].astype(np.uint32)
        val = weights_sorted[e_lo:e_hi].copy() if graph.is_weighted else None
        tiles.append(
            Tile(
                tile_id=tile_id,
                target_lo=lo,
                target_hi=hi,
                num_graph_vertices=graph.num_vertices,
                row=row,
                col=col,
                val=val,
            )
        )
    return TilePartition(
        tiles=tiles,
        splitter=splitter,
        in_degrees=graph.in_degrees.copy(),
        out_degrees=graph.out_degrees.copy(),
    )


def assign_tiles_round_robin(num_tiles: int, num_servers: int) -> list[list[int]]:
    """Stage-two assignment: tile ``i`` → server ``i mod N`` (§III-C.1)."""
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    assignment: list[list[int]] = [[] for _ in range(num_servers)]
    for tile_id in range(num_tiles):
        assignment[tile_id % num_servers].append(tile_id)
    return assignment


def assign_tiles_balanced(
    tile_sizes: "list[int] | np.ndarray", num_servers: int
) -> list[list[int]]:
    """Stage-two alternative: LPT greedy over tile sizes.

    The paper's round-robin is oblivious to tile size variance (the
    splitter only guarantees ≥ S edges; degree-bound tiles can be much
    bigger), so skewed graphs can land several heavy tiles on one
    server.  Placing tiles largest-first onto the least-loaded server
    bounds the imbalance at LPT's 4/3 factor — the knob behind the
    ``tile_assignment="balanced"`` ablation.

    Each server's tile list is returned sorted ascending, preserving the
    engines' assumption that a server's target ranges are ordered.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    sizes = np.asarray(tile_sizes, dtype=np.int64)
    assignment: list[list[int]] = [[] for _ in range(num_servers)]
    loads = np.zeros(num_servers, dtype=np.int64)
    for tile_id in np.argsort(-sizes, kind="stable").tolist():
        target = int(np.argmin(loads))
        assignment[target].append(tile_id)
        loads[target] += sizes[tile_id]
    for tiles in assignment:
        tiles.sort()
    return assignment
