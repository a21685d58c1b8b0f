"""Active-vertex bitmaps and per-tile source summaries (GraphMP port).

GraphH's follow-up engine GraphMP ("I/O-Efficient Big Graph Analytics on
a Single Commodity Machine") adds *selective scheduling*: before a
superstep touches disk it consults an active-vertex bitmap — the exact
set of vertices updated in the previous superstep — and skips every tile
whose source vertices are all inactive.  Where the §III-C.4 bloom probe
answers "might any updated vertex be a source of this tile?" with a
tunable false-positive rate, the bitmap answers it *exactly*: the skip
set under selective scheduling is a superset of the bloom skip set, and
the two differ only on bloom false positives.

Both prunes are conservative in the same direction — a skipped tile is
one the full gather would have produced zero messages from — so turning
either (or both) on never changes values, Counters, CacheStats, or fault
schedules; that invariant is pinned in ``tests/test_selective.py``.

Two pieces:

* :class:`ActiveBitmap` — the previous superstep's updated-vertex set as
  a dense :class:`~repro.utils.bitset.Bitset` (built when a probe first
  reads it) plus the sorted id array it was built from (for O(log n)
  range rejection).
* :class:`TileSourceSummary` — a tile's source-vertex footprint: the
  ``[src_lo, src_hi]`` range plus the exact sorted source array.  Built
  once at setup from decoded tiles; ~8 B/distinct-source resident.

The membership test is two-stage: a searchsorted range rejection on the
sorted updated array (cheap, catches the common case where a tile's
source range lies wholly outside the frontier), then an exact bitset
probe over the tile's sources.

:class:`SourceHeads` puts one batched probe in front of it: the first
64 sources of every tile, tested against the frontier in a single
``Bitset.test_many`` per superstep.  A hit anywhere in a tile's row
schedules it, a tile with at most 64 sources is decided either way, and
only what is left takes the per-tile test above — same predicate, same
verdicts, one call instead of ``P`` on a frontier that is nearly dense.

Both of those *pull*: a tile is skipped only once each of its sources
has been tested, so a frontier of three vertices still tests every
source in the graph.  :class:`SourceTileIndex` *pushes* a small frontier
instead (Ligra's sparse mode): per vertex, the tiles it is a source of
as a row of bits, so the tiles a frontier reaches are one OR over the
frontier's rows.  :func:`pushes` says which side a frontier takes.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bitset import Bitset
from repro.utils.segments import sorted_unique

__all__ = [
    "ActiveBitmap",
    "SourceHeads",
    "SourceTileIndex",
    "TileSourceSummary",
    "pushes",
]

#: Sources per tile :class:`SourceHeads` probes in its one batched call.
HEAD_WIDTH = 64

#: A frontier of at most ``V / PUSH_DIVISOR`` vertices is pushed through
#: :class:`SourceTileIndex`; a larger one is pulled.  Measured on a
#: 2-core host: at |u| = 34 of 131 072 vertices (an SSSP tail, 184
#: tiles) the pull took 16.5-17.8 ms and the push 0.11-0.16 ms, while
#: at PageRank's 97-99 % of V (300 000 vertices, 432 tiles) the push
#: took 12-16 ms against 1.0-1.2 ms for the pull — its cost grows with
#: the frontier, the pull's with the tiles' sources.
PUSH_DIVISOR = 8


def pushes(count: int, num_vertices: int) -> bool:
    """Whether a frontier of ``count`` of ``num_vertices`` vertices is
    small enough to push (:data:`PUSH_DIVISOR`)."""
    return count * PUSH_DIVISOR <= num_vertices


#: A folding program (``VertexProgram.apply_folds``) gathers only its
#: frontier's out-edges when they are at most ``E / GATHER_DIVISOR`` of
#: the run's edges; otherwise every edge of every scheduled tile.
#: Measured per server on a 2-core host, random frontiers against the
#: whole sweep of the same slab: the sparse kernel took 0.75 of the
#: sweep's time at E/16 and 1.13 at E/8 for weighted SSSP on
#: ``sssp-spill-n4`` (655 k edges per server), 0.89 and 1.57 for BFS
#: there (its sweep is one joined run), 0.92 and 1.60 for BFS on the
#: service graph — the crossover sits between E/14 and E/10, and past
#: it the sparse kernel loses up to 2-3x by E/4.  In the ledger's
#: ``sssp-spill-n4`` runs it took supersteps 0 and 4 (0.9 % and 0.2 %
#: of the edges) from 28 and 30 ms to 9 and 8 ms.
GATHER_DIVISOR = 16


def gathers_sparse(out_edges: int, num_edges: int) -> bool:
    """Whether a frontier sourcing ``out_edges`` of ``num_edges`` edges
    is small enough to gather sparsely (:data:`GATHER_DIVISOR`)."""
    return out_edges * GATHER_DIVISOR <= num_edges


class ActiveBitmap:
    """The frontier: vertices updated in the previous superstep.

    ``dense`` is True when *every* vertex updated — the common first few
    supersteps of PageRank-style programs — in which case no tile can be
    skipped and callers should bypass per-tile probes entirely.

    The bitset behind the exact probes is built on first use
    (:attr:`bits`): a pushed frontier reads only :attr:`updated`.
    """

    __slots__ = ("num_vertices", "updated", "dense", "_bits")

    def __init__(self, updated: np.ndarray, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self.updated = np.asarray(updated, dtype=np.int64)
        self.dense = self.updated.size >= self.num_vertices
        self._bits: Bitset | None = None

    @classmethod
    def seed_from_ids(cls, vertex_ids, num_vertices: int) -> "ActiveBitmap":
        """Build a frontier directly from a set of vertex ids.

        The public seeding path for dirty-set consumers (``repro.delta``
        seeds a mutation batch's dirty vertices as "updated last
        superstep").  Ids are validated, deduplicated, and sorted, so
        the bitmap is identical however the caller ordered them.  The
        engine's own per-superstep frontier arrives sorted-unique
        already, so the order is *checked* in O(n) and re-established
        only when the check fails.
        """
        ids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        if ids.size > 1 and not bool((ids[1:] > ids[:-1]).all()):
            ids = sorted_unique(ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= int(num_vertices)):
            raise ValueError(
                f"vertex ids must lie in [0, {num_vertices}); "
                f"got range [{int(ids[0])}, {int(ids[-1])}]"
            )
        return cls(ids, num_vertices)

    @property
    def count(self) -> int:
        """Number of active vertices."""
        return int(self.updated.size)

    @property
    def bits(self) -> Bitset | None:
        """The frontier as a :class:`~repro.utils.bitset.Bitset`, built
        on first read; ``None`` when it is dense or empty."""
        if self._bits is None and not self.dense and self.updated.size:
            bits = Bitset(self.num_vertices)
            bits.set_many(self.updated)
            self._bits = bits
        return self._bits

    def any_in_range(self, lo: int, hi: int) -> bool:
        """Whether any active vertex lies in ``[lo, hi]`` (inclusive)."""
        if self.dense:
            return self.num_vertices > 0
        left = int(np.searchsorted(self.updated, lo, side="left"))
        return left < self.updated.size and int(self.updated[left]) <= hi

    def any_of(self, vertex_ids: np.ndarray) -> bool:
        """Exact probe: is any of ``vertex_ids`` active?"""
        if self.dense:
            return vertex_ids.size > 0
        bits = self.bits
        return bits is not None and bits.any_of(vertex_ids)


class SourceHeads:
    """Every tile's first :data:`HEAD_WIDTH` sources as one ``[P,
    HEAD_WIDTH]`` matrix, row = tile id — the batched front of
    :meth:`TileSourceSummary.intersects`.

    A short row is padded with its own first source (a pad can only
    repeat a verdict the row already had); an empty tile's row is masked
    out by its size.
    """

    __slots__ = ("_heads", "_sizes")

    def __init__(self, summaries: dict[int, TileSourceSummary]) -> None:
        self._heads = np.zeros((len(summaries), HEAD_WIDTH), dtype=np.int64)
        self._sizes = np.zeros(len(summaries), dtype=np.int64)
        for summary in summaries.values():
            self.refresh(summary)

    def refresh(self, summary: TileSourceSummary) -> None:
        """(Re)write one tile's row from its summary."""
        sources = summary.sources[:HEAD_WIDTH]
        row = self._heads[summary.tile_id]
        row[: sources.size] = sources
        row[sources.size :] = sources[0] if sources.size else 0
        self._sizes[summary.tile_id] = summary.sources.size

    def probe(self, bitmap: ActiveBitmap) -> list:
        """Per tile id: ``True`` / ``False`` where that is what
        ``summary.intersects(bitmap)`` returns, ``None`` where only it
        can tell (more than :data:`HEAD_WIDTH` sources, none of the
        first :data:`HEAD_WIDTH` active)."""
        if bitmap.dense:
            return (self._sizes > 0).tolist()
        bits = bitmap.bits
        if bits is None:  # empty frontier: nothing intersects
            return [False] * self._sizes.size
        hit = bits.test_many(self._heads.ravel())
        hit = hit.reshape(self._heads.shape).any(axis=1) & (self._sizes > 0)
        verdict = hit.astype(object)
        verdict[~hit & (self._sizes > HEAD_WIDTH)] = None
        return verdict.tolist()


class SourceTileIndex:
    """Per vertex, the tiles it is a source of: a ``V × ⌈P/64⌉``
    ``uint64`` matrix whose row ``v`` has bit ``t % 64`` of word
    ``t // 64`` set iff ``v`` is one of tile ``t``'s sources — the
    transpose of the tiles' :class:`TileSourceSummary` arrays, so
    ``V·⌈P/64⌉·8`` bytes.

    :meth:`probe` pushes a frontier: the tiles with an active source are
    the OR of the frontier's rows, which is exactly where
    :meth:`TileSourceSummary.intersects` says ``True``.  Built whole from
    the summaries and never patched: a mutation batch drops it and the
    next push rebuilds it.
    """

    __slots__ = ("num_tiles", "_rows")

    def __init__(
        self, summaries: dict[int, TileSourceSummary], num_vertices: int
    ) -> None:
        self.num_tiles = len(summaries)
        words = max(1, -(-self.num_tiles // 64))
        self._rows = np.zeros((int(num_vertices), words), dtype=np.uint64)
        for summary in summaries.values():
            # A tile's sources are distinct, so no row is written twice.
            word, bit = divmod(summary.tile_id, 64)
            self._rows[summary.sources, word] |= np.uint64(1 << bit)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the index."""
        return int(self._rows.nbytes)

    def probe(self, bitmap: ActiveBitmap) -> list:
        """Per tile id, whether that tile has a source in ``bitmap`` —
        :meth:`SourceHeads.probe`'s verdicts with no ``None`` left."""
        words = np.bitwise_or.reduce(self._rows[bitmap.updated], axis=0)
        hit = np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8), bitorder="little"
        )
        return hit[: self.num_tiles].astype(bool).tolist()


class TileSourceSummary:
    """A tile's source-vertex footprint for schedule-time pruning.

    Unlike the bloom filter (approximate, sized for a false-positive
    budget) this is the *exact* sorted distinct-source array, so
    :meth:`intersects` never wastes a tile load — at the cost of holding
    the ids themselves in memory.
    """

    __slots__ = ("tile_id", "src_lo", "src_hi", "sources")

    def __init__(self, tile_id: int, sources: np.ndarray) -> None:
        self.tile_id = int(tile_id)
        self.sources = np.asarray(sources, dtype=np.int64)
        if self.sources.size:
            self.src_lo = int(self.sources[0])
            self.src_hi = int(self.sources[-1])
        else:  # empty tile: impossible range so every probe rejects
            self.src_lo = 0
            self.src_hi = -1

    @classmethod
    def from_tile(cls, tile) -> "TileSourceSummary":
        """Summarise a decoded :class:`~repro.partition.tiles.Tile`
        (``source_vertices`` is already sorted-unique)."""
        return cls(tile.tile_id, tile.source_vertices)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the summary."""
        return int(self.sources.nbytes)

    def intersects(self, bitmap: ActiveBitmap) -> bool:
        """Exact schedule predicate: does this tile have an active
        source?  ``False`` proves the tile's gather is empty this
        superstep and its load/decode can be skipped."""
        if self.sources.size == 0:
            return False
        if not bitmap.any_in_range(self.src_lo, self.src_hi):
            return False
        return bitmap.any_of(self.sources)

    def __repr__(self) -> str:
        return (
            f"TileSourceSummary(tile={self.tile_id}, "
            f"range=[{self.src_lo},{self.src_hi}], n={self.sources.size})"
        )
