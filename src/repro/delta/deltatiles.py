"""Per-tile delta overlays: mutations compacted against immutable tiles.

The SPE's base tiles are not rewritten per batch — each server's
decoded tiles, the edge cache's remembered blob sizes and the schedule
summaries are all derived from them.
Instead, pending mutations compact into one :class:`TileOverlay` per
affected tile (a tile owns the in-edges of its target range, so a
mutation lands in the tile owning ``dst``).  At load time the engine's
tile parser composes ``overlay ∘ base`` into an ordinary
:class:`~repro.partition.tiles.Tile`; everything downstream — the
decoded-tile cache, prefetch speculation, selective scheduling, the
gather/apply kernels — sees a normal tile and needs no delta awareness.

Composition is deterministic: deletes remove the *first* matching base
instances in storage order, inserts append, and the result is lexsorted
by ``(target, src)`` — identical bytes-in, identical tile-out on every
host and executor, which is what keeps incremental runs bitwise
reproducible across serial/thread/process sweeps and fault replays.

A threshold-driven **merge** (driven by the engine, see
``MPE.apply_mutations``) rewrites a tile whose overlay grew past
``merge_ratio`` × its base edge count into a fresh *versioned* blob and
empties the overlay; the old base blob stays untouched on its server's
disk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.delta.mutlog import OP_DELETE, OP_INSERT, Mutation
from repro.partition.tiles import Tile

__all__ = ["TileOverlay", "DeltaStore", "CompactResult", "DEFAULT_MERGE_RATIO"]

#: Merge a tile once its overlay holds this fraction of the base edges.
DEFAULT_MERGE_RATIO = 0.25

_MAGIC = b"GHDT"
_HEADER = struct.Struct("<4sIqqB")  # magic, tile_id, n_inserts, n_deletes, weighted


class TileOverlay:
    """Pending mutations against one base tile.

    ``inserts`` preserves append order; ``deletes`` is a multiset of
    ``(src, dst)`` pairs counting base instances to remove.  A delete
    first cancels the newest matching overlay insert (the edge never
    reached the base), only then charges the base.

    Overlays do not change between compactions, and the sweep charges
    every scheduled overlaid tile its overlay's size and edit count each
    superstep: :meth:`seal` (``DeltaStore.compact``, once it is done
    with an overlay) computes the pair once, and :meth:`nbytes` /
    :attr:`num_ops` answer from it until the next :meth:`apply`.
    """

    __slots__ = ("tile_id", "inserts", "deletes", "_sealed")

    def __init__(self, tile_id: int) -> None:
        self.tile_id = int(tile_id)
        self.inserts: list[tuple[int, int, float | None]] = []
        self.deletes: dict[tuple[int, int], int] = {}
        self._sealed: tuple[int, int] | None = None

    def _walk(self) -> tuple[int, int]:
        """``(nbytes(), num_ops)`` from the inserts and deletes."""
        weighted = any(w is not None for _, _, w in self.inserts)
        deleted = sum(self.deletes.values())
        return (
            _HEADER.size
            + len(self.inserts) * (16 if weighted else 8)
            + 8 * deleted,
            len(self.inserts) + deleted,
        )

    def seal(self) -> None:
        """Remember ``(nbytes(), num_ops)`` as of now."""
        self._sealed = self._walk()

    @property
    def num_ops(self) -> int:
        """Pending edge edits (inserted instances + base deletions)."""
        return (self._sealed or self._walk())[1]

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    def nbytes(self) -> int:
        """Serialised overlay size (what the delta blob costs on disk):
        ``len(self.to_bytes())`` in closed form — the engine asks per
        scheduled overlaid tile, so nothing is serialised to answer."""
        return (self._sealed or self._walk())[0]

    def apply(self, mut: Mutation) -> None:
        """Fold one mutation in, honouring intra-overlay ordering."""
        self._sealed = None
        pair = (mut.src, mut.dst)
        if mut.op == OP_INSERT:
            self.inserts.append((mut.src, mut.dst, mut.weight))
            return
        if mut.op != OP_DELETE:
            raise ValueError(f"unknown mutation op {mut.op!r}")
        for i in range(len(self.inserts) - 1, -1, -1):
            if self.inserts[i][:2] == pair:
                del self.inserts[i]
                return
        self.deletes[pair] = self.deletes.get(pair, 0) + 1

    # -- composition ---------------------------------------------------
    @staticmethod
    def _pair_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
        if num_vertices >= 2**31:
            raise ValueError("delta overlays require |V| < 2^31")
        return src.astype(np.int64, copy=False) * np.int64(
            num_vertices
        ) + dst.astype(np.int64, copy=False)

    def compose(self, base: Tile) -> Tile:
        """``overlay ∘ base`` as a fresh, canonically-ordered tile.

        Raises ``ValueError`` when a deletion names more instances of an
        edge than the base holds — the batch validation
        (:meth:`DeltaStore.compact` composes before it commits)."""
        if self.is_empty:
            return base
        n_vertices = base.num_graph_vertices
        row = base.row_int64
        targets = np.repeat(base.target_ids, np.diff(row))
        srcs = base.col_int64
        vals = (
            np.asarray(base.val, dtype=np.float64)
            if base.val is not None
            else None
        )

        keep = np.ones(srcs.size, dtype=bool)
        if self.deletes:
            base_keys = self._pair_keys(srcs, targets, n_vertices)
            order = np.argsort(base_keys, kind="stable")
            sorted_keys = base_keys[order]
            pairs = sorted(self.deletes.items())
            del_keys = np.array(
                [np.int64(s) * n_vertices + d for (s, d), _ in pairs],
                dtype=np.int64,
            )
            del_counts = np.array([c for _, c in pairs], dtype=np.int64)
            starts = np.searchsorted(sorted_keys, del_keys, side="left")
            ends = np.searchsorted(sorted_keys, del_keys, side="right")
            if np.any(del_counts > ends - starts):
                bad = int(np.argmax(del_counts > ends - starts))
                (src, dst), count = pairs[bad]
                raise ValueError(
                    f"tile {self.tile_id}: cannot delete {count} instance(s) "
                    f"of edge ({src}, {dst}); only {int(ends[bad] - starts[bad])} "
                    "present"
                )
            # First `count` instances per pair, in base storage order.
            offsets = np.arange(int(del_counts.sum()), dtype=np.int64)
            offsets -= np.repeat(np.cumsum(del_counts) - del_counts, del_counts)
            removed = np.repeat(starts, del_counts) + offsets
            keep[order[removed]] = False

        new_targets = targets[keep]
        new_srcs = srcs[keep]
        new_vals = vals[keep] if vals is not None else None
        if self.inserts:
            ins_src = np.array([s for s, _, _ in self.inserts], dtype=np.int64)
            ins_dst = np.array([d for _, d, _ in self.inserts], dtype=np.int64)
            new_targets = np.concatenate([new_targets, ins_dst])
            new_srcs = np.concatenate([new_srcs, ins_src])
            if new_vals is not None:
                ins_w = np.array(
                    [1.0 if w is None else w for _, _, w in self.inserts],
                    dtype=np.float64,
                )
                new_vals = np.concatenate([new_vals, ins_w])

        # One stable argsort of the packed (target, src) key: the
        # permutation ``np.lexsort((new_srcs, new_targets))`` gives.
        order = np.argsort(
            self._pair_keys(new_targets, new_srcs, n_vertices), kind="stable"
        )
        new_targets = new_targets[order]
        new_srcs = new_srcs[order]
        if new_vals is not None:
            new_vals = np.ascontiguousarray(new_vals[order])
        new_row = np.searchsorted(
            new_targets,
            np.arange(base.target_lo, base.target_hi + 1, dtype=np.int64),
            side="left",
        ).astype(np.int64)
        return Tile(
            tile_id=base.tile_id,
            target_lo=base.target_lo,
            target_hi=base.target_hi,
            num_graph_vertices=n_vertices,
            row=new_row,
            col=new_srcs.astype(np.uint32),
            val=new_vals,
        )

    # -- serialisation (the delta blob written next to the base tile) --
    def to_bytes(self) -> bytes:
        pairs = sorted(self.deletes.items())
        del_rows: list[tuple[int, int]] = []
        for (src, dst), count in pairs:
            del_rows.extend([(src, dst)] * count)
        weighted = any(w is not None for _, _, w in self.inserts)
        parts = [
            _HEADER.pack(
                _MAGIC,
                self.tile_id,
                len(self.inserts),
                len(del_rows),
                1 if weighted else 0,
            ),
            np.array([s for s, _, _ in self.inserts], dtype=np.uint32).tobytes(),
            np.array([d for _, d, _ in self.inserts], dtype=np.uint32).tobytes(),
        ]
        if weighted:
            parts.append(
                np.array(
                    [1.0 if w is None else w for _, _, w in self.inserts],
                    dtype=np.float64,
                ).tobytes()
            )
        parts.append(np.array([s for s, _ in del_rows], dtype=np.uint32).tobytes())
        parts.append(np.array([d for _, d in del_rows], dtype=np.uint32).tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TileOverlay":
        if len(data) < _HEADER.size:
            raise ValueError("truncated delta tile blob")
        magic, tile_id, n_ins, n_del, weighted = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise ValueError("bad delta tile magic")
        offset = _HEADER.size

        def take(dtype, count):
            nonlocal offset
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            offset += arr.nbytes
            return arr

        ins_src = take(np.uint32, n_ins)
        ins_dst = take(np.uint32, n_ins)
        ins_w = take(np.float64, n_ins) if weighted else None
        del_src = take(np.uint32, n_del)
        del_dst = take(np.uint32, n_del)
        if offset != len(data):
            raise ValueError("delta tile blob size mismatch")
        overlay = cls(tile_id)
        for i in range(n_ins):
            overlay.inserts.append(
                (
                    int(ins_src[i]),
                    int(ins_dst[i]),
                    float(ins_w[i]) if ins_w is not None else None,
                )
            )
        for i in range(n_del):
            pair = (int(del_src[i]), int(del_dst[i]))
            overlay.deletes[pair] = overlay.deletes.get(pair, 0) + 1
        return overlay

    def __repr__(self) -> str:
        return (
            f"TileOverlay(tile={self.tile_id}, inserts={len(self.inserts)}, "
            f"deletes={sum(self.deletes.values())})"
        )


@dataclass
class CompactResult:
    """What one compaction pass produced (per affected tile)."""

    affected: list[int] = field(default_factory=list)
    composed: dict[int, Tile] = field(default_factory=dict)
    merged: list[int] = field(default_factory=list)
    overlay_bytes: int = 0
    overlay_edges: int = 0


class DeltaStore:
    """All mutable-graph state the engine carries for one manifest.

    Holds the per-tile overlays, the applied-mutation watermark (so
    re-applying a log after a fault replay or restart is an exact
    no-op; the mutations themselves are the engine's log's, ids
    ``1..watermark``), exact degree deltas, and the per-tile blob
    version counters merges advance.
    """

    def __init__(self, manifest, merge_ratio: float = DEFAULT_MERGE_RATIO) -> None:
        if not 0.0 < merge_ratio:
            raise ValueError("merge_ratio must be positive")
        self.merge_ratio = float(merge_ratio)
        self.splitter = np.asarray(manifest.splitter, dtype=np.int64)
        self.num_vertices = int(manifest.num_vertices)
        self.overlays: dict[int, TileOverlay] = {}
        self.watermark = 0
        self.out_deg_delta = np.zeros(self.num_vertices, dtype=np.int64)
        self.in_deg_delta = np.zeros(self.num_vertices, dtype=np.int64)
        self.edge_delta = 0
        self.generation: dict[int, int] = {}
        self.merges = 0
        self.compactions = 0

    def tile_of(self, dst: int) -> int:
        """The tile owning target vertex ``dst``."""
        return int(np.searchsorted(self.splitter, dst, side="right") - 1)

    @property
    def total_overlay_edges(self) -> int:
        return sum(o.num_ops for o in self.overlays.values())

    def total_overlay_bytes(self) -> int:
        return sum(o.nbytes() for o in self.overlays.values())

    def compact(self, mutations, load_base) -> CompactResult:
        """Fold pending mutations into overlays.

        ``mutations`` are :class:`Mutation` rows with ids above the
        current watermark (already-applied rows are skipped, making
        replay idempotent).  ``load_base`` maps ``tile_id`` → decoded
        *base* :class:`Tile`; each affected tile's overlay is validated
        against it and the freshly composed tile is returned so the
        caller can refresh schedule summaries and bloom filters.
        Overlays past ``merge_ratio`` × base edges are listed in
        ``merged`` — the caller rewrites those tiles and then calls
        :meth:`finish_merge`.
        """
        pending = [m for m in mutations if m.mut_id > self.watermark]
        result = CompactResult()
        if not pending:
            return result
        expected = self.watermark + 1
        for mut in pending:
            if mut.mut_id != expected:
                raise ValueError(
                    f"mutation ids must be contiguous: expected {expected}, "
                    f"got {mut.mut_id}"
                )
            expected += 1
        by_tile: dict[int, list[Mutation]] = {}
        for mut in pending:
            by_tile.setdefault(self.tile_of(mut.dst), []).append(mut)

        # Stage per tile first: validation failures must leave the
        # store untouched (no partial batch application).  Each base is
        # loaded once; composing validates the overlay against it (a
        # deletion without enough base instances raises), and only the
        # composed tile and the base's edge count are kept.
        staged: dict[int, tuple[TileOverlay, Tile, int]] = {}
        for tile_id in sorted(by_tile):
            overlay = self.overlays.get(tile_id)
            trial = TileOverlay(tile_id)
            if overlay is not None:
                trial.inserts = list(overlay.inserts)
                trial.deletes = dict(overlay.deletes)
            for mut in by_tile[tile_id]:
                trial.apply(mut)
            base = load_base(tile_id)
            composed = base if trial.is_empty else trial.compose(base)
            staged[tile_id] = (trial, composed, base.num_edges)

        for tile_id, (trial, _composed, _base_edges) in staged.items():
            if trial.is_empty:
                self.overlays.pop(tile_id, None)
            else:
                trial.seal()
                self.overlays[tile_id] = trial
        for mut in pending:
            if mut.op == OP_INSERT:
                self.out_deg_delta[mut.src] += 1
                self.in_deg_delta[mut.dst] += 1
                self.edge_delta += 1
            else:
                self.out_deg_delta[mut.src] -= 1
                self.in_deg_delta[mut.dst] -= 1
                self.edge_delta -= 1
        self.watermark = pending[-1].mut_id
        self.compactions += 1

        for tile_id, (trial, composed, base_edges) in staged.items():
            result.affected.append(tile_id)
            result.composed[tile_id] = composed
            if not trial.is_empty:
                result.overlay_bytes += trial.nbytes()
                result.overlay_edges += trial.num_ops
                if trial.num_ops >= self.merge_ratio * max(1, base_edges):
                    result.merged.append(tile_id)
        return result

    def finish_merge(self, tile_id: int) -> int:
        """Empty a merged tile's overlay and bump its blob generation."""
        self.overlays.pop(tile_id, None)
        gen = self.generation.get(tile_id, 0) + 1
        self.generation[tile_id] = gen
        self.merges += 1
        return gen

    def summary(self) -> dict:
        """JSON-friendly state snapshot for reports and gauges."""
        return {
            "watermark": self.watermark,
            "applied_mutations": self.watermark,  # ids are dense from 1
            "edge_delta": self.edge_delta,
            "overlay_tiles": len(self.overlays),
            "overlay_edges": self.total_overlay_edges,
            "overlay_bytes": self.total_overlay_bytes(),
            "compactions": self.compactions,
            "merges": self.merges,
        }
