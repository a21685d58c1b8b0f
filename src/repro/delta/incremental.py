"""Incremental restart plans: repair a fixed point after mutations.

Given a program's previous fixed point and the mutation batch applied
since it was computed, :func:`build_plan` produces everything the engine
needs to *repair* the solution instead of recomputing it:

* ``start_values`` — where the run begins (previous fixed point, with a
  *reset set* re-initialised for min-programs),
* ``dirty_ids`` — vertices seeded into the selective scheduler's
  :class:`~repro.runtime.active.ActiveBitmap` as "updated last
  superstep", so only tiles they source get gathered, and
* ``forced_tiles`` — tiles that must run at the first incremental
  superstep even though no *source* in them is dirty (a deleted edge's
  target must re-gather, but the deleted source may no longer appear in
  its tile).

Correctness rests on two properties of the engine:

1. **Gather is a full recompute.**  A scheduled tile rebuilds its
   targets' accumulators from *all* current in-edges — there is no
   message-delta arithmetic — so any vertex is correct the moment its
   tile runs with current in-neighbor values.
2. **Monotone min-programs** (SSSP, WCC: ``reduce_op == "min"`` and
   ``apply = min(accum, old)``) started from any pointwise-``>=``
   overestimate converge to the *unique least* fixed point, bitwise.
   The previous fixed point is such an overestimate everywhere except
   where a deletion may have *raised* the true value — the reset set:
   deletion targets plus everything forward-reachable from them in the
   mutated graph, re-initialised to ``init_values``.

For ``reduce_op == "add"`` programs (PageRank) values are not monotone
and there is no reset: the run restarts from the previous fixed point
with the mutation endpoints dirty, and repairs propagate outward until
per-vertex changes fall under the program's ``tolerance`` — the result
matches a from-scratch run *within that tolerance*, not bitwise (the
documented contract; see DESIGN.md §5i).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.delta.mutlog import OP_DELETE, OP_INSERT
from repro.utils.segments import sorted_unique

__all__ = ["IncrementalPlan", "build_plan", "forward_reach"]


@dataclass(frozen=True)
class IncrementalPlan:
    """One incremental run's seed state (engine-consumed, immutable)."""

    dirty_ids: np.ndarray  # sorted unique int64 — seeds the ActiveBitmap
    forced_tiles: frozenset  # tile ids force-run at the seed superstep
    start_values: np.ndarray  # float64[|V|]
    stats: dict = field(default_factory=dict)


def forward_reach(
    seeds: np.ndarray,
    num_vertices: int,
    num_tiles: int,
    load_tile,
) -> np.ndarray:
    """All vertices reachable from ``seeds`` (inclusive) via out-edges.

    Tiles store *in*-edges grouped by target, so one BFS level scans
    every tile for edges sourced in the frontier; targets are
    partitioned across tiles, so per-tile discoveries are disjoint.
    Planning happens host-side before the run and is deliberately
    unmetered, like the selective scheduler's skip-set computation.
    """
    reached = np.zeros(num_vertices, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    reached[seeds] = True
    frontier = sorted_unique(seeds)
    levels = 0
    while frontier.size:
        levels += 1
        discovered = []
        for tile_id in range(num_tiles):
            tile = load_tile(tile_id)
            if tile.num_edges == 0:
                continue
            mask = np.isin(tile.col_int64, frontier)
            if not mask.any():
                continue
            targets = np.repeat(tile.target_ids, np.diff(tile.row_int64))
            hit = sorted_unique(targets[mask])
            fresh = hit[~reached[hit]]
            if fresh.size:
                reached[fresh] = True
                discovered.append(fresh)
        frontier = (
            np.sort(np.concatenate(discovered))
            if discovered
            else np.empty(0, dtype=np.int64)
        )
    return np.flatnonzero(reached).astype(np.int64)


def build_plan(
    program,
    prev_values: np.ndarray,
    mutations,
    *,
    init_values: np.ndarray,
    num_vertices: int,
    num_tiles: int,
    tile_of,
    load_tile,
) -> IncrementalPlan:
    """Derive the incremental seed state for one program.

    ``mutations`` are the :class:`~repro.delta.mutlog.Mutation` rows
    applied since ``prev_values`` was computed (already compacted into
    the store, so ``load_tile`` sees the *mutated* graph).
    ``init_values`` is the program's from-scratch initial array on the
    mutated graph — the values the reset set restarts from.
    """
    muts = list(mutations)
    sources = sorted({m.src for m in muts})
    delete_targets = sorted({m.dst for m in muts if m.op == OP_DELETE})
    num_inserts = sum(1 for m in muts if m.op == OP_INSERT)

    dirty = set(sources)
    forced: set[int] = {tile_of(d) for d in delete_targets}
    start = np.array(prev_values, dtype=np.float64, copy=True)
    reset_count = 0

    if program.reduce_op == "min" and delete_targets:
        # A deletion can raise true values; everything downstream of a
        # deletion target must forget its old (possibly too-low) value.
        reset = forward_reach(
            np.asarray(delete_targets, dtype=np.int64),
            num_vertices,
            num_tiles,
            load_tile,
        )
        start[reset] = np.asarray(init_values, dtype=np.float64)[reset]
        # Reset vertices both re-propagate (dirty: their out-edges must
        # re-deliver) and re-gather (forced: their own tile must run
        # even when every in-neighbor is clean).
        dirty.update(int(v) for v in reset)
        forced.update(tile_of(int(v)) for v in reset)
        reset_count = int(reset.size)

    dirty_ids = np.array(sorted(dirty), dtype=np.int64)
    stats = {
        "num_mutations": len(muts),
        "num_inserts": num_inserts,
        "num_deletes": len(muts) - num_inserts,
        "dirty_vertices": int(dirty_ids.size),
        "reset_vertices": reset_count,
        "forced_tiles": len(forced),
        "reduce_op": program.reduce_op,
        "bitwise": program.reduce_op == "min",
    }
    return IncrementalPlan(
        dirty_ids=dirty_ids,
        forced_tiles=frozenset(forced),
        start_values=start,
        stats=stats,
    )
