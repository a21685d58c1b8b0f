"""The evolving graph as the engine sees it: one object per engine.

:class:`EvolvingGraph` is what ``MPEConfig(mutations=True)`` adds to an
:class:`~repro.core.mpe.MPE`, reached three ways: every metered tile
load decodes through :meth:`parse`, ``MPE.apply_mutations`` hands the
batch to :meth:`apply`, and a run calls it as a participant (DESIGN.md
§5o).  What a batch changes *in the engine* (summaries, filters, slabs,
blob names) is ``MPE.retile``.
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoint import clear_checkpoints
from repro.delta.deltatiles import DeltaStore
from repro.delta.incremental import build_plan
from repro.delta.mutlog import MutationLog
from repro.partition.tiles import Tile

__all__ = ["EvolvingGraph"]


class EvolvingGraph:
    """One engine's mutable-graph state, and its share of a run."""

    def __init__(self, mpe) -> None:
        self.mpe = mpe
        # The overlay store starts empty (composition is a no-op until
        # a batch lands); the log is the engine's own, append-only.
        self.store = DeltaStore(mpe.manifest)
        self.log = MutationLog(num_vertices=mpe.manifest.num_vertices)
        # program name -> (converged values, store watermark at run
        # end): what an incremental run restarts from.  Advanced at
        # successful run end only, so a supervised fault retry derives
        # the identical plan from (fixed point, pending mutations).
        self.fixed_points: dict[str, tuple[np.ndarray, int]] = {}
        # The plan stats of the run in progress (None: a scratch run).
        self._plan_stats: dict | None = None

    # ------------------------------------------------------------------
    # Tiles as they now decode
    # ------------------------------------------------------------------
    def parse(self, data: bytes) -> Tile:
        """The overlay-composing tile parser.

        Keyed by the *parsed* tile's id — no blob-name plumbing — so
        every decode site (sweep, prefetch speculation, cache resync,
        summary/bloom backfill) composes identically.  Forked workers
        inherit the live overlay dict by address, and a tile without a
        pending overlay parses at exactly the base cost.
        """
        tile = Tile.from_bytes(data)
        overlay = self.store.overlays.get(tile.tile_id)
        if overlay is None or overlay.is_empty:
            return tile
        return overlay.compose(tile)

    def _blob(self, tile_id: int) -> bytes:
        """A tile's current local blob, unmetered (host-side planning,
        like skip-set computation)."""
        server, _index, name = self.mpe.tile_home(tile_id)
        return server.disk.peek(name)

    def base_tile(self, tile_id: int) -> Tile:
        """A tile's current *base* blob decoded, no overlay."""
        return Tile.from_bytes(self._blob(tile_id))

    # ------------------------------------------------------------------
    # A mutation batch
    # ------------------------------------------------------------------
    def apply(self, ops=None, log: MutationLog | None = None) -> dict:
        """Append a mutation batch and compact it into per-tile overlays
        (``MPE.apply_mutations``); call between runs — the overlay dict
        is frozen during one (forked workers share it by address).

        ``ops`` is an iterable of mutation dicts (``{"op", "src", "dst",
        "weight"?}``) appended to the engine's own log; ``log=`` instead
        adopts a complete external :class:`~repro.delta.mutlog.MutationLog`
        (the service's restart replay).  Compaction is atomic — a batch
        that fails validation (e.g. deleting a non-existent edge) raises
        and leaves every overlay, degree delta and the watermark
        untouched — and idempotent: rows at or below the store's
        watermark are skipped, so replaying a persisted log re-applies
        only what is missing.  A tile whose overlay grows past
        ``merge_ratio`` × base edges is *merged*: the composed tile is
        rewritten as a new versioned blob (locally and in DFS, so crash
        respawns refetch the merged bytes) and its overlay emptied.

        Returns the batch report: applied counts, overlay state, merges,
        modeled compact/merge seconds."""
        mpe, store = self.mpe, self.store
        if log is not None:
            if ops:
                raise ValueError("pass ops= or log=, not both")
            if log.last_id < store.watermark:
                raise ValueError(
                    f"adopted log ends at id {log.last_id} but "
                    f"{store.watermark} mutations are already applied"
                )
            self.log = log
        elif ops:
            self.log.extend(ops)
        pending = self.log.since(store.watermark)
        num_inserts = sum(1 for m in pending if m.op == "insert")

        result = store.compact(pending, self.base_tile)

        if pending:
            # Every checkpoint written so far snapshots the *pre-batch*
            # graph; resuming any program from one after this point
            # would converge against stale values (observably wrong for
            # min-programs).  Mutations invalidate them all.
            clear_checkpoints(mpe.cluster.dfs, mpe.manifest.name)

        compact_bytes = 0
        for tile_id in result.affected:
            overlay = store.overlays.get(tile_id)
            if overlay is not None and not overlay.is_empty:
                # Persisting the delta blob next to its base tile is
                # the batch's durable write.
                nb = overlay.nbytes()
                mpe.tile_home(tile_id)[0].counters.disk_write += nb
                compact_bytes += nb
        merges: list[dict] = []
        renamed: dict[int, tuple[str, int]] = {}
        for tile_id in result.merged:
            generation = store.finish_merge(tile_id)
            blob = result.composed[tile_id].to_bytes()
            name = f"tile-{tile_id}-v{generation}"
            # DFS is the system of record: a crash respawn refetches
            # manifest.tile_path(tile_id), which must now hold the
            # merged bytes.  The local blob gets a *versioned* name so
            # stale cached entries under the old name can never serve
            # the pre-merge tile.
            mpe.cluster.dfs.write(mpe.manifest.tile_path(tile_id), blob)
            mpe.tile_home(tile_id)[0].store_blob(name, blob)
            renamed[tile_id] = (name, len(blob))
            merges.append(
                {"tile": tile_id, "generation": generation, "nbytes": len(blob)}
            )
        mpe.retile(result.composed, renamed)

        spec = mpe.cluster.spec
        report = {
            "applied": len(pending),
            "inserts": num_inserts,
            "deletes": len(pending) - num_inserts,
            "affected_tiles": len(result.affected),
            "merged": merges,
            "overlay_bytes": store.total_overlay_bytes(),
            "overlay_edges": store.total_overlay_edges,
            "watermark": store.watermark,
            "modeled_compact_s": (
                compact_bytes / spec.disk_write_bps
                + result.overlay_edges * spec.delta_edge_apply_s
            ),
            "modeled_merge_s": (
                sum(m["nbytes"] for m in merges) / spec.disk_write_bps
            ),
        }
        if result.affected:
            dbuf = mpe._lane("delta")
            dbuf.instant(
                "mutate",
                "delta",
                applied=report["applied"],
                inserts=report["inserts"],
                deletes=report["deletes"],
            )
            dbuf.instant(
                "compact",
                "delta",
                tiles=len(result.affected),
                overlay_bytes=result.overlay_bytes,
                overlay_edges=result.overlay_edges,
            )
            for m in merges:
                dbuf.instant("merge", "delta", **m)
            mpe._metrics.gauge(
                "repro_delta_overlay_bytes",
                "pending overlay bytes across all tiles",
            ).labels().set(report["overlay_bytes"])
        return report

    # ------------------------------------------------------------------
    # Run participant
    # ------------------------------------------------------------------
    def begin_run(self, prep, graph) -> None:
        """Show the run the mutated graph — and, on an incremental run,
        the restart state that repairs the previous fixed point."""
        store = self.store
        # Applied mutations shift degrees and |E|; every program must
        # see the mutated graph's metadata (PageRank divides
        # contributions by out-degree), for scratch runs over overlaid
        # tiles exactly as for incremental ones.
        graph.in_degrees = (graph.in_degrees + store.in_deg_delta).astype(
            graph.in_degrees.dtype
        )
        graph.out_degrees = (graph.out_degrees + store.out_deg_delta).astype(
            graph.out_degrees.dtype
        )
        graph.num_edges += store.edge_delta
        # Overlay composition work is charged per *scheduled* overlaid
        # tile (MPE._compute_server_step), from this table.
        prep.overlay_charges = {
            tile_id: (overlay.nbytes(), overlay.num_ops)
            for tile_id, overlay in store.overlays.items()
            if not overlay.is_empty
        }
        self._plan_stats = None
        mpe = self.mpe
        if not mpe.config.incremental:
            return
        program = prep.program
        fixed = self.fixed_points.get(program.name)
        if fixed is None:
            raise ValueError(
                f"incremental run of {program.name!r} needs a previous "
                "completed run of the same program on this engine"
            )
        prev_values, watermark = fixed
        composed: dict[int, Tile] = {}

        def load_composed(tile_id: int) -> Tile:
            if tile_id not in composed:
                composed[tile_id] = self.parse(self._blob(tile_id))
            return composed[tile_id]

        plan = build_plan(
            program,
            prev_values,
            self.log.since(watermark, store.watermark),
            init_values=program.init_values(graph),
            num_vertices=mpe.manifest.num_vertices,
            num_tiles=mpe.manifest.num_tiles,
            tile_of=store.tile_of,
            load_tile=load_composed,
        )
        prep.init_values = plan.start_values.astype(np.float64, copy=True)
        # The seed superstep prunes down to dirty-sourced + forced tiles.
        prep.prev_updated = plan.dirty_ids
        prep.seed_tiles = plan.forced_tiles
        stats = self._plan_stats = plan.stats
        mpe._lane("delta").instant(
            "incremental_plan",
            "delta",
            program=program.name,
            num_mutations=stats["num_mutations"],
            dirty_vertices=stats["dirty_vertices"],
            reset_vertices=stats["reset_vertices"],
            forced_tiles=stats["forced_tiles"],
        )
        mpe._metrics.gauge(
            "repro_delta_dirty_vertices",
            "dirty vertices seeding the incremental frontier",
        ).labels().set(stats["dirty_vertices"])

    def begin_superstep(self, prep, superstep: int) -> None:
        pass

    def end_superstep(self, prep, done) -> None:
        pass

    def end_run(self, prep, result) -> None:
        """Remember the fixed point; fill ``RunResult.delta``."""
        # Converged runs only: a max_supersteps cutoff is not a fixed
        # point and repairing from it would freeze un-settled vertices
        # behind the selective prune.
        if result.converged:
            self.fixed_points[prep.program.name] = (
                result.values.copy(),
                self.store.watermark,
            )
        result.delta = {
            "incremental": self._plan_stats is not None,
            **(self._plan_stats or {}),
            **self.store.summary(),
        }
