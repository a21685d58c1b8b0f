"""What a run of the MPE returns: per-superstep reports and the result."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.cost import SuperstepCost


@dataclass
class SuperstepReport:
    """Per-superstep measurements."""

    superstep: int
    updated_vertices: int
    tiles_processed: int
    tiles_skipped: int
    net_bytes: int
    disk_read_bytes: int
    cache_hit_ratio: float
    message_modes: list[int] = field(default_factory=list)
    modeled: SuperstepCost | None = None
    wall_s: float = 0.0


@dataclass
class RunResult:
    """Outcome of one vertex program execution."""

    values: np.ndarray
    supersteps: list[SuperstepReport]
    converged: bool
    # --- host-runtime telemetry (PR-1 knobs) --------------------------
    # The executor that ran, and — only when the platform could not run
    # the one asked for — the one that was requested.
    executor: str = "serial"
    executor_requested: str | None = None
    decoded_cache_hits: int = 0
    decoded_cache_misses: int = 0
    # Tile-prefetch pipeline depth this run started with (0 = pipeline
    # off).
    prefetch_depth: int = 0
    # Whether bitmap selective scheduling was active and which
    # vertex-store backing ran.
    selective: bool = False
    vertex_store: str = "mem"
    # The engine's one bloom-filter build ({superstep, tiles, bytes};
    # filters persist across warm runs) — None when no schedule has
    # probed a filter yet, which is every default-config run.
    filters_built: dict | None = None
    # Autotuner summary (fitted constants, residuals, decision trace)
    # when the run was tuned or consumed a scripted plan; None otherwise.
    tuning: dict | None = None
    # Evolving-graph summary (repro.delta): the delta store's state plus
    # — on incremental runs — the plan stats (dirty/reset/forced sizes).
    # None when the mutation subsystem is off.
    delta: dict | None = None

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    def runtime(self) -> dict:
        """Host-runtime telemetry (JSON-serialisable)."""
        fallback = (
            {"executor_requested": self.executor_requested}
            if self.executor_requested is not None
            else {}
        )
        return {
            "executor": self.executor,
            **fallback,
            "decoded_cache_hits": self.decoded_cache_hits,
            "decoded_cache_misses": self.decoded_cache_misses,
            "prefetch_depth": self.prefetch_depth,
            "selective": self.selective,
            "vertex_store": self.vertex_store,
        }

    def trace(self) -> list[dict]:
        """Per-superstep telemetry as plain dicts (JSON-serialisable)."""
        out = []
        for s in self.supersteps:
            row = {
                "superstep": s.superstep,
                "updated_vertices": s.updated_vertices,
                "tiles_processed": s.tiles_processed,
                "tiles_skipped": s.tiles_skipped,
                "net_bytes": s.net_bytes,
                "disk_read_bytes": s.disk_read_bytes,
                "cache_hit_ratio": round(s.cache_hit_ratio, 4),
                "message_modes": list(s.message_modes),
                "wall_s": round(s.wall_s, 6),
            }
            if s.modeled is not None:
                row["modeled_s"] = {
                    "disk": s.modeled.disk_s,
                    "network": s.modeled.network_s,
                    "decompress": s.modeled.decompress_s,
                    "compute": s.modeled.compute_s,
                    "sync": s.modeled.sync_s,
                    "fault": s.modeled.fault_s,
                    "probe": s.modeled.probe_s,
                    "delta": s.modeled.delta_s,
                    "total": s.modeled.total_s,
                    "overlap": s.modeled.overlap_s,
                }
            out.append(row)
        return out

    def total_net_bytes(self) -> int:
        return sum(s.net_bytes for s in self.supersteps)

    def total_disk_read(self) -> int:
        return sum(s.disk_read_bytes for s in self.supersteps)

    def avg_superstep_modeled_s(self, skip_first: bool = True) -> float:
        """The paper's metric: mean modeled time, first superstep excluded."""
        steps = self.supersteps[1:] if skip_first and len(self.supersteps) > 1 else self.supersteps
        vals = [s.modeled.total_s for s in steps if s.modeled]
        if not vals:  # zero supersteps, or none carried modeled costs
            return 0.0
        return float(np.mean(vals))
