"""Evolving graphs: mutation logs, delta-tile overlays, incremental runs."""

from repro.delta.deltatiles import (
    DEFAULT_MERGE_RATIO,
    CompactResult,
    DeltaStore,
    TileOverlay,
)
from repro.delta.incremental import IncrementalPlan, build_plan, forward_reach
from repro.delta.attach import EvolvingGraph
from repro.delta.mutlog import (
    MUTLOG_SCHEMA,
    Mutation,
    MutationLog,
    mirrored,
    random_mutations,
)

__all__ = [
    "MUTLOG_SCHEMA",
    "Mutation",
    "MutationLog",
    "mirrored",
    "random_mutations",
    "TileOverlay",
    "DeltaStore",
    "CompactResult",
    "DEFAULT_MERGE_RATIO",
    "IncrementalPlan",
    "build_plan",
    "forward_reach",
    "EvolvingGraph",
]
