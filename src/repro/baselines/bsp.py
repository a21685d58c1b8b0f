"""The one BSP superstep loop every baseline engine runs (Algorithms 1–3).

Pregel+, Giraph, GraphD, PowerGraph, PowerLyra, GraphX, Chaos and the
single-node GridGraph all execute the same bulk-synchronous superstep;
they differ in where edges live and in what moving a message costs.
:meth:`BSPEngine.run` is that superstep, written once:

1. initial values, and the senders — every vertex for ``add`` programs
   (PageRank must hear from every in-neighbor each superstep), the
   changed frontier otherwise (SSSP/WCC/BFS only propagate
   improvements, exactly how Pregel applications are written);
2. the engine's **gather**: messages from the senders reduced into
   per-vertex accumulators, metered on the servers doing the work;
3. ``apply`` where something was gathered (everywhere for ``add``),
   ``value_changed``, then the engine's after-apply step (GAS's mirror
   sync, Chaos's vertex-state write-back);
4. the modeled superstep cost from per-server counter deltas, plus the
   engine's fixed ``framework_overhead_s``, and the
   :class:`SuperstepReport`;
5. convergence once no vertex changed.

An engine supplies :meth:`BSPEngine._prepare` — its partitioning and
staging, its Table III memory accounting, and the gather.
:func:`combine` / :func:`reduce_into` are the one scatter-reduce all
gathers use.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from repro.apps.base import VertexProgram
from repro.cluster.cluster import Cluster
from repro.cluster.counters import CounterSnapshot
from repro.core.mpe import RunResult, SuperstepReport
from repro.graph.graph import Graph
from repro.metrics.cost import CostModel
from repro.utils.segments import IDENTITY, OPS


class Gathered(NamedTuple):
    """One superstep's gather: accumulators (the identity where nothing
    arrived), which vertices received anything, and how many storage
    units (grid blocks, streaming partitions) were streamed / skipped."""

    accum: np.ndarray
    gathered: np.ndarray
    tiles_streamed: int = 0
    tiles_skipped: int = 0


Gather = Callable[[np.ndarray, np.ndarray], Gathered]
AfterApply = Callable[[np.ndarray], None]


def combine(
    targets: np.ndarray, values: np.ndarray, op: str
) -> tuple[np.ndarray, np.ndarray]:
    """Sender-side combiner: one value per distinct target, each reduced
    from ``values`` in input order."""
    uniq, inverse = np.unique(targets, return_inverse=True)
    combined = np.full(uniq.size, IDENTITY[op])
    OPS[op].at(combined, inverse, values)
    return uniq, combined


def reduce_into(
    accum: np.ndarray,
    gathered: np.ndarray,
    targets: np.ndarray,
    values: np.ndarray,
    op: str,
) -> None:
    """Receiver-side reduction of ``values`` into ``accum[targets]`` in
    input order (so repeated targets associate left to right); marks
    the targets gathered."""
    OPS[op].at(accum, targets, values)
    gathered[targets] = True


def edge_messages(
    program: VertexProgram,
    values: np.ndarray,
    out_degrees: np.ndarray,
    src: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """``program.edge_message`` along edges leaving ``src`` (``weights``
    aligned with ``src``)."""
    return program.edge_message(
        values[src],
        out_degrees[src] if program.uses_out_degree else None,
        weights if program.uses_edge_weight else None,
    )


class BSPEngine:
    """Base of every baseline: :meth:`run` is the superstep loop."""

    cluster: Cluster
    # Fixed per-superstep cost of running the model through a
    # general-purpose framework (Hadoop job setup for Giraph, RDD
    # materialisation for GraphX); charged like the sync constant — it
    # does not scale with data volume.
    framework_overhead_s = 0.0

    def _prepare(
        self, program: VertexProgram, graph: Graph
    ) -> tuple[Gather, AfterApply | None]:
        """Partition and stage ``graph``, account memory, and return the
        per-superstep gather plus an optional after-apply step."""
        raise NotImplementedError

    def run(
        self,
        program: VertexProgram,
        graph: Graph,
        max_supersteps: int = 200,
    ) -> RunResult:
        gather, after_apply = self._prepare(program, graph)
        servers = self.cluster.servers
        add = program.reduce_op == "add"
        values = program.init_values(graph).astype(np.float64, copy=True)
        if add:
            sending = np.ones(graph.num_vertices, dtype=bool)
        else:
            sending = program.initially_active(graph).copy()
        cost_model = CostModel(self.cluster.spec)
        reports: list[SuperstepReport] = []

        for superstep in range(max_supersteps):
            t0 = time.perf_counter()
            before = [CounterSnapshot.capture(s) for s in servers]
            step = gather(values, sending)
            new_values = program.apply(step.accum, values)
            if not add:
                # Vertices nothing reached keep their value exactly.
                new_values = np.where(step.gathered, new_values, values)
            changed = program.value_changed(new_values, values)
            values = np.where(changed, new_values, values)
            if after_apply is not None:
                after_apply(changed)
            if not add:
                sending = changed

            deltas = [b.delta(s) for b, s in zip(before, servers)]
            modeled = cost_model.superstep_time(deltas)
            if self.framework_overhead_s:
                # overlap_s is stored, not derived like total_s: both
                # estimates carry the overhead.
                modeled = replace(
                    modeled,
                    sync_s=modeled.sync_s + self.framework_overhead_s,
                    overlap_s=modeled.overlap_s + self.framework_overhead_s,
                )
            updated = int(changed.sum())
            reports.append(
                SuperstepReport(
                    superstep=superstep,
                    updated_vertices=updated,
                    tiles_processed=step.tiles_streamed,
                    tiles_skipped=step.tiles_skipped,
                    net_bytes=sum(d.net_sent for d in deltas),
                    disk_read_bytes=sum(
                        d.disk_read + d.disk_read_random for d in deltas
                    ),
                    cache_hit_ratio=0.0,  # no baseline has an edge cache
                    modeled=modeled,
                    wall_s=time.perf_counter() - t0,
                )
            )
            if updated == 0:
                return RunResult(values=values, supersteps=reports, converged=True)
        return RunResult(values=values, supersteps=reports, converged=False)
