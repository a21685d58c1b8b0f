"""Cross-engine validation in one call.

``cross_validate`` runs a vertex program through every engine in the
repository — GraphH under both replication policies, the four
distributed baselines, and the single-node GridGraph engine — and
compares each against the reference executor.  It is the one-stop sanity
check a downstream user should run after modifying an engine or adding a
program, and the machine behind the repository's strongest claim: six
execution models, one answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import render_table
from repro.apps.reference import reference_solution
from repro.baselines import (
    ChaosEngine,
    GASEngine,
    GraphDEngine,
    GridGraphEngine,
    PregelEngine,
)
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.graph.graph import Graph


@dataclass
class ValidationReport:
    """Outcome of one cross-engine validation sweep."""

    program: str
    graph: str
    entries: list[dict] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        """Whether every engine agreed with the reference."""
        return all(e["match"] for e in self.entries)

    def mismatches(self) -> list[str]:
        """Names of engines that diverged."""
        return [e["engine"] for e in self.entries if not e["match"]]

    def render(self) -> str:
        rows = [
            [
                e["engine"],
                "MATCH" if e["match"] else "MISMATCH",
                f"{e['max_abs_err']:.2e}",
                e["supersteps"],
            ]
            for e in self.entries
        ]
        return render_table(
            ["engine", "verdict", "max |err|", "supersteps"],
            rows,
            title=f"cross-validation: {self.program} on {self.graph}",
        )


def cross_validate(
    graph: Graph,
    program_factory,
    num_servers: int = 3,
    max_supersteps: int = 300,
    atol: float = 1e-7,
) -> ValidationReport:
    """Run ``program_factory()`` through every engine and compare.

    ``program_factory`` must build a *fresh* program per engine (some
    programs carry per-run state like PPR's teleport vector).
    """
    expected, _ = reference_solution(program_factory(), graph, max_supersteps)
    report = ValidationReport(
        program=program_factory().name, graph=graph.name
    )

    def record(name: str, result) -> None:
        # Equal infinities (unreachable vertices) agree; subtract only
        # elsewhere, so inf - inf is never evaluated.
        differ = ~(np.isinf(expected) & (result.values == expected))
        err = np.zeros(expected.size)
        np.subtract(result.values, expected, out=err, where=differ)
        err = np.abs(err)
        err[np.isnan(err)] = np.inf
        max_err = float(err.max(initial=0.0))
        report.entries.append(
            {
                "engine": name,
                "match": bool(max_err <= atol),
                "max_abs_err": max_err,
                "supersteps": result.num_supersteps,
            }
        )

    for policy in ("aa", "od"):
        with Cluster(ClusterSpec(num_servers=num_servers)) as cluster:
            spe = SPE(cluster.dfs)
            manifest = spe.preprocess(
                graph, max(1, graph.num_edges // (8 * num_servers)), name="xv"
            )
            mpe = MPE(
                cluster,
                manifest,
                MPEConfig(replication_policy=policy, max_supersteps=max_supersteps),
            )
            record(f"graphh-{policy}", mpe.run(program_factory()))

    for engine_cls in (PregelEngine, GraphDEngine, GASEngine, ChaosEngine):
        with Cluster(ClusterSpec(num_servers=num_servers)) as cluster:
            engine = engine_cls(cluster)
            record(
                engine.name,
                engine.run(program_factory(), graph, max_supersteps),
            )

    with Cluster(ClusterSpec(num_servers=1)) as cluster:
        engine = GridGraphEngine(cluster)
        record("gridgraph", engine.run(program_factory(), graph, max_supersteps))

    return report
