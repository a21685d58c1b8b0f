"""Graph statistics matching Table I's columns.

``compute_stats`` produces the exact row schema of the paper's dataset
table — vertex count, edge count, average degree, max in/out degree, and
CSV size — so ``repro.analysis.experiments.exp_table1_datasets`` can
print a side-by-side of paper values and our scaled analogs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.graph.io import edge_list_csv_size
from repro.utils.sizes import human_bytes


@dataclass(frozen=True)
class GraphStats:
    """One Table-I-style row."""

    name: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_in_degree: int
    max_out_degree: int
    csv_bytes: int

    def row(self) -> tuple:
        """Tuple in Table I column order."""
        return (
            self.name,
            self.num_vertices,
            self.num_edges,
            round(self.avg_degree, 1),
            self.max_in_degree,
            self.max_out_degree,
            human_bytes(self.csv_bytes),
        )


def compute_stats(graph: Graph, include_csv_size: bool = True) -> GraphStats:
    """Compute the Table I row for a graph.

    ``include_csv_size=False`` skips the (comparatively slow) CSV byte
    count for callers that only need the structural columns.
    """
    return GraphStats(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=graph.avg_degree,
        max_in_degree=int(graph.in_degrees.max(initial=0)),
        max_out_degree=int(graph.out_degrees.max(initial=0)),
        csv_bytes=edge_list_csv_size(graph) if include_csv_size else 0,
    )
