"""Graph statistics matching Table I's columns.

``compute_stats`` produces the exact row schema of the paper's dataset
table — vertex count, edge count, average degree, max in/out degree, and
CSV size — so ``repro.analysis.experiments.exp_table1_datasets`` can
print a side-by-side of paper values and our scaled analogs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def degree_histogram(degrees: np.ndarray, num_bins: int = 16) -> list[tuple[int, int, int]]:
    """Log2-binned degree histogram: (lo, hi, count) per bin.

    The quick skew diagnostic behind Table I's max-degree columns —
    power-law graphs fill the high bins, uniform graphs do not.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    rows = []
    zero = int((degrees == 0).sum())
    if zero:
        rows.append((0, 0, zero))
    lo = 1
    for _ in range(num_bins):
        hi = lo * 2
        count = int(((degrees >= lo) & (degrees < hi)).sum())
        if count:
            rows.append((lo, hi - 1, count))
        if hi > degrees.max(initial=0):
            break
        lo = hi
    return rows


def gini_coefficient(degrees: np.ndarray) -> float:
    """Gini index of a degree sequence (0 = uniform, →1 = one hub).

    Quantifies the skew the paper argues about qualitatively: the web
    crawls' in-degree sequences are far more unequal than their
    out-degree sequences.
    """
    degrees = np.sort(np.asarray(degrees, dtype=np.float64))
    n = degrees.size
    total = degrees.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * degrees).sum() - (n + 1) * total) / (n * total))


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
