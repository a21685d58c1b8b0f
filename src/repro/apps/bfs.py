"""BFS hop counts (unit-weight SSSP with an explicit +1 per hop)."""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexProgram
from repro.graph.graph import Graph


class BFS(VertexProgram):
    """Minimum hop count from a source vertex.

    Unlike :class:`repro.apps.SSSP`, edge weights are ignored entirely —
    every traversed edge costs one hop — so BFS on a weighted graph
    still returns hop counts.
    """

    reduce_op = "min"
    apply_folds = True
    name = "bfs"

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ValueError("source must be >= 0")
        self.source = int(source)

    def init_values(self, graph: Graph) -> np.ndarray:
        if self.source >= graph.num_vertices:
            raise ValueError(
                f"source {self.source} outside [0, {graph.num_vertices})"
            )
        values = np.full(graph.num_vertices, np.inf)
        values[self.source] = 0.0
        return values

    def edge_message(self, src_values, out_degrees, weights) -> np.ndarray:
        return src_values + 1.0

    def apply(self, accum, old_values, vertex_ids=None) -> np.ndarray:
        return np.minimum(accum, old_values)

    def initially_active(self, graph: Graph) -> np.ndarray:
        active = np.zeros(graph.num_vertices, dtype=bool)
        active[self.source] = True
        return active
