"""Single-source shortest paths under the GAB spec (paper Algorithm 7)."""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexProgram
from repro.graph.graph import Graph


class SSSP(VertexProgram):
    """Bellman-Ford-style SSSP.

    gather: ``accum = min(val(src) + val(edge))`` along in-edges;
    apply:  ``min(accum, old)`` (Algorithm 7 verbatim).

    Unweighted graphs degrade to hop counts (``val(u, v) = 1``).
    """

    reduce_op = "min"
    apply_folds = True
    uses_edge_weight = True
    name = "sssp"

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
        return src_values + weights

    def apply(self, accum, old_values, vertex_ids=None) -> np.ndarray:
        return np.minimum(accum, old_values)

    def initially_active(self, graph: Graph) -> np.ndarray:
        active = np.zeros(graph.num_vertices, dtype=bool)
        active[self.source] = True
        return active
