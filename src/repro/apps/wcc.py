"""Weakly connected components via label propagation."""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexProgram
from repro.graph.graph import Graph


class WCC(VertexProgram):
    """Minimum-label propagation.

    Every vertex starts with its own id; each superstep it adopts the
    minimum label among itself and its in-neighbors.  On a *symmetrised*
    graph (every edge mirrored — use
    :meth:`repro.graph.Graph.to_undirected_edges`) the fixpoint labels
    the weakly connected components.  Engines run the program on the
    graph they are given; :func:`requires_symmetric_input` lets callers
    assert the precondition.
    """

    reduce_op = "min"
    apply_folds = True
    name = "wcc"
    requires_symmetric_input = True

    def init_values(self, graph: Graph) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    def edge_message(self, src_values, out_degrees, weights) -> np.ndarray:
        return src_values

    def apply(self, accum, old_values, vertex_ids=None) -> np.ndarray:
        return np.minimum(accum, old_values)
