"""Max-label propagation — the engines' ``max``-reduction exercise.

Every vertex starts with its own id and repeatedly adopts the *maximum*
label among itself and its in-neighbors.  On a symmetrised graph the
fixpoint labels each weakly connected component with its largest member
(the mirror image of :class:`repro.apps.WCC`), which gives a second,
independent connectivity algorithm to cross-check against — and the only
shipped program driving the ``max`` combiner path through every engine.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexProgram
from repro.graph.graph import Graph


class MaxLabelPropagation(VertexProgram):
    """Maximum-label flood fill."""

    reduce_op = "max"
    apply_folds = True
    name = "maxlabel"
    requires_symmetric_input = True

    def init_values(self, graph: Graph) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    def edge_message(self, src_values, out_degrees, weights) -> np.ndarray:
        return src_values

    def apply(self, accum, old_values, vertex_ids=None) -> np.ndarray:
        return np.maximum(accum, old_values)
