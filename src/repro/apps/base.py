"""The model-neutral vertex-program contract.

A program is defined by four vectorised pieces:

* ``init_values(graph)`` — the value array at superstep 0;
* ``edge_message(src_values, out_degrees, weights)`` — one contribution
  per edge, computed from each edge's *source* value (the Gather side of
  GAB, the ``send_message`` side of Pregel, the Scatter of Chaos).  It
  is **elementwise in the source**: output element ``i`` is a function
  of input elements ``i`` alone, never of the array's length, order or
  any other element;
* ``reduce_op`` — ``"add"``, ``"min"`` or ``"max"``, the associative
  combiner;
* ``apply(accum, old_values)`` — new value per vertex, **elementwise in
  the target**: output element ``i`` is a function of ``accum[i]``,
  ``old_values[i]`` and ``vertex_ids[i]`` alone (``value_changed``
  likewise).

Engines agree on semantics: a vertex whose gather received *no*
contributions keeps ``apply(identity, old)``; a vertex is *updated* in a
superstep iff ``value_changed(new, old)`` — which also drives GAB's
broadcast filtering, Pregel's active set, and convergence detection.

Everything operates on whole numpy arrays; no per-vertex Python calls
occur inside any engine's superstep loop.

Elementwise in the source is what lets an engine choose *where* to
evaluate ``edge_message``: a program that does not read edge weights
(``uses_edge_weight = False``) sends the same message down every
out-edge of a vertex, so GraphH's MPE evaluates it once per resident
vertex per superstep — into the message slot §IV-A's Eq. 2 charges —
and gathers the result per edge, instead of gathering values and
degrees per edge and evaluating there.  The same elementwise operation
on the same operands gives the same bits in either order;
:func:`check_elementwise_in_source` rejects a program for which it
would not.

Elementwise in the target is the same freedom on the Apply side: which
targets share one ``apply`` call is the engine's choice — a tile's, a
run of tiles', a server's — and must not show in the values;
:func:`check_elementwise_in_target` rejects a program (one that
normalises over the array it is handed, say) for which it would.

A program whose ``apply`` *folds* — ``apply(accum, old)`` is
``reduce_op(accum, old)`` for a ``min`` or ``max`` reducer, with exact
change detection (``apply_folds = True``: SSSP, BFS, WCC, max label
propagation) — lets an engine gather only the edges of the vertices
that changed.  A source that did not change sent the same message when
it last did, and that message is already folded into every target's
old value; min and max neither count nor order their terms, so
gathering it again changes no bit.  The superstep-0 side of the same
argument is :meth:`VertexProgram.initially_active`'s contract: a vertex
that is not initially active sends the reducer's identity.
:func:`check_fold` rejects a program that declares the fold falsely,
or breaks that contract.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.utils.segments import IDENTITY, OPS


class VertexProgram:
    """Base class; subclasses override the hooks below."""

    #: "add" or "min" — must match a :mod:`repro.utils.segments` op.
    reduce_op: str = "add"
    #: Whether edge_message needs each source's out-degree (PageRank).
    uses_out_degree: bool = False
    #: Whether edge_message reads edge weights (SSSP).
    uses_edge_weight: bool = False
    #: Absolute tolerance for change detection (0 = exact comparison).
    tolerance: float = 0.0
    #: Whether ``apply(accum, old)`` is ``reduce_op(accum, old)`` bit for
    #: bit, with a ``"min"`` or ``"max"`` reducer and exact change
    #: detection: then only the out-edges of the vertices updated in the
    #: previous superstep (at superstep 0, the initially active ones)
    #: need gathering (module docstring; :func:`check_fold`).
    apply_folds: bool = False
    name: str = "program"

    @property
    def identity(self) -> float:
        """The reduction identity (what a gather of zero edges yields)."""
        return IDENTITY[self.reduce_op]

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def init_values(self, graph: Graph) -> np.ndarray:
        """Initial ``float64[|V|]`` value array."""
        raise NotImplementedError

    def edge_message(
        self,
        src_values: np.ndarray,
        out_degrees: np.ndarray | None,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """Contribution per element of ``src_values``.

        Must be **elementwise in the source**: ``out[i]`` depends on
        ``src_values[i]``, ``out_degrees[i]`` and ``weights[i]`` only —
        no reductions over the array, no dependence on its length or
        order — and the inputs are never written (the result may be
        ``src_values`` itself).  Engines rely on it: the arrays are
        gathered per edge (``values[col]``) when ``uses_edge_weight``,
        and otherwise may be a server's whole resident vertex set, one
        element per *vertex*, with ``weights=None``.  ``out_degrees`` is
        aligned with ``src_values`` when ``uses_out_degree``, else
        ``None``.
        """
        raise NotImplementedError

    def apply(
        self,
        accum: np.ndarray,
        old_values: np.ndarray,
        vertex_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """New values from accumulators (identity where no edges).

        ``vertex_ids`` tells position-dependent programs (e.g.
        personalized PageRank's per-vertex teleport) which global
        vertices the slice covers; ``None`` means the arrays span the
        whole vertex space in id order.  Programs that are position-
        independent simply ignore it.

        Must be **elementwise in the target**: ``out[i]`` depends on
        ``accum[i]``, ``old_values[i]`` and ``vertex_ids[i]`` only.  The
        arrays cover whatever targets the engine sweeps at once — never
        assume a tile.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def value_changed(self, new: np.ndarray, old: np.ndarray) -> np.ndarray:
        """Boolean mask of vertices whose value genuinely changed."""
        if self.tolerance > 0:
            changed = np.abs(new - old) > self.tolerance
            # inf -> finite transitions always count (tolerance math on
            # infinities yields nan).
            changed |= np.isinf(old) & ~np.isinf(new)
            return changed
        return new != old

    def initially_active(self, graph: Graph) -> np.ndarray:
        """Vertices active at superstep 0 (all, by default).

        A contract, not a hint: a vertex that is not initially active
        sends the reducer's identity from its initial value (SSSP's
        unreached ``inf``), so leaving its edges out of superstep 0's
        gather cannot show.  Engines gather only the active vertices'
        edges when the program folds (:attr:`apply_folds`)."""
        return np.ones(graph.num_vertices, dtype=bool)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(reduce={self.reduce_op!r})"


#: Vertices :func:`check_elementwise_in_source` and
#: :func:`check_elementwise_in_target` probe.
_PROBE = 64


def _cut_shows(whole: np.ndarray, part: np.ndarray) -> bool:
    """Whether ``part`` — the probe re-run on a prefix of its input —
    is anything but, bit for bit, that prefix of ``whole``."""
    return (
        whole.ndim != 1
        or part.ndim != 1
        or whole[: part.size].tobytes() != part.tobytes()
    )


def check_elementwise_in_source(
    program: VertexProgram,
    values: np.ndarray,
    out_degrees: np.ndarray | None,
) -> None:
    """Raise ``ValueError`` unless ``program.edge_message`` (weights
    ``None``) is elementwise in the source on a small prefix of
    ``values``: the message of the first half must not change, bit for
    bit, when the second half is cut off."""

    def message(n: int) -> np.ndarray:
        degrees = None if out_degrees is None else out_degrees[:n]
        return np.asarray(program.edge_message(values[:n], degrees, None))

    n = min(values.size, _PROBE)
    half = n // 2
    whole, part = message(n), message(half)
    if whole.size != n or part.size != half or _cut_shows(whole, part):
        raise ValueError(
            f"{type(program).__name__}.edge_message is not elementwise in "
            "the source: a vertex's message changed with the other vertices "
            "in the array (see repro.apps.base)"
        )


def check_elementwise_in_target(program: VertexProgram, values: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``program.apply`` and
    ``program.value_changed`` are elementwise in the target on a small
    prefix of the vertex space: the first half's new values and change
    mask must not change, bit for bit, when the second half is cut off.
    The probe's accumulators differ from vertex to vertex, so a
    normalisation over the array shows."""
    n = min(values.size, _PROBE)
    half = n // 2
    ids = np.arange(n, dtype=np.int64)
    accum = np.arange(1, n + 1, dtype=np.float64)

    def sweep(k: int) -> tuple[np.ndarray, np.ndarray]:
        new = np.asarray(program.apply(accum[:k], values[:k], ids[:k]))
        return new, np.asarray(program.value_changed(new, values[:k]))

    for whole, part in zip(sweep(n), sweep(half)):
        if whole.size != n or part.size != half or _cut_shows(whole, part):
            raise ValueError(
                f"{type(program).__name__}.apply / value_changed is not "
                "elementwise in the target: a vertex's new value changed "
                "with the other vertices in the array (see repro.apps.base)"
            )


def check_fold(program: VertexProgram, graph, values: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` unless a program declaring
    :attr:`~VertexProgram.apply_folds` does fold: tolerance 0, a ``min``
    or ``max`` reducer, ``apply`` equal bit for bit to the reducer
    applied to ``(accum, old)`` and ``value_changed`` to ``new != old``
    on a small prefix of the vertex space (against the initial values
    and against accumulators on both sides of them), and the
    :meth:`~VertexProgram.initially_active` contract on up to
    :data:`_PROBE` vertices that are not: their messages from
    ``values``, the initial values, are the reducer's identity.
    Returns the initially active vertex ids, ascending."""
    name = type(program).__name__
    if program.tolerance != 0 or program.reduce_op not in ("min", "max"):
        raise ValueError(
            f"{name} declares apply_folds but its reducer is "
            f"{program.reduce_op!r} with tolerance {program.tolerance}: a fold "
            "needs min or max and exact change detection (see repro.apps.base)"
        )
    n = min(values.size, _PROBE)
    ids = np.arange(n, dtype=np.int64)
    accum = np.arange(1, n + 1, dtype=np.float64)
    for old in (values[:n], accum[::-1].copy()):
        new = np.asarray(program.apply(accum, old, ids))
        fold = OPS[program.reduce_op](accum, old)
        changed = np.asarray(program.value_changed(fold, old), dtype=bool)
        if new.tobytes() != fold.tobytes() or not np.array_equal(changed, fold != old):
            raise ValueError(
                f"{name} declares apply_folds but its apply / value_changed "
                f"is not {program.reduce_op}(accum, old) / new != old "
                "(see repro.apps.base)"
            )
    active = np.asarray(program.initially_active(graph), dtype=bool)
    idle = np.flatnonzero(~active)[:_PROBE]
    if idle.size:
        degrees = graph.out_degrees[idle] if program.uses_out_degree else None
        weights = np.ones(idle.size) if program.uses_edge_weight else None
        message = np.asarray(program.edge_message(values[idle], degrees, weights))
        if (message != program.identity).any():
            raise ValueError(
                f"{name}: a vertex that is not initially active sends a message "
                "other than the reducer's identity (see "
                "VertexProgram.initially_active)"
            )
    return np.flatnonzero(active)
