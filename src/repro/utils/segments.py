"""Vectorised segment reductions over CSR-style row pointers.

The gather phase of every engine reduces per-edge contributions into
per-target accumulators.  Edges inside a tile are already grouped by
target vertex (CSR by target, §III-B), so the reduction is a *segment
reduce* over contiguous runs — expressible with ``ufunc.reduceat`` and
therefore free of Python per-edge loops (the hot-path rule from the
hpc-parallel guides).

``reduceat`` has a classic pitfall: a zero-length segment yields the
element *at* its start offset instead of the identity.  We sidestep it
by reducing only over non-empty segments (their start offsets are
strictly increasing and consecutive non-empty starts bound exactly one
segment because empty segments contribute no elements in between) and
filling empty rows with the reduction's identity value.
"""

from __future__ import annotations

import numpy as np

OPS = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
}

IDENTITY = {
    "add": 0.0,
    "min": np.inf,
    "max": -np.inf,
}


class SegmentPlan:
    """Everything :func:`segment_reduce` derives from a row pointer
    alone: the validity check, the non-empty-row mask and the
    ``reduceat`` start offsets.

    A row pointer that is reduced over repeatedly (a decoded tile's,
    once per superstep) builds its plan once — when
    :meth:`repro.partition.tiles.TileSlab.slot` fills the tile's slot —
    and the per-call work drops to a length check, one ``reduceat`` and
    one masked store.
    """

    __slots__ = ("n_rows", "n_values", "nonempty", "starts")

    def __init__(self, indptr: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        if indptr.size == 0:
            raise ValueError("indptr must have at least one element")
        lengths = np.diff(indptr)
        if indptr[0] != 0 or (lengths < 0).any():
            raise ValueError("indptr must be non-decreasing and start at 0")
        self.n_rows = int(lengths.size)
        self.n_values = int(indptr[-1])
        self.nonempty = lengths > 0
        self.starts = indptr[:-1][self.nonempty]

    @classmethod
    def from_parts(
        cls, n_values: int, nonempty: np.ndarray, starts: np.ndarray
    ) -> "SegmentPlan":
        """A plan over parts that were checked when they were derived —
        a stretch of plans laid end to end
        (:class:`repro.partition.tiles.TileSlab`), with ``starts``
        already offset into the joined values."""
        plan = cls.__new__(cls)
        plan.n_rows = int(nonempty.size)
        plan.n_values = int(n_values)
        plan.nonempty = nonempty
        plan.starts = starts
        return plan


def segment_reduce(
    values: np.ndarray,
    indptr: "np.ndarray | SegmentPlan",
    op: str = "add",
    identity: float | None = None,
) -> np.ndarray:
    """Reduce ``values`` over segments delimited by ``indptr``.

    Parameters
    ----------
    values:
        Per-edge contributions, length ``indptr[-1]``.
    indptr:
        CSR row pointer of length ``n_rows + 1`` (non-decreasing,
        starting at 0), or the :class:`SegmentPlan` built from one.
    op:
        ``"add"``, ``"min"``, or ``"max"``.
    identity:
        Fill value for empty segments; defaults to the op's identity.

    Returns a length ``n_rows`` array.
    """
    try:
        ufunc = OPS[op]
    except KeyError:
        raise ValueError(f"unknown op {op!r}; expected one of {sorted(OPS)}") from None
    if identity is None:
        identity = IDENTITY[op]
    plan = indptr if isinstance(indptr, SegmentPlan) else SegmentPlan(indptr)
    values = np.asarray(values)
    if values.size != plan.n_values:
        raise ValueError(
            f"values length {values.size} != indptr[-1] {plan.n_values}"
        )
    out = np.full(plan.n_rows, identity, dtype=np.float64)
    if plan.starts.size:
        out[plan.nonempty] = ufunc.reduceat(
            values.astype(np.float64, copy=False), plan.starts
        )
    return out


def is_sorted(values: np.ndarray) -> bool:
    """True when ``values`` is non-decreasing (vacuously for size < 2)."""
    values = np.asarray(values)
    if values.size < 2:
        return True
    return bool(np.all(values[1:] >= values[:-1]))


def sorted_unique(values: np.ndarray, kind: str | None = None) -> np.ndarray:
    """Sorted distinct elements of ``values`` — ``numpy.unique``'s
    result and dtype (input ravelled the same way), computed as one
    ``np.sort`` plus a neighbour mask.

    The engine's one sorted-set primitive.  Measured, not asymptotic:
    on numpy >= 2.3 ``np.unique`` is 15-35x slower than this on every
    size the engine uses (30 k ``uint32`` tile columns 3.41 -> 0.20 ms,
    300 k random ``int64`` 86.6 -> 3.9 ms on the 2-core sandbox).
    ``kind`` is ``np.sort``'s; callers whose input is a concatenation of
    sorted runs pass ``"stable"`` (numpy's run-merging sort).
    """
    out = np.sort(np.asarray(values), axis=None, kind=kind)
    if out.size < 2:
        return out
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def merge_sorted_unique(parts: "list[np.ndarray]") -> np.ndarray:
    """Sorted-unique union of already-sorted int arrays, as a fresh
    ``int64`` array.

    The BSP barrier calls this every superstep to union the per-server
    (sorted, disjoint) updated-vertex sets.  A dense union — more than
    half of the ids up to the largest present, none negative: a
    PageRank frontier — is marked in a boolean mask and read back with
    ``np.flatnonzero`` (9 parts, 294 k of 300 k ids: 1.5 -> 0.9 ms on
    a 2-core host).  Anything sparser is a stable sort of the
    concatenation, which the mask's ``O(largest id)`` pass would lose
    to; the pairwise ``searchsorted`` + ``np.insert`` merge tree that
    sort replaced was 5x slower than it on 9 x 33 k parts (15.5 vs
    3.1 ms) — its O(n log k) was a modeled win the ledger never saw.
    """
    arrays = [np.asarray(p, dtype=np.int64) for p in parts]
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return np.zeros(0, dtype=np.int64)
    total = sum(a.size for a in arrays)
    top = max(int(a[-1]) for a in arrays)
    if 2 * total > top + 1 and min(int(a[0]) for a in arrays) >= 0:
        mask = np.zeros(top + 1, dtype=bool)
        for a in arrays:
            mask[a] = True
        return np.flatnonzero(mask).astype(np.int64, copy=False)
    return sorted_unique(np.concatenate(arrays), kind="stable")


def segment_lengths(indptr: np.ndarray) -> np.ndarray:
    """Row lengths from a CSR row pointer."""
    return np.diff(np.asarray(indptr, dtype=np.int64))


def expand_indptr(indptr: np.ndarray) -> np.ndarray:
    """Per-element row index for a CSR layout (inverse of bincount).

    ``expand_indptr([0, 2, 2, 5]) == [0, 0, 2, 2, 2]`` — used when a
    scatter needs each edge's *target-local* row id.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    lengths = np.diff(indptr)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
