"""Vectorised segment reductions over CSR-style row pointers.

The gather phase of every engine reduces per-edge contributions into
per-target accumulators.  Edges inside a tile are already grouped by
target vertex (CSR by target, §III-B), so the reduction is a *segment
reduce* over contiguous runs, with no Python per-edge loop (the
hot-path rule from the hpc-parallel guides).  Two kernels do it:

* :func:`gather_sum` — the additive programs' gather and reduce in one
  pass: each row's sum of a per-vertex plane over its edges' source
  ids, computed by scipy's compiled ``csr_matvec`` with the edges as
  the matrix's column indices and a shared plane of ones as its
  entries.  No per-edge temporary is built, and each row is summed
  left to right.
* :func:`segment_reduce` — ``ufunc.reduceat`` over per-edge values
  already gathered: min/max programs, weighted programs (whose message
  is evaluated per edge), and the single-machine reference.

``reduceat`` has a classic pitfall: a zero-length segment yields the
element *at* its start offset instead of the identity.  We sidestep it
by reducing only over non-empty segments (their start offsets are
strictly increasing and consecutive non-empty starts bound exactly one
segment because empty segments contribute no elements in between) and
filling empty rows with the reduction's identity value.  ``gather_sum``
uses the same non-empty starts as its row pointer.

The two kernels sum differently: ``reduceat`` adds a segment as
``a[0] + np.add.reduce(a[1:])`` (pairwise), the mat-vec strictly left
to right, so the same terms can differ in the last bits.  Every engine
path of an additive program that reads no edge weight takes
``gather_sum``, so its values are the same on every path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

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


def _load_csr_matvec():
    """scipy's compiled ``csr_matvec``, from its extension module alone.

    ``import scipy.sparse`` would cost every process about 22 MB and
    0.27 s for this one function; loading ``_sparsetools`` by path
    costs under 1 MB.  There is no fallback: a host without it would
    sum additive programs differently, so it refuses to import.
    """
    name = "scipy.sparse._sparsetools"
    spec = importlib.util.find_spec("scipy")  # locates; imports nothing
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.exists(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                loader.exec_module(module)
                return module.csr_matvec
    raise ImportError(
        "repro needs scipy (>= 1.10): its compiled scipy.sparse._sparsetools "
        "extension sums the additive programs' gathers"
    )


_csr_matvec = _load_csr_matvec()

#: Edges per ``csr_matvec`` call in :func:`gather_sum`, and the length
#: of the one read-only plane of ones every call reads as its matrix
#: entries (512 KB, allocated on first use).
CHUNK_EDGES = 1 << 16
_ones: np.ndarray | None = None


def _ones_plane(size: int) -> np.ndarray:
    global _ones
    ones = _ones
    if ones is None or ones.size < size:
        ones = np.ones(size)
        ones.flags.writeable = False
        _ones = ones
    return ones


class SegmentPlan:
    """Everything :func:`segment_reduce` derives from a row pointer
    alone: the validity check, the non-empty-row mask and the
    ``reduceat`` start offsets.

    A row pointer that is reduced over repeatedly (a decoded tile's,
    once per superstep) builds its plan once — when
    :meth:`repro.partition.tiles.TileSlab.slot` fills the tile's slot —
    and the per-call work drops to a length check, one ``reduceat`` (or
    :func:`gather_sum`'s mat-vec) and one masked store.  The mat-vec's
    cut into calls is derived on first use and kept with it
    (:meth:`chunks`).
    """

    __slots__ = ("n_rows", "n_values", "nonempty", "starts", "_chunks")

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
        self._chunks = None

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
        plan._chunks = None
        return plan

    def chunks(self, size: int) -> list:
        """The values cut into calls of at most ``size``, as
        ``(lo, hi, r0, r1, indptr)``: values ``lo..hi-1`` fall in
        non-empty rows ``r0..r1-1``, and ``indptr`` is those rows'
        pointer into the call's values — the first row may have started
        in the previous call, the last may go on in the next.  Derived
        once per size and kept."""
        cached = self._chunks
        if cached is not None and cached[0] == size:
            return cached[1]
        starts = self.starts
        los = np.arange(0, self.n_values, size, dtype=np.int64)
        his = np.minimum(los + size, self.n_values)
        r0s = starts.searchsorted(los, "right") - 1
        r1s = starts.searchsorted(his, "left")
        out = []
        bounds = zip(los.tolist(), his.tolist(), r0s.tolist(), r1s.tolist())
        for lo, hi, r0, r1 in bounds:
            indptr = np.empty(r1 - r0 + 1, dtype=np.int64)
            indptr[0] = 0
            np.subtract(starts[r0 + 1 : r1], lo, out=indptr[1:-1])
            indptr[-1] = hi - lo
            out.append((lo, hi, r0, r1, indptr))
        self._chunks = (size, out)
        return out


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


def gather_sum(
    plane: np.ndarray, index: np.ndarray, top: int, plan: SegmentPlan
) -> np.ndarray:
    """``segment_reduce(plane[index], plan, "add")`` without the
    per-edge temporary, each row summed left to right.

    The rows are a CSR matrix with ``index`` as its column indices and
    ones as its entries, so the sums are one ``csr_matvec`` against
    ``plane``, in calls of at most :data:`CHUNK_EDGES` edges, cut once
    per plan (:meth:`SegmentPlan.chunks`).  A call
    adds its edges onto each of its rows' accumulators in order, so a
    row that straddles two calls is still summed left to right.  The
    accumulators start at ``-0.0``, which adds to any term exactly, so
    a row's sum is its first term plus the rest, in order.

    ``top`` is the largest element of ``index``, recorded when the
    indices were laid out: ``csr_matvec`` does not check its reads, so
    the bounds check is this one comparison.  Empty rows are 0.0.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size != plan.n_values:
        raise ValueError(f"index length {index.size} != indptr[-1] {plan.n_values}")
    out = np.zeros(plan.n_rows)
    starts = plan.starts
    if not starts.size:
        return out
    plane = np.asarray(plane, dtype=np.float64)
    if top >= plane.size:
        raise IndexError(f"index {top} is out of bounds for a plane of {plane.size}")
    acc = np.full(starts.size, -0.0)
    ones = _ones_plane(CHUNK_EDGES)
    for lo, hi, r0, r1, indptr in plan.chunks(CHUNK_EDGES):
        _csr_matvec(r1 - r0, plane.size, indptr, index[lo:hi], ones, plane, acc[r0:r1])
    out[plan.nonempty] = acc
    return out


def gather_fold(
    plane: np.ndarray, index: np.ndarray, plan: SegmentPlan, op: str
) -> np.ndarray:
    """``segment_reduce(plane[index], plan, op)`` for ``"min"`` or
    ``"max"``, in :meth:`SegmentPlan.chunks` calls, so the per-edge
    temporary is a call's, not the run's.  A row that straddles calls
    is folded from each; min and max are exact in any order."""
    index = np.asarray(index, dtype=np.int64)
    if index.size != plan.n_values:
        raise ValueError(f"index length {index.size} != indptr[-1] {plan.n_values}")
    ufunc, identity = OPS[op], IDENTITY[op]
    acc = np.full(plan.starts.size, identity)
    for lo, hi, r0, r1, indptr in plan.chunks(CHUNK_EDGES):
        part = ufunc.reduceat(np.take(plane, index[lo:hi]), indptr[:-1])
        ufunc(acc[r0:r1], part, out=acc[r0:r1])
    out = np.full(plan.n_rows, identity)
    out[plan.nonempty] = acc
    return out


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

