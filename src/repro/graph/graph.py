"""Compact directed-graph representation.

Follows the paper's notation (§II-A): a directed graph ``G = (V, E)``
where each vertex has an id in ``[0, |V|)``, an in-adjacency list
``Γin(v)``, an out-adjacency list ``Γout(v)``, and optional edge values
(``val(u, v) = 1`` for unweighted graphs).

Internally the edge set is stored once as parallel ``(src, dst, weight)``
arrays; CSR (grouped by source) and CSC (grouped by target) index
structures are built lazily and cached, because different engines want
different orientations: Pregel-style engines scan out-edges, GraphH's GAB
tiles group in-edges by target.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class Graph:
    """An immutable directed multigraph over integer vertex ids.

    Parameters
    ----------
    num_vertices:
        ``|V|``; vertex ids are ``0 .. num_vertices - 1``.
    src, dst:
        Edge endpoint arrays of equal length (``int64``).
    weights:
        Optional ``float64`` edge values; ``None`` means the unweighted
        convention ``val(u, v) = 1`` and lets downstream tile storage
        drop the value array entirely (paper §III-B.2).
    name:
        Label used in reports.
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        name: str = "graph",
    ) -> None:
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= num_vertices:
                raise ValueError(
                    f"edge endpoints [{lo}, {hi}] outside [0, {num_vertices})"
                )
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise ValueError("weights must match the edge arrays")
        self.num_vertices = int(num_vertices)
        self.src = src
        self.dst = dst
        self.weights = weights
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return int(self.src.size)

    @property
    def is_weighted(self) -> bool:
        """Whether explicit edge values are stored."""
        return self.weights is not None

    @property
    def avg_degree(self) -> float:
        """``|E| / |V|`` (0 for an empty vertex set)."""
        return self.num_edges / self.num_vertices if self.num_vertices else 0.0

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """``dout(v)`` for every vertex."""
        return np.bincount(self.src, minlength=self.num_vertices).astype(np.int64)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """``din(v)`` for every vertex."""
        return np.bincount(self.dst, minlength=self.num_vertices).astype(np.int64)

    def edge_weights(self) -> np.ndarray:
        """Edge value array, materialising the all-ones default."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.num_edges, dtype=np.float64)

    # ------------------------------------------------------------------
    # CSR / CSC views
    # ------------------------------------------------------------------
    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges sorted by source: (indptr, order, dst_sorted)."""
        order = np.argsort(self.src, kind="stable")
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(self.out_degrees, out=indptr[1:])
        return indptr, order, self.dst[order]

    @cached_property
    def _csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges sorted by target: (indptr, order, src_sorted)."""
        order = np.argsort(self.dst, kind="stable")
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(self.in_degrees, out=indptr[1:])
        return indptr, order, self.src[order]

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, dst, weight) with edges grouped by source vertex."""
        indptr, order, dst_sorted = self._csr
        return indptr, dst_sorted, self.edge_weights()[order]

    def csc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, src, weight) with edges grouped by target vertex."""
        indptr, order, src_sorted = self._csc
        return indptr, src_sorted, self.edge_weights()[order]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: "np.ndarray | list[tuple[int, int]]",
        num_vertices: int | None = None,
        weights: np.ndarray | None = None,
        name: str = "graph",
    ) -> "Graph":
        """Build from an ``(m, 2)`` edge array or list of pairs."""
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
        if num_vertices is None:
            num_vertices = int(arr.max()) + 1 if arr.size else 0
        return cls(num_vertices, arr[:, 0], arr[:, 1], weights, name=name)

    def reversed(self) -> "Graph":
        """The transpose graph (all edges flipped)."""
        return Graph(
            self.num_vertices,
            self.dst,
            self.src,
            self.weights,
            name=f"{self.name}-rev",
        )

    def without_duplicate_edges(self) -> "Graph":
        """Copy with duplicate ``(src, dst)`` pairs removed (first wins)."""
        keys = self.src * np.int64(self.num_vertices) + self.dst
        _, first = np.unique(keys, return_index=True)
        first.sort()
        weights = self.weights[first] if self.weights is not None else None
        return Graph(
            self.num_vertices, self.src[first], self.dst[first], weights, self.name
        )

    def to_undirected_edges(self) -> "Graph":
        """Copy with every edge mirrored (used for symmetric workloads)."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        weights = (
            np.concatenate([self.weights, self.weights])
            if self.weights is not None
            else None
        )
        return Graph(self.num_vertices, src, dst, weights, name=f"{self.name}-sym")

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"Graph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, {kind})"
        )
