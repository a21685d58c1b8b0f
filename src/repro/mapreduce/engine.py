"""Partitioned datasets with lazy narrow ops and hash shuffles.

Design notes
------------
* A :class:`Dataset` is a list of partitions; narrow operators (map,
  filter, flat_map, map_partitions) are recorded lazily and fused into a
  single pass per partition, Spark-style.  Wide operators
  (``reduce_by_key`` / ``group_by_key`` / ``repartition``) force
  evaluation and run a hash shuffle.
* Partitions hold arbitrary Python objects.  SPE's hot paths use
  ``map_partitions`` with numpy arrays inside, so the per-record Python
  cost only appears in the small, cold operators.
* Every shuffle is metered (records and approximate bytes moved) in
  :class:`ShuffleStats` — the hook the pre-processing cost analysis uses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class ShuffleStats:
    """Cluster-wide shuffle accounting."""

    shuffles: int = 0
    records_moved: int = 0
    approx_bytes_moved: int = 0

    def record(self, records: int, nbytes: int) -> None:
        """Meter one shuffle stage."""
        self.shuffles += 1
        self.records_moved += records
        self.approx_bytes_moved += nbytes


def _approx_nbytes(obj: Any) -> int:
    """Cheap per-record size estimate for shuffle metering.

    Arrays are tested first and a tuple's arrays are read in place: the
    records of SPE's shuffles are (key, tuple of numpy chunks).
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        total = 0
        for x in obj:
            total += x.nbytes if isinstance(x, np.ndarray) else _approx_nbytes(x)
        return total
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    return 32


class MiniCluster:
    """Execution context: partition count and shuffle meters."""

    def __init__(self, num_partitions: int = 4) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = int(num_partitions)
        self.shuffle_stats = ShuffleStats()

    def parallelize(
        self, items: Iterable[Any], num_partitions: int | None = None
    ) -> "Dataset":
        """Distribute a sequence across partitions (round-robin chunks)."""
        items = list(items)
        parts = num_partitions or self.num_partitions
        partitions: list[list[Any]] = [[] for _ in range(parts)]
        if items:
            bounds = np.linspace(0, len(items), parts + 1).astype(int)
            for i in range(parts):
                partitions[i] = items[bounds[i] : bounds[i + 1]]
        return Dataset(self, partitions)



@dataclass
class Dataset:
    """A lazily transformed, partitioned collection."""

    cluster: MiniCluster
    _partitions: list[list[Any]]
    _pending: list[Callable[[list[Any]], list[Any]]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Narrow (lazy, fused) operators
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "Dataset":
        """Per-record transform."""
        return self._narrow(lambda part: [fn(x) for x in part])

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "Dataset":
        """Per-record transform yielding zero or more records."""
        return self._narrow(lambda part: [y for x in part for y in fn(x)])

    def filter(self, pred: Callable[[Any], bool]) -> "Dataset":
        """Keep records satisfying the predicate."""
        return self._narrow(lambda part: [x for x in part if pred(x)])

    def map_partitions(self, fn: Callable[[list[Any]], list[Any]]) -> "Dataset":
        """Whole-partition transform — the vectorised hot path."""
        return self._narrow(fn)

    def _narrow(self, fn: Callable[[list[Any]], list[Any]]) -> "Dataset":
        return Dataset(self.cluster, self._partitions, self._pending + [fn])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluated(self) -> list[list[Any]]:
        if not self._pending:
            return self._partitions
        out = []
        for part in self._partitions:
            for fn in self._pending:
                part = fn(part)
            out.append(part)
        return out

    def collect(self) -> list[Any]:
        """Materialise every record on the driver."""
        return [x for part in self._evaluated() for x in part]

    def count(self) -> int:
        """Number of records."""
        return sum(len(p) for p in self._evaluated())

    def num_partitions(self) -> int:
        """Current partition count."""
        return len(self._partitions)

    # ------------------------------------------------------------------
    # Wide (shuffling) operators — records must be (key, value) pairs
    # ------------------------------------------------------------------
    def _shuffle_by_key(
        self, parts: int | None = None
    ) -> list[dict[Any, list[Any]]]:
        parts = parts or self.cluster.num_partitions
        buckets: list[dict[Any, list[Any]]] = [dict() for _ in range(parts)]
        moved = 0
        nbytes = 0
        for part in self._evaluated():
            for record in part:
                try:
                    key, value = record
                except (TypeError, ValueError):
                    raise TypeError(
                        "shuffle operators need (key, value) records, got "
                        f"{record!r}"
                    ) from None
                dest = hash(key) % parts
                buckets[dest].setdefault(key, []).append(value)
                moved += 1
                nbytes += _approx_nbytes(record)
        self.cluster.shuffle_stats.record(moved, nbytes)
        return buckets

    def reduce_by_key(self, fn: Callable[[Any, Any], Any]) -> "Dataset":
        """Combine values per key with an associative function."""
        buckets = self._shuffle_by_key()
        out: list[list[Any]] = []
        for bucket in buckets:
            part = []
            for key, values in bucket.items():
                acc = values[0]
                for v in values[1:]:
                    acc = fn(acc, v)
                part.append((key, acc))
            out.append(part)
        return Dataset(self.cluster, out)

    def group_by_key(self) -> "Dataset":
        """Gather all values per key into a list."""
        buckets = self._shuffle_by_key()
        return Dataset(
            self.cluster,
            [[(k, vs) for k, vs in bucket.items()] for bucket in buckets],
        )

    def repartition(self, parts: int) -> "Dataset":
        """Rebalance records across ``parts`` partitions."""
        if parts < 1:
            raise ValueError("parts must be >= 1")
        records = self.collect()
        moved = len(records)
        self.cluster.shuffle_stats.record(
            moved, sum(_approx_nbytes(r) for r in records)
        )
        partitions: list[list[Any]] = [[] for _ in range(parts)]
        if records:
            bounds = np.linspace(0, len(records), parts + 1).astype(int)
            for i in range(parts):
                partitions[i] = records[bounds[i] : bounds[i + 1]]
        return Dataset(self.cluster, partitions)

    def union(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets (no shuffle; partitions appended)."""
        if other.cluster is not self.cluster:
            raise ValueError("datasets belong to different clusters")
        return Dataset(self.cluster, self._evaluated() + other._evaluated())

    def distinct(self) -> "Dataset":
        """Deduplicate records (hash shuffle so equal records collide)."""
        keyed = self.map(lambda x: (x, None))
        buckets = keyed._shuffle_by_key()
        return Dataset(
            self.cluster, [[k for k in bucket] for bucket in buckets]
        )

    # ------------------------------------------------------------------
    # Terminal reductions
    # ------------------------------------------------------------------
    def reduce(self, fn: Callable[[Any, Any], Any], initial: Any = None) -> Any:
        """Fold every record into one value on the driver."""
        acc = initial
        for part in self._evaluated():
            for x in part:
                acc = x if acc is None else fn(acc, x)
        return acc

    def sum(self) -> Any:
        """Sum of records (0 when empty)."""
        return self.reduce(lambda a, b: a + b, initial=0)
