"""Append-only edge mutation log for evolving graphs.

GraphH freezes a graph at preprocessing time; every tile is immutable
after the SPE pass.  The delta subsystem relaxes that: callers append
edge *insert*/*delete* mutations to a :class:`MutationLog`, the engine
compacts pending mutations into per-tile overlays
(:mod:`repro.delta.deltatiles`), and incremental programs restart from
the previous fixed point (:mod:`repro.delta.incremental`).

The log is the system of record:

* **Stable monotonic ids** — every mutation gets ``mut_id = last + 1``;
  consumers (per-program fixed-point watermarks, the engine's applied
  watermark, service persistence) address positions in the log by id,
  so replaying a persisted log after a restart reproduces the exact
  same sequence.
* **JSON round-tripping** — :meth:`to_json` / :meth:`from_json` feed
  the socket protocol, :meth:`save` / :meth:`load` the service's
  snapshot file, and :meth:`replay` appends the batches its journal
  recorded since.
* **Seeded-RNG-friendly batches** — :func:`random_mutations` derives a
  deterministic batch from a :class:`~repro.graph.graph.Graph` and a
  seed, so benchmarks and tests generate identical evolving workloads
  on every host.

Deletion semantics: one mutation deletes exactly **one** instance of
``(src, dst)``; deleting an edge that is not present in the current
graph (base tiles + pending overlay) is an error at compaction time.
This keeps degree bookkeeping exact (±1 per mutation) and makes every
batch deterministic to validate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.utils.journal import write_json_rows

__all__ = [
    "Mutation",
    "MutationLog",
    "random_mutations",
    "mirrored",
    "MUTLOG_SCHEMA",
]

MUTLOG_SCHEMA = "repro-mutation-log/v1"

OP_INSERT = "insert"
OP_DELETE = "delete"


@dataclass(frozen=True)
class Mutation:
    """One edge insert or delete, with its stable log position."""

    mut_id: int
    op: str  # "insert" | "delete"
    src: int
    dst: int
    weight: float | None = None

    def to_dict(self) -> dict:
        d = {"mut_id": self.mut_id, "op": self.op, "src": self.src, "dst": self.dst}
        if self.weight is not None:
            d["weight"] = self.weight
        return d

    @classmethod
    def from_dict(cls, d: dict, mut_id: int | None = None) -> "Mutation":
        weight = d.get("weight")
        return cls(
            mut_id=int(d["mut_id"] if mut_id is None else mut_id),
            op=str(d["op"]),
            src=int(d["src"]),
            dst=int(d["dst"]),
            weight=None if weight is None else float(weight),
        )


class MutationLog:
    """Append-only, monotonically-id'd edge mutation log.

    ``num_vertices`` (when given) bounds endpoint validation at append
    time — mutations cannot grow the vertex space; the manifest fixes
    ``|V|`` at preprocessing time.
    """

    def __init__(self, num_vertices: int | None = None) -> None:
        self.num_vertices = None if num_vertices is None else int(num_vertices)
        self._mutations: list[Mutation] = []

    # -- append --------------------------------------------------------
    def _check_endpoint(self, v: int, what: str) -> int:
        v = int(v)
        if v < 0:
            raise ValueError(f"{what} must be >= 0, got {v}")
        if self.num_vertices is not None and v >= self.num_vertices:
            raise ValueError(
                f"{what} {v} outside [0, {self.num_vertices}) — mutations "
                "cannot add vertices"
            )
        return v

    def _append(self, op: str, src: int, dst: int, weight) -> Mutation:
        mut = Mutation(
            mut_id=self.last_id + 1,
            op=op,
            src=self._check_endpoint(src, "src"),
            dst=self._check_endpoint(dst, "dst"),
            weight=None if weight is None else float(weight),
        )
        self._mutations.append(mut)
        return mut

    def insert(self, src: int, dst: int, weight: float | None = None) -> Mutation:
        """Append an edge insertion."""
        return self._append(OP_INSERT, src, dst, weight)

    def delete(self, src: int, dst: int) -> Mutation:
        """Append the deletion of one ``(src, dst)`` edge instance."""
        return self._append(OP_DELETE, src, dst, None)

    def extend(self, ops) -> list[Mutation]:
        """Append a batch of ``{"op", "src", "dst"[, "weight"]}`` dicts."""
        out = []
        for raw in ops:
            op = raw.get("op", OP_INSERT)
            if op == OP_INSERT:
                out.append(self.insert(raw["src"], raw["dst"], raw.get("weight")))
            elif op == OP_DELETE:
                out.append(self.delete(raw["src"], raw["dst"]))
            else:
                raise ValueError(f"unknown mutation op {op!r}")
        return out

    # -- read ----------------------------------------------------------
    @property
    def mutations(self) -> tuple[Mutation, ...]:
        return tuple(self._mutations)

    @property
    def last_id(self) -> int:
        """Id of the newest mutation (0 when the log is empty)."""
        return self._mutations[-1].mut_id if self._mutations else 0

    def __len__(self) -> int:
        return len(self._mutations)

    def since(self, watermark: int, upto: int | None = None) -> list[Mutation]:
        """Mutations with ``watermark < mut_id <= upto`` (``upto=None``:
        to the end), in log order."""
        # Ids are dense and 1-based, so the slice is a direct index.
        start = max(0, int(watermark))
        return self._mutations[start:upto]

    def replay(self, rows) -> None:
        """Append persisted mutation rows (``to_dict`` form, ids
        included) — a journal's batches over a snapshot.  Rows at or
        below :attr:`last_id` are already here and skipped, so a
        replayed duplicate is a no-op; the rest must continue the ids
        densely."""
        for row in rows:
            mut = Mutation.from_dict(row)
            if mut.mut_id <= self.last_id:
                continue
            if mut.mut_id != self.last_id + 1:
                raise ValueError(
                    f"mutation ids must be dense and 1-based: expected "
                    f"{self.last_id + 1}, got {mut.mut_id}"
                )
            self._mutations.append(mut)

    # -- serialisation -------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": MUTLOG_SCHEMA,
            "num_vertices": self.num_vertices,
            "mutations": [m.to_dict() for m in self._mutations],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MutationLog":
        if payload.get("schema") != MUTLOG_SCHEMA:
            raise ValueError(
                f"not a mutation log (schema={payload.get('schema')!r})"
            )
        log = cls(num_vertices=payload.get("num_vertices"))
        log.replay(payload.get("mutations", []))
        return log

    def save(self, path: str, upto: int | None = None) -> int:
        """Atomically persist the log (through ``mut_id`` ``upto``; all
        of it by default) as :meth:`to_json`'s one-line JSON, a row at a
        time; returns the bytes written."""
        return write_json_rows(
            path,
            "mutations",
            (m.to_dict() for m in self._mutations[:upto]),
            num_vertices=self.num_vertices,
            schema=MUTLOG_SCHEMA,
        )

    @classmethod
    def load(cls, path: str) -> "MutationLog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self) -> str:
        return (
            f"MutationLog(n={len(self._mutations)}, last_id={self.last_id})"
        )


def mirrored(ops) -> list[dict]:
    """Expand a batch with the reverse of every edge — the form a
    symmetrised (``-sym``) dataset needs so WCC sees both directions."""
    out: list[dict] = []
    for raw in ops:
        out.append(dict(raw))
        rev = dict(raw)
        rev["src"], rev["dst"] = raw["dst"], raw["src"]
        out.append(rev)
    return out


def random_mutations(
    graph,
    num_inserts: int,
    num_deletes: int,
    seed: int,
    weighted: bool | None = None,
) -> list[dict]:
    """A deterministic mutation batch over ``graph``.

    Inserts sample uniform ``(src, dst)`` pairs (self-loops excluded);
    deletes sample *distinct existing edge instances*, so a batch never
    tries to delete an edge twice and the one-instance deletion
    contract always validates.  The same ``(graph, counts, seed)``
    yields the same batch on every host.
    """
    rng = np.random.default_rng(seed)
    if weighted is None:
        weighted = bool(graph.is_weighted)
    ops: list[dict] = []
    n = graph.num_vertices
    if num_deletes:
        if num_deletes > graph.num_edges:
            raise ValueError(
                f"cannot delete {num_deletes} of {graph.num_edges} edges"
            )
        picks = rng.choice(graph.num_edges, size=num_deletes, replace=False)
        for idx in np.sort(picks):
            ops.append(
                {
                    "op": OP_DELETE,
                    "src": int(graph.src[idx]),
                    "dst": int(graph.dst[idx]),
                }
            )
    for _ in range(num_inserts):
        src = int(rng.integers(0, n))
        dst = int(rng.integers(0, n))
        if dst == src:
            dst = (dst + 1) % n
        row = {"op": OP_INSERT, "src": src, "dst": dst}
        if weighted:
            row["weight"] = float(np.round(0.5 + rng.random(), 6))
        ops.append(row)
    return ops
