"""Superstep checkpointing for the MPE.

The paper's engine restarts failed jobs from scratch; long-running
programs on big graphs make that expensive, so the reproduction adds
the natural BSP checkpoint extension: after the barrier of every k-th
superstep the engine snapshots the (globally consistent) vertex values
and the previous-superstep update set into the DFS, and a fresh MPE can
resume from the newest snapshot instead of superstep 0.

A checkpoint is a single DFS blob::

    [8B superstep][8B |V|][8B n_updated]
    [float64 values[|V|]][int64 updated_ids[n_updated]]

Snapshots are written once per checkpointed superstep (the value state
is replicated, so any server's copy is authoritative after the barrier)
and the write is metered as DFS traffic on server 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.dfs import DistributedFileSystem

_HEADER = struct.Struct("<qqq")


@dataclass(frozen=True)
class Checkpoint:
    """One recovered snapshot."""

    superstep: int
    values: np.ndarray
    prev_updated: np.ndarray


def pack_snapshot(
    superstep: int, values: np.ndarray, prev_updated: np.ndarray
) -> bytes:
    """Serialise a value snapshot into the checkpoint wire format.

    Shared by DFS checkpoints and the service layer's persisted job
    results (``repro.service``), so both read back with
    :func:`unpack_snapshot`.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    updated = np.ascontiguousarray(prev_updated, dtype=np.int64)
    return (
        _HEADER.pack(superstep, values.size, updated.size)
        + values.tobytes()
        + updated.tobytes()
    )


def unpack_snapshot(blob: bytes) -> Checkpoint:
    """Parse one checkpoint-format blob (inverse of :func:`pack_snapshot`)."""
    if len(blob) < _HEADER.size:
        raise ValueError("truncated checkpoint")
    superstep, num_values, num_updated = _HEADER.unpack_from(blob)
    offset = _HEADER.size
    values = np.frombuffer(blob, dtype=np.float64, count=num_values, offset=offset)
    offset += num_values * 8
    updated = np.frombuffer(blob, dtype=np.int64, count=num_updated, offset=offset)
    if offset + num_updated * 8 != len(blob):
        raise ValueError("checkpoint size mismatch")
    return Checkpoint(
        superstep=superstep, values=values.copy(), prev_updated=updated.copy()
    )


def _prefix(dataset: str, program: str | None = None) -> str:
    """What every snapshot path of a dataset — or of one of its
    programs — starts with: the one place the layout is written."""
    return f"{dataset}/ckpt-" + ("" if program is None else f"{program}-")


def checkpoint_path(dataset: str, program: str, superstep: int) -> str:
    """DFS path for a snapshot."""
    return f"{_prefix(dataset, program)}{superstep:08d}"


def write_checkpoint(
    dfs: DistributedFileSystem,
    dataset: str,
    program: str,
    superstep: int,
    values: np.ndarray,
    prev_updated: np.ndarray,
) -> str:
    """Persist a snapshot; returns its DFS path."""
    blob = pack_snapshot(superstep, values, prev_updated)
    path = checkpoint_path(dataset, program, superstep)
    dfs.write(path, blob)
    return path


def load_checkpoint(dfs: DistributedFileSystem, path: str) -> Checkpoint:
    """Read one snapshot back."""
    return unpack_snapshot(dfs.read(path))


def latest_checkpoint(
    dfs: DistributedFileSystem, dataset: str, program: str
) -> Checkpoint | None:
    """Newest snapshot for a (dataset, program) pair, if any."""
    paths = dfs.list_files(_prefix(dataset, program))
    if not paths:
        return None
    return load_checkpoint(dfs, paths[-1])


def clear_checkpoints(
    dfs: DistributedFileSystem, dataset: str, program: str | None = None
) -> int:
    """Delete all snapshots for a (dataset, program) pair — with
    ``program=None``, every program's snapshots of the dataset."""
    paths = dfs.list_files(_prefix(dataset, program))
    for path in paths:
        dfs.delete(path)
    return len(paths)


class Checkpointer:
    """One run's checkpoint participant (DESIGN.md §5o): restores the
    newest snapshot at run start when the run resumes, writes one after
    every ``checkpoint_every``-th superstep's barrier.  Built per run,
    and only for a run that does either."""

    def __init__(self, mpe, resume: bool) -> None:
        self.mpe = mpe
        self.resume = resume

    def begin_run(self, prep, graph) -> None:
        if not self.resume:
            return
        mpe = self.mpe
        dfs, dataset = mpe.cluster.dfs, mpe.manifest.name
        snapshot = latest_checkpoint(dfs, dataset, prep.program.name)
        if snapshot is None:
            return
        if snapshot.values.size != mpe.manifest.num_vertices:
            raise ValueError("checkpoint does not match this dataset")
        # A resumed run is past superstep 0, so an incremental run's
        # seed tiles (repro.delta ran first) never fire.
        prep.init_values = snapshot.values.copy()
        prep.start_superstep = snapshot.superstep + 1
        prep.prev_updated = snapshot.prev_updated
        # Restoring is DFS traffic: under AA every replica pulls the
        # snapshot down (recovery I/O, not algorithm I/O).
        nbytes = dfs.size(
            checkpoint_path(dataset, prep.program.name, snapshot.superstep)
        )
        for server in mpe.cluster.servers:
            server.counters.recovery_read += nbytes

    def begin_superstep(self, prep, superstep: int) -> None:
        pass

    def end_superstep(self, prep, done) -> None:
        mpe, superstep = self.mpe, done.report.superstep
        every = mpe.config.checkpoint_every
        if (
            every is None
            or done.report.updated_vertices == 0
            or (superstep + 1) % every
        ):
            return
        with mpe._lane("engine").span("checkpoint", "io", superstep=superstep):
            write_checkpoint(
                mpe.cluster.dfs,
                mpe.manifest.name,
                prep.program.name,
                superstep,
                mpe.collect_values(prep.init_values),
                done.updated,
            )

    def end_run(self, prep, result) -> None:
        pass
