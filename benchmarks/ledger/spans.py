"""Benchmark-side spans taken from outside the engine.

The ledger wraps the engine's *public* entry points by attribute
replacement — nothing under ``src/`` knows it is being timed.  Each
wrapped call records one span (name, start, end, parent); spans stay in
memory until the workload ends.  A span's *self* time is its duration
minus its children's, so the rows under one root span (``mpe.run``) sum
to that span's wall exactly, and whatever a named layer does not
explain stays visible as the root's own self time.

Layers are named after the module that owns the entry point
(``codecs.compress`` is ``repro.storage.codecs``' ``Codec.compress``).
Module-level functions are imported by name all over ``repro``
(``from repro.utils.segments import segment_reduce``), so replacing one
means replacing *every* ``repro.*`` module attribute that is the
original object.

Only the thread that created the recorder records: the prefetch
pipeline's I/O threads call straight through.  Forked workers would
record into their own copy of the table, unreachable from here (reading
them is a later issue), so the process-executor run installs only its
parent-side patches (``Patches(only=...)``).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

import numpy as np


class SpanRecorder:
    """An append-only span table plus the stack of open spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 at a root
        self.work: list[int] = []  # layer-defined work units (e.g. edges)
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int, work: int = 0) -> None:
        now = self.clock()
        # An exception may unwind past spans opened by hand; close
        # everything above ``idx`` at the same instant so no span is
        # left open and every parent still covers its children.
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == idx:
                break
        self.work[idx] = work

    def span(self, name: str) -> "_Span":
        """Context manager for spans the benchmark opens itself."""
        return _Span(self, name)

    def wrap(self, name: str, fn, work=None):
        """``fn`` recorded as a ``name`` span on every call.

        ``work(args)`` may return the call's work units (``args``
        includes ``self`` for methods).
        """
        thread = self._thread
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx, work(args) if work is not None else 0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- the table -----------------------------------------------------
    def table(self) -> dict:
        """Columnar, JSON-serialisable span table (names interned)."""
        uniq = sorted(set(self.names))
        index = {n: i for i, n in enumerate(uniq)}
        return {
            "names": uniq,
            "name": [index[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "work": self.work,
        }


class _Span:
    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec, self.name, self.idx = rec, name, -1

    def __enter__(self) -> "_Span":
        self.idx = self.rec.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.end(self.idx)

    @property
    def wall_s(self) -> float:
        return self.rec.ends[self.idx] - self.rec.starts[self.idx]


class SpanTable:
    """Self-time arithmetic over a (stored or live) span table."""

    def __init__(self, table: dict) -> None:
        self.names: list[str] = table["names"]
        self.name = np.asarray(table["name"], dtype=np.int64)
        self.start = np.asarray(table["start"], dtype=np.float64)
        self.end = np.asarray(table["end"], dtype=np.float64)
        self.parent = np.asarray(table["parent"], dtype=np.int64)
        self.work = np.asarray(table["work"], dtype=np.int64)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=self.name.size,
        )
        self.self_s = self.dur - covered

    def ids(self, name: str) -> np.ndarray:
        """Indices of the spans called ``name`` (empty if never seen)."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def under(self, root_ids) -> np.ndarray:
        """Mask of the spans inside any of ``root_ids`` (roots included).

        Parents are always opened before their children, so one forward
        pass resolves every ancestor chain.
        """
        mask = [False] * self.name.size
        for i in np.asarray(root_ids).tolist():
            mask[i] = True
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and mask[p]:
                mask[i] = True
        return np.asarray(mask, dtype=bool)

    def layers(self, mask=None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, work units."""
        sel = np.ones(self.name.size, dtype=bool) if mask is None else mask
        n = len(self.names)
        calls = np.bincount(self.name[sel], minlength=n)
        total = np.bincount(self.name[sel], weights=self.dur[sel], minlength=n)
        self_s = np.bincount(self.name[sel], weights=self.self_s[sel], minlength=n)
        work = np.bincount(self.name[sel], weights=self.work[sel], minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "work": int(work[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }


# ----------------------------------------------------------------------
# What gets wrapped.  (span name, "module:Class" or "module", attribute,
# also patch every subclass that overrides it?, work extractor)
# ----------------------------------------------------------------------
def _edges(args) -> int:
    # edge_message(self, src_values, out_degrees, weights): one
    # contribution per gathered edge.
    return int(args[1].size)


_STORES = ("repro.core.vertexstore:AllInAllStore", "repro.core.vertexstore:OnDemandStore")

PATCHES: tuple[tuple, ...] = (
    ("spe.preprocess", "repro.core.spe:SPE", "preprocess", False, None),
    ("dfs.read", "repro.dfs.filesystem:DistributedFileSystem", "read", False, None),
    ("dfs.write", "repro.dfs.filesystem:DistributedFileSystem", "write", False, None),
    ("mpe.setup", "repro.core.mpe:MPE", "setup", False, None),
    ("mpe.run", "repro.core.mpe:MPE", "run", False, None),
    ("mpe.apply_mutations", "repro.core.mpe:MPE", "apply_mutations", False, None),
    ("server.load_tile", "repro.cluster.server:Server", "load_tile", False, None),
    ("cache.get", "repro.storage.cache:EdgeCache", "get", False, None),
    ("cache.put", "repro.storage.cache:EdgeCache", "put", False, None),
    ("cache.touch", "repro.storage.cache:EdgeCache", "touch", False, None),
    ("cache.load", "repro.storage.cache:EdgeCache", "load", False, None),
    ("codecs.compress", "repro.storage.codecs:Codec", "compress", True, None),
    ("codecs.decompress", "repro.storage.codecs:Codec", "decompress", True, None),
    ("disk.read", "repro.storage.disk:LocalDisk", "read", True, None),
    ("tiles.parse", "repro.partition.tiles:Tile", "from_bytes", False, None),
    ("bloom.build", "repro.partition.tiles:Tile", "build_bloom_filter", False, None),
    ("active.summary_build", "repro.runtime.active:TileSourceSummary", "from_tile", False, None),
    ("active.probe", "repro.runtime.active:TileSourceSummary", "intersects", False, None),
    ("active.seed", "repro.runtime.active:ActiveBitmap", "seed_from_ids", False, None),
    ("bloom.hash", "repro.utils.bloom", "hash_keys", False, None),
    ("bloom.probe", "repro.utils.bloom:BloomFilter", "might_intersect", False, None),
    *(("vertexstore.gather", s, "gather_values", True, None) for s in _STORES),
    *(("vertexstore.gather", s, "gather_out_degrees", True, None) for s in _STORES),
    *(("vertexstore.write", s, "write", True, None) for s in _STORES),
    ("apps.edge_message", "repro.apps.base:VertexProgram", "edge_message", True, _edges),
    ("apps.apply", "repro.apps.base:VertexProgram", "apply", True, None),
    ("segments.reduce", "repro.utils.segments", "segment_reduce", False, None),
    ("segments.merge", "repro.utils.segments", "merge_sorted_unique", False, None),
    ("messages.encode", "repro.comm.messages", "encode_update", False, None),
    ("messages.decode", "repro.comm.messages", "decode_update", False, None),
    ("channel.send", "repro.comm.channel:Channel", "send", False, None),
    ("cost.account", "repro.metrics.cost:CostModel", "server_time", False, None),
    ("cost.account", "repro.metrics.cost:CostModel", "superstep_time", False, None),
    ("cost.account", "repro.metrics.cost:CostModel", "straggler_index", False, None),
    ("service.register", "repro.service.engine:Engine", "register_graph", False, None),
    ("service.submit", "repro.service.engine:Engine", "submit", False, None),
    ("service.mutate", "repro.service.engine:Engine", "mutate", False, None),
    ("delta.compact", "repro.delta.deltatiles:DeltaStore", "compact", False, None),
    ("delta.compose", "repro.delta.deltatiles:TileOverlay", "compose", False, None),
    ("process.start", "repro.runtime.process:ProcessExecutor", "start", False, None),
    ("process.phase", "repro.runtime.process:ProcessExecutor", "run_phase", False, None),
    ("shm.stage", "repro.runtime.shm:SharedArray", "from_array", False, None),
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Patches:
    """Installs the :data:`PATCHES` wrappers and restores the originals.

    ``only`` limits the install to span names with one of the given
    prefixes (the process-executor run wraps just its parent-side
    entry points, so forked workers run unwrapped code).
    """

    def __init__(self, recorder: SpanRecorder, only: tuple[str, ...] = ()) -> None:
        self.recorder = recorder
        self.only = only
        # (owner, attribute, the exact object that was there before)
        self.undo: list[tuple[object, str, object]] = []

    def install(self) -> "Patches":
        if self.undo:
            raise RuntimeError("patches already installed")
        # Every module that may hold a by-name import of a patched
        # function must be loaded before the sweep over sys.modules.
        for pkg in ("repro.apps", "repro.core", "repro.service", "repro.delta", "repro.runtime"):
            importlib.import_module(pkg)
        for name, target, attr, subclasses, work in PATCHES:
            if not self._selected(name):
                continue
            module_name, _, cls_name = target.partition(":")
            module = importlib.import_module(module_name)
            if not cls_name:
                self._patch_function(name, getattr(module, attr), work)
                continue
            cls = getattr(module, cls_name)
            owners = [cls, *_subclasses(cls)] if subclasses else [cls]
            owners = [o for o in owners if attr in vars(o)]
            if not owners:
                raise AttributeError(f"{target} no longer defines {attr!r}")
            for owner in owners:
                self._patch_method(name, owner, attr, work)
        if self._selected("tiles.parse"):
            # MPE captured the bound classmethod at class creation
            # (``_TILE_PARSER = staticmethod(Tile.from_bytes)``): rebind
            # it so engines built from here on parse through the span.
            from repro.core.mpe import MPE
            from repro.partition.tiles import Tile

            self._replace(MPE, "_TILE_PARSER", staticmethod(Tile.from_bytes))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- internals -----------------------------------------------------
    def _selected(self, name: str) -> bool:
        return not self.only or name.startswith(self.only)

    def _replace(self, owner, attr: str, new) -> None:
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, name: str, owner, attr: str, work) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.recorder.wrap(name, raw.__func__, work))
        else:
            new = self.recorder.wrap(name, raw, work)
        self._replace(owner, attr, new)

    def _patch_function(self, name: str, original, work) -> None:
        wrapped = self.recorder.wrap(name, original, work)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapped)
