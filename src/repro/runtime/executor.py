"""Superstep executors: transports for one per-server phase handler.

The simulated cluster is N logical servers; the paper's MPE runs the
same Algorithm 5 loop on every physical server and MPI only moves bytes
between them.  The reproduction keeps that shape on one host: the
engine owns a single phase handler, ``handler(tag, server_id, payload)``
(:meth:`repro.core.mpe.MPE._phase_handler`), and an executor is only
the *transport* that gets each server's payload to a call of it and the
result back — :meth:`Executor.start` binds the handler once per run,
:meth:`Executor.run_phase` runs one phase for every server and returns
the results **in server-id order**, :meth:`Executor.close` releases the
workers.  :class:`SerialExecutor` calls the handler in a loop (the
reference order), :class:`ParallelExecutor` on real OS threads (the hot
kernels are numpy gathers / ``reduceat`` reductions / codec passes that
release the GIL, so threads genuinely overlap), and
:class:`repro.runtime.process.ProcessExecutor` in forked workers.

The contract that keeps this safe and bit-reproducible:

* a handler call touches only *its own* server's state (counters,
  cache, disk, vertex store) plus read-only shared structures (its
  resolved tile schedule, the static target index);
* anything cross-server (``Channel`` broadcasts, mailbox drains,
  convergence accounting) is staged in the returned value and applied
  *after* the join, in server-id order — identical to serial order.

Because per-server floating point work is unchanged and aggregation
order is fixed, results are bitwise identical to serial execution —
``tests/test_runtime_executor.py`` pins this for PageRank / SSSP / WCC,
values and counters both.  Modeled time comes from metered volumes, so
it is independent of how the host happens to run the loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor as _PoolImpl
from typing import Any, Callable

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "default_num_threads",
]

Handler = Callable[[str, int, Any], Any]


def default_num_threads() -> int:
    """Worker-thread default: one per core, capped (diminishing returns
    past the simulated-server count anyway)."""
    return min(32, os.cpu_count() or 1)


class Executor:
    """Runs one phase of the bound handler for every server."""

    name = "abstract"
    # Whether handler calls run in forked children.  Parent-only
    # machinery (mailboxes, the DFS) is never touched there, results
    # carry a mirror of the server's state, and per-superstep bytes
    # travel by shared segment instead of by reference.
    forks = False

    def __init__(self) -> None:
        self._handler: Handler | None = None
        self._num_items = 0

    def start(
        self,
        handler: Handler,
        num_items: int,
        child_init: Callable[[], None] | None = None,
    ) -> None:
        """Bind ``handler`` for ``num_items`` servers (once per run)."""
        if self._handler is not None:
            raise RuntimeError("executor already started")
        self._handler = handler
        self._num_items = num_items

    def run_phase(self, tag: str, payloads: list[Any]) -> list[Any]:
        """``handler(tag, i, payloads[i])`` for every server ``i``;
        results in server-id order."""
        raise NotImplementedError

    def _bound(self, payloads: list[Any]) -> Handler:
        """The started handler, after checking the dispatch's shape."""
        if self._handler is None:
            raise RuntimeError("executor not started")
        if len(payloads) != self._num_items:
            raise ValueError("payload count does not match server count")
        return self._handler

    def close(self) -> None:
        """Release any worker resources (idempotent)."""
        self._handler = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Single-thread reference executor (the seed execution order)."""

    name = "serial"

    def run_phase(self, tag: str, payloads: list[Any]) -> list[Any]:
        handler = self._bound(payloads)
        return [handler(tag, sid, p) for sid, p in enumerate(payloads)]


class ParallelExecutor(Executor):
    """Thread-pool executor over a persistent pool.

    One pool lives for the executor's lifetime (one ``MPE.run``), so
    per-phase overhead is a submit+join, not thread creation.
    """

    name = "parallel"

    def __init__(self, num_threads: int | None = None) -> None:
        super().__init__()
        if num_threads is not None and num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads or default_num_threads()
        self._pool: _PoolImpl | None = _PoolImpl(
            max_workers=self.num_threads, thread_name_prefix="repro-superstep"
        )

    def run_phase(self, tag: str, payloads: list[Any]) -> list[Any]:
        handler = self._bound(payloads)
        if len(payloads) <= 1:
            return [handler(tag, sid, p) for sid, p in enumerate(payloads)]
        futures = [
            self._pool.submit(handler, tag, sid, p)
            for sid, p in enumerate(payloads)
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        state = "closed" if self._pool is None else f"threads={self.num_threads}"
        return f"ParallelExecutor({state})"


def make_executor(name: str, width: int | None = None) -> Executor:
    """Build an unstarted executor by registry name (``"serial"`` /
    ``"parallel"`` / ``"process"``).  ``width`` is the transport's
    worker count — threads or processes; the serial one has none."""
    if name == "serial":
        return SerialExecutor()
    if name == "parallel":
        return ParallelExecutor(width)
    if name == "process":
        from repro.runtime.process import ProcessExecutor

        return ProcessExecutor(width)
    raise ValueError(
        f"unknown executor {name!r}; expected one of "
        "['parallel', 'process', 'serial']"
    )
