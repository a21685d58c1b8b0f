"""The forked-process transport: GIL-free per-server phase fan-out.

The thread executor (:class:`repro.runtime.executor.ParallelExecutor`)
only overlaps the numpy regions that release the GIL; the pure-Python
stretches of a per-server step (tile bookkeeping, payload encode,
counter updates) still serialise.  This pool runs each simulated
server's handler calls in a real OS process instead, the same
shared-memory multi-core shape GraphMP argues for on one machine.  It
speaks the protocol every executor speaks (``start`` / ``run_phase`` /
``close``, see :mod:`repro.runtime.executor`) and runs the same phase
handler; only where the call executes differs.

Design constraints that keep results bitwise identical to serial:

* Workers are **forked after the engine's superstep state is built**, so
  they inherit tile assignments, vertex stores (in shared
  memory — see :mod:`repro.runtime.shm`), the slabs earlier runs filled
  and the phase handler itself by address-space copy: nothing
  structural is pickled.
* Server *i* is pinned to worker ``i % num_workers`` ("sticky" routing),
  so a server's mutable state (store slice, cache, counters) has exactly
  one writer for the pool's lifetime.
* :meth:`run_phase` dispatches one phase to all workers and returns
  results **in server-id order**; the parent applies all cross-server
  effects after the join, exactly like the serial schedule.
* All nondeterministic decisions (fault injection, channel traffic) are
  resolved in the parent; workers never see the injector.

``MPE.run``'s ``finally`` closes the pool on every path, including
injected faults and KeyboardInterrupt.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable

from repro.runtime.executor import Executor
from repro.runtime.shm import process_runtime_available

__all__ = ["ProcessExecutor", "default_num_workers"]

# (tag, [(server_id, payload), ...]) goes down; ("ok", [(server_id,
# result), ...]) or ("error", repr) comes back; None is the shutdown
# sentinel.
_SHUTDOWN = None


def default_num_workers() -> int:
    """Worker-process default: one per core, capped."""
    return min(32, os.cpu_count() or 1)


def _worker_main(conn, handler: Callable[[str, int, Any], Any], child_init, owned):
    """Worker loop: handle phase requests for the servers it owns."""
    if child_init is not None:
        child_init()
    try:
        while True:
            msg = conn.recv()
            if msg is _SHUTDOWN:
                break
            tag, items = msg
            try:
                out = [(sid, handler(tag, sid, payload)) for sid, payload in items]
                conn.send(("ok", out))
            except BaseException as exc:  # ship the failure, keep serving
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        pass
    finally:
        conn.close()


class ProcessExecutor(Executor):
    """Persistent forked worker pool with sticky server→worker routing.

    The engine calls :meth:`start` once its shared state is ready (that
    is the fork point — the handler crosses the process boundary by
    inheritance, never by pickle), then :meth:`run_phase` per
    compute/apply phase.
    """

    name = "process"
    forks = True

    def __init__(self, num_workers: int | None = None) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not process_runtime_available():
            raise RuntimeError(
                "process executor needs fork + POSIX shared memory; "
                "use executor='serial' on this platform"
            )
        self.num_workers = num_workers or default_num_workers()
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list = []
        self._conns: list = []
        self._routing: list[int] = []  # server_id -> worker slot

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(
        self,
        handler: Callable[[str, int, Any], Any],
        num_items: int,
        child_init: Callable[[], None] | None = None,
    ) -> None:
        """Fork the pool.  ``handler(tag, server_id, payload)`` runs in
        the worker owning ``server_id``; ``child_init`` runs once per
        worker right after the fork (e.g. to detach parent-only state).
        """
        if self._procs:
            raise RuntimeError("pool already started")
        nworkers = max(1, min(self.num_workers, num_items))
        self._routing = [i % nworkers for i in range(num_items)]
        for slot in range(nworkers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, handler, child_init, slot),
                name=f"repro-superstep-{slot}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def run_phase(self, tag: str, payloads: list[Any]) -> list[Any]:
        """Dispatch one phase; ``payloads[i]`` goes to server ``i``'s
        worker.  Returns per-server results in server-id order."""
        if not self._procs:
            raise RuntimeError("pool not started")
        if len(payloads) != len(self._routing):
            raise ValueError("payload count does not match pool size")
        per_worker: dict[int, list[tuple[int, Any]]] = {}
        for sid, payload in enumerate(payloads):
            per_worker.setdefault(self._routing[sid], []).append((sid, payload))
        results: list[Any] = [None] * len(payloads)
        failure: str | None = None
        try:
            for slot, items in per_worker.items():
                self._conns[slot].send((tag, items))
            replies = []
            for slot in per_worker:
                replies.append(self._conns[slot].recv())
        except (EOFError, OSError):
            # A dead worker fails the send (closed pipe) or the receive
            # (EOF); either way the pool is finished.
            self.close()
            raise RuntimeError(
                f"superstep worker {slot} died during phase {tag!r}"
            ) from None
        for status, out in replies:
            if status == "ok":
                for sid, result in out:
                    results[sid] = result
            elif failure is None:
                failure = out
        if failure is not None:
            raise RuntimeError(f"superstep phase {tag!r} failed: {failure}")
        return results

    def close(self) -> None:
        """Shut the pool down (idempotent; safe mid-phase)."""
        for conn in self._conns:
            try:
                conn.send(_SHUTDOWN)
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._procs = []
        self._conns = []
        self._routing = []

    def __repr__(self) -> str:
        state = f"workers={len(self._procs)}" if self._procs else "idle"
        return f"ProcessExecutor({state}, max={self.num_workers})"
