"""The fault injector: fires scheduled faults at the engine's seams.

One :class:`FaultInjector` is attached to one :class:`repro.core.mpe.MPE`
(:meth:`attach`), which wires it into the three injection points:

* ``core/mpe.py`` — the compute phase's faults, fired in the parent
  under every executor: :meth:`fire_compute` (server crashes, then
  local-disk read errors on the server's first scheduled tile, server
  by server) before each compute dispatch, :meth:`after_compute`
  (straggler slowdown charges) after its join, and
  :meth:`barrier_check` (lost broadcast detection) at the BSP barrier,
  *before* any update is applied;
* ``comm/channel.py`` — :meth:`on_deliver` (broadcast message drops) on
  every delivery;
* ``dfs/filesystem.py`` — :meth:`on_dfs_read` (transient DFS block-read
  errors) on the whole-file read path.

Design rules that keep chaos runs deterministic and honest:

* **One-shot events.**  Every event fires at most once (tracked in
  ``_fired`` under a lock).
  A superstep re-executed after recovery therefore replays fault-free,
  so supervised runs always terminate.
* **Fail before mutate.**  Faults that abort a superstep (crash, fatal
  disk error, message drop) raise *before* any vertex-store write for
  that superstep, so the surviving state is exactly the previous
  barrier's — which is why recovery from the newest checkpoint (or from
  scratch) reconverges to bitwise-identical values.
* **Absorbed faults are charged, not hidden.**  Transient retries do
  real re-reads through the metered disk layer and charge
  ``fault_retries`` / ``fault_delay_s`` / extra read bytes into
  :class:`repro.cluster.counters.Counters`, so the cost model sees the
  slowdown; stragglers charge modeled delay without touching values.
"""

from __future__ import annotations

import threading

from repro.cluster.counters import Counters
from repro.faults.errors import (
    DfsReadFault,
    DiskReadFault,
    InjectedFault,
    MessageDropFault,
    ServerCrashFault,
)
from repro.faults.schedule import (
    ANY,
    CRASH,
    DFS_ERROR,
    DISK_ERROR,
    MSG_DROP,
    STRAGGLER,
    FaultEvent,
    FaultSchedule,
)


class FaultInjector:
    """Fires a :class:`FaultSchedule` against one engine run.

    The injector survives across supervised restarts of the same MPE —
    its fired-set is what guarantees a recovered superstep replays
    clean — so build one injector per chaos experiment, not per
    attempt.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        # Charges not attributable to one server (DFS-read transients).
        self.counters = Counters()
        self.superstep = -1
        self.log: list[dict] = []
        self._fired: set[tuple] = set()
        self._lock = threading.Lock()
        self._drops: list[tuple[int, int]] = []
        self._spec = None
        self._mpe = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, mpe) -> "FaultInjector":
        """Wire this injector into an MPE, its channel and its DFS."""
        self._mpe = mpe
        self._spec = mpe.cluster.spec
        mpe.injector = self
        mpe.channel.fault_injector = self
        mpe.cluster.dfs.fault_injector = self
        return self

    def detach(self) -> None:
        """Remove all hooks (idempotent)."""
        if self._mpe is None:
            return
        self._mpe.injector = None
        self._mpe.channel.fault_injector = None
        self._mpe.cluster.dfs.fault_injector = None
        self._mpe = None

    # ------------------------------------------------------------------
    # Firing bookkeeping
    # ------------------------------------------------------------------
    def _try_fire(self, key: tuple) -> bool:
        """Atomically claim an event occurrence; False if already fired."""
        with self._lock:
            if key in self._fired:
                return False
            self._fired.add(key)
            return True

    def _record(self, event: FaultEvent, server: int, detail: str = "") -> None:
        entry = {
            "kind": event.kind,
            "superstep": self.superstep,
            "server": server,
            "event": event.describe(),
        }
        if detail:
            entry["detail"] = detail
        with self._lock:
            self.log.append(entry)
        # Tracing (repro.obs): fired faults surface as instants.  Server
        # events go to the server's buffer (the parent writes it between
        # dispatches); ANY-scoped events (DFS transients) go to the
        # engine buffer.
        if self._mpe is not None:
            on_server = isinstance(server, int) and server >= 0
            lane = ("server", server) if on_server else ("engine",)
            self._mpe._lane(*lane).instant(
                f"fault-{event.kind}",
                "fault",
                superstep=self.superstep,
                event=event.describe(),
                detail=detail or None,
            )

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        """Called by the engine at the top of every superstep."""
        self.superstep = superstep
        self._drops = []

    def fire_compute(self, servers, schedule) -> InjectedFault | None:
        """Fire the compute phase's crash and disk-error decisions, in
        the parent, server by server, before ``schedule`` (one entry per
        server) is dispatched — the injector never runs inside a sweep,
        so its one-shot fired-set is the same under every executor.

        A disk error fires against the blob a sweep loads first: the
        head of the server's run list.  The first aborting fault is
        returned, not raised, and fires nothing past its server: the
        engine still dispatches the servers before it and raises it
        after the join — what a serial sweep charges — with vertex
        state untouched ("fail before mutate").
        """
        disk_events = self.schedule.of_kind(DISK_ERROR)
        for server, sched in zip(servers, schedule):
            try:
                self._fire_crash(server)
                if sched.run and any(
                    e.matches(self.superstep, server.server_id) for e in disk_events
                ):
                    self._fire_disk_error(server, sched.run[0][1])
            except InjectedFault as fault:
                return fault
        return None

    def _fire_crash(self, server) -> None:
        """Before one server's tile sweep: crash point."""
        for idx, event in enumerate(self.schedule.events):
            if event.kind != CRASH:
                continue
            if not event.matches(self.superstep, server.server_id):
                continue
            if not self._try_fire((idx,)):
                continue
            server.counters.faults_injected += 1
            self._record(event, server.server_id)
            raise ServerCrashFault(
                f"injected crash of server {server.server_id} "
                f"at superstep {self.superstep}",
                superstep=self.superstep,
                server=server.server_id,
            )

    def after_compute(self, server, edges_processed: int) -> None:
        """After one server's tile sweep: straggler slowdown charge.

        The modeled delay is ``(slow_factor - 1)`` times the server's
        modeled compute time for the superstep — the extra seconds a
        CPU running that much slower would have taken over the same
        edges — charged to ``fault_delay_s`` so the cost model's
        barrier max sees the straggler.
        """
        for idx, event in enumerate(self.schedule.events):
            if event.kind != STRAGGLER:
                continue
            if not event.matches(self.superstep, server.server_id):
                continue
            if not self._try_fire((idx,)):
                continue
            spec = self._spec
            compute_s = edges_processed / (
                spec.compute_edges_per_sec_per_worker * spec.workers_per_server
            )
            delay = (event.slow_factor - 1.0) * compute_s
            server.counters.faults_injected += 1
            server.counters.fault_delay_s += delay
            self._record(
                event, server.server_id, detail=f"delay={delay:.6f}s"
            )

    def _fire_disk_error(self, server, blob_name: str) -> None:
        """Before a server's first tile load: local-disk read errors.

        Each failed attempt genuinely re-reads the blob through the
        metered disk (seek-bound, like the cache-miss path) and charges
        retry count plus modeled backoff.  ``fatal`` events exhaust the
        budget and raise, escalating to the supervisor.
        """
        for idx, event in enumerate(self.schedule.events):
            if event.kind != DISK_ERROR:
                continue
            if not event.matches(self.superstep, server.server_id):
                continue
            if not self._try_fire((idx,)):
                continue
            wasted = 0
            for _ in range(event.retries):
                if server.disk.exists(blob_name):
                    wasted += len(server.disk.read(blob_name))
            server.counters.disk_read_random += wasted
            server.counters.fault_retries += event.retries
            server.counters.fault_delay_s += event.retries * event.backoff_s
            server.counters.faults_injected += 1
            self._record(
                event,
                server.server_id,
                detail=f"retries={event.retries} wasted_bytes={wasted}",
            )
            if event.fatal:
                raise DiskReadFault(
                    f"injected unrecoverable read error on {blob_name!r} "
                    f"(server {server.server_id}, superstep {self.superstep})",
                    superstep=self.superstep,
                    server=server.server_id,
                )

    def on_deliver(self, src: int, dst: int, nbytes: int) -> bool:
        """One broadcast delivery: returns True if it should be dropped.

        The sender's bytes already left the NIC (metered by the
        channel); a drop just means the envelope never lands in the
        destination mailbox.  The loss is recorded and surfaced by
        :meth:`barrier_check` before any update applies.
        """
        for idx, event in enumerate(self.schedule.events):
            if event.kind != MSG_DROP:
                continue
            if not event.matches(self.superstep, src):
                continue
            if event.dst is not None and event.dst != dst:
                continue
            if not self._try_fire((idx, dst)):
                continue
            with self._lock:
                self._drops.append((src, dst))
            self.counters.faults_injected += 1
            self._record(event, src, detail=f"dropped {src}->{dst} ({nbytes}B)")
            return True
        return False

    def barrier_check(self) -> None:
        """BSP barrier: fail the superstep if any delivery was lost.

        Models the barrier's ACK accounting — every server knows how
        many broadcasts it must receive (N-1), so a loss is always
        detected here, *before* the apply phase mutates vertex state.
        """
        if not self._drops:
            return
        drops = tuple(self._drops)
        self._drops = []
        raise MessageDropFault(
            f"{len(drops)} broadcast delivery(ies) lost at superstep "
            f"{self.superstep}: {drops}",
            superstep=self.superstep,
            server=drops[0][0],
            drops=drops,
        )

    def on_dfs_read(self, path: str) -> int:
        """DFS whole-file read: transient block-read errors.

        Returns the number of *extra* (wasted) replica-read attempts
        the filesystem should perform — real, metered datanode I/O.
        Raises :class:`DfsReadFault` for fatal events.
        """
        for idx, event in enumerate(self.schedule.events):
            if event.kind != DFS_ERROR:
                continue
            if event.superstep not in (ANY, self.superstep):
                continue
            if event.path_match is not None and event.path_match not in path:
                continue
            if not self._try_fire((idx,)):
                continue
            self.counters.fault_retries += event.retries
            self.counters.fault_delay_s += event.retries * event.backoff_s
            self.counters.faults_injected += 1
            self._record(
                event, ANY, detail=f"path={path} retries={event.retries}"
            )
            if event.fatal:
                raise DfsReadFault(
                    f"injected unrecoverable DFS read error on {path!r}",
                    superstep=self.superstep,
                )
            return event.retries
        return 0
