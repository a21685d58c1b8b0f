"""Supervised recovery: keep a chaos run converging, meter the cost.

The paper's engine "restarts failed jobs from scratch"; the
:class:`Supervisor` is the reproduction's upgrade path.  It wraps an
:class:`repro.core.mpe.MPE` run and, when an injected (or real) fault
surfaces at the BSP barrier, applies a :class:`RecoveryPolicy`:

* **respawn** — a crashed server lost its memory *and* local disk; the
  supervisor always re-fetches its assigned tiles from the DFS (metered
  as ``recovery_read`` bytes) before the retry;
* **restore** — re-enter ``MPE.run(resume=True)``, which rolls vertex
  state back to the newest DFS checkpoint (bitwise-exact ``float64``
  values + the update set), so at most ``checkpoint_every`` supersteps
  re-execute;
* **backoff** — each restart charges a modeled, exponentially growing
  delay, so flapping failures cost what they would in a real cluster.

Because checkpoints restore state exactly and the fault injector fires
each event only once, a supervised run converges to vertex values
bitwise identical to the fault-free run — the subsystem's core
invariant, pinned by ``tests/test_faults_supervisor.py``.

The :class:`RecoveryReport` records what the recovery cost: the fault
log, supersteps re-executed, recovery DFS reads, aborted-attempt work,
and modeled backoff — the numbers ``benchmarks/bench_faults.py`` sweeps
against the checkpoint interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.checkpoint import clear_checkpoints, latest_checkpoint
from repro.faults.errors import InjectedFault, ServerCrashFault
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the supervisor reacts to a fault."""

    # Give up (re-raise) after this many restarts.
    max_restarts: int = 8
    # Modeled delay before the first retry; grows geometrically.
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    # "checkpoint": resume from the newest snapshot (fall back to a
    # fresh start when none exists).  "scratch": the paper's policy —
    # always restart from superstep 0.
    restore: str = "checkpoint"

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.restore not in ("checkpoint", "scratch"):
            raise ValueError('restore must be "checkpoint" or "scratch"')


@dataclass
class FaultRecord:
    """One supervised recovery action."""

    kind: str
    superstep: int
    server: int
    action: str
    resume_superstep: int
    reexecuted_supersteps: int
    backoff_s: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "superstep": self.superstep,
            "server": self.server,
            "action": self.action,
            "resume_superstep": self.resume_superstep,
            "reexecuted_supersteps": self.reexecuted_supersteps,
            "backoff_s": round(self.backoff_s, 6),
        }


@dataclass
class RecoveryReport:
    """What surviving the schedule cost.

    Every field is executor-invariant except ``aborted_attempt_edges``:
    a serial attempt stops at the first raising server, while a parallel
    attempt lets in-flight sibling servers finish their sweep before the
    exception propagates — so the wasted work, honestly metered, depends
    on the host executor (the converged values never do).  ``fault_log``
    holds the same entries under every executor, in the order the
    servers reach them.
    """

    restarts: int = 0
    records: list[FaultRecord] = field(default_factory=list)
    fault_log: list[dict] = field(default_factory=list)
    reexecuted_supersteps: int = 0
    recovery_read_bytes: int = 0
    aborted_attempt_edges: int = 0
    total_backoff_s: float = 0.0
    faults_injected: int = 0
    fault_retries: int = 0
    fault_delay_s: float = 0.0
    converged: bool = False

    def to_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "records": [r.to_dict() for r in self.records],
            "fault_log": list(self.fault_log),
            "reexecuted_supersteps": self.reexecuted_supersteps,
            "recovery_read_bytes": self.recovery_read_bytes,
            "aborted_attempt_edges": self.aborted_attempt_edges,
            "total_backoff_s": round(self.total_backoff_s, 6),
            "faults_injected": self.faults_injected,
            "fault_retries": self.fault_retries,
            "fault_delay_s": round(self.fault_delay_s, 6),
            "converged": self.converged,
        }


class Supervisor:
    """Runs a vertex program under a fault schedule, recovering as needed.

    Parameters
    ----------
    mpe:
        The engine to supervise.  Enable ``checkpoint_every`` in its
        config or every recovery degrades to restart-from-scratch.
    schedule / injector:
        Either a :class:`FaultSchedule` (a fresh injector is built and
        attached) or a pre-built :class:`FaultInjector`.  Omit both to
        supervise against real (non-injected) failures only.
    policy:
        Recovery behaviour; defaults to checkpoint restore.  A crashed
        server is always respawned.
    """

    def __init__(
        self,
        mpe,
        schedule: FaultSchedule | None = None,
        injector: FaultInjector | None = None,
        policy: RecoveryPolicy | None = None,
    ) -> None:
        if schedule is not None and injector is not None:
            raise ValueError("pass schedule or injector, not both")
        self.mpe = mpe
        self.policy = policy or RecoveryPolicy()
        if injector is None:
            injector = FaultInjector(schedule or FaultSchedule())
        self.injector = injector.attach(mpe)

    # ------------------------------------------------------------------
    def run(self, program, graph_for_init=None, resume: bool = False):
        """Execute to convergence under the schedule.

        Returns ``(RunResult, RecoveryReport)``.  Re-raises the last
        fault if ``policy.max_restarts`` is exhausted.
        """
        policy = self.policy
        report = RecoveryReport()
        backoff = policy.backoff_s
        dfs = self.mpe.cluster.dfs
        dataset = self.mpe.manifest.name
        if not resume:
            # A retry restores this run's snapshots, never an earlier
            # run's of the same program on this engine.
            clear_checkpoints(dfs, dataset, program.name)
        while True:
            edges_before = sum(
                s.counters.edges_processed for s in self.mpe.cluster.servers
            )
            try:
                result = self.mpe.run(
                    program, graph_for_init=graph_for_init, resume=resume
                )
                break
            except InjectedFault as fault:
                report.restarts += 1
                if report.restarts > policy.max_restarts:
                    raise
                report.aborted_attempt_edges += (
                    sum(
                        s.counters.edges_processed
                        for s in self.mpe.cluster.servers
                    )
                    - edges_before
                )
                action = "restore"
                if isinstance(fault, ServerCrashFault):
                    self.mpe.respawn_server(fault.server)
                    action = "respawn+restore"
                if policy.restore == "checkpoint":
                    resume = True
                    snapshot = latest_checkpoint(dfs, dataset, program.name)
                    resume_superstep = (
                        snapshot.superstep + 1 if snapshot is not None else 0
                    )
                else:
                    resume = False
                    resume_superstep = 0
                    action = action.replace("restore", "scratch")
                reexecuted = max(0, fault.superstep - resume_superstep + 1)
                report.reexecuted_supersteps += reexecuted
                report.total_backoff_s += backoff
                # Charge the modeled restart delay where the cost model
                # will see it (the supervisor acts through server 0).
                self.mpe.cluster.servers[0].counters.fault_delay_s += backoff
                report.records.append(
                    FaultRecord(
                        kind=fault.kind,
                        superstep=fault.superstep,
                        server=fault.server,
                        action=action,
                        resume_superstep=resume_superstep,
                        reexecuted_supersteps=reexecuted,
                        backoff_s=backoff,
                    )
                )
                backoff *= policy.backoff_factor

        counters = [s.counters for s in self.mpe.cluster.servers]
        counters.append(self.injector.counters)
        report.recovery_read_bytes = sum(c.recovery_read for c in counters)
        report.faults_injected = sum(c.faults_injected for c in counters)
        report.fault_retries = sum(c.fault_retries for c in counters)
        report.fault_delay_s = sum(c.fault_delay_s for c in counters)
        report.fault_log = list(self.injector.log)
        report.converged = result.converged
        return result, report
