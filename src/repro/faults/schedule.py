"""Deterministic fault schedules.

A :class:`FaultSchedule` is an immutable list of :class:`FaultEvent`\\ s
— *what* goes wrong, *where*, and *when*, fixed before the run starts.
Determinism is the whole point: the injector fires each event at most
once, at the first moment execution reaches its (superstep, server)
coordinate, so the same schedule against the same program always
produces the same failure sequence — which is what lets the test suite
assert that a chaos run converges to bitwise-identical vertex values.

:class:`FaultPlan` is the seeded generator: rates per fault class plus
an RNG seed, materialised into a concrete schedule for a given cluster
width and superstep horizon.  Same seed → same schedule, so a flaky
chaos run can be replayed exactly from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CRASH = "crash"
STRAGGLER = "straggler"
DISK_ERROR = "disk_error"
MSG_DROP = "msg_drop"
DFS_ERROR = "dfs_error"

FAULT_KINDS = (CRASH, STRAGGLER, DISK_ERROR, MSG_DROP, DFS_ERROR)

# ``superstep``/``server`` value meaning "matches anything".
ANY = -1


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    superstep:
        Superstep the event fires in (:data:`ANY` for events not tied
        to the superstep clock, e.g. DFS errors during setup).
    server:
        Server the event hits (crash / straggler / disk_error), or the
        broadcast *source* for ``msg_drop``.  :data:`ANY` matches any
        server (the first in server order fires it).
    dst:
        ``msg_drop`` only: drop deliveries to this destination
        (``None`` → every recipient of the broadcast).
    slow_factor:
        ``straggler`` only: the server computes this many times slower
        for the superstep (must be ``>= 1``).
    retries:
        Transient-error budget: a ``disk_error``/``dfs_error`` event
        fails this many attempts (each metered and charged) before the
        read succeeds.  With ``fatal=True`` the retries are charged and
        the read *still* fails, escalating to the supervisor.
    fatal:
        Whether a disk/DFS error exhausts its retry budget.
    path_match:
        ``dfs_error`` only: substring the DFS path must contain
        (``None`` → first read).
    backoff_s:
        Modeled delay charged per failed attempt (retry backoff).
    """

    kind: str
    superstep: int = ANY
    server: int = ANY
    dst: int | None = None
    slow_factor: float = 4.0
    retries: int = 1
    fatal: bool = False
    path_match: str | None = None
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.superstep < ANY:
            raise ValueError("superstep must be >= 0, or ANY (-1)")
        if self.server < ANY:
            raise ValueError("server must be >= 0, or ANY (-1)")
        if self.kind == STRAGGLER and self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")

    def matches(self, superstep: int, server: int | None = None) -> bool:
        """Whether this event applies at a (superstep, server) point."""
        if self.superstep != ANY and self.superstep != superstep:
            return False
        if server is not None and self.server != ANY and self.server != server:
            return False
        return True

    def describe(self) -> str:
        """One-line human-readable form (for reports and the CLI)."""
        where = f"s{self.server}" if self.server != ANY else "s*"
        when = f"@{self.superstep}" if self.superstep != ANY else "@*"
        extra = ""
        if self.kind == STRAGGLER:
            extra = f" x{self.slow_factor:g}"
        elif self.kind == MSG_DROP:
            extra = f" ->{self.dst if self.dst is not None else '*'}"
        elif self.kind in (DISK_ERROR, DFS_ERROR):
            extra = f" retries={self.retries}{' fatal' if self.fatal else ''}"
        return f"{self.kind}[{where}{when}]{extra}"


class FaultSchedule:
    """An immutable, validated sequence of fault events."""

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(events)
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"not a FaultEvent: {event!r}")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def of_kind(self, kind: str) -> list[FaultEvent]:
        """Events of one kind, in schedule order."""
        return [e for e in self.events if e.kind == kind]

    def describe(self) -> list[str]:
        """Human-readable one-liners, schedule order."""
        return [e.describe() for e in self.events]

    def __repr__(self) -> str:
        return f"FaultSchedule({list(self.describe())!r})"


@dataclass(frozen=True)
class FaultPlan:
    """Seeded random fault generator.

    Rates are per-(server, superstep) Bernoulli probabilities except
    ``dfs_error_rate``, which is a single probability that one DFS-read
    transient occurs during the run.  ``materialize`` draws the whole
    schedule up-front from ``numpy.random.default_rng(seed)`` — nothing
    random happens during execution.
    """

    seed: int = 0
    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    disk_error_rate: float = 0.0
    drop_rate: float = 0.0
    dfs_error_rate: float = 0.0
    slow_factor: float = 4.0
    max_crashes: int = 1
    backoff_s: float = 0.05
    _RATES: tuple[str, ...] = field(
        default=(
            "crash_rate",
            "straggler_rate",
            "disk_error_rate",
            "drop_rate",
            "dfs_error_rate",
        ),
        repr=False,
    )

    def __post_init__(self) -> None:
        for name in self._RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        if self.max_crashes < 0:
            raise ValueError("max_crashes must be >= 0")

    def materialize(self, num_servers: int, max_superstep: int) -> FaultSchedule:
        """Draw a concrete schedule for a cluster width and horizon."""
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if max_superstep < 1:
            raise ValueError("max_superstep must be >= 1")
        rng = np.random.default_rng(self.seed)
        events: list[FaultEvent] = []
        crashes = 0
        for superstep in range(max_superstep):
            for server in range(num_servers):
                draws = rng.random(4)
                if draws[0] < self.crash_rate and crashes < self.max_crashes:
                    crashes += 1
                    events.append(
                        FaultEvent(CRASH, superstep=superstep, server=server)
                    )
                if draws[1] < self.straggler_rate:
                    events.append(
                        FaultEvent(
                            STRAGGLER,
                            superstep=superstep,
                            server=server,
                            slow_factor=self.slow_factor,
                        )
                    )
                if draws[2] < self.disk_error_rate:
                    events.append(
                        FaultEvent(
                            DISK_ERROR,
                            superstep=superstep,
                            server=server,
                            retries=int(rng.integers(1, 3)),
                            backoff_s=self.backoff_s,
                        )
                    )
                if draws[3] < self.drop_rate:
                    dst = int(rng.integers(0, num_servers))
                    if dst == server:
                        dst = (dst + 1) % num_servers
                    events.append(
                        FaultEvent(
                            MSG_DROP,
                            superstep=superstep,
                            server=server,
                            dst=dst if num_servers > 1 else None,
                        )
                    )
        if rng.random() < self.dfs_error_rate:
            events.append(
                FaultEvent(DFS_ERROR, retries=1, backoff_s=self.backoff_s)
            )
        return FaultSchedule(events)
