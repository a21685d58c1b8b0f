"""Admission control and job ordering for the service engine.

A bounded, priority-classed, tenant-fair queue:

* **Admission control** — the queue holds at most ``capacity`` jobs;
  a full queue *rejects* new work with a reason instead of blocking
  the submitter (GraphD-style small clusters degrade by shedding load,
  not by unbounded buffering).  Per-tenant quotas bound how much of
  the queue one tenant can occupy.
* **Priority classes** — ``high`` → ``normal`` → ``low``; a queued
  higher class always pops before a lower one.
* **Tenant fairness** — within one priority class tenants are served
  round-robin in first-submission order, so a tenant that enqueues a
  burst cannot starve another tenant at the same priority.

Pop order is deterministic given the push sequence: tests (and the
persisted-queue restart path) rely on that.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.service.jobs import PRIORITIES, JobRecord

__all__ = ["AdmissionError", "JobQueue"]


class AdmissionError(RuntimeError):
    """A submission the queue refuses; ``reason`` says why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class JobQueue:
    """Thread-safe bounded priority queue with per-tenant fairness."""

    def __init__(
        self,
        capacity: int = 64,
        tenant_quota: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 or None")
        self.capacity = int(capacity)
        self.tenant_quota = tenant_quota
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # priority → {tenant → deque[JobRecord]}; tenant insertion order
        # is first-submission order, the round-robin rotation base.
        self._lanes: dict[str, dict[str, deque]] = {p: {} for p in PRIORITIES}
        # priority → index of the next tenant to serve in that class.
        self._cursor: dict[str, int] = {p: 0 for p in PRIORITIES}
        self._depth = 0
        self._closed = False

    # ------------------------------------------------------------------
    def push(self, record: JobRecord) -> None:
        """Enqueue or raise :class:`AdmissionError` with the reason."""
        spec = record.spec
        with self._lock:
            if self._closed:
                raise AdmissionError("engine is shutting down")
            if self._depth >= self.capacity:
                raise AdmissionError(
                    f"queue full ({self._depth} queued, capacity {self.capacity})"
                )
            if self.tenant_quota is not None:
                held = sum(
                    len(lane.get(spec.tenant, ()))
                    for lane in self._lanes.values()
                )
                if held >= self.tenant_quota:
                    raise AdmissionError(
                        f"tenant {spec.tenant!r} quota exceeded "
                        f"({held} queued, quota {self.tenant_quota})"
                    )
            lane = self._lanes[spec.priority]
            if spec.tenant not in lane:
                lane[spec.tenant] = deque()
            lane[spec.tenant].append(record)
            self._depth += 1
            self._not_empty.notify()

    # ------------------------------------------------------------------
    def pop(self, timeout: float | None = None) -> JobRecord | None:
        """Dequeue the next job; ``None`` on timeout or close."""
        with self._not_empty:
            while self._depth == 0:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            return self._pop_locked()

    def _pop_locked(self) -> JobRecord:
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            tenants = [t for t in lane if lane[t]]
            if not tenants:
                continue
            # Round-robin: serve the first non-empty tenant at or after
            # the cursor (tenant order = first-submission order).
            order = list(lane)
            start = self._cursor[priority] % max(1, len(order))
            rotated = order[start:] + order[:start]
            tenant = next(t for t in rotated if lane[t])
            record = lane[tenant].popleft()
            self._cursor[priority] = order.index(tenant) + 1
            self._depth -= 1
            return record
        raise RuntimeError("pop on empty queue")  # unreachable under lock

    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def snapshot(self) -> list[JobRecord]:
        """Queued records in deterministic pop order (non-destructive)."""
        with self._lock:
            saved_cursor = dict(self._cursor)
            popped: list[JobRecord] = []
            while self._depth:
                popped.append(self._pop_locked())
            for record in popped:  # rebuild as-was
                lane = self._lanes[record.spec.priority]
                if record.spec.tenant not in lane:
                    lane[record.spec.tenant] = deque()
                lane[record.spec.tenant].append(record)
                self._depth += 1
            self._cursor = saved_cursor
            return popped

    def close(self) -> None:
        """Stop admitting; wake blocked poppers."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
