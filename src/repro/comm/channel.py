"""Metered point-to-point / broadcast channel between simulated servers.

Stands in for the paper's ZMQ broadcast layer (§III-A: "to improve the
communication performance, we use ZMQ to implement a broadcast interface
instead of using MPI_Bcast").  Payloads (bytes, or an engine broadcast's
record, whose ``len`` is its wire length) are delivered into
per-destination mailboxes; the channel meters per-server sent and
received ``len(payload)``, from which the cost model charges network
time and from which Figure 8's traffic curves are plotted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster.server import Server
from repro.comm.messages import UpdatePayload
from repro.obs.metrics import NULL_METRICS


@dataclass(frozen=True)
class Envelope:
    """One delivered message."""

    src: int
    payload: bytes | UpdatePayload


class Channel:
    """Mailbox-based message fabric over a fixed server set."""

    def __init__(self, servers: list[Server]) -> None:
        if not servers:
            raise ValueError("channel needs at least one server")
        self.servers = servers
        self._mailboxes: list[deque[Envelope]] = [deque() for _ in servers]
        self.total_bytes = 0
        self.total_messages = 0
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.  May drop deliveries (lost broadcasts).
        self.fault_injector = None
        # Message-size Histogram (repro.obs.metrics) installed by the
        # engine when observability is on, the null instrument
        # otherwise; observation only — metering is unchanged either way.
        self.obs_bytes = NULL_METRICS

    def _check(self, server_id: int) -> None:
        if not 0 <= server_id < len(self.servers):
            raise ValueError(f"unknown server id {server_id}")

    def send(self, src: int, dst: int, payload: bytes | UpdatePayload) -> None:
        """Point-to-point send; local sends move no network bytes.

        An attached fault injector may *drop* the delivery: the bytes
        still leave the sender's NIC (and are metered as sent), but the
        envelope never reaches the destination mailbox — the receiver
        charges nothing.  The loss surfaces at the BSP barrier via
        :meth:`repro.faults.FaultInjector.barrier_check`.
        """
        self._check(src)
        self._check(dst)
        dropped = (
            self.fault_injector is not None
            and src != dst
            and self.fault_injector.on_deliver(src, dst, len(payload))
        )
        if src != dst:
            self.servers[src].counters.net_sent += len(payload)
            self.total_bytes += len(payload)
            self.obs_bytes.observe(len(payload))
            if not dropped:
                self.servers[dst].counters.net_recv += len(payload)
        # Every send is one message, local or not — mirroring the
        # per-server ``counters.messages_sent`` semantics.  Only the
        # *byte* meters above are network-only (local sends move no
        # network bytes).
        self.total_messages += 1
        self.servers[src].counters.messages_sent += 1
        if not dropped:
            self._mailboxes[dst].append(Envelope(src=src, payload=payload))

    def broadcast(self, src: int, payload: bytes | UpdatePayload) -> None:
        """Deliver to every *other* server (§III-C's Broadcast step)."""
        self._check(src)
        for dst in range(len(self.servers)):
            if dst != src:
                self.send(src, dst, payload)

    def receive_all(self, dst: int) -> list[Envelope]:
        """Drain a server's mailbox (BSP: called at the barrier)."""
        self._check(dst)
        out = list(self._mailboxes[dst])
        self._mailboxes[dst].clear()
        return out

    def pending(self, dst: int) -> int:
        """Messages waiting in a mailbox."""
        self._check(dst)
        return len(self._mailboxes[dst])

    def clear_all(self) -> None:
        """Discard every undelivered envelope (supervised recovery:
        a retried superstep re-broadcasts everything)."""
        for mailbox in self._mailboxes:
            mailbox.clear()

    def reset_meters(self) -> None:
        """Zero channel-level traffic totals (mailboxes untouched)."""
        self.total_bytes = 0
        self.total_messages = 0
