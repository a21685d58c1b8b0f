"""Labeled metrics registry bridged from the engine's counters.

``Counters`` / ``CacheStats`` / ``Channel`` already meter every byte the
simulation moves; this module gives those numbers a conventional
metrics shape — labeled counters, gauges, and histograms — plus a
Prometheus text exposition (:meth:`MetricsRegistry.to_text`) so a run's
final state can be scraped, diffed, or shipped to any standard tooling.

Two usage modes:

* **Bridged** — :func:`bridge_cluster` reads the authoritative engine
  counters into the registry at snapshot time.  The engine is never
  slowed down or double-booked: the registry is a *view*, the counters
  stay the source of truth.
* **Live histograms** — distributions (channel message sizes, superstep
  wall time) cannot be recovered from totals, so the tracer wires
  :class:`Histogram` instruments into the channel and the superstep
  loop; observation is one bisect + two adds.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_METRICS",
    "bridge_cluster",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
]

# Powers of 4 from 64 B to ~1 GB: wide enough for tile blobs and
# broadcast payloads alike at every dataset tier.
DEFAULT_BYTE_BUCKETS = tuple(float(64 * 4**i) for i in range(13))
# 100 µs .. ~100 s in half-decades, for superstep wall time.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
    50.0, 100.0,
)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or set(name.lower()) - _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set(self, value: float) -> None:
        """Bridge helper: counters mirrored from ``Counters`` fields are
        set to the authoritative total, not incremented."""
        self.value = float(value)


class Gauge:
    """Point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative on exposition, like Prometheus)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets=DEFAULT_BYTE_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be sorted and unique")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class MetricFamily:
    """One named metric with labeled children."""

    def __init__(self, name: str, kind: str, help_text: str, labelnames, **kwargs):
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._kwargs = kwargs
        self._children: dict[tuple, object] = {}

    def labels(self, **labelvalues):
        """The child instrument for one label combination (created on
        first use; label *names* must match the family exactly)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self._kwargs.get("buckets", DEFAULT_BYTE_BUCKETS))
            self._children[key] = child
        return child

    def samples(self):
        """``(labelkey_tuple, child)`` pairs in insertion order."""
        return list(self._children.items())


class MetricsRegistry:
    """A namespace of metric families with text exposition."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name, kind, help_text, labelnames, **kwargs) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(name, kind, help_text, labelnames, **kwargs)
            self._families[name] = fam
        elif fam.kind != kind or fam.labelnames != tuple(labelnames):
            raise ValueError(f"metric {name!r} re-registered with a different shape")
        return fam

    def counter(self, name, help_text="", labelnames=()) -> MetricFamily:
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name, help_text="", labelnames=()) -> MetricFamily:
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(
        self, name, help_text="", labelnames=(), buckets=DEFAULT_BYTE_BUCKETS
    ) -> MetricFamily:
        return self._family(
            name, "histogram", help_text, labelnames, buckets=buckets
        )

    def families(self) -> list[MetricFamily]:
        return [self._families[k] for k in sorted(self._families)]

    # -- exposition ----------------------------------------------------
    def to_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for fam in self.families():
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key, child in fam.samples():
                labels = _fmt_labels(fam.labelnames, key)
                if fam.kind == "histogram":
                    cumulative = 0
                    for bound, n in zip(child.buckets, child.counts):
                        cumulative += n
                        le = _fmt_labels(
                            fam.labelnames + ("le",), key + (_fmt_float(bound),)
                        )
                        lines.append(f"{fam.name}_bucket{le} {cumulative}")
                    cumulative += child.counts[-1]
                    le = _fmt_labels(fam.labelnames + ("le",), key + ("+Inf",))
                    lines.append(f"{fam.name}_bucket{le} {cumulative}")
                    lines.append(f"{fam.name}_sum{labels} {_fmt_float(child.sum)}")
                    lines.append(f"{fam.name}_count{labels} {child.count}")
                else:
                    lines.append(f"{fam.name}{labels} {_fmt_float(child.value)}")
        return "\n".join(lines) + "\n"


class _NullMetrics:
    """A registry, a family and an instrument in one, recording nothing
    — what instrumented code holds while no tracer is attached (the
    metrics twin of :data:`repro.obs.trace.NULL_BUFFER`)."""

    __slots__ = ()

    def counter(self, *args, **kwargs) -> "_NullMetrics":
        return self

    gauge = histogram = labels = counter

    def inc(self, amount: float = 1.0) -> None:
        pass

    set = observe = inc


NULL_METRICS = _NullMetrics()


def _fmt_labels(names, values) -> str:
    if not names:
        return ""
    parts = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    )
    return "{" + parts + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(float(value))


# ----------------------------------------------------------------------
# Bridging the engine's authoritative counters into a registry
# ----------------------------------------------------------------------
_CACHE_EVENTS = ("hits", "misses", "evictions", "insertions", "rejected")
_DECODED_EVENTS = ("hits", "misses", "insertions", "invalidations")


def bridge_cluster(registry: MetricsRegistry, cluster, channel=None) -> MetricsRegistry:
    """Mirror a cluster's counters/cache/channel totals into ``registry``.

    Idempotent per sample: every child is *set* to the authoritative
    total, so bridging twice (e.g. after each of two runs on the same
    cluster) reports the latest truth rather than double-counting.
    """
    mem = registry.gauge(
        "repro_mem_bytes", "live memory by category", ("server", "category")
    )
    mem_peak = registry.gauge(
        "repro_mem_peak_bytes", "peak live memory", ("server",)
    )
    disk = registry.counter(
        "repro_disk_bytes_total", "local disk traffic", ("server", "op")
    )
    net = registry.counter(
        "repro_net_bytes_total", "network traffic", ("server", "direction")
    )
    work = registry.counter(
        "repro_work_total", "work volumes", ("server", "kind")
    )
    codec = registry.counter(
        "repro_codec_bytes_total", "codec traffic", ("server", "codec", "op")
    )
    faults = registry.counter(
        "repro_faults_total", "fault injection & recovery", ("server", "kind")
    )
    fault_delay = registry.counter(
        "repro_fault_delay_seconds_total", "modeled fault delay", ("server",)
    )
    cache_ev = registry.counter(
        "repro_cache_events_total", "cache activity", ("server", "cache", "event")
    )
    cache_bytes = registry.counter(
        "repro_cache_codec_bytes_total",
        "edge-cache codec traffic",
        ("server", "op"),
    )
    cache_used = registry.gauge(
        "repro_cache_used_bytes", "edge-cache occupancy", ("server",)
    )
    # Host telemetry, not contract: a warm engine skips more.
    cache_skipped = registry.gauge(
        "repro_cache_compress_skipped",
        "edge-cache rejects decided from a remembered, generation-checked size "
        "(codec not run); equals the rejected events once sizes are learned",
        ("server",),
    )

    for server in cluster.servers:
        sid = str(server.server_id)
        c = server.counters
        for category in ("vertex", "edges", "messages", "cache", "scratch"):
            mem.labels(server=sid, category=category).set(
                getattr(c, f"mem_{category}")
            )
        mem_peak.labels(server=sid).set(c.mem_peak)
        disk.labels(server=sid, op="read").set(c.disk_read)
        disk.labels(server=sid, op="read_random").set(c.disk_read_random)
        disk.labels(server=sid, op="write").set(c.disk_write)
        net.labels(server=sid, direction="sent").set(c.net_sent)
        net.labels(server=sid, direction="recv").set(c.net_recv)
        work.labels(server=sid, kind="edges_processed").set(c.edges_processed)
        work.labels(server=sid, kind="messages_sent").set(c.messages_sent)
        work.labels(server=sid, kind="messages_processed").set(
            c.messages_processed
        )
        for name, n in c.decompressed.items():
            codec.labels(server=sid, codec=name, op="decompress").set(n)
        for name, n in c.compressed.items():
            codec.labels(server=sid, codec=name, op="compress").set(n)
        faults.labels(server=sid, kind="injected").set(c.faults_injected)
        faults.labels(server=sid, kind="retries").set(c.fault_retries)
        faults.labels(server=sid, kind="recovery_read_bytes").set(
            c.recovery_read
        )
        fault_delay.labels(server=sid).set(c.fault_delay_s)
        if server.cache is not None:
            st = server.cache.stats
            for event in _CACHE_EVENTS:
                cache_ev.labels(server=sid, cache="edge", event=event).set(
                    getattr(st, event)
                )
            cache_bytes.labels(server=sid, op="decompress").set(
                st.bytes_decompressed
            )
            cache_bytes.labels(server=sid, op="compress").set(
                st.bytes_compressed_in
            )
            cache_used.labels(server=sid).set(server.cache.used_bytes)
            cache_skipped.labels(server=sid).set(server.cache.compress_skipped)
        if server.decoded_cache is not None:
            st = server.decoded_cache.stats
            for event in _DECODED_EVENTS:
                cache_ev.labels(server=sid, cache="decoded", event=event).set(
                    getattr(st, event)
                )

    if channel is not None:
        chan = registry.counter(
            "repro_channel_total", "channel fabric totals", ("kind",)
        )
        chan.labels(kind="bytes").set(channel.total_bytes)
        chan.labels(kind="messages").set(channel.total_messages)
    return registry
