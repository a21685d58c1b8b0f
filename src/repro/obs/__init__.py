"""``repro.obs`` — tracing, metrics, and run-report observability.

The instrumentation layer over the whole runtime: span/instant tracing
(:mod:`repro.obs.trace`), a labeled metrics registry bridged from the
engine's counters (:mod:`repro.obs.metrics`), exporters for Chrome
trace-event JSON / Prometheus text / per-superstep JSONL
(:mod:`repro.obs.export`), and Table-3-style run reports
(:mod:`repro.obs.report`).

Enable it from the facade (``GraphH(..., trace=True)`` or
``trace_out="run.trace.json"``) or the CLI (``repro run`` with
``--trace-out``, ``--metrics-out``, ``--timeline-out`` or
``--report-out``).  When disabled — the
default — every instrumentation site records into the no-op
``NULL_BUFFER`` and the engine's values, counters, and modeled costs
are bitwise unchanged.
"""

from repro.obs.export import (
    parse_prometheus_text,
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_prometheus,
    write_superstep_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bridge_cluster,
)
from repro.obs.report import (
    build_run_report,
    build_service_report,
    format_run_report,
    format_service_report,
    load_run_report,
    save_run_report,
)
from repro.obs.trace import SpanNode, TraceBuffer, Tracer, span_forest

__all__ = [
    "Tracer",
    "TraceBuffer",
    "SpanNode",
    "span_forest",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "bridge_cluster",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_prometheus",
    "parse_prometheus_text",
    "write_superstep_jsonl",
    "build_run_report",
    "format_run_report",
    "build_service_report",
    "format_service_report",
    "save_run_report",
    "load_run_report",
]
