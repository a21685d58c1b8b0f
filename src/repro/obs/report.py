"""Run reports: the paper's Table 3 as a first-class artifact.

GraphH's evaluation decomposes every superstep into *load* (disk),
*gather-apply* (compute + decompression), *broadcast* (network), and
*sync* — Table 3 of the paper.  The engine already models exactly those
components (:class:`repro.metrics.cost.SuperstepCost`); this module
turns one :class:`repro.core.mpe.RunResult` into

* a JSON-serialisable **run report** (:func:`build_run_report`) that
  captures the per-superstep phase breakdown, the host-runtime
  telemetry, aggregate counters, and enough identity metadata
  (dataset / program / executor) to compare runs across commits, and
* a human-readable table (:func:`format_run_report`) mirroring the
  Table 3 layout, printed by ``repro run`` and ``repro report``.
"""

from __future__ import annotations

import dataclasses
import json

__all__ = [
    "REPORT_SCHEMA",
    "SERVICE_REPORT_SCHEMA",
    "build_run_report",
    "save_run_report",
    "load_run_report",
    "format_run_report",
    "build_service_report",
    "format_service_report",
]

REPORT_SCHEMA = "repro-run-report/v1"
SERVICE_REPORT_SCHEMA = "repro-service-report/v1"

# Table 3 column → SuperstepCost component(s).  "probe" is the
# selective-scheduling schedule-check time for skipped tiles; "delta"
# is the overlay compose time on evolving graphs (both absent from
# reports written before their PRs; missing keys read 0).
_PHASES = (
    ("load", ("disk",)),
    ("gather-apply", ("compute", "decompress")),
    ("broadcast", ("network",)),
    ("sync", ("sync",)),
    ("fault", ("fault",)),
    ("probe", ("probe",)),
    ("delta", ("delta",)),
)


def build_run_report(
    result,
    cluster=None,
    *,
    dataset: str = "",
    program: str = "",
    num_servers: int | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the run-report dict for one finished run."""
    report = {
        "schema": REPORT_SCHEMA,
        "dataset": dataset,
        "program": program,
        "num_servers": num_servers
        if num_servers is not None
        else (len(cluster.servers) if cluster is not None else None),
        "converged": result.converged,
        "num_supersteps": result.num_supersteps,
        "runtime": result.runtime(),
        "avg_superstep_modeled_s": result.avg_superstep_modeled_s(),
        "totals": {
            "net_bytes": result.total_net_bytes(),
            "disk_read_bytes": result.total_disk_read(),
            "wall_s": round(sum(s.wall_s for s in result.supersteps), 6),
        },
        "supersteps": result.trace(),
        "filters_built": getattr(result, "filters_built", None),
    }
    delta = getattr(result, "delta", None)
    if delta is not None:
        report["delta"] = delta
    if cluster is not None:
        report["counters"] = {
            str(s.server_id): s.counters.snapshot() for s in cluster.servers
        }
        report["cache"] = {
            str(s.server_id): {
                **dataclasses.asdict(s.cache.stats),
                "mode": s.cache.mode,
                "used_bytes": s.cache.used_bytes,
                "capacity_bytes": s.cache.capacity_bytes,
                # Host telemetry (not contract): rejects decided from a
                # remembered, generation-checked size — no codec run.
                "compress_skipped": s.cache.compress_skipped,
            }
            for s in cluster.servers
            if s.cache is not None
        }
    if extra:
        report.update(extra)
    return report


def save_run_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_run_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: not a run report (schema={report.get('schema')!r})"
        )
    return report


def build_service_report(engine) -> dict:
    """One row per job the service engine has seen, plus queue totals.

    ``engine`` is a :class:`repro.service.engine.Engine`; the report is
    what ``repro jobs`` renders and what the daemon prints on graceful
    shutdown.
    """
    rows = []
    for record in engine.jobs():
        row = {
            "job_id": record.job_id,
            "graph": record.spec.graph,
            "algorithm": record.spec.algorithm,
            "tenant": record.spec.tenant,
            "priority": record.spec.priority,
            "status": record.status,
            "reason": record.reason,
            "wait_s": round(record.wait_s, 6),
            "run_s": round(record.run_s, 6),
        }
        if record.result is not None:
            row.update(
                converged=record.result.converged,
                num_supersteps=record.result.num_supersteps,
                executor=record.result.executor,
                modeled_job_s=record.result.modeled_job_s,
            )
        rows.append(row)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    return {
        "schema": SERVICE_REPORT_SCHEMA,
        "graphs": engine.graphs(),
        "queue_depth": engine.queue.depth(),
        "status_counts": counts,
        "jobs": rows,
    }


def format_service_report(report: dict) -> str:
    """Render the job table for ``repro jobs`` / daemon shutdown."""
    header = (
        f"{'job':<14} {'graph':<16} {'algo':<9} {'tenant':<10} {'prio':<7} "
        f"{'status':<9} {'steps':>5} {'wait_s':>8} {'run_s':>8}"
    )
    lines = [
        f"service report — graphs: {', '.join(report.get('graphs', [])) or '-'} "
        f"(queued: {report.get('queue_depth', 0)})",
        header,
        "-" * len(header),
    ]
    for row in report.get("jobs", []):
        steps = row.get("num_supersteps", "")
        lines.append(
            f"{row['job_id']:<14} {row['graph']:<16.16} {row['algorithm']:<9} "
            f"{row['tenant']:<10.10} {row['priority']:<7} {row['status']:<9} "
            f"{steps!s:>5} {row['wait_s']:>8.3f} {row['run_s']:>8.3f}"
            + (f"  [{row['reason']}]" if row.get("reason") else "")
        )
    counts = report.get("status_counts", {})
    lines.append("-" * len(header))
    lines.append(
        "totals: "
        + (
            " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            or "no jobs"
        )
    )
    return "\n".join(lines)


def _phase_seconds(modeled: dict) -> dict[str, float]:
    """Fold a ``modeled_s`` dict into the Table 3 phase columns."""
    return {
        phase: sum(modeled.get(c, 0.0) for c in components)
        for phase, components in _PHASES
    }


def format_run_report(report: dict, max_rows: int = 40) -> str:
    """Render the Table-3-style per-superstep breakdown.

    Columns are the paper's phases (modeled seconds); the footer gives
    the paper's headline metric — the mean superstep time with the
    first (cold, load-dominated) superstep excluded — plus totals.
    Long runs elide the middle supersteps.
    """
    rows = report.get("supersteps", [])
    header = (
        f"{'step':>5} {'load':>9} {'gather-apply':>13} {'broadcast':>10} "
        f"{'sync':>8} {'fault':>8} {'probe':>8} {'delta':>8} {'total':>9}  "
        f"{'updated':>9} {'tiles p/s':>9} {'hit%':>5}"
    )
    lines = [
        f"run report — {report.get('program') or '?'} on "
        f"{report.get('dataset') or '?'} "
        f"(N={report.get('num_servers')}, "
        f"executor={report.get('runtime', {}).get('executor', '?')})",
    ]
    setup = report.get("setup")
    if setup:
        lines.append(
            "set-up (SPE, wall): "
            f"degree jobs {setup['degree_jobs_s']:.3f}s + "
            f"splitter {setup['splitter_s']:.3f}s + "
            f"tile map+shuffle {setup['tile_map_shuffle_s']:.3f}s + "
            f"tile reduce+persist {setup['tile_reduce_persist_s']:.3f}s; "
            f"{setup['num_tiles']} tiles, {setup['shuffles']} shuffles of "
            f"{setup['records_moved']} records, {setup['approx_bytes_moved']}B"
        )
    lines += [header, "-" * len(header)]

    def fmt_row(row: dict) -> str:
        modeled = row.get("modeled_s") or {}
        phases = _phase_seconds(modeled)
        total = modeled.get("total", sum(phases.values()))
        return (
            f"{row['superstep']:>5} {phases['load']:>9.4f} "
            f"{phases['gather-apply']:>13.4f} {phases['broadcast']:>10.4f} "
            f"{phases['sync']:>8.4f} {phases['fault']:>8.4f} "
            f"{phases['probe']:>8.4f} {phases['delta']:>8.4f} {total:>9.4f}  "
            f"{row['updated_vertices']:>9} "
            f"{row['tiles_processed']:>4}/{row['tiles_skipped']:<4} "
            f"{100.0 * row.get('cache_hit_ratio', 0.0):>5.1f}"
        )

    if len(rows) <= max_rows:
        lines.extend(fmt_row(r) for r in rows)
    else:
        head, tail = rows[: max_rows // 2], rows[-max_rows // 2 :]
        lines.extend(fmt_row(r) for r in head)
        lines.append(f"  ... {len(rows) - len(head) - len(tail)} supersteps elided ...")
        lines.extend(fmt_row(r) for r in tail)

    lines.append("-" * len(header))
    steady = [r for r in rows[1:] if r.get("modeled_s")] or [
        r for r in rows if r.get("modeled_s")
    ]
    if steady:
        mean = {
            phase: sum(_phase_seconds(r["modeled_s"])[phase] for r in steady)
            / len(steady)
            for phase, _ in _PHASES
        }
        mean_total = sum(r["modeled_s"]["total"] for r in steady) / len(steady)
        lines.append(
            f"{'mean*':>5} {mean['load']:>9.4f} {mean['gather-apply']:>13.4f} "
            f"{mean['broadcast']:>10.4f} {mean['sync']:>8.4f} "
            f"{mean['fault']:>8.4f} {mean['probe']:>8.4f} "
            f"{mean['delta']:>8.4f} {mean_total:>9.4f}"
            "   (* first superstep excluded, the paper's metric)"
        )
    totals = report.get("totals", {})
    tiles_skipped = sum(r.get("tiles_skipped", 0) for r in rows)
    tiles_processed = sum(r.get("tiles_processed", 0) for r in rows)
    lines.append(
        f"supersteps={report.get('num_supersteps')} "
        f"converged={report.get('converged')} "
        f"net={totals.get('net_bytes', 0)}B "
        f"disk={totals.get('disk_read_bytes', 0)}B "
        f"tiles skipped={tiles_skipped}/{tiles_skipped + tiles_processed} "
        f"wall={totals.get('wall_s', 0.0):.3f}s"
    )
    built = report.get("filters_built")
    lines.append(
        f"filters: built at superstep {built['superstep']} "
        f"({built['tiles']} tiles, {built['bytes'] / 1024:.1f} KB)"
        if built
        else "filters: never built"
    )
    runtime = dict(report.get("runtime", {}))
    requested = runtime.pop("executor_requested", None)
    if requested is not None:  # the platform fallback, spelled out
        runtime["executor"] = f"{runtime.get('executor')} (requested {requested})"
    if runtime:
        lines.append(
            "runtime: "
            + " ".join(f"{k}={v}" for k, v in sorted(runtime.items()))
        )
    cache = report.get("cache")
    if cache:
        lines.append(_format_cache(cache))
    delta = report.get("delta")
    if delta:
        lines.append(
            "delta: "
            + " ".join(f"{k}={v}" for k, v in sorted(delta.items()))
        )
    tuning = report.get("tuning")
    if tuning:
        lines.extend(_format_tuning(tuning))
    return "\n".join(lines)


def _format_cache(cache: dict) -> str:
    """Render the edge-cache line: cluster-wide §IV-B event totals, then
    the host-telemetry share of the rejects that were decided from a
    verified remembered size, i.e. without the codec."""
    def total(key: str) -> int:
        return sum(row.get(key, 0) for row in cache.values())

    modes = sorted({row["mode"] for row in cache.values()})
    return (
        f"cache: mode={','.join(str(m) for m in modes)} "
        f"hits={total('hits')} misses={total('misses')} "
        f"insertions={total('insertions')} rejected={total('rejected')} "
        f"evictions={total('evictions')} "
        f"used={total('used_bytes')}/{total('capacity_bytes')}B "
        f"(host telemetry: compress_skipped={total('compress_skipped')}"
        f"/{total('rejected')})"
    )


def _format_tuning(tuning: dict) -> list[str]:
    """Render the autotuner appendix: fitted constants + decision trace."""
    lines = ["", "tuning:"]
    constants = tuning.get("constants")
    if constants:
        codec_mbps = constants.get("codec_mbps") or {}
        parts = []
        for key, unit in (
            ("disk_bw", "B/s"),
            ("edge_rate", "edges/s"),
            ("net_bw", "B/s"),
            ("sync_s", "s"),
        ):
            v = constants.get(key)
            if v is not None:
                parts.append(f"{key}={v:.4g}{unit}")
        parts.extend(
            f"codec[{c}]={codec_mbps[c]:.4g}MiB/s"
            for c in sorted(codec_mbps)
            if codec_mbps[c] is not None
        )
        lines.append(
            f"  fitted @ step {tuning.get('fit_superstep')} "
            f"from {tuning.get('num_samples')} samples "
            "(modeled time): " + " ".join(parts)
        )
        residuals = tuning.get("residuals") or []
        if residuals:
            worst = max(abs(r.get("residual_s", 0.0)) for r in residuals)
            lines.append(f"  fit residual: max |err| {worst:.4g}s")
    plan = tuning.get("plan") or {}
    for d in plan.get("decisions", []):
        knobs = d.get("knobs", {})
        pred = d.get("predicted_s")
        lines.append(
            f"  step {d['superstep']:>3} [{d['phase']:>7}] "
            f"{d.get('reason', '')}  "
            f"codec={knobs.get('message_codec')} "
            f"comm={knobs.get('comm_mode')} "
            f"bloom={'on' if knobs.get('use_bloom') else 'off'} "
            f"prefetch={knobs.get('prefetch_depth')}x{knobs.get('io_threads')}"
            + (
                f" cache->mode{knobs['cache_mode']}"
                if knobs.get("cache_mode") is not None
                else ""
            )
            + (f"  (predicted {pred:.4g}s)" if pred is not None else "")
        )
    switches = plan.get("switch_supersteps")
    if switches is not None:
        lines.append(
            "  switches at: "
            + (", ".join(str(s) for s in switches) or "none")
        )
    return lines
