"""Command-line interface: ``python -m repro <command> ...``.

The surface a downstream user touches first:

* ``generate`` — write a synthetic graph to an edge-list CSV;
* ``stats``    — Table-I-style statistics for an edge-list file;
* ``run ALGO PATH`` — run one algorithm (any name in
  ``service.jobs.ALGORITHMS``) on an edge-list file through GraphH and
  write/print the per-vertex results.  Tracing (``--trace-out``,
  ``--metrics-out``, ``--timeline-out``, ``--report-out``), the online
  autotuner (``--tune``) and an injected fault schedule
  (``--crash-at`` …, supervised, ``--verify``) are options of this one
  verb, not verbs of their own;
* ``report``   — print a saved run report as the Table-3-style table;
* ``shootout`` — compare all systems on one input (Figure-9-style row);
* ``serve`` / ``submit`` / ``mutate`` / ``jobs`` — the persistent
  service daemon and its clients.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import GraphH, MPEConfig
from repro.core.knobs import knob_rows, overlay
from repro.graph import (
    Graph,
    chung_lu_graph,
    compute_stats,
    grid_graph,
    load_edge_list_binary,
    load_edge_list_csv,
    rmat_graph,
    save_edge_list_binary,
    save_edge_list_csv,
    watts_strogatz_graph,
)
from repro.service.jobs import ALGORITHMS, build_program

# Program parameters, flag name → (type, help).  Every default lives in
# the factory ``service.jobs.ALGORITHMS`` names; ``None`` = not given.
PARAMS = {
    "damping": (float, "damping factor (pagerank, ppr)"),
    "source": (int, "source vertex (sssp, bfs)"),
    "seeds": (str, "comma-separated seed vertices (ppr)"),
    "alpha": (float, "attenuation factor (katz)"),
    "beta": (float, "constant term (katz)"),
}


def _usage_error(exc: Exception) -> SystemExit:
    """A value a knob row or a program factory refuses: argparse's exit."""
    print(f"repro: error: {exc}", file=sys.stderr)
    return SystemExit(2)


def add_knob_arguments(parser, *, unset: bool = False) -> None:
    """One flag per run-scoped :class:`MPEConfig` row — spelling, type,
    choices, default and help all read off the row.

    ``unset=True`` (``repro submit``) leaves every default ``None`` —
    "the registration's value stands" — and also offers the rows only a
    long-lived engine can honour.
    """
    for row in knob_rows(MPEConfig):
        if row.flag is None or (row.warm_only and not unset):
            continue
        options = {"default": None if unset else row.default, "help": row.help}
        if row.type is bool:
            options["action"] = argparse.BooleanOptionalAction
        elif row.choices is not None:
            options.update(type=row.type, choices=row.choices)
        else:
            options.update(type=row.type, metavar="N")
        parser.add_argument(row.flag, **options)


def knobs_from_args(args) -> dict:
    """The knob flags a parsed command line set, keyed as spelt."""
    return {
        row.key: getattr(args, row.key)
        for row in knob_rows(MPEConfig)
        if row.flag is not None and getattr(args, row.key, None) is not None
    }


def config_from_args(args) -> MPEConfig:
    """The :class:`MPEConfig` a parsed command line means."""
    try:
        return overlay(MPEConfig(), **knobs_from_args(args))
    except ValueError as exc:
        raise _usage_error(exc) from None


def _add_params(parser: argparse.ArgumentParser) -> None:
    for name, (kind, text) in PARAMS.items():
        parser.add_argument(f"--{name}", type=kind, default=None, help=text)


def _program(args):
    """``(params, program)``: the parameter flags a parsed command line
    set and the ``args.algorithm`` program they mean — built here, so a
    value the factory refuses is a usage error, not a traceback."""
    params = {name: getattr(args, name) for name in PARAMS if getattr(args, name) is not None}
    try:
        if "seeds" in params:
            params["seeds"] = [int(s) for s in params["seeds"].split(",") if s]
        return params, build_program(args.algorithm, params)
    except ValueError as exc:
        raise _usage_error(exc) from None


def _load(path: str) -> Graph:
    """Load a graph, auto-detecting the binary format by extension/magic."""
    if str(path).endswith(".bin"):
        return load_edge_list_binary(path)
    with open(path, "rb") as fh:
        if fh.read(4) == b"GHBE":
            return load_edge_list_binary(path)
    return load_edge_list_csv(path)


def cmd_generate(args) -> int:
    if args.kind == "rmat":
        graph = rmat_graph(scale=args.scale, edge_factor=args.edge_factor, seed=args.seed)
    elif args.kind == "powerlaw":
        num_vertices = 1 << args.scale
        graph = chung_lu_graph(
            num_vertices, int(num_vertices * args.edge_factor), seed=args.seed
        )
    elif args.kind == "smallworld":
        graph = watts_strogatz_graph(
            1 << args.scale, k=max(1, int(args.edge_factor)), seed=args.seed
        )
    else:
        side = 1 << (args.scale // 2)
        graph = grid_graph(side, side, seed=args.seed)
    if str(args.path).endswith(".bin"):
        nbytes = save_edge_list_binary(graph, args.path)
    else:
        nbytes = save_edge_list_csv(graph, args.path)
    print(f"wrote {graph.num_edges} edges ({nbytes} bytes) to {args.path}")
    return 0


def cmd_stats(args) -> int:
    stats = compute_stats(_load(args.path))
    for field_name, value in zip(
        ("graph", "|V|", "|E|", "avg degree", "max in", "max out", "CSV"),
        stats.row(),
    ):
        print(f"{field_name:>12}: {value}")
    return 0


def _fault_schedule(args, max_supersteps: int):
    """The ``--*-at`` events plus a seeded :class:`repro.faults.FaultPlan`."""
    from repro import faults

    explicit = (
        (faults.CRASH, args.crash_at, {"server": args.crash_server}),
        (faults.STRAGGLER, args.straggler_at,
         {"server": args.straggler_server, "slow_factor": args.straggler_factor}),
        (faults.MSG_DROP, args.drop_at, {"server": args.drop_src}),
        (faults.DISK_ERROR, args.disk_error_at, {"retries": args.retries}),
    )
    events = [faults.FaultEvent(kind, superstep=at, **fields)
              for kind, at, fields in explicit if at is not None]
    plan = faults.FaultPlan(
        seed=args.seed, crash_rate=args.crash_rate,
        straggler_rate=args.straggler_rate, drop_rate=args.drop_rate,
    )
    events.extend(plan.materialize(args.servers, max_supersteps))
    return faults.FaultSchedule(events)


def _export(gh: GraphH, program, result, recovery, args) -> None:
    """Write the requested trace artifacts; print the Table-3 report when
    ``--report-out`` was given or the run was tuned.  Exits 1 when the
    emitted Chrome trace does not validate."""
    from repro.obs import export
    from repro.obs.report import build_run_report, format_run_report, save_run_report

    if args.metrics_out:
        export.write_prometheus(gh.tracer.metrics, args.metrics_out)
        print(f"wrote Prometheus metrics to {args.metrics_out}")
    if args.timeline_out:
        rows = export.write_superstep_jsonl(result, args.timeline_out)
        print(f"wrote {rows} timeline rows to {args.timeline_out}")
    if args.report_out or result.tuning:
        extra = {"setup": gh.setup_profile, "tuning": result.tuning,
                 "recovery": recovery and recovery.to_dict()}
        report = build_run_report(
            result, gh.cluster, dataset=gh.manifest.name, program=program.name,
            num_servers=args.servers, extra={k: v for k, v in extra.items() if v},
        )
        if args.report_out:
            save_run_report(report, args.report_out)
            print(f"wrote run report to {args.report_out}")
        print(format_run_report(report))
    if args.trace_out:
        problems = export.validate_chrome_trace_file(args.trace_out)
        if problems:
            listing = "\n  ".join(problems[:10])
            raise SystemExit(f"{args.trace_out}: invalid Chrome trace:\n  {listing}")
        print(
            f"wrote Chrome trace ({gh.tracer.total_events} events, "
            f"validated) to {args.trace_out}"
        )


def _print_values(values: np.ndarray, program, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            for v, x in enumerate(values.tolist()):
                fh.write(f"{v},{x}\n")
        print(f"wrote {values.size} values to {args.output}")
    if args.algorithm == "wcc":
        components, sizes = np.unique(values, return_counts=True)
        print(f"{components.size} weakly connected components")
        for i in np.argsort(sizes)[::-1][: args.top]:
            print(f"  component {int(components[i])}: {int(sizes[i])} vertices")
        return
    order = np.argsort(values)
    if args.algorithm in ("sssp", "bfs"):
        print(f"{int(np.isfinite(values).sum())} vertices reachable from {program.source}")
    else:
        order = order[::-1]
    print(f"top {args.top} vertices:")
    for v in order[: args.top]:
        print(f"  {v}\t{values[v]}")


def cmd_run(args) -> int:
    """Run one algorithm once — traced, tuned or under faults as asked.

    Exits 1 when the run did not converge (scripts and CI key off the
    exit code), when ``--verify``'s fault-free re-run differs bitwise,
    or when the emitted Chrome trace does not validate.
    """
    _, program = _program(args)
    config = config_from_args(args)
    schedule = _fault_schedule(args, config.max_supersteps)
    graph = _load(args.path)
    if ALGORITHMS[args.algorithm][1]:  # needs the undirected expansion
        graph = graph.to_undirected_edges()
    traced = any((args.trace_out, args.metrics_out, args.timeline_out, args.report_out))
    with GraphH(
        args.servers, config=config, root=args.state_dir, trace=traced, trace_out=args.trace_out
    ) as gh:
        gh.load_graph(graph, avg_tile_edges=args.tile_edges, reuse=args.state_dir is not None)
        if len(schedule):
            from repro.faults import RecoveryPolicy, Supervisor

            print(f"fault schedule ({len(schedule)} events):")
            for line in schedule.describe():
                print(f"  {line}")
            policy = RecoveryPolicy(max_restarts=args.max_restarts)
            supervisor = Supervisor(gh.mpe, schedule=schedule, policy=policy)
            result, recovery = supervisor.run(program, resume=args.resume)
            gh.finish_trace(program)  # as gh.run does
        else:
            result, recovery = gh.run(program, resume=args.resume), None
        print(f"{program.name}: {result.num_supersteps} supersteps, converged={result.converged}")
        if recovery is not None:
            print(
                f"recovery: {recovery.restarts} restart(s), "
                f"{recovery.reexecuted_supersteps} superstep(s) re-executed, "
                f"{recovery.recovery_read_bytes} recovery bytes, "
                f"{recovery.faults_injected} fault(s), "
                f"backoff {recovery.total_backoff_s:.2f}s"
            )
            for entry in recovery.fault_log:
                print(f"  fired: {entry['event']} (superstep {entry['superstep']})")
        if args.resume and result.supersteps and result.supersteps[0].superstep > 0:
            print(f"resumed from checkpoint at superstep {result.supersteps[0].superstep - 1}")
        _export(gh, program, result, recovery, args)
        if args.state_dir:
            gh.cluster.dfs.save_namespace()
    if not result.converged:
        print(f"run: FAILED — {program.name} did not converge", file=sys.stderr)
        return 1
    if args.verify:
        with GraphH(args.servers, config=config) as clean:
            clean.load_graph(graph, avg_tile_edges=args.tile_edges)
            expected = clean.run(program).values
        if not np.array_equal(result.values, expected):
            print("verify: FAILED — values differ from fault-free run")
            return 1
        print("verify: OK — values bitwise identical to fault-free run")
    _print_values(result.values, program, args)
    return 0


def cmd_report(args) -> int:
    """Print a saved run report as the Table-3-style table."""
    from repro.obs.report import format_run_report, load_run_report

    print(format_run_report(load_run_report(args.report), max_rows=args.max_rows))
    return 0


def cmd_shootout(args) -> int:
    from repro.analysis.experiments import run_system

    graph = _load(args.path)
    systems = ["graphh", "pregel+", "powergraph", "powerlyra", "graphd", "chaos"]
    print(f"{'system':<12}{'modeled s/superstep':>20}")
    for name in systems:
        result, cluster = run_system(
            name, graph, build_program("pagerank"), num_servers=args.servers, max_supersteps=5
        )
        cluster.close()
        # raw (unscaled) modeled time: the CLI input is the real graph.
        t = np.mean([s.modeled.total_s for s in result.supersteps[1:]])
        print(f"{name:<12}{t:>20.4f}")
    return 0


def cmd_serve(args) -> int:
    """Run the persistent service daemon (``repro serve``)."""
    import signal
    import threading
    from pathlib import Path

    from repro.service import Engine, ServiceServer

    tracer = None
    if args.trace_out:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    engine = Engine(
        num_servers=args.servers,
        state_dir=args.state_dir,
        capacity=args.capacity,
        tenant_quota=args.tenant_quota,
        tracer=tracer,
        cache_policy=args.cache_policy,
    )
    for path in args.graphs:
        graph = _load(path)
        name = Path(path).stem
        engine.register_graph(graph, name=name, avg_tile_edges=args.tile_edges)
        print(f"registered graph {name!r} ({graph.num_edges} edges)")
        if args.symmetrize:
            engine.register_graph(
                graph,
                name=f"{name}-sym",
                avg_tile_edges=args.tile_edges,
                symmetrize=True,
            )
            print(f"registered graph '{name}-sym' (undirected expansion)")
    engine.start(args.job_workers)
    server = ServiceServer(engine, host=args.host, port=args.port)
    server.serve_in_thread()
    host, port = server.address
    print(f"repro service listening on {host}:{port}", flush=True)

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    while not stop.wait(0.2):
        pass
    print("shutting down: draining running jobs ...", flush=True)
    server.shutdown()
    engine.shutdown(drain=True)
    if tracer is not None:
        from repro.obs.export import validate_chrome_trace_file, write_chrome_trace

        write_chrome_trace(tracer, args.trace_out, metadata={"service": True})
        validate_chrome_trace_file(args.trace_out)
        print(f"wrote {args.trace_out}")
    from repro.obs.report import build_service_report, format_service_report

    print(format_service_report(build_service_report(engine)))
    return 0


def _submit_spec(args) -> dict:
    """Assemble the JobSpec dict a ``repro submit`` invocation means."""
    params, _ = _program(args)
    spec = {
        "graph": args.graph,
        "algorithm": args.algorithm,
        "params": params,
        "priority": args.priority,
        "tenant": args.tenant,
    }
    return {**spec, **knobs_from_args(args)}


def cmd_submit(args) -> int:
    """Submit one job to a running daemon (``repro submit``)."""
    from repro.service import SocketServiceClient

    client = SocketServiceClient(host=args.host, port=args.port)
    response = client.request({"op": "submit", "spec": _submit_spec(args)})
    if not response.get("ok"):
        print(
            f"rejected: {response.get('reason') or response.get('error')}",
            file=sys.stderr,
        )
        return 1
    job_id = response["job_id"]
    print(f"submitted {job_id} ({args.algorithm} on {args.graph})")
    if not args.wait:
        return 0
    job = client.wait(job_id, timeout=args.timeout)
    status = job["status"]
    result = job.get("result") or {}
    print(
        f"{job_id}: {status}"
        + (
            f" — {result.get('num_supersteps')} supersteps, "
            f"converged={result.get('converged')}, "
            f"modeled {result.get('modeled_job_s', 0.0):.4f}s, "
            f"wait {job['wait_s']:.3f}s, run {job['run_s']:.3f}s"
            if result
            else (f" — {job.get('reason')}" if job.get("reason") else "")
        )
    )
    return 0 if status == "done" else 1


def _parse_edge_op(spec: str, op: str) -> dict:
    """``SRC:DST`` (or ``SRC:DST:WEIGHT`` for inserts) → a mutation op."""
    parts = spec.split(":")
    try:
        if op == "insert" and len(parts) == 3:
            return {
                "op": op,
                "src": int(parts[0]),
                "dst": int(parts[1]),
                "weight": float(parts[2]),
            }
        if len(parts) == 2:
            return {"op": op, "src": int(parts[0]), "dst": int(parts[1])}
    except ValueError:
        pass
    shape = "SRC:DST[:WEIGHT]" if op == "insert" else "SRC:DST"
    raise SystemExit(f"bad --{op} {spec!r}: expected {shape}")


def cmd_mutate(args) -> int:
    """Apply an edge insert/delete batch to a daemon graph
    (``repro mutate``)."""
    from repro.service import SocketServiceClient

    ops: list[dict] = []
    for spec in args.insert:
        ops.append(_parse_edge_op(spec, "insert"))
    for spec in args.delete:
        ops.append(_parse_edge_op(spec, "delete"))
    if args.random:
        if not args.edges:
            print("--random needs --edges FILE to sample from", file=sys.stderr)
            return 1
        from repro.delta import random_mutations

        graph = _load(args.edges)
        num_deletes = args.random // 2
        ops.extend(
            random_mutations(
                graph,
                num_inserts=args.random - num_deletes,
                num_deletes=num_deletes,
                seed=args.seed,
            )
        )
    if not ops:
        print("nothing to apply (use --insert/--delete/--random)",
              file=sys.stderr)
        return 1
    client = SocketServiceClient(host=args.host, port=args.port)
    response = client.request(
        {"op": "mutate", "graph": args.graph, "ops": ops}
    )
    if not response.get("ok"):
        print(f"mutate failed: {response.get('error')}", file=sys.stderr)
        return 1
    rep = response["mutate"]
    merged = rep.get("merged") or []
    print(
        f"applied {rep['applied']} mutations to {args.graph!r} "
        f"(+{rep['inserts']} / -{rep['deletes']}): "
        f"{rep['affected_tiles']} tiles overlaid, {len(merged)} merged, "
        f"{rep['overlay_bytes']} overlay bytes, watermark {rep['watermark']}"
    )
    return 0


def cmd_jobs(args) -> int:
    """List a running daemon's jobs (``repro jobs``)."""
    from repro.obs.report import format_service_report
    from repro.service import SocketServiceClient

    client = SocketServiceClient(host=args.host, port=args.port)
    print(format_service_report(client.report()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GraphH reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7077)

    g = sub.add_parser(
        "generate", help="write a synthetic edge list (.csv or .bin)"
    )
    g.add_argument("path")
    g.add_argument(
        "--kind",
        choices=("rmat", "powerlaw", "grid", "smallworld"),
        default="rmat",
    )
    g.add_argument("--scale", type=int, default=10, help="log2 vertex count")
    g.add_argument("--edge-factor", type=float, default=16.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("stats", help="Table-I statistics for an edge list")
    s.add_argument("path")
    s.set_defaults(func=cmd_stats)

    r = sub.add_parser(
        "run",
        help="run one algorithm through GraphH — traced, tuned (--tune) or "
        "under an injected fault schedule, as the options ask",
    )
    r.add_argument("algorithm", choices=tuple(ALGORITHMS))
    r.add_argument("path")
    r.add_argument("--servers", type=int, default=1, help="cluster width")
    r.add_argument("--tile-edges", type=int, default=None, help="edges per tile (S)")
    r.add_argument("--output", default=None, help="write per-vertex values to this CSV")
    r.add_argument("--top", type=int, default=10, help="print the top-K vertices")
    r.add_argument("--resume", action="store_true",
                   help="resume from the newest DFS checkpoint (use with --state-dir)")
    r.add_argument("--state-dir", default=None,
                   help="persistent cluster root: keeps tiles + checkpoints across "
                   "invocations so --resume can pick up where a run stopped")
    _add_params(r)
    add_knob_arguments(r)

    t = r.add_argument_group("tracing (any of these turns it on)")
    t.add_argument("--trace-out", metavar="JSON",
                   help="Chrome trace-event JSON (Perfetto), validated after writing")
    t.add_argument("--metrics-out", metavar="PROM", help="Prometheus text exposition")
    t.add_argument("--timeline-out", metavar="JSONL", help="per-superstep JSONL timeline")
    t.add_argument("--report-out", metavar="JSON",
                   help="run report JSON (read back by `repro report`)")

    f = r.add_argument_group("faults (a non-empty schedule runs under a supervisor)")
    f.add_argument("--crash-at", type=int, metavar="STEP", help="crash a server at this superstep")
    f.add_argument("--crash-server", type=int, default=0)
    f.add_argument("--straggler-at", type=int, metavar="STEP")
    f.add_argument("--straggler-server", type=int, default=0)
    f.add_argument("--straggler-factor", type=float, default=4.0)
    f.add_argument("--drop-at", type=int, metavar="STEP", help="drop a broadcast at this superstep")
    f.add_argument("--drop-src", type=int, default=0)
    f.add_argument("--disk-error-at", type=int, metavar="STEP",
                   help="transient tile-read error at this superstep")
    f.add_argument("--retries", type=int, default=2,
                   help="failed attempts per transient disk error")
    f.add_argument("--seed", type=int, default=0, help="seed for the random fault plan")
    f.add_argument("--crash-rate", type=float, default=0.0)
    f.add_argument("--straggler-rate", type=float, default=0.0)
    f.add_argument("--drop-rate", type=float, default=0.0)
    f.add_argument("--max-restarts", type=int, default=8)
    f.add_argument("--verify", action="store_true",
                   help="re-run fault-free and assert bitwise-identical values")
    r.set_defaults(func=cmd_run)

    q = sub.add_parser(
        "report", help="print a saved run report as a Table-3-style table"
    )
    q.add_argument("report", help="run report JSON from `repro run --report-out`")
    q.add_argument("--max-rows", type=int, default=40,
                   help="elide the middle beyond this many superstep rows")
    q.set_defaults(func=cmd_report)

    x = sub.add_parser("shootout", help="compare all systems on one input")
    x.add_argument("path")
    x.add_argument("--servers", type=int, default=4)
    x.set_defaults(func=cmd_shootout)

    v = sub.add_parser(
        "serve",
        help="persistent service daemon: load graphs once, serve jobs "
        "over a socket until SIGINT/SIGTERM (drains + persists queue)",
    )
    v.add_argument("graphs", nargs="+", help="edge-list files to register")
    v.add_argument("--servers", type=int, default=4, help="cluster width")
    v.add_argument("--tile-edges", type=int, default=None)
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=7077,
                   help="TCP port (0 = pick a free one, printed on start)")
    v.add_argument("--state-dir", default=None,
                   help="persist queued jobs + results for restart")
    v.add_argument("--capacity", type=int, default=64,
                   help="admission control: max queued jobs")
    v.add_argument("--tenant-quota", type=int, default=None, metavar="Q",
                   help="max queued jobs per tenant")
    v.add_argument("--job-workers", type=int, default=1, metavar="W",
                   help="background worker threads executing jobs")
    v.add_argument("--cache-policy", choices=("cold", "warm"), default="cold",
                   help="per-job edge cache: 'cold' pins warm-vs-cold "
                   "identity; 'warm' keeps it populated across jobs")
    v.add_argument("--symmetrize", action="store_true",
                   help="also register each graph's undirected expansion "
                   "(<name>-sym) so WCC jobs can run")
    v.add_argument("--trace-out", default=None, metavar="JSON",
                   help="write the job-span Chrome trace on shutdown")
    v.set_defaults(func=cmd_serve)

    u = sub.add_parser("submit", parents=[client], help="submit a job to a running daemon")
    u.add_argument("--graph", required=True, help="registered graph name")
    u.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="pagerank")
    _add_params(u)
    u.add_argument("--priority", choices=("high", "normal", "low"),
                   default="normal")
    u.add_argument("--tenant", default="default")
    add_knob_arguments(u, unset=True)
    u.add_argument("--wait", action="store_true",
                   help="block until the job finishes; exit 1 unless done")
    u.add_argument("--timeout", type=float, default=300.0)
    u.set_defaults(func=cmd_submit)

    m = sub.add_parser(
        "mutate",
        parents=[client],
        help="apply an edge insert/delete batch to a daemon graph "
        "(repro.delta overlays; queries keep running)",
    )
    m.add_argument("--graph", required=True, help="registered graph name")
    m.add_argument("--insert", action="append", default=[],
                   metavar="SRC:DST[:W]",
                   help="insert one edge (repeatable)")
    m.add_argument("--delete", action="append", default=[], metavar="SRC:DST",
                   help="delete one edge (repeatable)")
    m.add_argument("--random", type=int, default=0, metavar="N",
                   help="add N random mutations (half inserts, half deletes "
                   "sampled from --edges)")
    m.add_argument("--edges", default=None, metavar="FILE",
                   help="edge-list file --random samples deletions from "
                   "(the graph as originally registered)")
    m.add_argument("--seed", type=int, default=7)
    m.set_defaults(func=cmd_mutate)

    j = sub.add_parser("jobs", parents=[client], help="job table from a running daemon")
    j.set_defaults(func=cmd_jobs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro report ... | head`) closed early;
        # detach stdout so the interpreter's shutdown flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
