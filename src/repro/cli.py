"""Command-line interface: ``python -m repro <command> ...``.

The surface a downstream user touches first:

* ``generate`` — write a synthetic graph to an edge-list CSV;
* ``stats``    — Table-I-style statistics for an edge-list file;
* ``pagerank`` / ``sssp`` / ``wcc`` — run an algorithm on an edge-list
  file through GraphH and write/print the per-vertex results;
* ``shootout`` — compare all systems on one input (Figure-9-style row).

Every command takes ``--servers`` for the simulated cluster width.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.apps import (
    BFS,
    SSSP,
    KatzCentrality,
    PageRank,
    PersonalizedPageRank,
)
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=1, help="cluster width")
    parser.add_argument(
        "--tile-edges", type=int, default=None, help="edges per tile (S)"
    )
    parser.add_argument(
        "--output", default=None, help="write per-vertex values to this CSV"
    )
    parser.add_argument(
        "--top", type=int, default=10, help="print the top-K vertices"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest DFS checkpoint (use with --state-dir)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="persistent cluster root: keeps tiles + checkpoints across "
        "invocations so --resume can pick up where a run stopped",
    )
    add_knob_arguments(parser)
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="JSON",
        help="record an execution trace (repro.obs) and write it here "
        "as Chrome trace-event JSON (Perfetto / chrome://tracing)",
    )


def add_knob_arguments(parser, *, unset: bool = False, **defaults) -> None:
    """One flag per run-scoped :class:`MPEConfig` row — spelling, type,
    choices, default and help all read off the row.

    ``defaults`` overrides a row's default for this command (``chaos``
    checkpoints every 2 supersteps); ``unset=True`` (``repro submit``)
    leaves every default ``None`` — "the registration's value stands" —
    and also offers the rows only a long-lived engine can honour.
    """
    for row in knob_rows(MPEConfig):
        if row.flag is None or (row.warm_only and not unset):
            continue
        options = {
            "default": None if unset else defaults.get(row.name, row.default),
            "help": row.help,
        }
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
    """The :class:`MPEConfig` a parsed command line means (a value the
    row refuses is a usage error, not a traceback)."""
    try:
        return overlay(MPEConfig(), **knobs_from_args(args))
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}") from None


def _program(args, graph: Graph):
    """The named algorithm's program and the graph it runs on — the
    undirected expansion when the algorithm needs one
    (``service.jobs.ALGORITHMS`` is the one name → program table)."""
    _factory, needs_sym = ALGORITHMS[args.algorithm]
    program = build_program(
        args.algorithm, {"damping": args.damping, "source": args.source}
    )
    return program, graph.to_undirected_edges() if needs_sym else graph


def _load(path: str) -> Graph:
    """Load a graph, auto-detecting the binary format by extension/magic."""
    if str(path).endswith(".bin"):
        return load_edge_list_binary(path)
    with open(path, "rb") as fh:
        if fh.read(4) == b"GHBE":
            return load_edge_list_binary(path)
    return load_edge_list_csv(path)


def _emit(values: np.ndarray, args, descending: bool = True) -> None:
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            for v, x in enumerate(values.tolist()):
                fh.write(f"{v},{x}\n")
        print(f"wrote {values.size} values to {args.output}")
    order = np.argsort(values)
    if descending:
        order = order[::-1]
    print(f"top {args.top} vertices:")
    for v in order[: args.top]:
        print(f"  {v}\t{values[v]}")


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


def _run(graph: Graph, program, args):
    with GraphH(
        num_servers=args.servers,
        config=config_from_args(args),
        root=args.state_dir,
        trace_out=args.trace_out,
    ) as gh:
        gh.load_graph(
            graph,
            avg_tile_edges=args.tile_edges,
            reuse=args.state_dir is not None,
        )
        result = gh.run(program, resume=args.resume)
        print(
            f"{program.name}: {result.num_supersteps} supersteps, "
            f"converged={result.converged}"
        )
        if result.tuning:
            switches = (result.tuning.get("plan") or {}).get(
                "switch_supersteps", []
            )
            print(
                "tuning: "
                + (
                    "switched knobs at superstep(s) "
                    + ", ".join(str(s) for s in switches)
                    if switches
                    else "held the configured knobs"
                )
            )
        if args.trace_out:
            print(
                f"wrote Chrome trace ({gh.tracer.total_events} events) "
                f"to {args.trace_out}"
            )
        if result.supersteps and result.supersteps[0].superstep > 0:
            print(
                f"resumed from checkpoint at superstep "
                f"{result.supersteps[0].superstep - 1}"
            )
        if args.state_dir:
            gh.cluster.dfs.save_namespace()
        return result.values


def cmd_pagerank(args) -> int:
    values = _run(_load(args.path), PageRank(damping=args.damping), args)
    _emit(values, args)
    return 0


def cmd_sssp(args) -> int:
    values = _run(_load(args.path), SSSP(source=args.source), args)
    reachable = np.isfinite(values)
    print(f"{int(reachable.sum())} vertices reachable from {args.source}")
    _emit(np.where(reachable, values, np.inf), args, descending=False)
    return 0


def cmd_bfs(args) -> int:
    values = _run(_load(args.path), BFS(source=args.source), args)
    reachable = np.isfinite(values)
    print(f"{int(reachable.sum())} vertices reachable from {args.source}")
    _emit(np.where(reachable, values, np.inf), args, descending=False)
    return 0


def cmd_katz(args) -> int:
    values = _run(
        _load(args.path), KatzCentrality(alpha=args.alpha, beta=args.beta), args
    )
    _emit(values, args)
    return 0


def cmd_ppr(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    values = _run(
        _load(args.path),
        PersonalizedPageRank(seeds, damping=args.damping),
        args,
    )
    _emit(values, args)
    return 0


def cmd_wcc(args) -> int:
    graph = _load(args.path)
    with GraphH(
        num_servers=args.servers,
        config=config_from_args(args),
        root=args.state_dir,
        trace_out=args.trace_out,
    ) as gh:
        gh.load_graph(
            graph,
            avg_tile_edges=args.tile_edges,
            reuse=args.state_dir is not None,
        )
        labels = gh.wcc(resume=args.resume)
        if args.trace_out:
            print(
                f"wrote Chrome trace ({gh.tracer.total_events} events) "
                f"to {args.trace_out}"
            )
        if args.state_dir:
            gh.cluster.dfs.save_namespace()
    components, sizes = np.unique(labels, return_counts=True)
    print(f"{components.size} weakly connected components")
    order = np.argsort(sizes)[::-1]
    for i in order[: args.top]:
        print(f"  component {int(components[i])}: {int(sizes[i])} vertices")
    if args.output:
        _emit(labels, args)
    return 0


def cmd_chaos(args) -> int:
    """Run an algorithm under an injected fault schedule, supervised.

    Builds the schedule from the explicit ``--crash-at`` /
    ``--straggler-at`` / ``--drop-at`` / ``--disk-error-at`` events
    plus (when any ``--*-rate`` is nonzero) a seeded random
    :class:`repro.faults.FaultPlan`, then runs the program under a
    :class:`repro.faults.Supervisor` and prints the recovery report.
    ``--verify`` re-runs fault-free and asserts bitwise-identical
    values (exit code 1 on mismatch).
    """
    from repro.cluster import Cluster, ClusterSpec
    from repro.core import MPE, SPE
    from repro.faults import (
        CRASH,
        DISK_ERROR,
        MSG_DROP,
        STRAGGLER,
        FaultEvent,
        FaultPlan,
        FaultSchedule,
        RecoveryPolicy,
        Supervisor,
    )

    program, graph = _program(args, _load(args.path))
    config = config_from_args(args)

    events = []
    if args.crash_at is not None:
        events.append(
            FaultEvent(CRASH, superstep=args.crash_at, server=args.crash_server)
        )
    if args.straggler_at is not None:
        events.append(
            FaultEvent(
                STRAGGLER,
                superstep=args.straggler_at,
                server=args.straggler_server,
                slow_factor=args.straggler_factor,
            )
        )
    if args.drop_at is not None:
        events.append(
            FaultEvent(MSG_DROP, superstep=args.drop_at, server=args.drop_src)
        )
    if args.disk_error_at is not None:
        events.append(
            FaultEvent(
                DISK_ERROR, superstep=args.disk_error_at, retries=args.retries
            )
        )
    plan = FaultPlan(
        seed=args.seed,
        crash_rate=args.crash_rate,
        straggler_rate=args.straggler_rate,
        drop_rate=args.drop_rate,
    )
    events.extend(plan.materialize(args.servers, args.max_supersteps))
    schedule = FaultSchedule(events)
    print(f"fault schedule ({len(schedule)} events):")
    for line in schedule.describe():
        print(f"  {line}")

    def _build(cluster):
        spe = SPE(cluster.dfs)
        tile_edges = args.tile_edges or max(
            1, graph.num_edges // (48 * args.servers)
        )
        manifest = spe.preprocess(graph, tile_edges, name=graph.name)
        return MPE(cluster, manifest, config)

    with Cluster(ClusterSpec(num_servers=args.servers)) as cluster:
        supervisor = Supervisor(
            _build(cluster),
            schedule=schedule,
            policy=RecoveryPolicy(max_restarts=args.max_restarts),
        )
        result, report = supervisor.run(program)
        print(
            f"{program.name}: {result.num_supersteps} supersteps, "
            f"converged={result.converged}"
        )
        print(
            f"recovery: {report.restarts} restart(s), "
            f"{report.reexecuted_supersteps} superstep(s) re-executed, "
            f"{report.recovery_read_bytes} recovery bytes, "
            f"{report.faults_injected} fault(s), "
            f"backoff {report.total_backoff_s:.2f}s"
        )
        for entry in report.fault_log:
            print(f"  fired: {entry['event']} (superstep {entry['superstep']})")
        if args.report:
            import json

            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=1)
            print(f"wrote recovery report to {args.report}")

    if not report.converged:
        # An unrecovered run (restart budget exhausted, or the superstep
        # cap hit) must fail loudly — scripts and CI key off the exit
        # code, not the report text.
        print(
            f"chaos: FAILED — run did not converge after "
            f"{report.restarts} restart(s)",
            file=sys.stderr,
        )
        return 1

    if args.verify:
        with Cluster(ClusterSpec(num_servers=args.servers)) as cluster:
            clean = _build(cluster).run(program)
        if np.array_equal(result.values, clean.values):
            print("verify: OK — values bitwise identical to fault-free run")
        else:
            print("verify: FAILED — values differ from fault-free run")
            return 1
    _emit(result.values, args, descending=args.algorithm == "pagerank")
    return 0


def cmd_trace(args) -> int:
    """Run one algorithm fully observed and export the artifacts.

    One traced run produces up to four artifacts — Chrome trace-event
    JSON (``--out``), Prometheus metrics text (``--metrics-out``), a
    per-superstep JSONL timeline (``--timeline-out``), and the run
    report JSON (``--report-out``) — and always prints the Table-3
    phase-breakdown table.  The emitted Chrome trace is validated
    before this command reports success.
    """
    from repro.obs.export import (
        validate_chrome_trace_file,
        write_prometheus,
        write_superstep_jsonl,
    )
    from repro.obs.report import (
        build_run_report,
        format_run_report,
        save_run_report,
    )

    program, graph = _program(args, _load(args.path))
    with GraphH(
        num_servers=args.servers,
        config=config_from_args(args),
        trace=True,
        trace_out=args.out,
    ) as gh:
        gh.load_graph(graph, avg_tile_edges=args.tile_edges)
        result = gh.run(program)
        extra = {"setup": gh.setup_profile}
        if result.tuning:
            extra["tuning"] = result.tuning
        report = build_run_report(
            result,
            gh.cluster,
            dataset=gh.manifest.name,
            program=program.name,
            num_servers=args.servers,
            extra=extra,
        )
        if args.metrics_out:
            write_prometheus(gh.tracer.metrics, args.metrics_out)
            print(f"wrote Prometheus metrics to {args.metrics_out}")
        if args.timeline_out:
            rows = write_superstep_jsonl(result, args.timeline_out)
            print(f"wrote {rows} timeline rows to {args.timeline_out}")
        if args.report_out:
            save_run_report(report, args.report_out)
            print(f"wrote run report to {args.report_out}")
        print(format_run_report(report))
        if args.out:
            problems = validate_chrome_trace_file(args.out)
            if problems:
                print(
                    f"{args.out}: invalid Chrome trace:", file=sys.stderr
                )
                for problem in problems[:10]:
                    print(f"  {problem}", file=sys.stderr)
                return 1
            print(
                f"wrote Chrome trace ({gh.tracer.total_events} events, "
                f"validated) to {args.out}"
            )
    return 0


def cmd_tune(args) -> int:
    """Run one algorithm under the online autotuner (``repro tune``).

    Prints the Table-3 phase breakdown plus the tuning appendix —
    fitted cost-model constants, fit residuals, and the per-superstep
    decision trace — and optionally saves the run report JSON
    (readable back with ``repro report``).
    """
    from repro.obs.report import (
        build_run_report,
        format_run_report,
        save_run_report,
    )

    program, graph = _program(args, _load(args.path))
    with GraphH(num_servers=args.servers, config=config_from_args(args)) as gh:
        gh.load_graph(graph, avg_tile_edges=args.tile_edges)
        result = gh.run(program)
        report = build_run_report(
            result,
            gh.cluster,
            dataset=gh.manifest.name,
            program=program.name,
            num_servers=args.servers,
            extra={"tuning": result.tuning},
        )
    if args.report_out:
        save_run_report(report, args.report_out)
        print(f"wrote run report to {args.report_out}")
    print(format_run_report(report))
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
            name, graph, PageRank(), num_servers=args.servers, max_supersteps=5
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
    params: dict = {}
    if args.source is not None:
        params["source"] = args.source
    if args.damping is not None:
        params["damping"] = args.damping
    if args.seeds is not None:
        params["seeds"] = [int(s) for s in args.seeds.split(",") if s]
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

    p = sub.add_parser("pagerank", help="PageRank over GraphH")
    p.add_argument("path")
    p.add_argument("--damping", type=float, default=0.85)
    _add_common(p)
    p.set_defaults(func=cmd_pagerank)

    d = sub.add_parser("sssp", help="single-source shortest paths")
    d.add_argument("path")
    d.add_argument("--source", type=int, default=0)
    _add_common(d)
    d.set_defaults(func=cmd_sssp)

    b = sub.add_parser("bfs", help="hop counts from a source")
    b.add_argument("path")
    b.add_argument("--source", type=int, default=0)
    _add_common(b)
    b.set_defaults(func=cmd_bfs)

    k = sub.add_parser("katz", help="Katz centrality")
    k.add_argument("path")
    k.add_argument("--alpha", type=float, default=0.005)
    k.add_argument("--beta", type=float, default=1.0)
    _add_common(k)
    k.set_defaults(func=cmd_katz)

    r = sub.add_parser("ppr", help="personalized PageRank from seed vertices")
    r.add_argument("path")
    r.add_argument("--seeds", required=True, help="comma-separated vertex ids")
    r.add_argument("--damping", type=float, default=0.85)
    _add_common(r)
    r.set_defaults(func=cmd_ppr)

    w = sub.add_parser("wcc", help="weakly connected components")
    w.add_argument("path")
    _add_common(w)
    w.set_defaults(func=cmd_wcc)

    t = sub.add_parser(
        "trace",
        help="run one algorithm fully observed: Chrome trace, Prometheus "
        "metrics, superstep timeline, Table-3 run report",
    )
    t.add_argument("algorithm", choices=("pagerank", "sssp", "bfs", "wcc"))
    t.add_argument("path")
    t.add_argument("--servers", type=int, default=4, help="cluster width")
    t.add_argument("--tile-edges", type=int, default=None)
    t.add_argument("--damping", type=float, default=0.85)
    t.add_argument("--source", type=int, default=0)
    add_knob_arguments(t)
    t.add_argument(
        "--out", default=None, metavar="JSON",
        help="Chrome trace-event JSON (validated after writing)",
    )
    t.add_argument("--metrics-out", default=None, metavar="PROM",
                   help="Prometheus text exposition")
    t.add_argument("--timeline-out", default=None, metavar="JSONL",
                   help="per-superstep JSONL timeline")
    t.add_argument("--report-out", default=None, metavar="JSON",
                   help="run report JSON (read back by `repro report`)")
    t.set_defaults(func=cmd_trace)

    n = sub.add_parser(
        "tune",
        help="run with the online autotuner: fit the cost model, switch "
        "knobs mid-run, print fitted constants + the decision trace",
    )
    n.add_argument("algorithm", choices=("pagerank", "sssp", "bfs", "wcc"))
    n.add_argument("path")
    n.add_argument("--servers", type=int, default=4, help="cluster width")
    n.add_argument("--tile-edges", type=int, default=None)
    n.add_argument("--damping", type=float, default=0.85)
    n.add_argument("--source", type=int, default=0)
    add_knob_arguments(n, tune=True)
    n.add_argument("--report-out", default=None, metavar="JSON",
                   help="run report JSON (read back by `repro report`)")
    n.set_defaults(func=cmd_tune)

    q = sub.add_parser(
        "report", help="print a saved run report as a Table-3-style table"
    )
    q.add_argument("report", help="run report JSON from `repro trace --report-out`")
    q.add_argument("--max-rows", type=int, default=40,
                   help="elide the middle beyond this many superstep rows")
    q.set_defaults(func=cmd_report)

    x = sub.add_parser("shootout", help="compare all systems on one input")
    x.add_argument("path")
    x.add_argument("--servers", type=int, default=4)
    x.set_defaults(func=cmd_shootout)

    c = sub.add_parser(
        "chaos",
        help="run under an injected fault schedule with supervised recovery",
    )
    c.add_argument("algorithm", choices=("pagerank", "sssp", "wcc"))
    c.add_argument("path")
    c.add_argument("--servers", type=int, default=4, help="cluster width")
    c.add_argument("--tile-edges", type=int, default=None)
    c.add_argument("--damping", type=float, default=0.85)
    c.add_argument("--source", type=int, default=0, help="sssp source vertex")
    add_knob_arguments(c, checkpoint_every=2)
    c.add_argument("--crash-at", type=int, default=None, metavar="STEP",
                   help="crash a server at this superstep")
    c.add_argument("--crash-server", type=int, default=0)
    c.add_argument("--straggler-at", type=int, default=None, metavar="STEP")
    c.add_argument("--straggler-server", type=int, default=0)
    c.add_argument("--straggler-factor", type=float, default=4.0)
    c.add_argument("--drop-at", type=int, default=None, metavar="STEP",
                   help="drop a broadcast at this superstep")
    c.add_argument("--drop-src", type=int, default=0)
    c.add_argument("--disk-error-at", type=int, default=None, metavar="STEP",
                   help="transient tile-read error at this superstep")
    c.add_argument("--retries", type=int, default=2,
                   help="failed attempts per transient disk error")
    c.add_argument("--seed", type=int, default=0,
                   help="seed for the random fault plan")
    c.add_argument("--crash-rate", type=float, default=0.0)
    c.add_argument("--straggler-rate", type=float, default=0.0)
    c.add_argument("--drop-rate", type=float, default=0.0)
    c.add_argument("--max-restarts", type=int, default=8)
    c.add_argument("--verify", action="store_true",
                   help="re-run fault-free and assert bitwise-identical values")
    c.add_argument("--report", default=None,
                   help="write the recovery report JSON here")
    c.add_argument("--output", default=None)
    c.add_argument("--top", type=int, default=5)
    c.set_defaults(func=cmd_chaos)

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

    u = sub.add_parser("submit", help="submit a job to a running daemon")
    u.add_argument("--host", default="127.0.0.1")
    u.add_argument("--port", type=int, default=7077)
    u.add_argument("--graph", required=True, help="registered graph name")
    u.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="pagerank")
    u.add_argument("--source", type=int, default=None,
                   help="source vertex (sssp/bfs)")
    u.add_argument("--damping", type=float, default=None)
    u.add_argument("--seeds", default=None,
                   help="comma-separated seed vertices (ppr)")
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
        help="apply an edge insert/delete batch to a daemon graph "
        "(repro.delta overlays; queries keep running)",
    )
    m.add_argument("--host", default="127.0.0.1")
    m.add_argument("--port", type=int, default=7077)
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

    j = sub.add_parser("jobs", help="job table from a running daemon")
    j.add_argument("--host", default="127.0.0.1")
    j.add_argument("--port", type=int, default=7077)
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
