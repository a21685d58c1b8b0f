"""The identity contract as data: one fingerprint, one sampler, one check.

Every knob row of :class:`~repro.core.MPEConfig` declares ``contract``
(:data:`repro.core.knobs.CONTRACTS`): what a non-default value may
change against a run that differs from it only in that row.  A
:class:`Case` is one point of the matrix — rows set to values, crossed
with an executor and width, a fault schedule, a participant and a
program — and :func:`check` runs it next to its reference (the same
point, serial, with those rows at default) and compares the two runs'
:func:`fingerprint` at the weakest level among the rows.  Every case's
values are also checked against :func:`~repro.apps.reference_solution`
and, under a fault schedule, against the fault-free run's; a service
case checks that a warm engine's jobs are a cold engine's run.

:func:`sample` is the seeded sampler behind ``tests/test_contract.py``;
other test files pin named cases.  ``REPRO_EXECUTOR`` is cleared around
every run, so a forced-executor CI leg cannot collapse the executor
axis.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import random

import numpy as np

from repro.apps import SSSP, WCC, PageRank, reference_solution
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.core.knobs import CONTRACTS, knob_rows
from repro.delta import mirrored, random_mutations
from repro.faults import CRASH, FaultPlan, Supervisor
from repro.graph import Graph, chung_lu_graph
from repro.runtime import process_runtime_available
from repro.service import Engine, JobSpec, JobStatus, reset_simulation
from repro.tuning import KnobSettings, TuningPlan

ROWS = {row.name: row for row in knob_rows(MPEConfig)}
N_SERVERS = 3
GRAPH = chung_lu_graph(240, 2400, seed=91, name="contract-g")
SYM = GRAPH.to_undirected_edges()
TILE_EDGES = GRAPH.num_edges // (4 * N_SERVERS)
# program -> (factory, graph, a job's params)
PROGRAMS = {
    "pagerank": (lambda: PageRank(tolerance=1e-4), GRAPH, {"tolerance": 1e-4}),
    "sssp": (lambda: SSSP(source=1), GRAPH, {"source": 1}),
    "wcc": (WCC, SYM, {}),
}
BATCH = {
    GRAPH: random_mutations(GRAPH, num_inserts=30, num_deletes=20, seed=7),
}
BATCH[SYM] = mirrored(BATCH[GRAPH])
EXECUTORS = ("serial", "parallel") + (
    ("process",) if process_runtime_available() else ()
)
WIDTHS = (1, 2, 4)
# "mutation": a converged run, a batch, then a second run (incremental
# when a row says so); "resume": a run cut at RESUME_AT, resumed from
# its checkpoint; "plan": a run, then one under PLAN.
PARTICIPANTS = (None, "mutation", "resume", "plan")
RESUME_AT = 5
PLAN = {
    2: KnobSettings(cache_mode=3),
    4: KnobSettings(message_codec="zlib1", comm_mode="sparse", prefetch_depth=1),
}
# Values for the rows no ``choices`` close.  A SPILLING edge cache
# rejects some of every server's tiles; 6000 bytes hold them all raw.
SPILLING = 768
OPEN_VALUES = {
    "cache_capacity_bytes": (SPILLING, 6000),
    "max_supersteps": (3, 6),
    "checkpoint_every": (1, 3),
    "num_threads": WIDTHS,
    "num_workers": WIDTHS,
    "prefetch_depth": (1, 2, 4),
    "io_threads": (2, 3),
}
# What an aborted attempt's work is charged to.  A serial attempt stops
# at the first raising server, while a threaded or forked one lets its
# in-flight siblings finish their sweep: under a crash, that work
# (``aborted_attempt_edges``, and the reads and edges it meters) is
# executor-dependent.
ABORTED_WORK = ("reports", "counters", "cache_stats")


HOST = {n for n, row in ROWS.items() if row.tunable and row.contract == "identical"}


def values_of(row) -> tuple:
    """The non-default values the sampler draws for ``row``."""
    options = OPEN_VALUES.get(row.name) or row.choices or (True, False)
    return tuple(v for v in options if v != row.default)


@dataclasses.dataclass(frozen=True)
class Case:
    """One point of the matrix: ``knobs`` are the rows under test,
    ``context`` rows hold on both sides of the comparison."""

    program: str = "pagerank"
    knobs: tuple = ()
    executor: str = "serial"
    width: int | None = None
    fault: int | None = None  # a FaultPlan seed
    participant: str | None = None
    context: tuple = ()
    service: bool = False

    @property
    def level(self) -> str:
        """The weakest contract among the rows under test, the executor
        (and so its width) included."""
        names = [name for name, _ in self.knobs] + ["executor"]
        return max((ROWS[n].contract for n in names), key=CONTRACTS.index)

    def reference(self, **changes) -> Case:
        """The same point, serial, the rows under test at default."""
        return dataclasses.replace(
            self, knobs=(), executor="serial", width=None, service=False, **changes
        )

    def __str__(self) -> str:
        parts = [self.program, self.executor + (f"x{self.width}" if self.width else "")]
        parts += [f"{k}={v!r}" for k, v in self.knobs]
        parts += [f"ctx:{k}={v!r}" for k, v in self.context]
        parts += [f"fault{self.fault}"] if self.fault is not None else []
        parts += [self.participant] if self.participant else []
        parts += ["service"] if self.service else []
        return "-".join(parts)


@contextlib.contextmanager
def _configured_executor():
    forced = os.environ.pop("REPRO_EXECUTOR", None)
    try:
        yield
    finally:
        if forced is not None:
            os.environ["REPRO_EXECUTOR"] = forced


def config_of(case: Case) -> MPEConfig:
    """The participant's and fault schedule's settings, then the
    context and the rows under test over them (``incremental`` is
    the mutation participant's second run's)."""
    settings = {"executor": case.executor}
    if case.width is not None:
        settings.update(num_threads=case.width, num_workers=case.width)
    if case.participant == "mutation":
        settings["mutations"] = True
    if case.participant == "resume" or case.fault is not None:
        settings["checkpoint_every"] = 2
    settings.update(case.context + case.knobs)
    settings.pop("incremental", None)
    return MPEConfig(**settings)


def schedule_of(case: Case):
    plan = FaultPlan(
        seed=case.fault,
        crash_rate=0.03,
        straggler_rate=0.05,
        disk_error_rate=0.05,
        drop_rate=0.02,
    )
    return plan.materialize(N_SERVERS, 12)


def fingerprint(cluster, result, recovery=None, earlier=()) -> dict:
    """A run's observable state split by contract level: ``values`` is
    what ``metered`` keeps, ``metered`` what ``identical`` adds.  Host
    telemetry is in neither.  ``earlier`` are the values of the runs
    before it on the same engine."""
    servers = cluster.servers
    metered = {
        "reports": [{k: v for k, v in r.items() if k != "wall_s"} for r in result.trace()],
        "counters": [s.counters.snapshot() for s in servers],
        "cache_stats": [dataclasses.asdict(s.cache.stats) for s in servers],
        "caches": [
            (s.cache.mode, s.cache.content_keys(), sorted(s.cache.remembered_sizes().items()))
            for s in servers
        ],
        "decoded": [s.decoded_cache.content_keys() for s in servers],
        "filters_built": result.filters_built,
        # A decision's pipeline settings are ``identical`` rows' values:
        # they move nothing the contract covers.
        "tuning": result.tuning and [
            (d["superstep"], d["phase"], {k: v for k, v in d["knobs"].items() if k not in HOST})
            for d in result.tuning["plan"]["decisions"]
        ],
    }
    if recovery is not None:
        metered["recovery"] = recovery.to_dict()
    values = {
        "values": result.values.tobytes(),
        "converged": result.converged,
        "earlier": tuple(r.values.tobytes() for r in earlier),
    }
    return {"values": values, "metered": metered}


def _comparable(fp: dict, case: Case) -> dict:
    """``fp`` less what an aborted attempt leaves executor-dependent
    when ``case`` runs a fault schedule off the serial executor (see
    :data:`ABORTED_WORK`).  Its fault log is compared as a multiset:
    sibling servers append to it in the order they reach their events."""
    if case.fault is None or case.executor == "serial":
        return fp
    recovery = dict(fp["metered"]["recovery"], aborted_attempt_edges=None)
    recovery["fault_log"] = sorted(recovery["fault_log"], key=repr)
    metered = dict(fp["metered"], recovery=recovery)
    if any(event.kind == CRASH for event in schedule_of(case)):
        metered = {k: v for k, v in metered.items() if k not in ABORTED_WORK}
    return dict(fp, metered=metered)


def _drive(mpe, case: Case):
    """One engine through the case's participant: the last run's result,
    under a fault schedule its recovery report, and the earlier runs'."""
    make, graph, _ = PROGRAMS[case.program]
    cfg, resume, earlier = mpe.config, False, []
    if case.participant == "plan":
        earlier.append(mpe.run(make()))
        mpe.tuning_plan = TuningPlan.scripted(PLAN)
    elif case.participant == "mutation":
        earlier.append(mpe.run(make()))
        assert earlier[0].converged
        mpe.apply_mutations(BATCH[graph])
        incremental = dict(case.context + case.knobs).get("incremental", False)
        mpe.config = dataclasses.replace(cfg, incremental=incremental)
    elif case.participant == "resume":
        mpe.config = dataclasses.replace(cfg, max_supersteps=RESUME_AT)
        earlier.append(mpe.run(make()))
        mpe.config, resume = cfg, True
    if case.fault is None:
        return mpe.run(make(), resume=resume), None, earlier
    supervisor = Supervisor(mpe, schedule=schedule_of(case))
    try:
        return (*supervisor.run(make(), resume=resume), earlier)
    finally:
        supervisor.injector.detach()


@functools.cache
def run(case: Case) -> dict:
    """The fingerprint of one case (cached: references are shared)."""
    graph = PROGRAMS[case.program][1]
    cluster = Cluster(ClusterSpec(num_servers=N_SERVERS))
    try:
        manifest = SPE(cluster.dfs).preprocess(graph, TILE_EDGES, name=graph.name)
        mpe = MPE(cluster, manifest, config_of(case))
        mpe.setup()
        # Set-up's own traffic is not the run's (the service resets it
        # before every job, too).
        reset_simulation(cluster, mpe.channel)
        with _configured_executor():
            result, recovery, earlier = _drive(mpe, case)
        return fingerprint(cluster, result, recovery, earlier)
    finally:
        cluster.close()


def recovery(case: Case) -> dict:
    """The recovery report of ``case``, which runs a fault schedule."""
    return run(case)["metered"]["recovery"]


def restarts(case: Case) -> list[tuple]:
    """``(kind, superstep, resume_superstep)`` of each restart ``case``'s
    fault schedule causes."""
    return [(r["kind"], r["superstep"], r["resume_superstep"]) for r in recovery(case)["records"]]


def _warm_jobs(case: Case) -> list:
    """Two consecutive jobs of ``case`` on one service engine, the
    set-up rows in its registration, the run rows in the spec."""
    _, graph, params = PROGRAMS[case.program]
    cfg = config_of(case)
    by_scope = {
        scope: {n: getattr(cfg, n) for n, row in ROWS.items() if row.scope == scope}
        for scope in ("setup", "run")
    }
    engine = Engine(num_servers=N_SERVERS, config=MPEConfig(**by_scope["setup"]))
    try:
        name = engine.register_graph(graph, avg_tile_edges=TILE_EDGES)
        spec = JobSpec(graph=name, algorithm=case.program, params=params, **by_scope["run"])
        jobs = []
        for _ in range(2):
            record = engine.submit(spec)
            with _configured_executor():
                engine.run_next()
            assert record.status == JobStatus.DONE, record.reason
            jobs.append(record.result)
        return jobs
    finally:
        engine.shutdown()


def _expected_values(case: Case) -> np.ndarray:
    make, graph, _ = PROGRAMS[case.program]
    if case.participant == "mutation":
        edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
        for op in BATCH[graph]:
            if op["op"] == "insert":
                edges.append((op["src"], op["dst"]))
            else:
                edges.remove((op["src"], op["dst"]))
        src, dst = np.array(edges).T
        graph = Graph(graph.num_vertices, src, dst)
    return reference_solution(make(), graph, config_of(case).max_supersteps)[0]


def mismatches(case: Case, level: str | None = None) -> list[str]:
    """What ``case`` breaks at ``level`` (default: its declared one),
    one line each."""
    level = level or case.level
    fp = run(dataclasses.replace(case, service=False))
    got, ref = _comparable(fp, case), _comparable(run(case.reference()), case)
    parts = {"identical": ("values", "metered"), "metered": ("values",), "values": ()}
    out = [
        f"{case}: {part}[{key}] differs at level {level}"
        for part in parts[level]
        for key in got[part]
        if got[part][key] != ref[part][key]
    ]
    if case.participant == "plan" and got["values"]["earlier"][0] != got["values"]["values"]:
        out.append(f"{case}: the scripted switches moved the values")
    # Through the reference, which a case matches at every level but
    # ``values`` (and those rows meet reference_solution below).
    if case.fault is not None and ref["values"] != run(case.reference(fault=None))["values"]:
        out.append(f"{case}: the faulted reference's values differ from the fault-free run's")
    # PageRank's engine and reference stop at the same per-vertex
    # tolerance by different routes: they agree to ~20 times it.  SSSP
    # and WCC values are whole numbers, so this is exact for them.
    values = np.frombuffer(got["values"]["values"])
    if not np.allclose(values, _expected_values(case), rtol=0, atol=5e-4):
        out.append(f"{case}: values are not the reference solution's")
    if case.service:
        cold = {key: fp["metered"][key] for key in ("reports", "counters", "cache_stats")}
        for i, job in enumerate(_warm_jobs(case)):
            warm = {
                "reports": [{k: v for k, v in r.items() if k != "wall_s"} for r in job.supersteps],
                "counters": [job.counters[str(s)] for s in range(N_SERVERS)],
                "cache_stats": [job.cache_stats.get(str(s)) for s in range(N_SERVERS)],
            }
            if job.values.tobytes() != fp["values"]["values"] or warm != cold:
                out.append(f"{case}: warm job {i} is not a cold engine's run")
    return out


def check(case: Case) -> None:
    problems = mismatches(case)
    assert not problems, "\n".join(problems)


def sample(seed: int, n: int, rows=tuple(sorted(ROWS))) -> list[Case]:
    """``n`` seeded cases: each of ``rows`` in turn at one of its
    values, crossed with an executor and width, a fault schedule, a
    participant, a program and — one case in three — a context row."""
    rng = random.Random(seed)
    contexts = [r for r in ROWS if r not in ("executor", "incremental", "mutations")]
    cases = []
    while len(cases) < n:
        name = rows[len(cases) % len(rows)]
        value = rng.choice(values_of(ROWS[name]))
        participant = rng.choice(PARTICIPANTS)
        if name == "incremental":
            participant = "mutation"
        elif name in ("mutations", "max_supersteps") and participant in ("mutation", "resume"):
            participant = None
        context = ()
        if rng.random() < 1 / 3:
            other = rng.choice([r for r in contexts if r != name])
            if not (other == "max_supersteps" and participant in ("mutation", "resume")):
                context = ((other, rng.choice(values_of(ROWS[other]))),)
        executor = value if name == "executor" else rng.choice(EXECUTORS)
        fault = rng.choice((None, rng.randrange(100)))
        cases.append(
            Case(
                program=rng.choice(sorted(PROGRAMS)),
                knobs=() if name == "executor" else ((name, value),),
                executor=executor,
                width=rng.choice(WIDTHS) if executor != "serial" else None,
                fault=fault,
                participant=participant,
                context=context,
                service=participant is None and fault is None and rng.random() < 0.2,
            )
        )
    return cases
