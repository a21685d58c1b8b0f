"""Knobs are rows: every front door follows ``MPEConfig``'s declarations.

Everything here iterates ``dataclasses.fields(MPEConfig)`` (through
``knob_rows``), so a future row is covered without editing this file:

* each row's validation, ``GraphH(**knobs)``, ``JobSpec`` → overlay;
* each spelling of ``repro run`` × each row with a flag (the CLI drift
  that used to be possible: ``chaos --num-workers``, every
  ``--num-threads``, …);
* service admission rejects what the rows reject, at submit;
* a warm engine refuses a set-up-scoped change instead of ignoring it;
* the guard against sliding back, and README's reference table.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cli import build_parser, config_from_args, main
from repro.core import ClusterBuild, GraphH, MPEConfig
from repro.core.knobs import knob_row, knob_rows, overlay
from repro.graph import chung_lu_graph
from repro.service import (
    Engine,
    JobSpec,
    JobStatus,
    ServiceClient,
    ServiceServer,
    SocketServiceClient,
)
from repro.service.jobs import RUN_KNOBS
from repro.tuning import KnobSettings

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROWS = knob_rows(MPEConfig)
FLAG_ROWS = [row for row in ROWS if row.flag is not None]
ids = dict(ids=lambda row: row.name)


def other_value(row):
    """A legal value for ``row`` that differs from its default."""
    if row.type is bool:
        return not row.default
    if row.choices is not None:
        return next(c for c in row.choices if c != row.default)
    if row.type is float:
        return row.default / 2
    return max(row.default or 0, row.min or 0) + 1


def bad_value(row):
    """A value the row must reject: below ``min``, outside ``choices``,
    else of the wrong type."""
    if row.min is not None:
        return row.min - 1
    if row.choices is not None:
        return "bogus"
    return "7" if row.type is not str else 7


# ----------------------------------------------------------------------
# The rows themselves
# ----------------------------------------------------------------------
def test_field_and_scope_counts():
    assert [f.name for f in dataclasses.fields(MPEConfig)] == [r.name for r in ROWS]
    assert len(ROWS) == 19
    assert sum(row.scope == "run" for row in ROWS) == 11
    assert not hasattr(MPEConfig(), "sparsity_threshold")


def test_tunable_rows_are_the_tuners_settings():
    """A row marked tunable without a ``KnobSettings`` field — or a
    field no tunable row fills — fails here, and the engine's base
    knobs are the rows' configured values (``cache_mode`` excepted:
    set-up attached that cache, so a run starts with "leave it")."""
    from repro.tuning.plan import FIELD_OF_ROW

    field_of = {
        row.name: FIELD_OF_ROW.get(row.name, row.name) for row in ROWS if row.tunable
    }
    assert sorted(field_of.values()) == sorted(
        f.name for f in dataclasses.fields(KnobSettings)
    )
    config = MPEConfig(**{name: other_value(knob_row(MPEConfig, name)) for name in field_of})
    knobs = KnobSettings.of(config)
    for name, field in field_of.items():
        expected = None if field == "cache_mode" else getattr(config, name)
        assert getattr(knobs, field) == expected, name


@pytest.mark.parametrize("row", ROWS, **ids)
def test_post_init_follows_the_row(row):
    value = other_value(row)
    base = MPEConfig(mutations=True)  # so `incremental` may turn on
    assert getattr(dataclasses.replace(base, **{row.name: value}), row.name) == value
    with pytest.raises((TypeError, ValueError), match=row.name):
        MPEConfig(**{row.name: bad_value(row)})
    if not row.optional:
        with pytest.raises(TypeError, match=row.name):
            MPEConfig(**{row.name: None})


def test_cross_field_rule():
    with pytest.raises(ValueError, match="incremental=True requires mutations"):
        MPEConfig(incremental=True)


@pytest.mark.parametrize(
    "name,value",
    [("cache_mode", 0), ("cache_mode", 5), ("cache_capacity_bytes", -5)],
)
def test_edge_cache_rows_refuse_at_construction(name, value):
    """Refused by the row, naming it — not at the first run's set-up,
    inside ``EdgeCache``."""
    with pytest.raises(ValueError, match=name):
        MPEConfig(**{name: value})
    with pytest.raises(ValueError, match=name):
        GraphH(**{name: value})


@pytest.mark.parametrize("row", ROWS, **ids)
def test_facade_kwargs_follow_the_row(row):
    value = other_value(row)
    gh = GraphH(config=MPEConfig(mutations=True), **{row.key: value})
    try:
        assert gh.config == dataclasses.replace(
            MPEConfig(mutations=True), **{row.name: value}
        )
    finally:
        gh.close()


def test_overlay_contract():
    base = MPEConfig()
    assert overlay(base) is base
    assert overlay(base, executor=None, selective=None) is base
    assert overlay(base, selective=False).selective_scheduling is False
    with pytest.raises(TypeError, match="prefech_depth"):
        overlay(base, prefech_depth=2)
    with pytest.raises(TypeError, match="selective_scheduling given twice"):
        overlay(base, selective=False, selective_scheduling=False)
    with pytest.raises(TypeError, match="cache_capacity_bytes is setup-scoped"):
        overlay(base, scope="run", cache_capacity_bytes=1024)
    with pytest.raises(TypeError):
        GraphH(executer="process")


@pytest.mark.parametrize("row", ROWS, **ids)
def test_jobspec_follows_the_row(row):
    value = other_value(row)
    spec = JobSpec(graph="g", **{row.key: value})
    base = MPEConfig(mutations=True)
    assert (row.key in RUN_KNOBS) == (row.scope == "run")
    if row.scope == "run":
        assert spec.overlay(base) == dataclasses.replace(base, **{row.name: value})
        # Flat on the wire, and back.
        assert spec.to_dict()[row.key] == value
        assert JobSpec.from_dict(spec.to_dict()) == spec
    else:
        with pytest.raises(TypeError, match=row.name):
            spec.overlay(base)


def test_jobspec_loads_a_parent_written_queue_row():
    """The persisted shape of the commit before the rows: all eleven
    knob keys present, unset ones ``None`` — plus a key from the future."""
    row = {
        "graph": "g", "algorithm": "sssp", "params": {"source": 3},
        "priority": "high", "tenant": "t", "executor": "process",
        "num_threads": None, "num_workers": 2, "prefetch_depth": None,
        "io_threads": None, "selective": False, "vertex_store": None,
        "tune": None, "incremental": None, "max_supersteps": 7,
        "checkpoint_every": None, "fault_events": [], "max_restarts": 2,
        "a_newer_daemons_field": 1,
    }
    spec = JobSpec.from_dict(row)
    assert spec == JobSpec(
        graph="g", algorithm="sssp", params={"source": 3}, priority="high",
        tenant="t", executor="process", num_workers=2, selective=False,
        max_supersteps=7,
    )
    assert spec.knobs == {
        "executor": "process", "num_workers": 2, "selective": False,
        "max_supersteps": 7,
    }


# ----------------------------------------------------------------------
# CLI: each spelling of the one run command × each row with a flag
# ----------------------------------------------------------------------
RUN_COMMANDS = {
    "pagerank": ["run", "pagerank", "g.csv"],
    "sssp": ["run", "sssp", "g.csv"],
    "bfs": ["run", "bfs", "g.csv"],
    "katz": ["run", "katz", "g.csv"],
    "ppr": ["run", "ppr", "g.csv", "--seeds", "1"],
    "wcc": ["run", "wcc", "g.csv"],
    "trace": ["run", "pagerank", "g.csv", "--trace-out", "t.json"],
    "tune": ["run", "pagerank", "g.csv", "--tune"],
    "chaos": ["run", "pagerank", "g.csv", "--crash-at", "2"],
}


def _flag_args(row, value):
    if row.type is bool:
        return [row.flag if value else "--no-" + row.flag[2:]]
    return [row.flag, str(value)]


@pytest.mark.parametrize("command", RUN_COMMANDS)
@pytest.mark.parametrize(
    "row", [row for row in FLAG_ROWS if not row.warm_only], **ids
)
def test_flag_lands_in_the_commands_config(command, row):
    parser = build_parser()
    plain = config_from_args(parser.parse_args(RUN_COMMANDS[command]))
    # `tune` passes --tune: move off whatever the argv already set.
    value = other_value(row._replace(default=getattr(plain, row.name)))
    args = parser.parse_args(RUN_COMMANDS[command] + _flag_args(row, value))
    assert config_from_args(args) == dataclasses.replace(
        plain, **{row.name: value}
    )


def test_out_of_range_flag_is_a_usage_error(capsys):
    args = build_parser().parse_args(["run", "pagerank", "g.csv", "--io-threads", "0"])
    with pytest.raises(SystemExit) as exc:
        config_from_args(args)
    assert exc.value.code == 2
    assert "repro: error: io_threads must be >= 1" in capsys.readouterr().err


def test_command_defaults():
    """No spelling states a default of its own: the rows' defaults,
    plus only what the argv itself sets (``--tune``)."""
    parser = build_parser()
    for name, argv in RUN_COMMANDS.items():
        config = config_from_args(parser.parse_args(argv))
        assert config == (MPEConfig(tune=True) if name == "tune" else MPEConfig()), name


@pytest.mark.parametrize("row", FLAG_ROWS, **ids)
def test_submit_flag_lands_in_the_spec(row):
    from repro.cli import _submit_spec

    parser = build_parser()
    plain = _submit_spec(parser.parse_args(["submit", "--graph", "g"]))
    assert JobSpec(**plain).knobs == {}  # nothing set → registration's values
    value = other_value(row)
    args = parser.parse_args(["submit", "--graph", "g"] + _flag_args(row, value))
    assert JobSpec(**_submit_spec(args)).knobs == {row.key: value}


def test_submit_takes_every_program_parameter(capsys):
    from repro.cli import _submit_spec

    parser = build_parser()
    argv = ["submit", "--graph", "g", "--algorithm", "katz"]
    assert _submit_spec(parser.parse_args(argv + ["--alpha", "0.1"]))["params"] == {
        "alpha": 0.1
    }
    # Refused before it reaches a daemon, as `run` refuses it.
    with pytest.raises(SystemExit):
        _submit_spec(parser.parse_args(argv + ["--alpha", "0"]))
    assert "repro: error: alpha must be positive" in capsys.readouterr().err


def test_chaos_under_the_process_executor(tmp_path, capsys):
    """The invocation that was a parse error (CI's chaos smoke runs it)."""
    path = str(tmp_path / "g.csv")
    assert main(["generate", path, "--kind", "rmat", "--scale", "8", "--seed", "3"]) == 0
    argv = ["run", "pagerank", path, "--servers", "3", "--checkpoint-every", "2",
            "--executor", "process", "--num-workers", "2", "--crash-at", "2",
            "--verify"]
    assert main(argv) == 0
    assert "verify: OK" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Service admission validates from the rows
# ----------------------------------------------------------------------
BAD_SPECS = [
    ("prefetch_depth", -1),
    ("io_threads", 0),
    ("vertex_store", "bogus"),
    ("max_supersteps", 0),
    ("num_workers", "2"),
    ("selective", "no"),
    ("executor", "bogus"),
    ("cache_capacity_bytes", 1024),  # a real knob, but set-up-scoped
    ("prefech_depth", 2),  # misspelt: only the wire can carry it
]


@pytest.fixture(scope="module")
def engine():
    graph = chung_lu_graph(120, 700, seed=5, name="adm-g")
    eng = Engine(num_servers=2)
    eng.register_graph(graph)
    yield eng
    eng.shutdown()


@pytest.mark.parametrize("key,value", BAD_SPECS)
def test_admission_rejects_through_the_socket(engine, key, value):
    server = ServiceServer(engine, port=0)
    thread = server.serve_in_thread()
    try:
        client = SocketServiceClient(*server.address, timeout=30.0)
        response = client.submit(graph="adm-g", **{key: value})
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
    assert not response["ok"]
    assert response["status"] == JobStatus.REJECTED
    name = {"selective": "selective_scheduling"}.get(key, key)
    assert name in response["reason"]
    assert engine.queue.depth() == 0  # refused at the door, not queued


@pytest.mark.parametrize("key,value", BAD_SPECS[:-1])
def test_admission_rejects_in_process(engine, key, value):
    record = ServiceClient(engine).submit(graph="adm-g", **{key: value})
    assert record["status"] == JobStatus.REJECTED
    name = {"selective": "selective_scheduling"}.get(key, key)
    assert name in record["reason"]
    assert engine.queue.depth() == 0


def test_admission_still_admits_good_knobs(engine):
    record = engine.submit(
        JobSpec(graph="adm-g", max_supersteps=3, selective=False, num_workers=2)
    )
    assert record.status == JobStatus.QUEUED, record.reason
    assert engine.run_next() is record
    assert record.status == JobStatus.DONE, record.reason


# ----------------------------------------------------------------------
# A warm engine refuses a set-up-scoped change
# ----------------------------------------------------------------------
@pytest.fixture()
def warm():
    graph = chung_lu_graph(150, 1100, seed=9, name="warm-g")
    with ClusterBuild(num_servers=2) as build:
        build.load(graph)
        mpe = build.mpe("warm-g", config=MPEConfig(max_supersteps=8))
        mpe.setup()
        yield build, mpe


@pytest.mark.parametrize(
    "change",
    [
        {"replication_policy": "od"},
        {"cache_capacity_bytes": 1024},
        {"tile_assignment": "balanced"},
    ],
    ids=lambda change: next(iter(change)),
)
def test_warm_engine_refuses_setup_change(warm, change):
    build, mpe = warm
    config = dataclasses.replace(mpe.config, **change)
    (name,) = change
    with pytest.raises(ValueError, match=f"{name} is set-up-scoped"):
        build.mpe("warm-g", config=config)
    assert build.mpe("warm-g").config == MPEConfig(max_supersteps=8)


def test_every_setup_row_is_refused_or_honoured(warm):
    """No set-up row is silently ignored: each one either raises or —
    ``mutations`` turning on, which setup() handles idempotently —
    takes effect."""
    _build, mpe = warm
    for row in ROWS:
        config = dataclasses.replace(mpe.config, **{row.name: other_value(row)})
        if row.scope == "run" and not row.warm_only:
            mpe.config = config
        elif row.name == "mutations":
            mpe.config = config
            mpe.setup()
            assert mpe.mutation_log is not None
            with pytest.raises(ValueError, match="mutations is set-up-scoped"):
                mpe.config = dataclasses.replace(config, mutations=None)
        elif row.scope == "setup":
            with pytest.raises(ValueError, match=f"{row.name} is set-up-scoped"):
                mpe.config = config


def test_cold_engine_accepts_any_config():
    graph = chung_lu_graph(60, 300, seed=2, name="cold-g")
    with ClusterBuild(num_servers=2) as build:
        build.load(graph)
        mpe = build.mpe("cold-g")
        od = MPEConfig(replication_policy="od", cache_capacity_bytes=4096)
        assert build.mpe("cold-g", config=od) is mpe  # not set up yet
        assert mpe.config == od
        assert mpe.run(PageRank()).converged


def test_run_scoped_swap_runs_bitwise_equal(warm):
    build, mpe = warm
    reference = mpe.run(PageRank())
    for change in ({"executor": "parallel"}, {"prefetch_depth": 2, "io_threads": 2}):
        engine = build.mpe(
            "warm-g", config=dataclasses.replace(mpe.config, **change)
        )
        assert engine is mpe
        result = engine.run(PageRank())
        assert np.array_equal(result.values, reference.values)
        assert result.trace()[-1]["net_bytes"] == reference.trace()[-1]["net_bytes"]


# ----------------------------------------------------------------------
# Guard against sliding back (in the style of test_no_np_unique.py)
# ----------------------------------------------------------------------
def _source_lines():
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            yield path.relative_to(src).as_posix(), n, line


def test_executor_names_are_written_once():
    names = re.compile(r"""["']serial["'],\s*["']parallel["'],\s*["']process["']""")
    text = {}
    for path, _n, line in _source_lines():
        text[path] = text.get(path, "") + line + "\n"
    hits = [path for path, body in text.items() for _ in names.finditer(body)]
    assert hits == ["core/mpe.py"]


def test_cli_derives_its_knob_flags():
    cli = (ROOT / "src" / "repro" / "cli.py").read_text()
    literals = [
        flag
        for row in FLAG_ROWS
        for flag in (row.flag, "--no-" + row.flag[2:])
        if f'"{flag}"' in cli or f"'{flag}'" in cli
    ]
    assert literals == []
    built = [m.start() for m in re.finditer(r"\bMPEConfig\(", cli)]
    helper = cli.index("def config_from_args(")
    assert len(built) == 1
    assert helper < built[0] < cli.index("\ndef ", helper + 1)
    assert len(cli.splitlines()) <= 680


# ----------------------------------------------------------------------
# README's knob reference table is the registry
# ----------------------------------------------------------------------
def test_readme_table_rows_equal_the_registry():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Knob reference", 1)[1].split("\n#", 1)[0]
    table = [
        tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    expected = [
        (
            row.name,
            repr(row.default),
            row.scope,
            "—" if row.flag is None
            else ("--[no-]" + row.flag[2:] if row.type is bool else row.flag)
            + (" (submit)" if row.warm_only else ""),
            "yes" if row.tunable else "",
            row.contract,
            row.help,
        )
        for row in ROWS
    ]
    assert table == expected
