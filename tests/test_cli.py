"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import load_edge_list_csv


@pytest.fixture
def graph_csv(tmp_path):
    path = str(tmp_path / "g.csv")
    assert main(["generate", path, "--kind", "rmat", "--scale", "8", "--seed", "3"]) == 0
    return path


class TestCli:
    def test_generate_creates_loadable_csv(self, graph_csv):
        g = load_edge_list_csv(graph_csv)
        assert g.num_edges == 256 * 16

    def test_generate_powerlaw_and_grid(self, tmp_path):
        for kind in ("powerlaw", "grid"):
            path = str(tmp_path / f"{kind}.csv")
            assert main(["generate", path, "--kind", kind, "--scale", "6"]) == 0
            assert load_edge_list_csv(path).num_edges > 0

    def test_stats(self, graph_csv, capsys):
        assert main(["stats", graph_csv]) == 0
        out = capsys.readouterr().out
        assert "|V|" in out and "avg degree" in out

    def test_pagerank_output_file(self, graph_csv, tmp_path, capsys):
        out_path = str(tmp_path / "ranks.csv")
        assert (
            main(
                [
                    "run",
                    "pagerank",
                    graph_csv,
                    "--servers",
                    "2",
                    "--output",
                    out_path,
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        ranks = np.genfromtxt(out_path, delimiter=",")
        assert ranks.shape[0] == 256
        assert "top 3 vertices" in capsys.readouterr().out

    def test_sssp(self, graph_csv, capsys):
        assert main(["run", "sssp", graph_csv, "--source", "1", "--servers", "2"]) == 0
        assert "reachable from 1" in capsys.readouterr().out

    def test_wcc(self, tmp_path, capsys):
        path = str(tmp_path / "two.csv")
        with open(path, "w") as fh:
            fh.write("0,1\n1,0\n2,3\n3,2\n")
        assert main(["run", "wcc", path]) == 0
        assert "2 weakly connected components" in capsys.readouterr().out

    def test_shootout(self, graph_csv, capsys):
        assert main(["shootout", graph_csv, "--servers", "2"]) == 0
        out = capsys.readouterr().out
        assert "graphh" in out and "chaos" in out

    def test_bfs(self, graph_csv, capsys):
        assert main(["run", "bfs", graph_csv, "--source", "0"]) == 0
        assert "reachable from 0" in capsys.readouterr().out

    def test_katz(self, graph_csv, capsys):
        assert main(["run", "katz", graph_csv, "--alpha", "0.002"]) == 0
        assert "top" in capsys.readouterr().out

    def test_ppr(self, graph_csv, capsys):
        assert main(["run", "ppr", graph_csv, "--seeds", "0,5"]) == 0
        assert "ppr" in capsys.readouterr().out

    def test_generate_binary_and_autodetect(self, tmp_path, capsys):
        path = str(tmp_path / "g.bin")
        assert main(["generate", path, "--scale", "7"]) == 0
        assert main(["stats", path]) == 0
        assert "avg degree" in capsys.readouterr().out

    def test_generate_smallworld(self, tmp_path):
        path = str(tmp_path / "sw.csv")
        assert main(
            ["generate", path, "--kind", "smallworld", "--scale", "7",
             "--edge-factor", "4"]
        ) == 0
        from repro.graph import load_edge_list_csv

        assert load_edge_list_csv(path).num_edges == 128 * 4

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["pagerank", "--damping", "1.5"], "damping must be in [0, 1)"),
            (["katz", "--alpha", "0"], "alpha must be positive"),
            (["ppr", "--seeds", "1,,2"], None),  # the empty item is dropped
        ],
    )
    def test_program_parameters_are_usage_errors(self, graph_csv, capsys, argv, error):
        """A value the program refuses exits 2 with argparse's prefix,
        not a traceback."""
        argv = ["run", argv[0], graph_csv, *argv[1:], "--top", "1"]
        if error is None:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"repro: error: {error}" in capsys.readouterr().err


class TestCheckpointAndChaosCli:
    def test_checkpoint_resume_across_invocations(self, graph_csv, tmp_path, capsys):
        """--state-dir persists tiles + checkpoints + the namenode image,
        so a later --resume invocation picks up mid-run."""
        state = str(tmp_path / "state")
        base = ["run", "pagerank", graph_csv, "--servers", "2",
                "--checkpoint-every", "2", "--state-dir", state, "--top", "1"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "resumed" not in first
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at superstep" in out

    def test_chaos_verify_and_report(self, graph_csv, tmp_path, capsys):
        """A fault schedule on `run`: crash + straggler, supervised
        recovery, --verify asserting bitwise identity with the fault-free
        run, the recovery report inside the run report."""
        import json

        report = str(tmp_path / "report.json")
        rc = main(
            [
                "run", "pagerank", graph_csv,
                "--servers", "3",
                "--crash-at", "3", "--crash-server", "1",
                "--straggler-at", "2", "--straggler-server", "0",
                "--checkpoint-every", "2",
                "--verify", "--report-out", report, "--top", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault schedule (2 events)" in out
        assert "1 restart(s)" in out
        assert "verify: OK" in out
        # A supervised restore is not a --resume.
        assert "resumed from checkpoint" not in out
        doc = json.loads(open(report).read())["recovery"]
        assert doc["restarts"] == 1
        assert doc["recovery_read_bytes"] > 0
        assert doc["records"][0]["kind"] == "crash"

    def test_chaos_seeded_plan(self, graph_csv, capsys):
        """Random schedules come from a seeded FaultPlan (replayable)."""
        rc = main(
            [
                "run", "sssp", graph_csv,
                "--servers", "2", "--seed", "7",
                "--drop-rate", "0.05", "--straggler-rate", "0.05",
                "--checkpoint-every", "2", "--top", "1",
            ]
        )
        assert rc == 0
        assert "fault schedule" in capsys.readouterr().out

    def test_chaos_unrecovered_run_exits_nonzero(self, graph_csv, capsys):
        """An unconverged run must fail loudly: scripts and CI key off
        the exit code, not the report text."""
        rc = main(
            [
                "run", "pagerank", graph_csv,
                "--servers", "2", "--max-supersteps", "2",
                "--straggler-at", "1",
                "--checkpoint-every", "2", "--top", "1",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "run: FAILED" in err

    def test_capped_run_exits_nonzero(self, graph_csv, capsys):
        """Without faults too: a run that hit the superstep cap exits 1."""
        rc = main(["run", "pagerank", graph_csv, "--max-supersteps", "2"])
        assert rc == 1
        assert "run: FAILED" in capsys.readouterr().err

    def test_trace_out_on_algorithm_command(self, graph_csv, tmp_path, capsys):
        """--trace-out on a plain run emits a valid Chrome trace without
        changing the run."""
        from repro.obs.export import validate_chrome_trace_file

        trace = str(tmp_path / "pr.trace.json")
        rc = main(
            ["run", "pagerank", graph_csv, "--servers", "2",
             "--trace-out", trace, "--top", "1"]
        )
        assert rc == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        assert validate_chrome_trace_file(trace) == []

    def test_trace_command_artifacts(self, graph_csv, tmp_path, capsys):
        """All four trace artifacts plus the Table-3 report."""
        import json

        out = {
            name: str(tmp_path / name)
            for name in ("trace.json", "metrics.prom", "tl.jsonl", "report.json")
        }
        rc = main(
            [
                "run", "pagerank", graph_csv, "--servers", "3",
                "--trace-out", out["trace.json"],
                "--metrics-out", out["metrics.prom"],
                "--timeline-out", out["tl.jsonl"],
                "--report-out", out["report.json"],
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "validated" in stdout
        assert "load" in stdout and "gather-apply" in stdout
        assert "# TYPE" in open(out["metrics.prom"]).read()
        assert open(out["tl.jsonl"]).read().count("\n") >= 2
        doc = json.loads(open(out["report.json"]).read())
        assert doc["program"] == "pagerank"
        # Where the cold start went: the SPE's profile rides along.
        assert "set-up (SPE, wall): degree jobs" in stdout
        assert doc["setup"]["dataset"] == doc["dataset"]
        assert doc["setup"]["num_tiles"] > 0 and doc["setup"]["shuffles"] == 2

        capsys.readouterr()
        assert main(["report", out["report.json"]]) == 0
        replayed = capsys.readouterr().out
        assert "broadcast" in replayed and "set-up (SPE, wall)" in replayed
