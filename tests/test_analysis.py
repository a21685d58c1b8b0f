"""Tests for the analysis/report layer (renderers and fast experiments)."""

import tempfile

import numpy as np
import pytest

from repro.analysis import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    render_series,
    render_table,
)
from repro.analysis.experiments import (
    avg_modeled_paper_scale,
    cluster_memory_paper_gb,
    run_graphh,
    run_system,
    superstep_series_paper_scale,
    verdict,
)
from repro.apps import PageRank
from repro.graph import chung_lu_graph
from repro.graph.datasets import tier_divisor


class TestRenderers:
    def test_table_alignment(self):
        out = render_table(
            ["name", "value"], [["a", 1], ["long-name", 22.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_table_float_formatting(self):
        out = render_table(["x"], [[0.123456], [12345.6], [0.0]])
        assert "0.123" in out
        assert "1.23e+04" in out
        assert "\n0" in out

    def test_series(self):
        out = render_series("step", [1, 2], {"a": [10, 20], "b": [30, 40]})
        assert "step" in out and "a" in out and "40" in out

    def test_experiment_result_render(self):
        result = ExperimentResult(
            experiment_id="figX",
            title="demo",
            headers=["h"],
            rows=[["v"]],
            paper_claims=["claim"],
            observations=["obs"],
            extra_sections=["extra"],
        )
        text = result.render()
        assert "figX: demo" in text
        assert "Paper claims:" in text and "- claim" in text
        assert "Observed:" in text and "- obs" in text
        assert "extra" in text


class TestHelpers:
    @pytest.fixture(scope="class")
    def run(self):
        graph = chung_lu_graph(150, 1500, seed=80, name="helper-g")
        result, cluster = run_graphh(graph, PageRank(), 3, max_supersteps=4)
        yield result, cluster
        cluster.close()

    def test_avg_modeled_scales_volumes_not_sync(self, run):
        result, _ = run
        t_test = avg_modeled_paper_scale(result, "test")
        sync = result.supersteps[1].modeled.sync_s
        volume = result.supersteps[1].modeled.total_s - sync
        assert t_test == pytest.approx(
            np.mean(
                [
                    (s.modeled.total_s - s.modeled.sync_s) * tier_divisor("test")
                    + s.modeled.sync_s
                    for s in result.supersteps[1:]
                ]
            )
        )
        assert t_test < volume * tier_divisor("test") + 10 * sync

    def test_superstep_series_excludes_first(self, run):
        result, _ = run
        series = superstep_series_paper_scale(result, "test")
        assert len(series) == result.num_supersteps - 1

    def test_cluster_memory_sums_servers(self, run):
        _, cluster = run
        total = cluster_memory_paper_gb(cluster, "test")
        per = sum(s.counters.mem_peak for s in cluster.servers)
        assert total == pytest.approx(per * tier_divisor("test") / 1024**3)

    def test_run_system_unknown_name(self):
        graph = chung_lu_graph(20, 100, seed=81)
        with pytest.raises(KeyError):
            run_system("spark", graph, PageRank(), 1)

    def test_failed_runs_leave_no_cluster_dir(self, tmp_path, monkeypatch):
        class BrokenPageRank(PageRank):
            def init_values(self, graph):
                raise RuntimeError("no initial values")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        graph = chung_lu_graph(20, 100, seed=81)
        with pytest.raises(KeyError):
            run_system("spark", graph, PageRank(), 1)
        with pytest.raises(RuntimeError, match="no initial values"):
            run_graphh(graph, BrokenPageRank(), 2, max_supersteps=2)
        assert list(tmp_path.iterdir()) == []


class TestRegistry:
    def test_all_experiments_registered(self):
        # Every table/figure of the paper plus the two extensions.
        assert set(ALL_EXPERIMENTS) == {
            "table1",
            "fig1a",
            "fig1b",
            "table3",
            "table4",
            "table5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "scaling",
            "partitioning",
        }

    def test_table1_runs_fast_tier(self):
        result = ALL_EXPERIMENTS["table1"]("test")
        assert result.experiment_id == "table1"
        assert len(result.rows) == 4

    def test_run_all_selection(self, tmp_path):
        from repro.analysis.run_all import main

        out = tmp_path / "exp.md"
        assert main(["test", str(out), "table1"]) == 0
        text = out.read_text()
        assert "table1" in text
        assert "fig9" not in text

    def test_run_all_unknown_experiment(self, tmp_path):
        from repro.analysis.run_all import main

        assert main(["test", str(tmp_path / "x.md"), "fig99"]) == 2

    def test_run_all_writes_and_fails_on_a_violated_claim(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.analysis import run_all

        result = ExperimentResult(
            experiment_id="table1",
            title="demo",
            headers=["h"],
            rows=[["v"]],
            observations=[
                f"ordering: {verdict(True)}", "ratio 2.0x", f"fastest: {verdict(False)}"
            ],
        )
        assert result.violated == ["fastest: VIOLATED"]

        monkeypatch.setitem(run_all.ALL_EXPERIMENTS, "table1", lambda tier: result)
        out = tmp_path / "exp.md"
        assert run_all.main(["test", str(out), "table1"]) == 1
        assert "fastest: VIOLATED" in out.read_text()
        printed = capsys.readouterr().out
        assert "table1: fastest: VIOLATED" in printed
        assert "table1: ordering" not in printed
