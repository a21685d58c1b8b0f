"""One function per paper table/figure (the per-experiment index).

Every function returns an :class:`ExperimentResult`: the regenerated
rows, the paper's claims being checked, and observation strings stating
what this run measured.  A shape claim is checked here and nowhere else:
its observation ends in :func:`verdict`'s HOLDS or VIOLATED, and
``run_all`` collects every section into EXPERIMENTS.md and exits
non-zero when any says VIOLATED.

``tier`` selects the dataset scale (``"test"`` for seconds-fast runs,
``"bench"`` for the larger analogs); modeled times and memory are
reported at *paper scale* by multiplying metered volumes with the
tier's divisor (volumes are linear in |V| and |E| for every system —
Table III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.plots import ascii_chart
from repro.analysis.tables import render_series, render_table
from repro.apps import SSSP, PageRank, VertexProgram
from repro.baselines import SYSTEM_PRESETS, make_engine
from repro.cluster import Cluster, ClusterSpec, PAPER_TESTBED
from repro.core import MPE, MPEConfig, SPE, RunResult
from repro.graph import DATASETS, compute_stats, load_dataset
from repro.graph.datasets import tier_divisor
from repro.metrics import (
    TABLE3,
    expected_memory_aa,
    expected_memory_od,
)
from repro.metrics.formulas import GraphParams, estimate_combine_ratio
from repro.partition import build_streaming_partitions, build_tiles, hash_edge_cut
from repro.storage import CACHE_MODES, get_codec
from repro.utils.sizes import GB, MB, human_bytes

#: Paper-reported values used in side-by-side columns.
PAPER_FIG1_MEMORY_GB = {
    "giraph": 795,
    "graphx": 685,
    "powergraph": 357,
    "powerlyra": 511,
    "pregel+": 281,
    "graphd": 73,
    "chaos": 26,
}
PAPER_FIG6B_GB = {
    "pagerank": {"twitter2010-s": 5.1, "uk2007-s": 9.5, "uk2014-s": 25, "eu2015-s": 33},
    "sssp": {"twitter2010-s": 4.5, "uk2007-s": 7.1, "uk2014-s": 15, "eu2015-s": 18},
}
#: Figures 9/10 only run the in-memory systems on the two generic graphs.
GENERIC_GRAPHS = ("twitter2010-s", "uk2007-s")
BIG_GRAPHS = ("uk2014-s", "eu2015-s")
IN_MEMORY = ("pregel+", "powergraph", "powerlyra")
OUT_OF_CORE = ("graphd", "chaos")
CLUSTER_SIZES = (1, 3, 6, 9)


@dataclass
class ExperimentResult:
    """Regenerated rows + claims for one table/figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    paper_claims: list[str] = field(default_factory=list)
    observations: list[str] = field(default_factory=list)
    extra_sections: list[str] = field(default_factory=list)

    @property
    def violated(self) -> list[str]:
        """The observations whose checked claim failed."""
        return [o for o in self.observations if "VIOLATED" in o]

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")]
        parts.extend(self.extra_sections)
        if self.paper_claims:
            parts.append("Paper claims:")
            parts.extend(f"  - {c}" for c in self.paper_claims)
        if self.observations:
            parts.append("Observed:")
            parts.extend(f"  - {o}" for o in self.observations)
        return "\n".join(parts)


def verdict(ok: bool) -> str:
    """The word a checked claim's observation ends in."""
    return "HOLDS" if ok else "VIOLATED"


# ----------------------------------------------------------------------
# Shared runners
# ----------------------------------------------------------------------

def run_graphh(
    graph,
    program: VertexProgram,
    num_servers: int,
    config: MPEConfig | None = None,
    max_supersteps: int = 21,
    avg_tile_edges: int | None = None,
    tracer=None,
) -> tuple[RunResult, Cluster]:
    """Run GraphH end-to-end; caller must ``cluster.close()`` (a run
    that raises closes it here)."""
    cluster = Cluster(ClusterSpec(num_servers=num_servers))
    try:
        spe = SPE(cluster.dfs)
        # Default tile size keeps ~48 tiles per server — enough work units
        # for the 24 OpenMP workers (the paper's S=15-25M edges gives
        # hundreds of tiles per server at its scale).
        tile_edges = avg_tile_edges or max(1, graph.num_edges // (48 * num_servers))
        manifest = spe.preprocess(graph, tile_edges, name=graph.name)
        cfg = replace(config or MPEConfig(), max_supersteps=max_supersteps)
        result = MPE(cluster, manifest, cfg, tracer=tracer).run(program)
    except BaseException:
        cluster.close()
        raise
    return result, cluster


def run_system(
    name: str,
    graph,
    program: VertexProgram,
    num_servers: int,
    max_supersteps: int = 21,
) -> tuple[RunResult, Cluster]:
    """Run one named system (GraphH or a baseline preset)."""
    if name == "graphh":
        return run_graphh(
            graph, program, num_servers, max_supersteps=max_supersteps
        )
    cluster = Cluster(ClusterSpec(num_servers=num_servers))
    try:
        result = make_engine(name, cluster).run(
            program, graph, max_supersteps=max_supersteps
        )
    except BaseException:
        cluster.close()
        raise
    return result, cluster


def avg_modeled_paper_scale(result: RunResult, tier: str) -> float:
    """Mean per-superstep modeled seconds at paper scale, skipping the
    first superstep (the paper's metric).  Volume-derived components
    scale with the tier divisor; the sync constant does not."""
    divisor = tier_divisor(tier)
    steps = result.supersteps[1:] if len(result.supersteps) > 1 else result.supersteps
    if not steps:
        return 0.0
    return float(
        np.mean([s.modeled.scaled_total(divisor) for s in steps if s.modeled])
    )


def superstep_series_paper_scale(result: RunResult, tier: str) -> list[float]:
    """Per-superstep modeled seconds at paper scale (first excluded)."""
    divisor = tier_divisor(tier)
    return [s.modeled.scaled_total(divisor) for s in result.supersteps[1:]]


def cluster_memory_paper_gb(cluster: Cluster, tier: str) -> float:
    """Cluster-total peak memory at paper scale, in GB.

    Figure 1a's y-axis is cluster-wide memory ("Pregel+ needs …281GB,
    indicating 2.9x memory explosion with respect to the input size").
    """
    total = sum(s.counters.mem_peak for s in cluster.servers)
    return total * tier_divisor(tier) / GB


# ----------------------------------------------------------------------
# Table I — datasets
# ----------------------------------------------------------------------

def exp_table1_datasets(tier: str = "test") -> ExperimentResult:
    """Table I: benchmark graph statistics (scaled analogs vs paper)."""
    headers = [
        "graph", "|V|", "|E|", "avg deg", "max in", "max out", "CSV",
        "paper |V|", "paper |E|", "paper avg deg",
    ]
    rows = []
    observations = []
    degrees_match = True
    for spec in DATASETS.values():
        g = spec.generate(tier)
        stats = compute_stats(g)
        degrees_match &= abs(stats.avg_degree - spec.avg_degree) / spec.avg_degree < 0.05
        rows.append(
            [
                spec.paper_name,
                stats.num_vertices,
                stats.num_edges,
                round(stats.avg_degree, 1),
                stats.max_in_degree,
                stats.max_out_degree,
                human_bytes(stats.csv_bytes),
                spec.paper_vertices,
                spec.paper_edges,
                spec.avg_degree,
            ]
        )
        if stats.max_in_degree <= stats.max_out_degree:
            observations.append(
                f"WARNING {spec.name}: in-degree skew not dominant"
            )
    observations.append(
        "all four analogs preserve the papers' average degrees and the "
        "max-in >> max-out skew at 1/%d scale" % tier_divisor(tier)
    )
    observations.append(
        f"every average degree within 5% of the paper's: {verdict(degrees_match)}"
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Benchmark graph datasets (scaled analogs)",
        headers=headers,
        rows=rows,
        paper_claims=[
            "four web/social graphs spanning 1.5B to 91.8B edges",
            "average degrees 35.3 / 41.2 / 60.4 / 85.7",
            "web crawls have extreme in-degree skew (max-in up to 20M "
            "vs max-out 35K)",
        ],
        observations=observations,
    )


# ----------------------------------------------------------------------
# Figure 1a — memory requirements, Figure 1b — execution time
# ----------------------------------------------------------------------

FIG1_SYSTEMS = (
    "giraph",
    "graphx",
    "powergraph",
    "powerlyra",
    "pregel+",
    "graphd",
    "chaos",
    "graphh",
)


def exp_fig1_memory(tier: str = "test", supersteps: int = 4) -> ExperimentResult:
    """Fig 1a: per-server memory for PageRank on UK-2007, 9 servers."""
    graph = load_dataset("uk2007-s", tier)
    rows = []
    measured = {}
    for name in FIG1_SYSTEMS:
        result, cluster = run_system(
            name, graph, PageRank(), num_servers=9, max_supersteps=supersteps
        )
        gb = cluster_memory_paper_gb(cluster, tier)
        measured[name] = gb
        cluster.close()
        rows.append(
            [
                name,
                round(gb, 1),
                PAPER_FIG1_MEMORY_GB.get(name, "-"),
                SYSTEM_PRESETS[name].family if name in SYSTEM_PRESETS else "hybrid",
            ]
        )
    observations = []
    in_mem_min = min(measured[n] for n in ("pregel+", "powergraph", "powerlyra"))
    out_core_max = max(measured["graphd"], measured["chaos"])
    observations.append(
        f"out-of-core max {out_core_max:.1f}GB < GraphH "
        f"{measured['graphh']:.1f}GB < in-memory min {in_mem_min:.1f}GB: "
        + verdict(out_core_max < measured["graphh"] < in_mem_min)
    )
    observations.append(
        f"giraph/pregel+ memory ratio {measured['giraph'] / measured['pregel+']:.1f}x "
        f"(paper: 795/281 = 2.8x)"
    )
    observations.append(
        "giraph needs more than 2x pregel+'s memory: "
        + verdict(measured["giraph"] > 2 * measured["pregel+"])
    )
    observations.append(
        "graphx needs more memory than powergraph: "
        + verdict(measured["graphx"] > measured["powergraph"])
    )
    return ExperimentResult(
        experiment_id="fig1a",
        title="Memory requirements, PageRank on UK-2007, 9 servers (paper-scale GB)",
        headers=["system", "measured GB", "paper GB", "family"],
        rows=rows,
        paper_claims=[
            "in-memory systems need 281-795GB (2.9x-8.5x the input size)",
            "GraphD and Chaos use only 73GB / 26GB",
            "out-of-core systems cannot use idle memory to cut disk I/O",
        ],
        observations=observations,
    )


def exp_fig1_time(tier: str = "test", supersteps: int = 21) -> ExperimentResult:
    """Fig 1b: per-superstep execution time, PageRank on UK-2007."""
    graph = load_dataset("uk2007-s", tier)
    series: dict[str, list[float]] = {}
    averages: dict[str, float] = {}
    for name in FIG1_SYSTEMS:
        result, cluster = run_system(
            name, graph, PageRank(), num_servers=9, max_supersteps=supersteps
        )
        cluster.close()
        times = [round(t, 2) for t in superstep_series_paper_scale(result, tier)]
        series[name] = times
        averages[name] = float(np.mean(times)) if times else 0.0
    x = list(range(1, max(len(t) for t in series.values()) + 1))
    for name in series:
        series[name] = series[name] + ["-"] * (len(x) - len(series[name]))
    rows = [[name, round(averages[name], 2)] for name in FIG1_SYSTEMS]
    observations = [
        f"pregel+/graphd speedup {averages['graphd'] / max(averages['pregel+'], 1e-9):.1f}x "
        "(paper: 1.9x)",
        f"powergraph/graphd speedup {averages['graphd'] / max(averages['powergraph'], 1e-9):.1f}x "
        "(paper: 3.3x)",
        "giraph slower than graphd: " + verdict(averages["giraph"] > averages["graphd"]),
        "graphh fastest overall: " + verdict(averages["graphh"] == min(averages.values())),
        "pregel+ faster than graphd: " + verdict(averages["pregel+"] < averages["graphd"]),
        "powergraph faster than graphd: "
        + verdict(averages["powergraph"] < averages["graphd"]),
        "graphx takes more than 0.8x chaos's time: "
        + verdict(averages["graphx"] > 0.8 * averages["chaos"]),
    ]
    return ExperimentResult(
        experiment_id="fig1b",
        title="Avg execution time per superstep, PageRank on UK-2007 (modeled s, paper scale)",
        headers=["system", "avg s/superstep"],
        rows=rows,
        paper_claims=[
            "PowerGraph, PowerLyra, Pregel+ outperform GraphD by 3.3x/4.8x/1.9x",
            "Giraph and GraphX are slower than GraphD and Chaos",
        ],
        observations=observations,
        extra_sections=[
            render_series(
                "superstep", x, series, title="per-superstep modeled seconds"
            ),
            ascii_chart(
                x,
                {name: [t for t in ts if t != "-"] for name, ts in series.items()},
                log_y=True,
                title="Fig 1b (log s/superstep vs superstep)",
            ),
        ],
    )


# ----------------------------------------------------------------------
# Table III — analytic cost comparison, verified against counters
# ----------------------------------------------------------------------

def exp_table3_costs(tier: str = "test") -> ExperimentResult:
    """Table III evaluated for UK-2007 + measured-counter verification."""
    graph = load_dataset("uk2007-s", tier)
    params = GraphParams(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_servers=9,
        num_partitions=36,
        combine_ratio=0.82,
        replication_factor=4.0,
        cache_miss_ratio=0.0,
    )
    rows = []
    for name, formulas in TABLE3.items():
        rows.append(
            [
                name,
                human_bytes(formulas.ram_total(params)),
                human_bytes(formulas.network(params)),
                human_bytes(formulas.disk_read(params)),
                human_bytes(formulas.disk_write(params)),
            ]
        )
    # Verification pass: measured counters vs formulas (PageRank, N=9).
    observations = []
    ratios = []
    for name in ("pregel+", "graphd", "chaos", "graphh"):
        result, cluster = run_system(
            name, graph, PageRank(), num_servers=9, max_supersteps=4
        )
        formulas = TABLE3[name]
        measured_net = result.supersteps[1].net_bytes if len(result.supersteps) > 1 else 0
        predicted_net = formulas.network(params)
        ratio = measured_net / predicted_net if predicted_net else float("nan")
        ratios.append(ratio)
        observations.append(
            f"{name}: steady-state net {human_bytes(measured_net)} vs "
            f"Table III {human_bytes(predicted_net)} (x{ratio:.2f})"
        )
        cluster.close()
    observations.append(
        "every measured/Table III network ratio in (0.05, 20): "
        + verdict(all(0.05 < r < 20.0 for r in ratios))
    )
    return ExperimentResult(
        experiment_id="table3",
        title="Table III cost expressions on UK-2007 analog (per superstep)",
        headers=["system", "RAM/server", "network", "disk read", "disk write"],
        rows=rows,
        paper_claims=[
            "GraphH network is O(N|V|), independent of |E|",
            "GraphD/Chaos disk traffic is O(|E|) per superstep",
            "GraphH disk traffic is O(beta |E|) — zero with a warm cache",
        ],
        observations=observations,
    )


# ----------------------------------------------------------------------
# Table IV — input data sizes per system
# ----------------------------------------------------------------------

PAPER_TABLE4_GB = {
    "Twitter-2010": {"csv": 24, "pregel+": 12, "giraph": 18, "chaos": 11, "graphh": 7},
    "UK-2007": {"csv": 94, "pregel+": 48, "giraph": 69, "chaos": 38, "graphh": 25},
    "UK-2014": {"csv": 874, "pregel+": 445, "giraph": 624, "chaos": 351, "graphh": 204},
    "EU-2015": {"csv": 1700, "pregel+": 862, "giraph": 1220, "chaos": 684, "graphh": 378},
}
#: Giraph's converted input carries JSON-ish framing; the paper's own
#: Table IV shows a stable ~1.44x over Pregel+'s binary format.
GIRAPH_FORMAT_OVERHEAD = 69 / 48


def exp_table4_input_size(tier: str = "test") -> ExperimentResult:
    """Table IV: converted input size per system (measured bytes)."""
    from repro.graph import edge_list_csv_size

    headers = [
        "graph", "CSV", "pregel+/graphd", "giraph", "chaos", "graphh",
        "paper CSV/graphh GB",
    ]
    rows = []
    observations = []
    for spec in DATASETS.values():
        g = spec.generate(tier)
        csv_bytes = edge_list_csv_size(g)
        part = hash_edge_cut(g, 9)
        pregel_bytes = sum(
            v.nbytes + d.nbytes * 1  # vertex table + int64 adjacency
            for v, d in zip(part.server_vertices, part.server_dst)
        )
        giraph_bytes = int(pregel_bytes * GIRAPH_FORMAT_OVERHEAD)
        chaos_bytes = sum(
            len(p.to_bytes()) for p in build_streaming_partitions(g, 36)
        )
        tiles = build_tiles(g, max(1, g.num_edges // 36))
        graphh_bytes = tiles.total_tile_bytes() + 2 * g.num_vertices * 8
        paper = PAPER_TABLE4_GB[spec.paper_name]
        rows.append(
            [
                spec.paper_name,
                human_bytes(csv_bytes),
                human_bytes(pregel_bytes),
                human_bytes(giraph_bytes),
                human_bytes(chaos_bytes),
                human_bytes(graphh_bytes),
                f"{paper['csv']}/{paper['graphh']}",
            ]
        )
        ok = graphh_bytes == min(
            csv_bytes, pregel_bytes, giraph_bytes, chaos_bytes, graphh_bytes
        )
        observations.append(
            f"{spec.paper_name}: graphh tiles are the smallest format: "
            + verdict(ok)
            + f" (csv/graphh = {csv_bytes / graphh_bytes:.1f}x, paper "
            f"{paper['csv'] / paper['graphh']:.1f}x)"
        )
    return ExperimentResult(
        experiment_id="table4",
        title="Input data size per system (measured on scaled analogs)",
        headers=headers,
        rows=rows,
        paper_claims=[
            "tiles compact EU-2015 from 1.7TB CSV to 378GB (4.5x)",
            "every system's converted format beats raw CSV; GraphH's "
            "tiles are the smallest",
        ],
        observations=observations,
    )


# ----------------------------------------------------------------------
# Table V — compression ratios and throughput
# ----------------------------------------------------------------------

def exp_table5_compression(tier: str = "test") -> ExperimentResult:
    """Table V: codec ratio + throughput on real tile bytes."""
    headers = [
        "graph", "codec", "ratio", "paper ratio", "compress MB/s",
        "decompress MB/s", "model MB/s",
    ]
    paper_ratios = {
        "Twitter-2010": {"snappylike": 1.75, "zlib1": 2.78, "zlib3": 3.22},
        "UK-2007": {"snappylike": 1.89, "zlib1": 3.71, "zlib3": 4.54},
        "UK-2014": {"snappylike": 1.96, "zlib1": 4.34, "zlib3": 5.26},
        "EU-2015": {"snappylike": 1.96, "zlib1": 4.35, "zlib3": 5.88},
    }
    rows = []
    observations = []
    snappy_over_zlib1 = []
    for spec in DATASETS.values():
        g = spec.generate(tier)
        tiles = build_tiles(g, max(1, g.num_edges // 16))
        blobs = [t.to_bytes() for t in tiles.tiles]
        total = sum(len(b) for b in blobs)
        ratios = {}
        decompress_mbps = {}
        for codec_name in ("snappylike", "zlib1", "zlib3"):
            codec = get_codec(codec_name)
            # Compress tile-by-tile, exactly as the edge cache does.
            t0 = time.perf_counter()
            compressed = [codec.compress(b) for b in blobs]
            t_c = time.perf_counter() - t0
            t0 = time.perf_counter()
            for c in compressed:
                codec.decompress(c)
            t_d = time.perf_counter() - t0
            ratio = total / max(sum(len(c) for c in compressed), 1)
            ratios[codec_name] = ratio
            decompress_mbps[codec_name] = total / MB / max(t_d, 1e-9)
            rows.append(
                [
                    spec.paper_name,
                    codec_name,
                    round(ratio, 2),
                    paper_ratios[spec.paper_name][codec_name],
                    round(total / MB / max(t_c, 1e-9), 0),
                    round(decompress_mbps[codec_name], 0),
                    codec.model_decompress_mbps,
                ]
            )
        ok = (
            ratios["zlib3"] >= ratios["zlib1"] * 0.99
            and ratios["zlib1"] > ratios["snappylike"] > 1.0
        )
        observations.append(
            f"{spec.paper_name}: ratio ordering zlib3 >= zlib1 > snappy > 1: "
            + verdict(ok)
        )
        snappy_over_zlib1.append(
            f"{spec.paper_name} "
            f"{decompress_mbps['snappylike'] / decompress_mbps['zlib1']:.1f}x"
        )
    # Wall clock, so reported and not checked.
    observations.append(
        "snappylike/zlib1 decompress throughput: "
        + ", ".join(snappy_over_zlib1)
        + " (paper's per-core model: 900/60 = 15x)"
    )
    return ExperimentResult(
        experiment_id="table5",
        title="Compression ratio and throughput on tile bytes",
        headers=headers,
        rows=rows,
        paper_claims=[
            "snappy: ~1.9x ratio at ~900MB/s decompress",
            "zlib-3 compresses EU-2015 tiles 5.88x, down to 62GB",
            "a 22-worker server decompresses zlib-3 at ~1.2GB/s, beating "
            "the ~310MB/s RAID5",
        ],
        observations=observations,
    )


# ----------------------------------------------------------------------
# Figure 6 — AA vs OD replication
# ----------------------------------------------------------------------

def exp_fig6_replication(tier: str = "test") -> ExperimentResult:
    """Fig 6a (analytic AA vs OD) + Fig 6b (measured GraphH memory)."""
    server_counts = (1, 2, 4, 8, 16, 32, 48, 64)
    series: dict[str, list[float]] = {}
    aa_wins_small = True
    od_wins_from = []
    for spec in DATASETS.values():
        aa = round(expected_memory_aa(spec.paper_vertices) / spec.paper_vertices, 1)
        od = [
            round(
                expected_memory_od(spec.paper_vertices, spec.avg_degree, n)
                / spec.paper_vertices,
                1,
            )
            for n in server_counts
        ]
        series[f"AA {spec.paper_name}"] = [aa] * len(server_counts)
        series[f"OD {spec.paper_name}"] = od
        aa_wins_small &= all(aa <= o for n, o in zip(server_counts, od) if n <= 16)
        first = next((n for n, o in zip(server_counts, od) if o < aa), None)
        od_wins_from.append(f"{spec.paper_name} {first or 'never'}")
    fig6a = render_series(
        "N", list(server_counts), series,
        title="Fig 6a: expected memory per server (x|V| bytes)",
    )
    # Fig 6b: measured per-server peak, AA policy, cache excluded.
    rows = []
    measured: dict[tuple[str, str], float] = {}
    for app_name, program_factory in (
        ("pagerank", lambda: PageRank()),
        ("sssp", lambda: SSSP(source=0)),
    ):
        for spec in DATASETS.values():
            g = spec.generate(tier)
            result, cluster = run_graphh(
                g, program_factory(), num_servers=9, max_supersteps=5,
                config=MPEConfig(cache_capacity_bytes=1, cache_mode=1),
            )
            peak = max(
                s.counters.mem_vertex
                + s.counters.mem_messages
                + s.counters.mem_scratch
                for s in cluster.servers
            )
            gb = peak * tier_divisor(tier) / GB
            cluster.close()
            measured[(app_name, spec.paper_name)] = gb
            paper_gb = PAPER_FIG6B_GB[app_name][spec.name]
            rows.append([app_name, spec.paper_name, round(gb, 1), paper_gb])
    largest = max(measured.values())
    graphs = [spec.paper_name for spec in DATASETS.values()]
    observations = [
        f"AA <= OD at every N <= 16 on every graph (Fig 6a): {verdict(aa_wins_small)}",
        "first N at which OD beats AA (Fig 6a): " + ", ".join(od_wins_from),
        f"largest measured per-server memory {largest:.1f}GB < the testbed's "
        f"{PAPER_TESTBED.memory_bytes // GB}GB: "
        + verdict(largest < PAPER_TESTBED.memory_bytes / GB),
        "pagerank needs more memory on EU-2015 than on Twitter-2010: "
        + verdict(measured[("pagerank", "EU-2015")] > measured[("pagerank", "Twitter-2010")]),
        "sssp needs no more memory than pagerank on every graph: "
        + verdict(all(measured[("sssp", g)] <= measured[("pagerank", g)] for g in graphs)),
    ]
    return ExperimentResult(
        experiment_id="fig6",
        title="Fig 6b: GraphH per-server memory (AA policy, no cache), 9 servers",
        headers=["app", "graph", "measured GB (paper scale)", "paper GB"],
        rows=rows,
        paper_claims=[
            "AA is more memory-efficient than OD in clusters under ~16 servers",
            "PageRank on EU-2015 needs ~33GB/server; SSSP ~18GB",
        ],
        observations=observations,
        extra_sections=[fig6a],
    )


# ----------------------------------------------------------------------
# Figure 7 — cache modes
# ----------------------------------------------------------------------

def exp_fig7_cache_modes(tier: str = "test", supersteps: int = 4) -> ExperimentResult:
    """Fig 7: execution time + hit ratio per cache mode, 3 vs 9 servers."""
    graph = load_dataset("eu2015-s", tier)
    # Capacity calibrated to the testbed's *regime* (the paper gets it
    # from 128GB/server): at 9 servers even raw tiles fit per server;
    # at 3 servers only the zlib-compressed tiles fit.  Our analogs
    # compress ~2.1x under zlib (real crawls reach 4.3x, Table V), so
    # the byte threshold is derived from the measured ratio.
    # ~48 tiles per server at N=9 so the 24 workers stay busy (and the
    # splitter has enough granularity for the cache to part-fill).
    tile_edges = max(1, graph.num_edges // 432)
    probe = build_tiles(graph, tile_edges)
    sample = probe.tiles[0].to_bytes()
    zlib_ratio = len(sample) / len(get_codec("zlib1").compress(sample))
    per_server_3 = probe.total_tile_bytes() / 3
    capacity = int(per_server_3 / zlib_ratio * 1.1)
    rows = []
    times: dict[tuple[int, int], float] = {}
    hits: dict[tuple[int, int], float] = {}
    for num_servers in (9, 3):
        for mode in (1, 2, 3, 4):
            # Balanced placement isolates the cache-mode variable from
            # round-robin's per-server byte skew.
            config = MPEConfig(
                cache_capacity_bytes=capacity,
                cache_mode=mode,
                tile_assignment="balanced",
            )
            result, cluster = run_graphh(
                graph,
                PageRank(),
                num_servers=num_servers,
                config=config,
                max_supersteps=supersteps,
                avg_tile_edges=tile_edges,
            )
            cluster.close()
            t = avg_modeled_paper_scale(result, tier)
            steady = result.supersteps[-1]
            times[(num_servers, mode)] = t
            hits[(num_servers, mode)] = steady.cache_hit_ratio
            rows.append(
                [
                    num_servers,
                    mode,
                    CACHE_MODES[mode - 1],
                    round(t, 2),
                    round(steady.cache_hit_ratio, 2),
                ]
            )
    observations = [
        f"3 servers: mode-3 vs mode-1 speedup "
        f"{times[(3, 1)] / max(times[(3, 3)], 1e-9):.1f}x (paper: 17.6x)",
        "3 servers: mode-3/4 reach hit ratio ~1.0 while mode-1 misses: "
        + verdict(hits[(3, 3)] > 0.95 and hits[(3, 1)] < 0.8),
        f"9 servers: mode-4 decompression penalty vs mode-1 "
        f"{times[(9, 4)] / max(times[(9, 1)], 1e-9):.1f}x (paper: 2x)",
        "3 servers: mode-3 more than 4x faster than mode-1: "
        + verdict(times[(3, 1)] > 4 * times[(3, 3)]),
        "9 servers: mode-1 hit ratio > 0.95: " + verdict(hits[(9, 1)] > 0.95),
        "9 servers: mode-4 more than 1.5x slower than mode-1: "
        + verdict(times[(9, 4)] > 1.5 * times[(9, 1)]),
    ]
    return ExperimentResult(
        experiment_id="fig7",
        title="Cache modes: avg time/superstep + steady-state hit ratio (PageRank, EU-2015)",
        headers=["servers", "mode", "codec", "modeled s/superstep", "hit ratio"],
        rows=rows,
        paper_claims=[
            "with 3 servers, mode-3 improves performance 17.6x over "
            "mode-1 by caching all tiles",
            "with 9 servers (everything fits raw), mode-4 is ~2x slower "
            "than mode-1 due to decompression",
            "auto-selection picks the best ratio that fits, else zlib-1",
        ],
        observations=observations,
    )


# ----------------------------------------------------------------------
# Figure 8 — hybrid communication
# ----------------------------------------------------------------------

def exp_fig8_hybrid_comm(
    tier: str = "test", max_supersteps: int = 60
) -> ExperimentResult:
    """Fig 8: update ratio, dense/sparse traffic, codecs (PageRank, UK-2007)."""
    graph = load_dataset("uk2007-s", tier)
    divisor = tier_divisor(tier)
    program = lambda: PageRank(tolerance=1e-10)  # noqa: E731

    runs: dict[str, RunResult] = {}
    for label, config in {
        "dense": MPEConfig(comm_mode="dense", message_codec="raw"),
        "sparse": MPEConfig(comm_mode="sparse", message_codec="raw"),
        "hybrid-raw": MPEConfig(comm_mode="hybrid", message_codec="raw"),
        "hybrid-snappylike": MPEConfig(comm_mode="hybrid", message_codec="snappylike"),
        "hybrid-zlib1": MPEConfig(comm_mode="hybrid", message_codec="zlib1"),
        "hybrid-zlib3": MPEConfig(comm_mode="hybrid", message_codec="zlib3"),
    }.items():
        result, cluster = run_graphh(
            graph, program(), num_servers=9, config=config,
            max_supersteps=max_supersteps,
        )
        cluster.close()
        runs[label] = result

    hybrid = runs["hybrid-raw"]
    steps = list(range(len(hybrid.supersteps)))
    ratio = [
        round(s.updated_vertices / graph.num_vertices, 3)
        for s in hybrid.supersteps
    ]
    sample = steps[:: max(1, len(steps) // 12)]
    fig8a = render_series(
        "superstep",
        sample,
        {"update ratio": [ratio[i] for i in sample]},
        title="Fig 8a: vertex updated ratio",
    )
    fig8b = render_series(
        "superstep",
        sample,
        {
            label: [
                round(runs[label].supersteps[i].net_bytes * divisor / GB, 2)
                if i < len(runs[label].supersteps)
                else "-"
                for i in sample
            ]
            for label in ("dense", "sparse")
        },
        title="Fig 8b: network traffic per superstep (paper-scale GB)",
    )
    traffic = {label: r.total_net_bytes() for label, r in runs.items()}
    codec_s = {
        label.replace("hybrid-", ""): avg_modeled_paper_scale(runs[label], tier)
        for label in ("hybrid-raw", "hybrid-snappylike", "hybrid-zlib1", "hybrid-zlib3")
    }
    codec_rows = [
        [codec, round(traffic[f"hybrid-{codec}"] * divisor / GB, 1), round(t, 2)]
        for codec, t in codec_s.items()
    ]
    raw_traffic = traffic["hybrid-raw"]
    observations = [
        "hybrid traffic <= min(dense, sparse) totals: "
        + verdict(raw_traffic <= min(traffic["dense"], traffic["sparse"]) * 1.05),
        f"snappylike cuts hybrid traffic "
        f"{raw_traffic / max(traffic['hybrid-snappylike'], 1):.1f}x (paper: 1.7x)",
        f"zlib-1 cuts hybrid traffic "
        f"{raw_traffic / max(traffic['hybrid-zlib1'], 1):.1f}x (paper: 2.3x)",
        "update ratio declines monotonically after the first supersteps: "
        + verdict(all(ratio[i] >= ratio[i + 1] - 0.05 for i in range(2, len(ratio) - 1))),
        "snappylike and zlib-1 traffic <= 1.01x raw: "
        + verdict(
            max(traffic["hybrid-snappylike"], traffic["hybrid-zlib1"]) <= raw_traffic * 1.01
        ),
        "snappylike within 5% of the fastest codec: "
        + verdict(codec_s["snappylike"] <= min(codec_s.values()) * 1.05),
        "zlib-3 slower than snappylike: "
        + verdict(codec_s["zlib3"] > codec_s["snappylike"]),
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title="Fig 8c/8d: hybrid-mode traffic and time per message codec",
        headers=["codec", "total net GB (paper scale)", "avg modeled s/superstep"],
        rows=codec_rows,
        paper_claims=[
            "sparse mode only wins once <~20% of vertices update (after "
            "superstep ~160 at paper scale)",
            "snappy/zlib-1/zlib-3 cut traffic 1.7x/2.3x/2.3x",
            "snappy gives the best end-to-end time despite zlib's ratio — "
            "it is GraphH's default",
        ],
        observations=observations,
        extra_sections=[
            fig8a,
            fig8b,
            ascii_chart(
                sample,
                {
                    label: [
                        runs[label].supersteps[i].net_bytes * divisor / GB
                        if i < len(runs[label].supersteps)
                        else float("nan")
                        for i in sample
                    ]
                    for label in ("dense", "sparse")
                },
                title="Fig 8b (traffic GB vs superstep)",
                height=12,
            ),
        ],
    )


# ----------------------------------------------------------------------
# Figures 9 & 10 — the headline grids
# ----------------------------------------------------------------------

def _grid_experiment(
    experiment_id: str,
    title: str,
    program_factory,
    tier: str,
    max_supersteps: int,
    paper_claims: list[str],
    speedup_checks,
) -> ExperimentResult:
    rows = []
    measured: dict[tuple[str, str, int], float] = {}
    oom_notes: list[str] = []
    for dataset in GENERIC_GRAPHS + BIG_GRAPHS:
        graph = load_dataset(dataset, tier)
        systems = ("graphh",) + OUT_OF_CORE
        if dataset in GENERIC_GRAPHS:
            systems = ("graphh",) + IN_MEMORY + OUT_OF_CORE
        for num_servers in CLUSTER_SIZES:
            for name in systems:
                result, cluster = run_system(
                    name,
                    graph,
                    program_factory(),
                    num_servers=num_servers,
                    max_supersteps=max_supersteps,
                )
                t = avg_modeled_paper_scale(result, tier)
                measured[(dataset, name, num_servers)] = t
                rows.append([dataset, num_servers, name, round(t, 2)])
                cluster.close()
        # The paper excludes in-memory systems from the big-graph rows
        # because they exceed 128GB/server (§I); check analytically at
        # paper scale with footnote 3's combining ratio — the analogs'
        # small vertex sets combine unrealistically well, so the scaled
        # counters cannot answer this one.
        if dataset in BIG_GRAPHS:
            spec = DATASETS[dataset]
            eta = estimate_combine_ratio(spec.avg_degree, 216)
            params = GraphParams(
                num_vertices=spec.paper_vertices,
                num_edges=spec.paper_edges,
                num_servers=9,
                combine_ratio=eta,
            )
            # Figure 1a's own measurement calibrates the real-world
            # overhead over the analytic minimum: Pregel+ used 281GB on
            # UK-2007 where Table III's bare arrays need ~81GB → ×3.5.
            measured_overhead = 3.5
            per_server = TABLE3["pregel+"].ram_total(params) * measured_overhead
            oom_notes.append(
                f"{dataset}: Table III x measured overhead puts Pregel+ "
                f"at {per_server / GB:.0f}GB/server (eta={eta:.2f}) vs "
                f"the 128GB testbed: "
                + ("OOM CONFIRMED" if per_server > PAPER_TESTBED.memory_bytes
                   else "VIOLATED")
            )
    out_of_core_gap = [
        f"{g} N=9: graphh more than 20x faster than graphd and chaos: "
        + verdict(all(measured[(g, name, 9)] > 20 * measured[(g, "graphh", 9)]
                      for name in OUT_OF_CORE))
        for g in BIG_GRAPHS
    ]
    observations = speedup_checks(measured) + out_of_core_gap + oom_notes
    charts = []
    for dataset in GENERIC_GRAPHS + BIG_GRAPHS:
        systems = sorted({name for (d, name, _) in measured if d == dataset})
        charts.append(
            ascii_chart(
                list(CLUSTER_SIZES),
                {
                    name: [measured[(dataset, name, n)] for n in CLUSTER_SIZES]
                    for name in systems
                },
                log_y=True,
                height=12,
                title=f"{experiment_id} {dataset} (log s/superstep vs servers)",
            )
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["graph", "servers", "system", "modeled s/superstep (paper scale)"],
        rows=rows,
        paper_claims=paper_claims,
        observations=observations,
        extra_sections=charts,
    )


def exp_fig9_pagerank(tier: str = "test", supersteps: int = 6) -> ExperimentResult:
    """Fig 9: PageRank across graphs, cluster sizes, systems."""

    def checks(m):
        out = []
        for g in GENERIC_GRAPHS:
            best_inmem = min(m[(g, n, 9)] for n in IN_MEMORY)
            out.append(
                f"{g} N=9: graphh vs best in-memory "
                f"{best_inmem / max(m[(g, 'graphh', 9)], 1e-9):.1f}x "
                "(paper: up to 7.8x)"
            )
            out.append(
                f"{g} N=9: graphh vs graphd "
                f"{m[(g, 'graphd', 9)] / max(m[(g, 'graphh', 9)], 1e-9):.0f}x "
                "(paper: 13-18x)"
            )
        for g in BIG_GRAPHS:
            out.append(
                f"{g} N=9: graphh vs graphd/chaos "
                f"{m[(g, 'graphd', 9)] / max(m[(g, 'graphh', 9)], 1e-9):.0f}x / "
                f"{m[(g, 'chaos', 9)] / max(m[(g, 'graphh', 9)], 1e-9):.0f}x "
                "(paper: ~320x / ~110x)"
            )
        single_ok = all(
            m[(g, "graphh", 1)] < m[(g, "graphd", 1)] for g in BIG_GRAPHS
        )
        out.append(
            "graphh runs big graphs on a single node faster than the "
            "out-of-core systems: " + verdict(single_ok)
        )
        for g in GENERIC_GRAPHS:
            out.append(
                f"{g} N=9: graphh faster than every in-memory system: "
                + verdict(all(m[(g, "graphh", 9)] < m[(g, n, 9)] for n in IN_MEMORY))
            )
            out.append(
                f"{g} N=9: graphh more than 5x faster than graphd: "
                + verdict(m[(g, "graphd", 9)] > 5 * m[(g, "graphh", 9)])
            )
        for g in BIG_GRAPHS:
            out.append(
                f"{g}: graphh on 1 server faster than graphd on 9: "
                + verdict(m[(g, "graphh", 1)] < m[(g, "graphd", 9)])
            )
            out.append(
                f"{g}: graphh faster on 9 servers than on 1: "
                + verdict(m[(g, "graphh", 9)] < m[(g, "graphh", 1)])
            )
        return out

    return _grid_experiment(
        "fig9",
        "PageRank: avg time per superstep across systems and cluster sizes",
        lambda: PageRank(),
        tier,
        supersteps,
        [
            "GraphH outperforms Pregel+/PowerGraph/PowerLyra by up to "
            "7.8x/6.3x/5.3x on Twitter-2010 with 9 servers",
            "GraphH outperforms GraphD and Chaos by ~320x and ~110x on "
            "EU-2015 with 9 servers",
            "GraphH handles UK-2014/EU-2015 even on a single node (68s / "
            "131s per superstep)",
        ],
        checks,
    )


def exp_fig10_sssp(tier: str = "test", supersteps: int = 30) -> ExperimentResult:
    """Fig 10: SSSP across graphs, cluster sizes, systems."""

    def checks(m):
        out = []
        for g in GENERIC_GRAPHS:
            ratio = m[(g, "pregel+", 9)] / max(m[(g, "graphh", 9)], 1e-9)
            out.append(
                f"{g} N=9: graphh/pregel+ ratio {ratio:.1f} — paper says "
                "similar performance (~1x)"
            )
            out.append(
                f"{g} N=9: pregel+ time / graphh time in (0.3, 10): "
                + verdict(0.3 < ratio < 10)
            )
        for g in BIG_GRAPHS:
            out.append(
                f"{g} N=9: graphh vs graphd "
                f"{m[(g, 'graphd', 9)] / max(m[(g, 'graphh', 9)], 1e-9):.0f}x "
                "(paper: at least 350x)"
            )
        return out

    return _grid_experiment(
        "fig10",
        "SSSP: avg time per superstep across systems and cluster sizes",
        lambda: SSSP(source=0),
        tier,
        supersteps,
        [
            "GraphH matches Pregel+ on generic graphs (~0.4s/superstep)",
            "GraphH beats PowerGraph/PowerLyra by up to 2x on SSSP",
            "GraphH beats GraphD/Chaos by at least 350x on big graphs",
        ],
        checks,
    )


# ----------------------------------------------------------------------
# Extension experiments (beyond the paper's tables/figures)
# ----------------------------------------------------------------------

def exp_scaling_efficiency(tier: str = "test", supersteps: int = 6) -> ExperimentResult:
    """Extension: GraphH strong-scaling efficiency, 1 → 9 servers.

    Figures 9/10 show absolute times; this experiment extracts the
    scaling story — speedup and parallel efficiency per dataset — and
    checks the paper-implied shape: near-linear for compute-bound big
    graphs, flattening on small graphs where the broadcast's O(N|V|)
    traffic and the fixed sync overhead dominate.
    """
    rows = []
    speedups: dict[str, dict[int, float]] = {}
    for dataset in GENERIC_GRAPHS + BIG_GRAPHS:
        graph = load_dataset(dataset, tier)
        base = None
        speedups[dataset] = {}
        for num_servers in CLUSTER_SIZES:
            result, cluster = run_graphh(
                graph, PageRank(), num_servers, max_supersteps=supersteps
            )
            cluster.close()
            t = avg_modeled_paper_scale(result, tier)
            if base is None:
                base = t
            speedup = base / t if t else float("inf")
            efficiency = speedup / num_servers
            speedups[dataset][num_servers] = speedup
            rows.append(
                [
                    dataset,
                    num_servers,
                    round(t, 2),
                    round(speedup, 2),
                    round(efficiency, 2),
                ]
            )
    observations = []
    for dataset in BIG_GRAPHS:
        s9 = speedups[dataset][9]
        observations.append(f"{dataset}: 9-server speedup {s9:.1f}x {verdict(s9 > 2.0)} (>2x)")
    small = speedups["twitter2010-s"][9]
    big = speedups["eu2015-s"][9]
    observations.append(
        f"big graphs scale better than small ones ({big:.1f}x vs {small:.1f}x): "
        + verdict(big >= small * 0.9)
    )
    observations.append(
        "speedup is 1.0 at N=1 and > 0.5 at every N on every graph: "
        + verdict(all(s[1] == 1.0 and min(s.values()) > 0.5 for s in speedups.values()))
    )
    chart = ascii_chart(
        list(CLUSTER_SIZES),
        {d: [speedups[d][n] for n in CLUSTER_SIZES] for d in speedups},
        title="GraphH speedup vs servers (PageRank)",
        height=12,
    )
    return ExperimentResult(
        experiment_id="scaling",
        title="Extension: GraphH strong scaling (PageRank)",
        headers=["graph", "servers", "modeled s/superstep", "speedup", "efficiency"],
        rows=rows,
        paper_claims=[
            "GraphH's per-superstep time drops with cluster size on all "
            "graphs (Figs 9-10's x-axes)",
            "small graphs saturate early — broadcast and sync overheads "
            "do not shrink with N",
        ],
        observations=observations,
        extra_sections=[chart],
    )


def exp_partitioning_quality(tier: str = "test") -> ExperimentResult:
    """Extension: Figure 2's strategies quantified on every dataset."""
    from repro.partition import (
        greedy_vertex_cut,
        hybrid_vertex_cut,
    )
    from repro.partition.quality import (
        edge_cut_quality,
        tile_quality,
        vertex_cut_quality,
    )

    rows = []
    observations = []
    tile_balances = []
    for spec in DATASETS.values():
        g = spec.generate(tier)
        qualities = [
            edge_cut_quality(g, hash_edge_cut(g, 9), combine_ratio=0.82),
            vertex_cut_quality(g, hybrid_vertex_cut(g, 9), strategy="hybrid-cut"),
            tile_quality(g, build_tiles(g, max(1, g.num_edges // 432)), 9),
        ]
        # Greedy cut is a per-edge Python loop; keep it to one dataset.
        if spec.name == "twitter2010-s":
            qualities.insert(
                1, vertex_cut_quality(g, greedy_vertex_cut(g, 9), strategy="greedy-cut")
            )
        for q in qualities:
            rows.append([spec.paper_name, *q.row()[:1], *q.row()[2:]])
        tiles_q = qualities[-1]
        cut_q = qualities[0]
        tile_balances.append(tiles_q.edge_balance)
        observations.append(
            f"{spec.paper_name}: tile edge balance {tiles_q.edge_balance:.2f} "
            f"vs hash edge-cut {cut_q.edge_balance:.2f}"
        )
    observations.append(
        f"tile edge balance < 2.0 on every graph: {verdict(max(tile_balances) < 2.0)}"
    )
    return ExperimentResult(
        experiment_id="partitioning",
        title="Extension: partition quality across strategies (9 servers)",
        headers=[
            "graph",
            "strategy",
            "edge balance",
            "vertex balance",
            "replication",
            "est msgs/superstep",
        ],
        rows=rows,
        paper_claims=[
            "hash edge-cut cannot balance workloads on skewed graphs (§II-B.1)",
            "GraphH's splitter bounds tile imbalance by construction",
        ],
        observations=observations,
    )


ALL_EXPERIMENTS = {
    "table1": exp_table1_datasets,
    "fig1a": exp_fig1_memory,
    "fig1b": exp_fig1_time,
    "table3": exp_table3_costs,
    "table4": exp_table4_input_size,
    "table5": exp_table5_compression,
    "fig6": exp_fig6_replication,
    "fig7": exp_fig7_cache_modes,
    "fig8": exp_fig8_hybrid_comm,
    "fig9": exp_fig9_pagerank,
    "fig10": exp_fig10_sssp,
    "scaling": exp_scaling_efficiency,
    "partitioning": exp_partitioning_quality,
}
