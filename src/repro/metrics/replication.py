"""All-in-All vs. On-Demand expected memory (paper §IV-A, Eqs. 2–5).

GraphH replicates every vertex on every server (AA) to keep vertex
state in dense, index-free arrays.  The alternative (OD) stores only
vertices that actually appear in a server's tiles, at the cost of a
4-byte id per entry.  For a random graph, the expected number of
vertices an OD server touches is (Eq. 5)::

    E[|V_od|] ≤ (1 - e^{-d_avg / N}) |V| + |V| / N

With AA each vertex costs 20 B (8 B value + 8 B message + 4 B degree);
with OD each touched vertex costs 24 B (the extra 4 B id).  Figure 6a
plots both against the cluster width ``N`` — AA wins below ~16 servers,
OD wins for EU-2015 beyond ~48 servers.
"""

from __future__ import annotations

import math

#: §IV-A sizing: value (8) + message (8) + out-degree (4).
AA_BYTES_PER_VERTEX = 20
#: OD adds a 4-byte index per stored vertex.
OD_BYTES_PER_VERTEX = 24


def expected_od_vertices(
    num_vertices: int, avg_degree: float, num_servers: int
) -> float:
    """Eq. 5's bound on vertices held per server under On-Demand."""
    if num_vertices < 0 or avg_degree < 0 or num_servers < 1:
        raise ValueError("invalid parameters")
    source_part = (1.0 - math.exp(-avg_degree / num_servers)) * num_vertices
    target_part = num_vertices / num_servers
    return min(float(num_vertices), source_part + target_part)


def expected_memory_aa(num_vertices: int, num_servers: int = 1) -> float:
    """Eq. 2's vertex+message memory per server under All-in-All (bytes).

    Independent of ``N`` — every server holds all ``|V|`` states.  The
    tile term (``Size(Tile) × T``) is excluded here, as in Figure 6a.
    """
    if num_vertices < 0 or num_servers < 1:
        raise ValueError("invalid parameters")
    return float(num_vertices) * AA_BYTES_PER_VERTEX


def expected_memory_od(
    num_vertices: int, avg_degree: float, num_servers: int
) -> float:
    """Eq. 3's expected per-server memory under On-Demand (bytes)."""
    return (
        expected_od_vertices(num_vertices, avg_degree, num_servers)
        * OD_BYTES_PER_VERTEX
    )
