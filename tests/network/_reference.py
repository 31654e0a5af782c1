"""networkx copies of a topology, so tests can cross-check the simulator's
own graph code against an independent implementation.  The simulator does
not import networkx; only these tests do."""

from __future__ import annotations

import networkx as nx


def to_networkx(topo) -> nx.Graph:
    """Every node of ``topo`` and every link its adjacency map holds."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.adjacency)
    graph.add_edges_from(
        (u, v) for u, nbrs in topo.adjacency.items() for v in nbrs
    )
    return graph
