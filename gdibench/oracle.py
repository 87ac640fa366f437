"""Reference computations made apart from the program.

Every expected value here is derived from the generator's edge list, the
benchmark's own operation and request streams, and the schema's label and
property description, with networkx and numpy; nothing is read back from
the database under test.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
import numpy as np

from repro.workloads import OpType

__all__ = [
    "bfs_depths",
    "wcc_partition",
    "pagerank",
    "bi2_counts",
    "label_counts",
    "oltp_final_state",
]


def _undirected(n: int, edges: np.ndarray) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges.tolist()))
    return g


def bfs_depths(n: int, edges: np.ndarray, root: int) -> dict[int, int]:
    """Hop distance from ``root`` ignoring edge direction."""
    return dict(nx.single_source_shortest_path_length(_undirected(n, edges), root))


def wcc_partition(n: int, edges: np.ndarray) -> set[frozenset]:
    """Weakly connected components as a set of vertex sets."""
    return {frozenset(c) for c in nx.connected_components(_undirected(n, edges))}


def pagerank(
    n: int, edges: np.ndarray, iterations: int, damping: float
) -> np.ndarray:
    """Power iteration over out-edges; dangling mass is spread evenly."""
    src, dst = edges[:, 0], edges[:, 1]
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_deg == 0
    pr = np.full(n, 1.0 / n)
    for _ in range(iterations):
        share = pr[src] / out_deg[src]
        incoming = np.bincount(dst, weights=share, minlength=n)
        base = (1.0 - damping) / n + damping * pr[dangling].sum() / n
        pr = base + damping * incoming
    return pr


def bi2_counts(schema, n: int, edges: np.ndarray, n_labels: int, *, min_score: float) -> list[int]:
    """For each source label ``i``: sources labelled ``i`` with ``p_score >
    min_score`` and an out-edge labelled ``EL0`` to a vertex labelled
    ``i + 1`` whose ``p_active`` is true (the BI2 shape)."""
    labels = np.zeros((n, n_labels), dtype=bool)
    score = np.full(n, -np.inf)
    active = np.zeros(n, dtype=bool)
    for v in range(n):
        labels[v, schema.vertex_label_indices(v)] = True
        props = dict(schema.vertex_property_values(v))
        if props.get("p_score") is not None:
            score[v] = props["p_score"]
        active[v] = props.get("p_active") is True
    src, dst = edges[:, 0], edges[:, 1]
    el0 = np.fromiter(
        (schema.edge_label_index(u, v) == 0 for u, v in edges.tolist()),
        dtype=bool, count=len(edges),
    )
    base = el0 & (score[src] > min_score) & active[dst]
    counts = []
    for i in range(n_labels):
        hit = base & labels[src, i] & labels[dst, (i + 1) % n_labels]
        counts.append(int(np.unique(src[hit]).size))
    return counts


def label_counts(schema, n: int) -> dict[int, int]:
    """Vertex count per vertex-label index."""
    counts: Counter = Counter()
    for v in range(n):
        counts.update(schema.vertex_label_indices(v))
    return dict(counts)


def oltp_final_state(
    n: int, edges: np.ndarray, op_streams: list[list[tuple]]
) -> tuple[set[int], Counter]:
    """Vertex set and out-edge multiset after every operation committed.

    Survivors are the initial vertices plus created minus deleted ones;
    the edges are the generator's plus every ``add_edge`` between two
    distinct survivors (the LB mix never deletes an edge on its own, and
    a deleted vertex takes its edges with it).
    """
    alive = set(range(n))
    added: list[tuple[int, int]] = []
    for stream in op_streams:
        for desc in stream:
            op = desc[0]
            if op is OpType.ADD_VERTEX:
                alive.add(desc[1])
            elif op is OpType.ADD_EDGE and desc[1] != desc[2]:
                added.append((desc[1], desc[2]))
    for stream in op_streams:
        for desc in stream:
            if desc[0] is OpType.DEL_VERTEX:
                alive.discard(desc[1])
    multiset = Counter(
        (u, v) for u, v in edges.tolist() if u in alive and v in alive
    )
    multiset.update((u, v) for u, v in added if u in alive and v in alive)
    return alive, multiset
