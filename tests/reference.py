"""Naive reference implementations used to validate the optimised library code.

Everything here is written directly from the definitions in Section II of the
paper with no attention to efficiency, so that agreement between these
functions and the library constitutes a meaningful correctness check.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.views import connected_component, weight_threshold_subgraph


def naive_abcore(graph: BipartiteGraph, alpha: int, beta: int) -> BipartiteGraph:
    """(α,β)-core by repeated full-scan vertex removal (Definition 1)."""
    core = graph.copy()
    changed = True
    while changed:
        changed = False
        for side, threshold in ((Side.UPPER, alpha), (Side.LOWER, beta)):
            for label in list(core.labels(side)):
                if core.degree(side, label) < threshold:
                    core.remove_vertex(side, label)
                    changed = True
    core.discard_isolated()
    return core


def naive_community(
    graph: BipartiteGraph, query: Vertex, alpha: int, beta: int
) -> Optional[BipartiteGraph]:
    """The (α,β)-community of ``query`` or None if it is not in the core."""
    core = naive_abcore(graph, alpha, beta)
    if not core.has_vertex(query.side, query.label):
        return None
    return connected_component(core, query)


def naive_significant_community(
    graph: BipartiteGraph, query: Vertex, alpha: int, beta: int
) -> Optional[BipartiteGraph]:
    """The significant (α,β)-community straight from Definition 5.

    For every distinct weight threshold (descending) keep only the edges at or
    above it, compute the (α,β)-core, and check whether the query vertex
    survives; the first (largest) threshold that works gives the answer as the
    query's connected component.
    """
    community = naive_community(graph, query, alpha, beta)
    if community is None:
        return None
    thresholds = sorted({w for _, _, w in graph.edges()}, reverse=True)
    for threshold in thresholds:
        restricted = weight_threshold_subgraph(graph, threshold)
        if not restricted.has_vertex(query.side, query.label):
            continue
        core = naive_abcore(restricted, alpha, beta)
        if core.has_vertex(query.side, query.label):
            return connected_component(core, query)
    return None


def graph_edge_weights(graph: BipartiteGraph) -> Set[Tuple[object, object, float]]:
    """Canonical edge representation for equality assertions."""
    return {(u, v, w) for u, v, w in graph.edges()}


def assert_same_graph(actual: BipartiteGraph, expected: BipartiteGraph) -> None:
    """Assert two graphs have identical edge sets (with weights)."""
    assert graph_edge_weights(actual) == graph_edge_weights(expected)


LEVEL_FIELDS = ("indptr", "entry_vertex", "entry_weight", "entry_offset", "offsets")


def assert_same_level_arrays(actual, expected) -> None:
    """Element-wise equality of two ``export_level_arrays()`` results."""
    import numpy as np

    assert actual.keys() == expected.keys()
    for key, level in actual.items():
        other = expected[key]
        assert level.num_upper == other.num_upper, key
        for name in LEVEL_FIELDS:
            assert np.array_equal(getattr(level, name), getattr(other, name)), (key, name)
