"""Micro-benchmarks of the core primitives (not tied to a specific figure).

These give per-operation baselines that make regressions in the low-level
machinery visible independently of the end-to-end experiments: (α,β)-core
peeling, offset computation, butterfly counting, the union-find tracker and
the significant-search peel kernel.
"""

from __future__ import annotations

import pytest

from repro.decomposition.abcore import abcore_vertices
from repro.decomposition.offsets import alpha_offsets, beta_offsets
from repro.graph.bipartite import Side, Vertex
from repro.graph.generators import power_law_bipartite
from repro.graph.weights import apply_weights
from repro.index.degeneracy_index import DegeneracyIndex
from repro.models.butterfly import butterflies_per_edge
from repro.utils.unionfind import ComponentTracker

from benchmarks.conftest import BENCH_DATASETS


@pytest.mark.parametrize("dataset", BENCH_DATASETS[:3])
def test_abcore_peeling(benchmark, bench_graphs, dataset):
    graph = bench_graphs[dataset]
    survivors = benchmark(lambda: abcore_vertices(graph, 2, 2))
    assert isinstance(survivors, set)


@pytest.mark.parametrize("dataset", BENCH_DATASETS[:3])
def test_alpha_offsets(benchmark, bench_graphs, dataset):
    graph = bench_graphs[dataset]
    offsets = benchmark(lambda: alpha_offsets(graph, 2))
    assert len(offsets) == graph.num_vertices


@pytest.mark.parametrize("dataset", BENCH_DATASETS[:3])
def test_beta_offsets(benchmark, bench_graphs, dataset):
    graph = bench_graphs[dataset]
    offsets = benchmark(lambda: beta_offsets(graph, 2))
    assert len(offsets) == graph.num_vertices


def test_butterfly_support(benchmark, bench_graphs):
    graph = bench_graphs["BS"]
    support = benchmark(lambda: butterflies_per_edge(graph))
    assert len(support) == graph.num_edges


def test_component_tracker_throughput(benchmark, bench_graphs):
    graph = bench_graphs["GH"]
    edges = [(Vertex(Side.UPPER, u), Vertex(Side.LOWER, v)) for u, v, _ in graph.edges()]

    def run():
        tracker = ComponentTracker(alpha=2, beta=2)
        for u, v in edges:
            tracker.add_edge(u, v)
        return tracker

    benchmark(run)


@pytest.mark.parametrize("weights", ["UF", "ratings"])
def test_csr_significant_peel(benchmark, weights):
    """Step-2 peel over one community of >= 1k edges.

    UF (continuous) weights make nearly every edge its own round; ratings
    (integers 1..5) give five rounds, each removing many tied edges.
    """
    import numpy as np

    from repro.decomposition.csr_kernels import csr_significant_edges

    graph = apply_weights(
        power_law_bipartite(375, 300, 2500, exponent_upper=1.0, exponent_lower=1.0, seed=0),
        "UF",
        seed=0,
    )
    if weights == "ratings":
        for u, v, w in list(graph.edges()):
            graph.add_edge(u, v, float(1 + int(w * 1000) % 5))
    index = DegeneracyIndex(graph, backend="csr")
    alpha = beta = 5
    query = min(
        (v for v in index.vertices_in_core(alpha, beta) if v.side is Side.UPPER),
        key=lambda v: repr(v.label),
    )
    community = index.community(query, alpha, beta)
    assert community.num_edges >= 1000
    upper_ids = {label: i for i, label in enumerate(community.upper_labels())}
    lower_ids = {label: i for i, label in enumerate(community.lower_labels())}
    edges = list(community.edges())
    src = np.array([upper_ids[u] for u, _, _ in edges], dtype=np.int64)
    dst = np.array([lower_ids[v] for _, v, _ in edges], dtype=np.int64)
    weight = np.array([w for _, _, w in edges], dtype=np.float64)

    kept = benchmark(
        lambda: csr_significant_edges(
            src, dst, weight, True, upper_ids[query.label], alpha, beta, method="peel"
        )
    )
    assert 0 < kept.shape[0] < len(edges)
