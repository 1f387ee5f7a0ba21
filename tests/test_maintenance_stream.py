"""Property tests: maintained indexes answer like fresh rebuilds, always.

Random mixed insert/remove/reweight streams — including brand-new vertices
and removals that discard endpoints — are applied to a
:class:`DynamicDegeneracyIndex` on both construction backends, and after
*every* update ``batch_community`` / ``batch_significant_communities`` must
be element-wise identical to a from-scratch :class:`DegeneracyIndex` of the
same graph.  Because the batch APIs route through the patched
:class:`LevelArrays`, this exercises the whole maintenance engine: the
S⁺/S⁻ candidate closures, the frozen-boundary region peels, the array
patching, the in-place id-space growth, and the incremental degeneracy
adjustment.
"""

from __future__ import annotations

import random

import pytest

from repro.api import CommunitySearcher
from repro.graph.bipartite import BipartiteGraph
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex

from tests.reference import assert_same_level_arrays

BACKENDS = ["dict", "csr"]


def _mixed_stream(rng: random.Random, working: BipartiteGraph, labels: int):
    """One random update applied to ``working``; returns the op description."""
    roll = rng.random()
    if roll < 0.40 or working.num_edges < 4:
        u, v = f"u{rng.randrange(labels)}", f"v{rng.randrange(labels)}"
        weight = float(rng.randint(1, 9))
        working.add_edge(u, v, weight)
        return ("insert", u, v, weight)
    if roll < 0.55:  # reweight an existing edge
        u, v, _ = rng.choice(sorted(working.edges(), key=repr))
        weight = float(rng.randint(1, 9))
        working.add_edge(u, v, weight)
        return ("insert", u, v, weight)
    u, v, _ = rng.choice(sorted(working.edges(), key=repr))
    working.remove_edge(u, v)
    working.discard_isolated()
    return ("remove", u, v, 0.0)


def _probe_queries(graph: BipartiteGraph, delta: int):
    delta = max(delta, 1)
    pairs = [(1, 1), (2, 2), (delta, delta), (1, delta), (delta, 1), (2, 3), (3, 2)]
    return [(vertex, a, b) for a, b in pairs for vertex in graph.vertices()]


def _assert_batches_match(dynamic, fresh, graph) -> None:
    queries = _probe_queries(graph, fresh.delta)
    maintained = dynamic.batch_community(queries, on_empty="none")
    rebuilt = fresh.batch_community(queries, on_empty="none")
    assert len(maintained) == len(rebuilt)
    for (query, alpha, beta), got, want in zip(queries, maintained, rebuilt):
        assert (got is None) == (want is None), (query, alpha, beta)
        if got is not None:
            assert got.same_structure(want), (query, alpha, beta)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_community_matches_rebuild_after_every_update(backend, seed):
    rng = random.Random(seed)
    labels = 8
    graph = BipartiteGraph.from_edges(
        [
            (f"u{rng.randrange(labels - 1)}", f"v{rng.randrange(labels - 1)}", float(rng.randint(1, 9)))
            for _ in range(26)
        ]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend=backend)
    working = graph.copy()
    for _ in range(24):
        kind, u, v, weight = _mixed_stream(rng, working, labels)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
        fresh = DegeneracyIndex(working, backend="dict")
        assert dynamic.delta == fresh.delta
        _assert_batches_match(dynamic, fresh, working)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_region_budget_still_agrees(backend):
    # A budget of 4 forces the full re-peel fallback on nearly every level.
    rng = random.Random(3)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(6)}", f"v{rng.randrange(6)}", float(rng.randint(1, 9))) for _ in range(20)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend=backend, region_budget=4)
    working = graph.copy()
    for _ in range(18):
        kind, u, v, weight = _mixed_stream(rng, working, 7)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
        fresh = DegeneracyIndex(working, backend="dict")
        assert dynamic.delta == fresh.delta
        _assert_batches_match(dynamic, fresh, working)


def test_large_regions_peel_on_the_csr_kernel(monkeypatch):
    # Candidate regions of 32+ vertices on a CSR-built index run the frozen
    # region sub-CSR kernel; the levels must still equal a fresh rebuild's.
    import repro.index.maintenance as maintenance
    from repro.graph.generators import power_law_bipartite

    frozen = []
    real_freeze = maintenance._RegionPeel._freeze_region

    def counting_freeze(self, *args):
        frozen.append(True)
        return real_freeze(self, *args)

    monkeypatch.setattr(maintenance._RegionPeel, "_freeze_region", counting_freeze)
    graph = power_law_bipartite(num_upper=300, num_lower=250, num_edges=2500, seed=5)
    dynamic = DynamicDegeneracyIndex(graph, backend="csr")
    working = graph.copy()
    rng = random.Random(8)
    uppers, lowers = sorted(graph.upper_labels()), sorted(graph.lower_labels())
    for step in range(8):
        if step % 2 == 0:
            u, v, weight = rng.choice(uppers), rng.choice(lowers), float(rng.randint(1, 9))
            dynamic.insert_edge(u, v, weight)
            working.add_edge(u, v, weight)
        else:
            u, v, _ = rng.choice(sorted(working.edges(), key=repr))
            dynamic.remove_edge(u, v)
            working.remove_edge(u, v)
            working.discard_isolated()
        fresh = DegeneracyIndex(working, backend="csr")
        assert dynamic.delta == fresh.delta
        assert_same_level_arrays(
            dynamic.export_level_arrays(), fresh.export_level_arrays()
        )
    assert frozen, "no region reached the CSR kernel"


@pytest.mark.parametrize("seed", [4, 5])
def test_batch_significant_communities_match_rebuild(seed):
    rng = random.Random(seed)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(7)}", f"v{rng.randrange(7)}", float(rng.randint(1, 9))) for _ in range(28)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend="dict")
    working = graph.copy()
    for _ in range(10):
        kind, u, v, weight = _mixed_stream(rng, working, 8)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
        fresh = DegeneracyIndex(working, backend="dict")
        maintained = CommunitySearcher(index=dynamic)
        rebuilt = CommunitySearcher(index=fresh)
        delta = max(fresh.delta, 1)
        queries = [
            (vertex, a, b)
            for a, b in [(1, 1), (2, 2), (delta, delta)]
            for vertex in working.vertices()
        ]
        got = maintained.batch_significant_communities(queries, on_empty="none")
        want = rebuilt.batch_significant_communities(queries, on_empty="none")
        assert len(got) == len(want)
        for (query, alpha, beta), result, expected in zip(queries, got, want):
            assert (result is None) == (expected is None), (query, alpha, beta)
            if result is not None:
                assert result.graph.same_structure(expected.graph), (query, alpha, beta)


@pytest.mark.parametrize("backend", BACKENDS)
def test_new_labels_grow_the_array_path_in_place(backend):
    # Never-seen upper and lower labels grow the id space of the one level
    # store in place: the path object survives, nothing is invalidated, and
    # batch answers equal a fresh rebuild after every insert.
    rng = random.Random(6)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(8)}", f"v{rng.randrange(8)}", float(rng.randint(1, 9))) for _ in range(40)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend=backend)
    working = graph.copy()
    path_before = dynamic.query_path()
    num_upper, num_vertices = path_before.num_upper, path_before.num_vertices
    inserts = [
        ("new-u0", "v1"),  # new upper label
        ("u2", "new-v0"),  # new lower label
        ("new-u1", "new-v1"),  # both new at once
        ("new-u0", "new-v1"),
        ("new-u1", "v3"),
        ("u5", "new-v0"),
    ]
    for u, v in inserts:
        weight = float(rng.randint(1, 9))
        dynamic.insert_edge(u, v, weight)
        working.add_edge(u, v, weight)
        assert dynamic.query_path() is path_before, "array path was replaced"
        fresh = DegeneracyIndex(working, backend="dict")
        assert dynamic.delta == fresh.delta
        _assert_batches_match(dynamic, fresh, working)
    assert path_before.num_upper == num_upper + 2
    assert path_before.num_vertices == num_vertices + 4
    assert dynamic.stats().extra["arrays_invalidated"] == 0


def test_maintenance_observability_counters():
    rng = random.Random(7)
    graph = BipartiteGraph.from_edges(
        [(f"u{rng.randrange(7)}", f"v{rng.randrange(7)}", float(rng.randint(1, 9))) for _ in range(30)]
    )
    dynamic = DynamicDegeneracyIndex(graph, backend="dict")
    working = graph.copy()
    for _ in range(12):
        kind, u, v, weight = _mixed_stream(rng, working, 8)
        if kind == "insert":
            dynamic.insert_edge(u, v, weight)
        else:
            dynamic.remove_edge(u, v)
    extra = dynamic.stats().extra
    for key in (
        "levels_patched",
        "levels_rebuilt",
        "levels_built",
        "levels_dropped",
        "region_updates",
        "reweight_updates",
        "region_mean_vertices",
        "arrays_invalidated",
        "updates_applied",
        "maintenance_seconds",
    ):
        assert key in extra, key
    assert extra["updates_applied"] == 12.0
    assert extra["levels_patched"] + extra["levels_rebuilt"] > 0
    assert extra["arrays_invalidated"] == 0
