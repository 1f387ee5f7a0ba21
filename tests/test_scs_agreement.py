"""Agreement suite for the array-native significant search (step 2).

The dict-backed ``scs_*`` algorithms are the oracle.  The vectorised CSR
kernels (:func:`repro.decomposition.csr_kernels.csr_significant_edges`) must
return element-wise identical answers — same vertices, same edges — on many
seeded weighted graphs, for a grid of (α,β), for every algorithm, through
every entry point (direct kernel calls, batch APIs on both construction
backends, and the snapshot/serving pipeline).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import CommunitySearcher
from repro.decomposition.abcore import abcore_subgraph
from repro.decomposition.csr_kernels import _peel_mask, csr_significant_edges
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.generators import power_law_bipartite
from repro.graph.views import connected_component
from repro.graph.weights import apply_weights
from repro.index.degeneracy_index import DegeneracyIndex
from repro.search.baseline import scs_baseline
from repro.search.binary import scs_binary
from repro.search.expand import scs_expand
from repro.search.peel import scs_peel

from tests.conftest import make_random_weighted_graph
from tests.reference import assert_same_graph

BACKENDS = ["dict", "csr"]

GRID = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
METHODS = ("peel", "expand", "binary")


def community_edge_lists(community):
    """The wire form of a community: parallel edge lists over interned ids."""
    upper_ids = {label: i for i, label in enumerate(sorted(community.upper_labels(), key=repr))}
    lower_ids = {label: i for i, label in enumerate(sorted(community.lower_labels(), key=repr))}
    src, dst, weight = [], [], []
    for u, v, w in community.edges():
        src.append(upper_ids[u])
        dst.append(lower_ids[v])
        weight.append(w)
    return src, dst, weight, upper_ids, lower_ids


def edge_triples_of(src, dst, weight, upper_ids, lower_ids):
    """The wire lists translated back to labelled ``(u, v, w)`` triples."""
    inv_u = {i: label for label, i in upper_ids.items()}
    inv_l = {i: label for label, i in lower_ids.items()}
    return [(inv_u[s], inv_l[d], w) for s, d, w in zip(src, dst, weight)]


def edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids):
    triples = edge_triples_of(src, dst, weight, upper_ids, lower_ids)
    return {triples[e] for e in kept}


def core_queries(index, alpha, beta, per_side=1):
    candidates = index.vertices_in_core(alpha, beta)
    uppers = [v for v in candidates if v.side is Side.UPPER][:per_side]
    lowers = [v for v in candidates if v.side is Side.LOWER][:per_side]
    return uppers + lowers


@pytest.mark.parametrize("seed", range(30))
def test_oracle_and_array_twins_agree(seed):
    """peel == expand == binary == baseline == the CSR kernels."""
    graph = make_random_weighted_graph(seed)
    index = DegeneracyIndex(graph, backend="dict")
    checked = 0
    for alpha, beta in GRID:
        for query in core_queries(index, alpha, beta):
            community = index.community(query, alpha, beta)
            oracle = scs_peel(community, query, alpha, beta)
            assert_same_graph(scs_expand(community, query, alpha, beta), oracle)
            assert_same_graph(scs_binary(community, query, alpha, beta), oracle)
            assert_same_graph(scs_baseline(graph, query, alpha, beta), oracle)

            src, dst, weight, upper_ids, lower_ids = community_edge_lists(community)
            query_upper = query.side is Side.UPPER
            query_id = (upper_ids if query_upper else lower_ids)[query.label]
            oracle_edges = set(graph_edge_triples(oracle))
            for method in METHODS:
                kept = csr_significant_edges(
                    src, dst, weight, query_upper, query_id, alpha, beta, method=method
                ).tolist()
                assert kept == sorted(kept)
                got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
                assert got == oracle_edges, (seed, alpha, beta, query, method)
            checked += 1
    assert checked > 0


def graph_edge_triples(graph):
    return {(u, v, w) for u, v, w in graph.edges()}


class TestBatchBackends:
    """The batch pipeline agrees with the sequential dict oracle per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [3, 7, 19])
    def test_batch_matches_dict_oracle(self, seed, backend):
        graph = make_random_weighted_graph(seed)
        oracle = CommunitySearcher(graph, backend="dict")
        searcher = CommunitySearcher(graph, backend=backend)
        queries = []
        for alpha, beta in GRID:
            queries.extend(
                (query, alpha, beta)
                for query in core_queries(oracle.index, alpha, beta)
            )
        for method in ("peel", "expand", "binary", "auto"):
            expected = [
                oracle._extract(
                    oracle.community(query, alpha, beta), query, alpha, beta,
                    method, 2.0,
                )
                for query, alpha, beta in queries
            ]
            batched = searcher.batch_significant_communities(queries, method=method)
            assert len(batched) == len(expected)
            for got, want in zip(batched, expected):
                assert got.method == want.method
                assert got.search_space_edges == want.search_space_edges
                assert_same_graph(got.graph, want.graph)


class TestUniformWeightExit:
    """Regression: the single-distinct-weight short-circuits must behave like
    the general paths — canonical ``R(α,β)[q]`` name, query validated."""

    def algorithms(self):
        return (scs_peel, scs_expand, scs_binary)

    @pytest.fixture()
    def uniform_blocks(self):
        """Two disconnected 3x3 blocks, every edge weight 3.0."""
        from repro.graph.bipartite import BipartiteGraph

        graph = BipartiteGraph(name="uniform-blocks")
        for i in range(3):
            for j in range(3):
                graph.add_edge(f"a{i}", f"x{j}", 3.0)
                graph.add_edge(f"b{i}", f"y{j}", 3.0)
        return graph

    def test_named_and_equal_to_community(self, uniform_blocks):
        searcher = CommunitySearcher(uniform_blocks, backend="dict")
        query = Vertex(Side.UPPER, "b0")
        community = searcher.community(query, 2, 2)
        assert len(set(community.edge_weights())) == 1
        for algorithm in self.algorithms():
            result = algorithm(community, query, 2, 2)
            assert result.name == "R(2,2)['b0']"
            assert_same_graph(result, community)

    def test_foreign_query_rejected(self, uniform_blocks):
        searcher = CommunitySearcher(uniform_blocks, backend="dict")
        community = searcher.community(Vertex(Side.UPPER, "b0"), 2, 2)
        foreign = Vertex(Side.UPPER, "a0")  # in the graph, not in this community
        for algorithm in self.algorithms():
            with pytest.raises(InvalidParameterError):
                algorithm(community, foreign, 2, 2)

    def test_array_twins_match_exit(self):
        src, dst, weight = [0, 0, 1, 1], [0, 1, 0, 1], [3.0, 3.0, 3.0, 3.0]
        for method in METHODS:
            kept = csr_significant_edges(src, dst, weight, True, 1, 2, 2, method=method)
            assert kept.tolist() == [0, 1, 2, 3]
        with pytest.raises(InvalidParameterError):
            csr_significant_edges(src, dst, weight, True, 9, 2, 2)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            csr_significant_edges([0], [0], [1.0], True, 0, 1, 1, method="magic")

    def test_expand_epsilon_validated(self):
        with pytest.raises(InvalidParameterError):
            csr_significant_edges(
                [0], [0], [1.0], True, 0, 1, 1, method="expand", epsilon=1.0
            )


class TestNoMaterialisation:
    """The array-native pipeline must never assemble a dict graph per answer.

    ``_graph_from_edge_arrays`` is the single assembly entry point (the lazy
    ``DeferredCommunity`` late-imports it too), so patching it intercepts
    every possible materialisation.
    """

    @pytest.fixture()
    def snapshot_searcher(self, tmp_path):
        from repro.serving.snapshot import load_snapshot, save_snapshot

        graph = make_random_weighted_graph(23)
        index = DegeneracyIndex(graph, backend="csr")
        directory = save_snapshot(index, tmp_path / "snap")
        return graph, CommunitySearcher(index=load_snapshot(directory))

    def test_snapshot_batch_builds_no_graphs(self, snapshot_searcher, monkeypatch):
        import repro.index.traversal as traversal

        graph, searcher = snapshot_searcher
        oracle = CommunitySearcher(graph, backend="dict")
        queries = [
            (query, alpha, beta)
            for alpha, beta in GRID
            for query in core_queries(searcher.index, alpha, beta)
        ]
        assert queries

        calls = []
        real = traversal._graph_from_edge_arrays

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(traversal, "_graph_from_edge_arrays", counting)
        results = searcher.batch_significant_communities(queries, method="auto")
        assert calls == [], "array-native search materialised a dict graph"
        monkeypatch.undo()

        expected = oracle.batch_significant_communities(queries, method="auto")
        for got, want in zip(results, expected):
            assert got.method == want.method
            assert got.search_space_edges == want.search_space_edges
            assert_same_graph(got.graph, want.graph)

    def test_sequential_snapshot_query_builds_no_graphs(
        self, snapshot_searcher, monkeypatch
    ):
        import repro.index.traversal as traversal

        graph, searcher = snapshot_searcher
        query = core_queries(searcher.index, 2, 2)[0]
        expected = CommunitySearcher(graph, backend="dict").significant_community(
            query, 2, 2, method="peel"
        )

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dict graph materialised during array-native search")

        monkeypatch.setattr(traversal, "_graph_from_edge_arrays", boom)
        result = searcher.significant_community(query, 2, 2, method="peel")
        monkeypatch.undo()
        assert result.method == "peel"
        assert_same_graph(result.graph, expected.graph)

    def test_served_batch_builds_no_graphs(self, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork so workers inherit the patched assembly hook")
        import repro.index.traversal as traversal

        graph = make_random_weighted_graph(29)
        searcher = CommunitySearcher(graph, backend="csr")
        oracle = CommunitySearcher(graph, backend="dict")
        queries = [
            (query, alpha, beta)
            for alpha, beta in [(2, 2), (3, 3)]
            for query in core_queries(searcher.index, alpha, beta, per_side=2)
        ]
        assert queries

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dict graph materialised inside the serving pipeline")

        real = traversal._graph_from_edge_arrays
        traversal._graph_from_edge_arrays = boom
        try:
            # Workers fork with the hook in place: any assembly on either side
            # of the process boundary turns into a worker error or a local
            # AssertionError.
            with searcher.serve(
                num_workers=2, snapshot_dir=str(tmp_path / "snap"), start_method="fork"
            ) as server:
                results = server.batch_significant_communities(queries, method="peel")
        finally:
            traversal._graph_from_edge_arrays = real

        expected = oracle.batch_significant_communities(queries, method="peel")
        for got, want in zip(results, expected):
            assert got.method == want.method
            assert got.search_space_edges == want.search_space_edges
            assert_same_graph(got.graph, want.graph)


# --------------------------------------------------------------------------- #
# peel-heavy inputs: many rounds, deep cascades, masked subsets
# --------------------------------------------------------------------------- #
#
# The suite above runs on 160-edge graphs with integer weights 1..12, so its
# peels take a handful of rounds.  Below, every community has at least 1k
# edges with all-distinct uniform (UF) weights — nearly every edge is its own
# round — and the peel inputs also include the masked ``alive`` subsets that
# expand's validation hands to the peel, plus a hand-built graph whose fatal
# round cascades around a long cycle far from the query.  The CSR kernel
# ``_peel_mask`` and the dict oracle ``scs_peel`` must agree element-wise
# throughout.

HEAVY_EDGES = 2500
#: (α,β) pairs whose communities keep >= 1k edges on these graphs; with
#: δ = 10, "auto" resolves to expand on the first three and to peel on the
#: last two, so both resolutions are covered.
HEAVY_GRID = [(2, 3), (3, 3), (4, 2), (5, 5), (6, 5)]
MIN_COMMUNITY_EDGES = 1000


def uf_graph(seed: int) -> BipartiteGraph:
    """A power-law graph with all-distinct float weights (the UF model)."""
    graph = power_law_bipartite(
        num_upper=HEAVY_EDGES * 3 // 20,
        num_lower=HEAVY_EDGES * 3 // 25,
        num_edges=HEAVY_EDGES,
        exponent_upper=1.0,
        exponent_lower=1.0,
        seed=seed,
    )
    graph = apply_weights(graph, "UF", seed=seed)
    weights = list(graph.edge_weights())
    assert len(set(weights)) == len(weights)
    return graph


def first_core_vertices(searcher, alpha, beta):
    core = sorted(
        searcher.index.vertices_in_core(alpha, beta),
        key=lambda v: (v.side.name, repr(v.label)),
    )
    uppers = [v for v in core if v.side is Side.UPPER][:1]
    lowers = [v for v in core if v.side is Side.LOWER][:1]
    return uppers + lowers


def interned(community, query):
    src, dst, weight, upper_ids, lower_ids = community_edge_lists(community)
    query_upper = query.side is Side.UPPER
    query_id = (upper_ids if query_upper else lower_ids)[query.label]
    return src, dst, weight, upper_ids, lower_ids, query_upper, query_id


def kernel_peel(src, dst, weight, alive, query_upper, query_id, alpha, beta):
    """``_peel_mask`` over the wire lists, as ``csr_significant_edges`` calls it."""
    upper_ids, us = np.unique(np.asarray(src, dtype=np.int64), return_inverse=True)
    lower_ids, ls = np.unique(np.asarray(dst, dtype=np.int64), return_inverse=True)
    pool = upper_ids if query_upper else lower_ids
    query = int(np.searchsorted(pool, query_id))
    kept = _peel_mask(
        us, ls, np.asarray(weight, dtype=np.float64),
        int(upper_ids.shape[0]), int(lower_ids.shape[0]),
        np.asarray(alive, dtype=bool), query_upper, query, alpha, beta,
    )
    return kept.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_uf_communities_agree(seed):
    """Thousands of single-edge rounds: kernels == dict oracle."""
    graph = uf_graph(seed)
    searcher = CommunitySearcher(graph, backend="dict")
    for alpha, beta in HEAVY_GRID:
        for query in first_core_vertices(searcher, alpha, beta):
            community = searcher.community(query, alpha, beta)
            assert community.num_edges >= MIN_COMMUNITY_EDGES
            oracle = graph_edge_triples(scs_peel(community, query, alpha, beta))
            src, dst, weight, upper_ids, lower_ids, query_upper, query_id = (
                interned(community, query)
            )
            everything = [True] * len(src)
            kept = kernel_peel(
                src, dst, weight, everything, query_upper, query_id, alpha, beta
            )
            got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
            assert got == oracle, (seed, alpha, beta, query)
            for method in ("peel", "expand"):
                assert csr_significant_edges(
                    src, dst, weight, query_upper, query_id, alpha, beta,
                    method=method,
                ).tolist() == kept, (seed, alpha, beta, query, method)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["peel", "expand", "auto"])
def test_large_uf_batch_matches_oracle(backend, method):
    """The batch pipeline, including the "auto" rule, on 1k+ edge communities."""
    graph = uf_graph(3)
    oracle = CommunitySearcher(graph, backend="dict")
    searcher = CommunitySearcher(graph, backend=backend)
    queries = [
        (query, alpha, beta)
        for alpha, beta in HEAVY_GRID
        for query in first_core_vertices(oracle, alpha, beta)
    ]
    answers = searcher.batch_significant_communities(queries, method=method)
    resolved = set()
    for (query, alpha, beta), answer in zip(queries, answers):
        community = oracle.community(query, alpha, beta)
        assert answer.search_space_edges == community.num_edges >= MIN_COMMUNITY_EDGES
        assert_same_graph(answer.graph, scs_peel(community, query, alpha, beta))
        resolved.add(answer.method)
    if method == "auto":
        assert resolved == {"peel", "expand"}


def validation_subsets(community, query, alpha, beta):
    """The edge subgraphs expand's ``validate`` passes to the peel.

    For growing heaviest-first prefixes: the prefix's (α,β)-core, restricted
    to the query's component — kept only where the query survives.  Built
    with the dict oracle's core and component routines.
    """
    heaviest_first = sorted(community.edges(), key=lambda edge: -edge[2])
    subsets = []
    for share in (0.2, 0.3, 0.4, 0.5, 0.6, 0.75):
        prefix = BipartiteGraph()
        for u, v, w in heaviest_first[: int(len(heaviest_first) * share)]:
            prefix.add_edge(u, v, w)
        core = abcore_subgraph(prefix, alpha, beta, backend="dict")
        if not core.has_vertex(query.side, query.label):
            continue
        subsets.append(connected_component(core, query))
    return subsets


@pytest.mark.parametrize("seed", [4, 5])
def test_validation_subsets_agree(seed):
    """Masked peels over expand-style subsets agree with the dict oracle."""
    graph = uf_graph(seed)
    searcher = CommunitySearcher(graph, backend="dict")
    checked = 0
    for alpha, beta in HEAVY_GRID:
        for query in first_core_vertices(searcher, alpha, beta):
            community = searcher.community(query, alpha, beta)
            src, dst, weight, upper_ids, lower_ids, query_upper, query_id = (
                interned(community, query)
            )
            for subgraph in validation_subsets(community, query, alpha, beta):
                members = {(u, v) for u, v, _ in subgraph.edges()}
                triples = edge_triples_of(src, dst, weight, upper_ids, lower_ids)
                mask = [(u, v) in members for u, v, _ in triples]
                oracle = graph_edge_triples(scs_peel(subgraph, query, alpha, beta))
                kept = kernel_peel(
                    src, dst, weight, mask, query_upper, query_id, alpha, beta
                )
                got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
                assert got == oracle, (seed, alpha, beta, query)
                assert all(mask[e] for e in kept)
                checked += 1
    assert checked >= 10


def cycle_with_tail(cycle_length: int, tied: bool) -> BipartiteGraph:
    """A long cycle (a (2,2)-core) through ``a0`` plus a lighter cycle on it.

    The cycle ``a0 x0 a1 x1 ... a{k-1} x{k-1} a0`` holds the query ``a0``;
    its lightest edge sits on the far side from ``a0``.  A second, lighter
    6-cycle shares the far vertex ``a{k//2}``.  Round 1 removes the light
    cycle's lightest edge and its cascade eats the whole light cycle, leaving
    the query alone.  Round 2 removes the far edge of the main cycle; its
    cascade walks all the way round to the query, which dies, so every edge
    of the main cycle is in that round's undo log.  With ``tied`` the round
    2 weight also sits on a second far edge.
    """
    k = cycle_length // 2
    graph = BipartiteGraph(name="cycle-with-tail")
    far = k // 2
    for i in range(k):
        # a_i - x_i, then x_i - a_{i+1}; weight grows with distance to a0.
        distance = min(i, k - i)
        graph.add_edge(f"a{i}", f"x{i}", 100.0 + 2 * distance)
        next_distance = min(i + 1, k - i - 1)
        graph.add_edge(f"a{(i + 1) % k}", f"x{i}", 101.0 + 2 * next_distance)
    graph.add_edge(f"a{far}", f"x{far}", 50.0)
    if tied:
        graph.add_edge(f"a{far - 2}", f"x{far - 2}", 50.0)
    for i, (u, v) in enumerate(
        [(f"a{far}", "y0"), ("b0", "y0"), ("b0", "y1"), ("b1", "y1"), ("b1", "y2"),
         (f"a{far}", "y2")]
    ):
        graph.add_edge(u, v, 1.0 + i)
    return graph


@pytest.mark.parametrize("tied", [False, True])
def test_fatal_round_cascades_far_from_the_query(tied):
    """The fatal round's cascade spans the whole cycle; all of it comes back."""
    graph = cycle_with_tail(cycle_length=40, tied=tied)
    query = Vertex(Side.UPPER, "a0")
    oracle = scs_peel(graph, query, 2, 2)
    main_cycle = {(u, v, w) for u, v, w in graph.edges() if v.startswith("x")}
    assert graph_edge_triples(oracle) == main_cycle
    assert len(main_cycle) == 40

    src, dst, weight, upper_ids, lower_ids, query_upper, query_id = interned(graph, query)
    everything = [True] * len(src)
    kept = kernel_peel(src, dst, weight, everything, query_upper, query_id, 2, 2)
    got = edge_set_of_indices(kept, src, dst, weight, upper_ids, lower_ids)
    assert got == main_cycle
