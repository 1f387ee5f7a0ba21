"""The degeneracy-bounded index ``I_δ`` and its optimal query ``Qopt``.

Section III-B of the paper: because every non-empty (α,β)-core has
``min(α,β) ≤ δ`` (Lemma 4), it suffices to store adjacency lists for the
levels τ = 1..δ on *both* sides:

* ``Iα_δ[u][τ]`` — for every vertex ``u`` of the (τ,τ)-core, its neighbours
  whose α-offset at level τ is at least τ, sorted by decreasing α-offset;
* ``Iβ_δ[u][τ]`` — its neighbours whose β-offset at level τ is strictly larger
  than τ, sorted by decreasing β-offset.

A query with α ≤ β is answered from ``Iα_δ`` at level α with requirement β;
a query with β < α from ``Iβ_δ`` at level β with requirement α.  Only entries
belonging to the answer are touched, so retrieval is O(size(C_{α,β}(q))) —
optimal.  Construction follows Algorithm 3 and costs O(δ·m); the index stores
O(δ·m) entries.

Each (half, τ) level is stored once, as a flat
:class:`~repro.index.csr_build.LevelArrays` registered on the index's
:class:`~repro.index.traversal.ArrayQueryPath`: the CSR construction builds
the arrays directly, the dict construction (the paper-literal oracle)
converts each level's dicts once and drops them.  Queries, incremental
maintenance (:mod:`repro.index.maintenance`) and snapshot saves all read and
write these arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.index.csr_build import LevelArrays

from repro.decomposition.degeneracy import degeneracy
from repro.decomposition.offsets import alpha_offsets, beta_offsets
from repro.exceptions import EmptyCommunityError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.csr import resolve_backend
from repro.index.base import (
    BatchQuery,
    CommunityIndex,
    IndexStats,
    apply_batch_policy,
    gc_paused,
)
from repro.index.traversal import AdjacencyLists, ArrayQueryPath, IndexEntry
from repro.utils.timer import Timer
from repro.utils.validation import check_query_vertex, check_thresholds

__all__ = ["DegeneracyIndex"]


class DegeneracyIndex(CommunityIndex):
    """The paper's ``I_δ`` index with optimal (α,β)-community retrieval.

    ``backend`` selects the construction engine: ``"dict"`` walks the
    label-level adjacency, ``"csr"`` freezes the graph once and runs the
    vectorised kernels, ``"auto"`` picks by graph size.  Both engines produce
    identical index structures, so queries (and the incremental maintenance
    in :class:`~repro.index.maintenance.DynamicDegeneracyIndex`) are
    backend-agnostic.

    ``n_jobs`` shards the CSR backend's per-level construction passes across
    a process pool (see :mod:`repro.index.parallel_build`); every worker
    count — including the dict backend, which runs sequentially regardless —
    produces element-wise identical structures.
    """

    def __init__(
        self, graph: BipartiteGraph, backend: str = "auto", n_jobs: int = 1
    ) -> None:
        super().__init__(graph)
        if isinstance(n_jobs, bool) or not isinstance(n_jobs, int) or n_jobs < 1:
            raise InvalidParameterError(
                f"n_jobs must be a positive integer, got {n_jobs!r}"
            )
        self._backend = resolve_backend(backend, graph)
        self._n_jobs = n_jobs
        self._delta = 0
        self._array_path: Optional[ArrayQueryPath] = None
        self._build_seconds = 0.0
        self._build_extra: Dict[str, float] = {}
        self._build()

    # ------------------------------------------------------------------ #
    # construction (Algorithm 3)
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        with Timer() as timer, gc_paused():
            if self._backend == "csr":
                self._build_csr()
            else:
                self._delta = degeneracy(self._graph, backend="dict")
                self._array_path = ArrayQueryPath(
                    self._graph.upper_labels(), self._graph.lower_labels()
                )
                for tau in range(1, self._delta + 1):
                    self._build_level(tau)
        self._build_seconds = timer.elapsed

    def _build_csr(self) -> None:
        """Array-native construction: freeze once, run every level on CSR.

        The per-level array passes come from
        :func:`~repro.index.parallel_build.compute_level_payloads` (sharded
        across processes when ``n_jobs > 1``); each payload becomes the two
        :class:`LevelArrays` of its level here, in increasing τ order, so the
        built index is identical for every worker count.
        """
        from repro.decomposition.csr_kernels import csr_degeneracy
        from repro.graph.csr import freeze
        from repro.index.csr_build import build_level_arrays
        from repro.index.parallel_build import compute_level_payloads

        csr = freeze(self._graph)
        self._delta = csr_degeneracy(csr)
        payloads, self._build_extra = compute_level_payloads(
            csr, self._delta, self._n_jobs
        )
        path = ArrayQueryPath(csr.upper_labels, csr.lower_labels)
        for payload in payloads:
            tau = payload.tau
            path.set_level(
                ("alpha", tau),
                build_level_arrays(
                    csr, payload.alpha_upper, payload.alpha_lower, payload.alpha_entries
                ),
            )
            path.set_level(
                ("beta", tau),
                build_level_arrays(
                    csr, payload.beta_upper, payload.beta_lower, payload.beta_entries
                ),
            )
        self._array_path = path

    def _build_level(self, tau: int) -> None:
        """Build the level-τ arrays of both halves the paper-literal way.

        Computes the level's offsets and sorted adjacency lists as dicts
        (Algorithm 3 verbatim), converts them once into the path's id space
        and drops them.  Honours the index's resolved backend for the offset
        peel, so an explicit ``backend="dict"`` build (or a maintenance
        refresh of a dict-built index) never routes through the CSR kernels.
        """
        from repro.index.csr_build import level_arrays_from_dicts

        graph = self._graph
        sa = alpha_offsets(graph, tau, backend=self._backend)
        sb = beta_offsets(graph, tau, backend=self._backend)

        alpha_lists: AdjacencyLists = {}
        beta_lists: AdjacencyLists = {}
        for vertex, offset in sa.items():
            # Membership in the (τ,τ)-core: the α-offset at level τ is >= τ.
            if offset < tau:
                continue
            other = vertex.side.other
            alpha_entries: List[IndexEntry] = []
            beta_entries: List[IndexEntry] = []
            for nbr_label, weight in graph.neighbors(vertex.side, vertex.label).items():
                nbr = Vertex(other, nbr_label)
                nbr_sa = sa[nbr]
                if nbr_sa >= tau:
                    alpha_entries.append((nbr, weight, nbr_sa))
                nbr_sb = sb[nbr]
                if nbr_sb > tau:
                    beta_entries.append((nbr, weight, nbr_sb))
            alpha_entries.sort(key=lambda entry: -entry[2])
            beta_entries.sort(key=lambda entry: -entry[2])
            alpha_lists[vertex] = alpha_entries
            if beta_entries:
                beta_lists[vertex] = beta_entries
        path = self._array_path
        ids = path.global_id_map()
        for half, offsets, lists in (
            ("alpha", sa, alpha_lists),
            ("beta", sb, beta_lists),
        ):
            path.set_level(
                (half, tau),
                level_arrays_from_dicts(
                    offsets, lists, ids, path.num_upper, path.num_vertices
                ),
            )

    # ------------------------------------------------------------------ #
    # querying (Qopt)
    # ------------------------------------------------------------------ #
    @property
    def delta(self) -> int:
        """The degeneracy of the indexed graph."""
        return self._delta

    @property
    def backend(self) -> str:
        """The resolved construction backend (``"dict"`` or ``"csr"``)."""
        return self._backend

    @staticmethod
    def _level_key(alpha: int, beta: int) -> Tuple[Tuple[str, int], int]:
        """The index half/level answering ``(α, β)`` and its requirement."""
        if alpha <= beta:
            return ("alpha", alpha), beta
        return ("beta", beta), alpha

    def contains(self, vertex: Vertex, alpha: int, beta: int) -> bool:
        """True when ``vertex`` belongs to the (α,β)-core."""
        check_thresholds(alpha, beta)
        if min(alpha, beta) > self._delta:
            return False
        key, requirement = self._level_key(alpha, beta)
        return self.query_path().offset_of(key, vertex) >= requirement

    def community(self, query: Vertex, alpha: int, beta: int) -> BipartiteGraph:
        """``Qopt``: optimal retrieval of ``C_{α,β}(query)``."""
        return self._array_community(self.query_path(), query, alpha, beta)

    # ------------------------------------------------------------------ #
    # batch Qopt
    # ------------------------------------------------------------------ #
    def _array_community(
        self,
        path: ArrayQueryPath,
        query: Vertex,
        alpha: int,
        beta: int,
        cache: Optional[Dict] = None,
    ) -> BipartiteGraph:
        """``Qopt`` over the flat level arrays."""
        key, requirement = self._route_array(path, query, alpha, beta)
        return path.community(
            key,
            query,
            requirement,
            name=f"C({alpha},{beta})[{query.label!r}]",
            cache=cache,
        )

    def batch_community(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "raise",
    ) -> List[Optional[BipartiteGraph]]:
        """Answer many ``(query, alpha, beta)`` triples over the level arrays.

        Every retrieval reuses the path's visited scratch and a per-batch
        component memo, so per-query cost is the vectorised BFS plus the
        answer allocation.  Results are element-wise identical to per-query
        :meth:`community` calls; see :meth:`CommunityIndex.batch_community`
        for ``on_empty``.
        """
        path = self.query_path()
        cache: Dict = {}
        return apply_batch_policy(
            queries,
            lambda query, alpha, beta: self._array_community(
                path, query, alpha, beta, cache=cache
            ),
            on_empty,
        )

    def _route_array(
        self, path: ArrayQueryPath, query: Vertex, alpha: int, beta: int
    ) -> Tuple[Tuple[str, int], int]:
        """Validate a query and resolve its level key and offset requirement.

        Raises :class:`EmptyCommunityError` when ``query`` is outside the
        (α,β)-core and the usual validation errors for bad thresholds or an
        unknown query vertex.
        """
        check_thresholds(alpha, beta)
        check_query_vertex(self._graph, query)
        if min(alpha, beta) > self._delta:
            raise EmptyCommunityError(query, alpha, beta)
        key, requirement = self._level_key(alpha, beta)
        if path.offset_of(key, query) < requirement:
            raise EmptyCommunityError(query, alpha, beta)
        return key, requirement

    def batch_significant_edges(
        self,
        queries: Iterable[BatchQuery],
        method: str = "auto",
        epsilon: float = 2.0,
        on_empty: str = "raise",
        cache: Optional[Dict] = None,
    ) -> List:
        """Array-native step 1 + step 2 for a query stream, in wire form.

        Each answer is a ``(edge triple, resolved method, search-space edge
        count)`` tuple: the significant community as raw ``(src upper ids,
        dst lower ids, weights)`` arrays straight from the SCS kernels — no
        graph object is built anywhere in the pipeline.  ``method`` accepts
        ``"peel"`` / ``"expand"`` / ``"binary"`` / ``"auto"`` (``"baseline"``
        is inherently graph-based and stays with the dict path).
        """
        from repro.search import resolve_scs_method

        if method not in ("peel", "expand", "binary", "auto"):
            raise InvalidParameterError(
                f"unknown method {method!r}; expected one of "
                "('peel', 'expand', 'binary', 'auto')"
            )
        path = self.query_path()
        if cache is None:
            cache = {}

        def answer_one(
            query: Vertex, alpha: int, beta: int
        ) -> "Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], str, int]":
            key, requirement = self._route_array(path, query, alpha, beta)
            resolved = resolve_scs_method(method, alpha, beta, self._delta)
            edges, space = path.significant_edges(
                key,
                query,
                requirement,
                alpha,
                beta,
                method=resolved,
                epsilon=epsilon,
                cache=cache,
            )
            return edges, resolved, space

        return apply_batch_policy(queries, answer_one, on_empty)

    def export_level_arrays(self) -> "Dict[Tuple[str, int], LevelArrays]":
        """All flat level arrays of both halves, keyed ``("alpha"|"beta", τ)``.

        The levels come out in the id space of ``freeze(self.graph)``, which
        is what the snapshot store (:mod:`repro.serving.snapshot`) persists.
        A maintained index whose id space carries removed or re-added
        vertices is re-keyed to the graph's current vertex order first and
        keeps the re-keyed levels, so after a full snapshot save its ids are
        the snapshot's.
        """
        path = self.query_path().rekeyed(
            self._graph.upper_labels(), self._graph.lower_labels()
        )
        self._array_path = path
        return {
            (half, tau): path.level((half, tau))
            for tau in range(1, self._delta + 1)
            for half in ("alpha", "beta")
        }

    def vertices_in_core(self, alpha: int, beta: int) -> List[Vertex]:
        """All vertices of the (α,β)-core, in global id order (upper first)."""
        check_thresholds(alpha, beta)
        if min(alpha, beta) > self._delta:
            return []
        key, requirement = self._level_key(alpha, beta)
        path = self.query_path()
        offsets = path.level(key).offsets
        return path.vertices(np.flatnonzero(offsets >= requirement).tolist())

    # ------------------------------------------------------------------ #
    def stats(self) -> IndexStats:
        """Entry and list counts read off the level arrays.

        The α-half keeps a (possibly empty) list for every (τ,τ)-core member,
        the β-half only non-empty lists — the paper's ``I_δ`` list count.
        """
        entries = 0
        lists = 0
        path = self.query_path()
        for half, tau in path.level_keys():
            level = path.level((half, tau))
            entries += level.num_entries
            if half == "alpha":
                lists += int(np.count_nonzero(level.offsets >= tau))
            else:
                lists += int(np.count_nonzero(np.diff(level.indptr)))
        extra = {"delta": float(self._delta)}
        extra.update(self._build_extra)
        return IndexStats(
            name="Idelta",
            entries=entries,
            adjacency_lists=lists,
            build_seconds=self._build_seconds,
            extra=extra,
        )
