"""The incremental maintenance engine of the degeneracy-bounded index.

The paper's maintenance section observes that after inserting or removing an
edge ``(u, v)`` only a bounded *candidate region* around the edge — the S⁺
(insertion) / S⁻ (removal) sets — can change its offsets at any level, and
only those vertices' index entries need recomputing.  This module implements
that outline as three cooperating pieces:

**Region planner** (:func:`plan_level_region`)
    Per level and index half, a slack-aware closure expands from the updated
    edge's endpoints through exactly the vertices whose offsets *could*
    change.  It leans on two structural facts of a single edge update: a
    non-endpoint offset moves by at most one, and every change chains back
    to the edge through changed vertices.  A vertex joins the S⁻ closure
    only when more of its supporters may stop covering its old offset than
    it has slack, and the S⁺ closure only when its optimistic support at
    ``old + 1`` reaches the peeling requirement — so the closure stays a
    small ball around the edge even on graphs with one giant component.

**Region peel** (:class:`_RegionPeel`)
    The candidate region is re-peeled with every edge leaving it frozen at
    the outside endpoint's old offset (an outside vertex belongs to the
    (τ,β)-core exactly when its old offset is ≥ β, so it supports its region
    neighbour for secondary targets up to that offset).  Because vertices
    outside the closure provably keep their offsets, the frozen peel is
    *exact* — no verification pass is needed.  It runs on the vectorised CSR
    kernels
    (:func:`~repro.decomposition.csr_kernels.csr_region_offsets_fixed_primary`)
    for CSR-backed indexes and larger regions, and on the pure-python twin
    (:func:`~repro.decomposition.offsets.region_offsets_fixed_primary`)
    otherwise.  A closure that outgrows the region budget sends just that
    level down the full re-peel fallback.

**Patch applier**
    Level results are applied change-driven: only vertices whose offsets
    moved, their neighbours (whose sorted entries embed those offsets) and
    the edge's endpoints get their entry slices rebuilt, directly in global
    id space, and spliced into the level's
    :class:`~repro.index.csr_build.LevelArrays` by
    :func:`~repro.index.csr_build.patch_level_arrays` — the one store of
    the level, so every query path sees the update at once.  A never-seen
    vertex grows the id space in place
    (:meth:`~repro.index.traversal.ArrayQueryPath.add_vertex`).  Every patch
    is also recorded in a :class:`MaintenanceJournal` so
    ``save_index(format="snapshot")`` can persist just the delta next to an
    existing base snapshot (:mod:`repro.serving.snapshot`).

Degeneracy is adjusted incrementally too: a single edge update moves δ by at
most one, growth is pre-screened by an O(1) endpoint check before the (rare)
candidate-core peel, and shrink is detected from patched per-level core sizes
without touching the rest of the graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.graph.csr import CSRBipartiteGraph
    from repro.index.csr_build import LevelArrays
    from repro.serving.snapshot import SnapshotIndex

from repro.decomposition.abcore import abcore_vertices
from repro.decomposition.offsets import region_offsets_fixed_primary
from repro.graph.bipartite import BipartiteGraph, Side, Vertex
from repro.graph.views import induced_subgraph
from repro.index.base import IndexStats
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.traversal import ArrayQueryPath
from repro.utils.timer import Timer

__all__ = [
    "DEFAULT_REGION_BUDGET",
    "plan_level_region",
    "MaintenanceJournal",
    "DynamicDegeneracyIndex",
]

#: Default cap on the number of vertices an S⁺/S⁻ candidate region may
#: contain before that level's maintenance falls back to a full re-peel.
DEFAULT_REGION_BUDGET = 4096

#: Candidate regions at least this large peel on the CSR kernels (when the
#: index backend is CSR); below it the python peel wins on constant factors.
_REGION_CSR_THRESHOLD = 32


class _OffsetView:
    """Read-only access to one level's old offsets, by vertex or by gid.

    The region planner and peels read old offsets through it, with no
    per-update dict copy of the level.  It captures the offsets array as it
    is when created, so it must be read before the level is patched.
    """

    __slots__ = ("_offsets", "_path")

    def __init__(self, path: "ArrayQueryPath", key: Tuple[str, int]) -> None:
        self._offsets = path.level(key).offsets
        self._path = path

    def get(self, vertex: Vertex, default: int = 0) -> int:
        gid = self._path.global_id(vertex)
        if gid is None:
            return default
        return int(self._offsets[gid])

    def gid(self, vertex: Vertex) -> Optional[int]:
        return self._path.global_id(vertex)

    def gids(self, side: Side, labels: Iterable[Hashable]) -> List[int]:
        return self._path.global_ids(side, labels)

    def values(self, gids: List[int]) -> np.ndarray:
        """The offsets of ``gids`` as one array."""
        return self._offsets[np.asarray(gids, dtype=np.int64)]


# --------------------------------------------------------------------------- #
# region planning — the S⁺ / S⁻ candidate closure
# --------------------------------------------------------------------------- #
def plan_level_region(
    graph: BipartiteGraph,
    old_offsets: "_OffsetView",
    primary_side: Side,
    threshold: int,
    seeds: Sequence[Vertex],
    removal: bool,
    budget: Optional[int] = None,
) -> Optional[List[Vertex]]:
    """The candidate set whose offsets can change at one level and half.

    The closure exploits two structural facts of a single edge update: a
    *non-endpoint* offset moves by at most one, and every changed vertex has
    a changed neighbour that caused it (the change chains back to the
    updated edge).  Expansion therefore needs two gates:

    * a **trigger** — a candidate neighbour whose potential move crosses the
      vertex's old offset: for a non-endpoint that means equal old offsets;
      an endpoint (which may move multiple steps) triggers every neighbour
      on the relevant side of its own offset;
    * a **feasibility test**:

      - **S⁻ (removal)** counts *pressure* dynamically: drops are forced one
        by one (each needs an earlier actual drop to cause it), so a vertex
        can drop only once more of its candidate supporters may cross its
        old offset than it has slack — support above the peeling
        requirement.  This keeps the closure to the genuinely threatened
        vertices even on large equal-offset plateaus.
      - **S⁺ (insertion)** must be optimistic, because rises can be mutual
        (a group may only be able to rise together): a vertex is a candidate
        as soon as every neighbour that *might* reach ``old + 1`` (those at
        or above its old offset, plus endpoints) covers the requirement at
        that target.  The region peel afterwards prunes the optimism.

    Vertices outside the returned set provably keep their offsets, so
    peeling the candidates with external support frozen at the old offsets
    is exact.  Returns ``None`` when the closure exceeds ``budget`` — the
    caller then re-peels the level in full.  ``old_offsets`` reads the
    level's old offsets by vertex or, a whole neighbourhood at once, by
    global id.
    """
    endpoint_gids = {old_offsets.gid(vertex) for vertex in seeds}
    endpoint_on = {vertex.side: vertex for vertex in seeds}
    candidates: Set[int] = set(endpoint_gids)
    ordered: List[Vertex] = list(seeds)
    queue: deque[Vertex] = deque(ordered)
    rejected: Set[int] = set()
    slack: Dict[int, int] = {}
    pressure: Dict[int, int] = {}
    while queue:
        candidate = queue.popleft()
        offset_c = old_offsets.get(candidate, 0)
        is_endpoint = old_offsets.gid(candidate) in endpoint_gids
        side = candidate.side
        other = side.other
        labels = list(graph.neighbors(side, candidate.label))
        gids = old_offsets.gids(other, labels)
        for label, gid, offset_x in zip(labels, gids, old_offsets.values(gids).tolist()):
            if gid in candidates or gid in rejected:
                continue
            if removal:
                if offset_x < 1:
                    continue  # already at the floor
                crossed = offset_c >= offset_x if is_endpoint else offset_c == offset_x
                if not crossed:
                    continue
                if gid not in slack:
                    need = threshold if other is primary_side else offset_x
                    mirror = old_offsets.values(
                        old_offsets.gids(side, graph.neighbors(other, label))
                    )
                    slack[gid] = int(np.count_nonzero(mirror >= offset_x)) - need
                    pressure[gid] = 0
                pressure[gid] += 1
                if pressure[gid] <= slack[gid]:
                    continue
            else:
                helps = offset_c <= offset_x if is_endpoint else offset_c == offset_x
                if not helps:
                    continue
                need = threshold if other is primary_side else offset_x + 1
                nbrs = graph.neighbors(other, label)
                mirror = old_offsets.values(old_offsets.gids(side, nbrs))
                support = int(np.count_nonzero(mirror >= offset_x))
                # An endpoint neighbour supports regardless of its old offset.
                endpoint = endpoint_on.get(side)
                if (
                    endpoint is not None
                    and endpoint.label in nbrs
                    and old_offsets.get(endpoint, 0) < offset_x
                ):
                    support += 1
                if support < need:
                    rejected.add(gid)
                    continue
            candidates.add(gid)
            vertex = Vertex(other, label)
            ordered.append(vertex)
            queue.append(vertex)
            if budget is not None and len(candidates) > budget:
                return None
    return ordered


class _RegionPeel:
    """One candidate region's peel context: adjacency split internal/external.

    The CSR variant freezes the region into a private sub-CSR (unweighted —
    the peel never looks at weights) and runs the vectorised region kernel,
    reading the frozen external offsets with one gather per side; tiny
    regions stay on the python peel, whose constant factors win below
    :data:`_REGION_CSR_THRESHOLD` vertices.
    """

    def __init__(
        self, graph: BipartiteGraph, vertices: Sequence[Vertex], backend: str
    ) -> None:
        self._internal: Optional[Dict[Vertex, Tuple[Vertex, ...]]] = None
        self._external: Dict[Vertex, Tuple[Vertex, ...]] = {}
        if backend == "csr" and len(vertices) >= _REGION_CSR_THRESHOLD:
            self._freeze_region(graph, vertices)
            return
        region = set(vertices)
        self._internal = {}
        for vertex in vertices:
            other = vertex.side.other
            internal: List[Vertex] = []
            external: List[Vertex] = []
            for nbr_label in graph.neighbors(vertex.side, vertex.label):
                nbr = Vertex(other, nbr_label)
                (internal if nbr in region else external).append(nbr)
            self._internal[vertex] = tuple(internal)
            if external:
                self._external[vertex] = tuple(external)

    def _freeze_region(self, graph: BipartiteGraph, vertices: Sequence[Vertex]) -> None:
        from repro.graph.csr import CSRBipartiteGraph

        uppers = [v.label for v in vertices if v.side is Side.UPPER]
        lowers = [v.label for v in vertices if v.side is Side.LOWER]
        local = {
            Side.UPPER: {label: i for i, label in enumerate(uppers)},
            Side.LOWER: {label: i for i, label in enumerate(lowers)},
        }
        # Per side: the sub-CSR layer plus, for every edge leaving the region,
        # its owner's local id and the outside neighbour's label.
        layers = {}
        external = {}
        for side, labels in ((Side.UPPER, uppers), (Side.LOWER, lowers)):
            other_ids = local[side.other]
            indptr = np.zeros(len(labels) + 1, dtype=np.int64)
            indices: List[int] = []
            owners: List[int] = []
            outside: List[Hashable] = []
            for i, label in enumerate(labels):
                for nbr_label in graph.neighbors(side, label):
                    j = other_ids.get(nbr_label)
                    if j is None:
                        owners.append(i)
                        outside.append(nbr_label)
                    else:
                        indices.append(j)
                indptr[i + 1] = len(indices)
            idx = np.array(indices, dtype=np.int64)
            layers[side] = (indptr, idx, np.zeros(idx.shape[0], dtype=np.float64))
            external[side] = (np.array(owners, dtype=np.int64), outside)
        self._csr = CSRBipartiteGraph(
            "region", uppers, lowers, *layers[Side.UPPER], *layers[Side.LOWER]
        )
        self._uppers, self._lowers = uppers, lowers
        self._ext_arrays = external

    def offsets(
        self,
        old_offsets: "_OffsetView",
        primary_side: Side,
        threshold: int,
        shift: int = 0,
    ) -> Dict[Vertex, int]:
        """Region offsets at one level/half, external support frozen at old.

        Exact when the region is an S⁺/S⁻ candidate closure: every vertex
        outside it provably keeps its old offset, so an outside neighbour
        supports its region owner for secondary targets up to exactly that
        old offset.  ``shift=1`` instead freezes every external one step
        *above* its old offset (clamped at 0 from below) — the admissible
        optimum for an insertion, turning the peel into an upper bound used
        by the endpoint pre-screen.
        """
        if self._internal is None:
            from repro.decomposition.csr_kernels import (
                csr_region_offsets_fixed_primary,
            )

            frozen = []
            for side in (Side.UPPER, Side.LOWER):
                owners, outside = self._ext_arrays[side]
                values = old_offsets.values(old_offsets.gids(side.other, outside))
                frozen.extend((owners, np.maximum(values + shift, 0)))
            off_u, off_l = csr_region_offsets_fixed_primary(
                self._csr, *frozen, primary_side, threshold
            )
            result = {
                Vertex(Side.UPPER, label): offset
                for label, offset in zip(self._uppers, off_u.tolist())
            }
            result.update(
                (Vertex(Side.LOWER, label), offset)
                for label, offset in zip(self._lowers, off_l.tolist())
            )
            return result
        external = {
            vertex: [max(old_offsets.get(nbr, 0) + shift, 0) for nbr in ext]
            for vertex, ext in self._external.items()
        }
        return region_offsets_fixed_primary(
            self._internal, external, primary_side, threshold
        )


# --------------------------------------------------------------------------- #
# the patch journal
# --------------------------------------------------------------------------- #
@dataclass
class MaintenanceJournal:
    """What changed since the index was last persisted as a snapshot.

    The journal stores no entry data — the level arrays are always current —
    only *which* global ids of which levels are dirty, the applied graph
    operations, and the net set of vertices the updates removed.  Encoding a
    delta then slices exactly the dirty ids out of the live arrays.  A base
    binding (directory, snapshot id, global-id map of the base's label order)
    is attached when the index is saved to / loaded from a snapshot;
    ``path_is_base`` records whether the index's id space *is* the base's
    (true after a full save or a snapshot load; false after a compaction
    re-bound the journal to a re-keyed base).  ``compatible`` turns False
    once an update introduces a vertex the base id space has never seen, at
    which point the next save rewrites a full snapshot instead of appending
    a delta.
    """

    ops: List[Tuple[str, Hashable, Hashable, float]] = field(default_factory=list)
    removed: Set[Vertex] = field(default_factory=set)
    dirty: Dict[Tuple[str, int], Set[int]] = field(default_factory=dict)
    full_levels: Set[Tuple[str, int]] = field(default_factory=set)
    base_directory: Optional[str] = None
    base_id: Optional[str] = None
    base_sequence: int = 0
    base_delta: int = 0
    base_num_upper: int = 0
    base_num_vertices: int = 0
    base_global_ids: Optional[Dict[Vertex, int]] = None
    path_is_base: bool = True
    compatible: bool = True

    @property
    def has_changes(self) -> bool:
        return bool(self.ops or self.removed or self.dirty or self.full_levels)

    def record_insert(self, upper_label: Hashable, lower_label: Hashable, weight: float) -> None:
        self.ops.append(("insert", upper_label, lower_label, weight))
        self.removed.discard(Vertex(Side.UPPER, upper_label))
        self.removed.discard(Vertex(Side.LOWER, lower_label))

    def record_remove(self, upper_label: Hashable, lower_label: Hashable) -> None:
        self.ops.append(("remove", upper_label, lower_label, 0.0))

    def record_removed_vertices(self, vertices: Iterable[Vertex]) -> None:
        self.removed.update(vertices)

    def note_vertex(self, vertex: Vertex) -> None:
        """A (possibly new) vertex entered the graph."""
        if self.base_global_ids is not None and vertex not in self.base_global_ids:
            self.compatible = False

    def mark_dirty(self, key: Tuple[str, int], gids: Iterable[int]) -> None:
        if key in self.full_levels:
            return
        self.dirty.setdefault(key, set()).update(gids)

    def mark_full(self, key: Tuple[str, int]) -> None:
        self.full_levels.add(key)
        self.dirty.pop(key, None)

    def bind_base(
        self,
        directory: str,
        snapshot_id: str,
        sequence: int,
        delta: int,
        num_upper: int,
        num_vertices: int,
        global_ids: Dict[Vertex, int],
        path_is_base: bool = True,
    ) -> None:
        """Attach the journal to a persisted base and clear pending changes."""
        self.ops = []
        self.removed = set()
        self.dirty = {}
        self.full_levels = set()
        self.base_directory = directory
        self.base_id = snapshot_id
        self.base_sequence = sequence
        self.base_delta = delta
        self.base_num_upper = num_upper
        self.base_num_vertices = num_vertices
        self.base_global_ids = global_ids
        self.path_is_base = path_is_base
        self.compatible = True

    def advance(self, sequence: int, delta: int) -> None:
        """A delta was persisted: clear pending changes, keep the base binding."""
        self.ops = []
        self.removed = set()
        self.dirty = {}
        self.full_levels = set()
        self.base_sequence = sequence
        self.base_delta = delta

    def can_append_to(self, directory: str) -> bool:
        return (
            self.base_directory == directory
            and bool(self.base_id)  # pre-delta-era snapshots carry no id
            and self.base_global_ids is not None
            and self.compatible
        )


def _sorted_slices(
    owner: np.ndarray,
    neighbour: np.ndarray,
    weight: np.ndarray,
    offsets: np.ndarray,
    tau: int,
    strict: bool,
    num_owners: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One half's rebuilt slices: ``(counts, entry vertex, weight, offset)``.

    Candidate entries come in adjacency order per owner position; those whose
    neighbour offset is ``>= tau`` (``> tau`` when ``strict``) are kept and
    stably sorted by decreasing offset — the full construction's order.
    """
    entry_offset = offsets[neighbour]
    keep = entry_offset > tau if strict else entry_offset >= tau
    owner = owner[keep]
    entry_offset = entry_offset[keep]
    order = np.lexsort((-entry_offset, owner))
    return (
        np.bincount(owner, minlength=num_owners).astype(np.int64, copy=False),
        neighbour[keep][order],
        weight[keep][order],
        entry_offset[order],
    )


# --------------------------------------------------------------------------- #
# the maintained index
# --------------------------------------------------------------------------- #
class DynamicDegeneracyIndex(DegeneracyIndex):
    """A :class:`DegeneracyIndex` that absorbs edge updates by region patching.

    ``max_chain_len`` is the optional auto-compaction policy: when set, a
    ``save_index(..., format="snapshot")`` that grows the on-disk delta chain
    to that length immediately folds it into a fresh base
    (:func:`repro.serving.compaction.compact_snapshot`) and re-binds the
    journal, so cold-start replay cost stays bounded under sustained churn.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        backend: str = "auto",
        region_budget: int = DEFAULT_REGION_BUDGET,
        n_jobs: int = 1,
        max_chain_len: Optional[int] = None,
    ) -> None:
        # Index a private copy so external mutation of the original graph
        # cannot silently desynchronise the index.  Either construction
        # backend works: both produce the same level arrays this class
        # patches during maintenance.
        super().__init__(graph.copy(), backend=backend, n_jobs=n_jobs)
        self._region_budget = region_budget
        self.max_chain_len = max_chain_len
        self._finish_init()

    def _finish_init(self) -> None:
        self._maintenance_seconds = 0.0
        self._updates_applied = 0
        # Vertices isolated from the start are the only ones besides an
        # update's own endpoints that discard_isolated() can ever drop; track
        # them once so their index entries are purged when that happens.
        self._pending_isolated: List[Vertex] = [
            vertex
            for vertex in self._graph.vertices()
            if self._graph.degree_of(vertex) == 0
        ]
        path = self.query_path()
        self._core_sizes: Dict[int, int] = {
            tau: int(np.count_nonzero(path.level(("alpha", tau)).offsets >= tau))
            for tau in range(1, self._delta + 1)
        }
        self._journal = MaintenanceJournal()
        # observability
        self._levels_patched = 0
        self._levels_rebuilt = 0
        self._levels_built = 0
        self._levels_dropped = 0
        self._region_updates = 0
        self._regions_peeled = 0
        self._reweight_updates = 0
        self._region_vertices_total = 0
        self._compactions = 0
        self._deltas_folded = 0

    @classmethod
    def from_snapshot(
        cls, snapshot: "SnapshotIndex", max_chain_len: Optional[int] = None
    ) -> "DynamicDegeneracyIndex":
        """Reopen a persisted snapshot as a mutable, maintainable index.

        The snapshot's (delta-replayed) level arrays are copied into owned,
        writable arrays in the snapshot's id space — no from-scratch peel —
        and the journal is bound to the snapshot's directory so the next
        ``save_index(..., format="snapshot")`` to the same directory appends
        a delta instead of rewriting the base.  Ids of vertices the deltas
        removed stay in the id space with empty slices.  ``max_chain_len``
        installs the auto-compaction policy, as in the constructor.
        """
        from repro.graph.csr import resolve_backend

        graph = snapshot.graph.copy()
        self = cls.__new__(cls)
        # Manual field initialisation: DegeneracyIndex.__init__ would trigger
        # a full rebuild, which from_snapshot exists to avoid.
        self._region_budget = DEFAULT_REGION_BUDGET
        self.max_chain_len = max_chain_len
        self._graph = graph
        self._backend = resolve_backend("auto", graph)
        self._n_jobs = 1
        self._delta = snapshot.delta
        self._build_seconds = 0.0
        self._build_extra = {}
        upper_labels, lower_labels = snapshot.query_path().label_arrays()
        path = ArrayQueryPath(upper_labels.tolist(), lower_labels.tolist())
        for key, arrays in snapshot.level_arrays().items():
            path.set_level(key, arrays.copy())
        self._array_path = path
        self._finish_init()
        self._journal.bind_base(
            str(snapshot.directory),
            snapshot.snapshot_id,
            snapshot.version,
            snapshot.delta,
            path.num_upper,
            path.num_vertices,
            path.global_id_map(),
        )
        return self

    # ------------------------------------------------------------------ #
    # public update API
    # ------------------------------------------------------------------ #
    def insert_edge(
        self, upper_label: Hashable, lower_label: Hashable, weight: float = 1.0
    ) -> None:
        """Insert (or re-weight) an edge and patch the affected index levels."""
        with Timer() as timer:
            reweight = self._graph.has_edge(upper_label, lower_label)
            self._graph.add_edge(upper_label, lower_label, weight)
            self._journal.record_insert(upper_label, lower_label, weight)
            path = self.query_path()
            for vertex in (
                Vertex(Side.UPPER, upper_label),
                Vertex(Side.LOWER, lower_label),
            ):
                self._journal.note_vertex(vertex)
                if not path.has_vertex(vertex):
                    path.add_vertex(vertex)
            if reweight:
                # Offsets depend only on the structure: a pure re-weight
                # touches nothing but the two mirrored entry weights per level.
                self._reweight_updates += 1
                self._reweight_entries(upper_label, lower_label, weight)
            else:
                self._refresh_after_update(upper_label, lower_label)
        self._maintenance_seconds += timer.elapsed
        self._updates_applied += 1

    def remove_edge(self, upper_label: Hashable, lower_label: Hashable) -> None:
        """Remove an edge and patch the affected index levels."""
        with Timer() as timer:
            self._graph.remove_edge(upper_label, lower_label)
            self._graph.discard_isolated()
            self._journal.record_remove(upper_label, lower_label)
            self._refresh_after_update(upper_label, lower_label, can_grow=False)
        self._maintenance_seconds += timer.elapsed
        self._updates_applied += 1

    @property
    def journal(self) -> MaintenanceJournal:
        """The pending-changes journal consumed by snapshot delta saves."""
        return self._journal

    @property
    def region_budget(self) -> int:
        return self._region_budget

    def export_level_arrays(self) -> "Dict[Tuple[str, int], LevelArrays]":
        """See :meth:`DegeneracyIndex.export_level_arrays`.

        When the export re-keys the id space, the journal's dirty ids and the
        bound base's ids no longer agree, so the next save is a full rewrite
        (which re-binds the journal to the exported ids).
        """
        path = self._array_path
        levels = super().export_level_arrays()
        if self._array_path is not path:
            self._journal.compatible = False
        return levels

    # ------------------------------------------------------------------ #
    # vanished-vertex bookkeeping (unchanged semantics from the component era)
    # ------------------------------------------------------------------ #
    def _vanished_vertices(
        self, upper_label: Hashable, lower_label: Hashable
    ) -> Tuple[Vertex, ...]:
        """Vertices dropped from the graph by the current update.

        Removing an edge can newly isolate (and thus discard) only its own
        two endpoints; the only other vertices ``discard_isolated`` can drop
        are the ones isolated since construction, tracked in
        ``self._pending_isolated``.
        """
        candidates = [Vertex(Side.UPPER, upper_label), Vertex(Side.LOWER, lower_label)]
        if self._pending_isolated:
            candidates.extend(self._pending_isolated)
            self._pending_isolated = [
                vertex
                for vertex in self._pending_isolated
                if self._graph.has_vertex(vertex.side, vertex.label)
            ]
        return tuple(
            vertex
            for vertex in candidates
            if not self._graph.has_vertex(vertex.side, vertex.label)
        )

    def _purge_vertices(self, vertices: Tuple[Vertex, ...]) -> None:
        """Empty every slice and offset owned by ``vertices`` at every level.

        The ids stay in the id space (a returning vertex reuses its id); a
        full snapshot export drops them.
        """
        if not vertices:
            return
        self._journal.record_removed_vertices(vertices)
        from repro.index.csr_build import patch_level_arrays

        path = self._array_path
        gids = np.array(sorted(path.global_id(v) for v in vertices), dtype=np.int64)
        zeros = np.zeros(gids.shape[0], dtype=np.int64)
        no_ids = np.empty(0, dtype=np.int64)
        no_weights = np.empty(0, dtype=np.float64)
        for key in path.level_keys():
            half, tau = key
            level = path.level(key)
            if half == "alpha":
                lost = int(np.count_nonzero(level.offsets[gids] >= tau))
                self._core_sizes[tau] = self._core_sizes.get(tau, 0) - lost
            path.set_level(
                key,
                patch_level_arrays(
                    level, gids, zeros, no_ids, no_weights, no_ids, gids, zeros
                ),
            )
            self._journal.mark_dirty(key, gids.tolist())

    # ------------------------------------------------------------------ #
    # the update pipeline
    # ------------------------------------------------------------------ #
    def _affected_levels(
        self, upper_label: Hashable, lower_label: Hashable, removal: bool
    ) -> List[int]:
        """Levels the update can possibly change (a sound prefilter).

        A core at ``(τ,β)`` differs between the old and new graph only when
        the updated edge lies *inside* the differing core, so both endpoints
        must belong to it.  For an insertion that requires the fixed-primary
        endpoint to have degree ≥ τ; for a removal it requires both endpoints
        to have had a non-zero old offset at that level.  Offsets fall off
        quickly with τ, so this cuts the per-update work from every level to
        the handful the edge actually touches.  Must run *before* the purge
        (a vanished endpoint's old offsets are part of the evidence).
        """
        affected: List[int] = []
        if removal:
            path = self._array_path
            gu = path.global_id(Vertex(Side.UPPER, upper_label))
            gv = path.global_id(Vertex(Side.LOWER, lower_label))
            for tau in range(1, self._delta + 1):
                sa = path.level(("alpha", tau)).offsets
                sb = path.level(("beta", tau)).offsets
                if (sa[gu] >= 1 and sa[gv] >= 1) or (sb[gu] >= 1 and sb[gv] >= 1):
                    affected.append(tau)
        else:
            cap = max(
                self._graph.degree(Side.UPPER, upper_label),
                self._graph.degree(Side.LOWER, lower_label),
            )
            affected.extend(range(1, min(self._delta, cap) + 1))
        return affected

    def _refresh_after_update(
        self, upper_label: Hashable, lower_label: Hashable, can_grow: bool = True
    ) -> None:
        levels = self._affected_levels(upper_label, lower_label, removal=not can_grow)
        self._purge_vertices(self._vanished_vertices(upper_label, lower_label))
        endpoints = [
            vertex
            for vertex in (
                Vertex(Side.UPPER, upper_label),
                Vertex(Side.LOWER, lower_label),
            )
            if self._graph.has_vertex(vertex.side, vertex.label)
        ]
        if endpoints and levels:
            self._region_updates += 1
            self._patch_levels(endpoints, levels, removal=not can_grow)
        self._adjust_degeneracy(endpoints, can_grow)

    def _patch_levels(
        self, endpoints: Sequence[Vertex], levels: Sequence[int], removal: bool
    ) -> None:
        """Re-peel each affected level inside its S⁺/S⁻ candidate region.

        The first changed vertex of any cascade is an endpoint (the updated
        edge is the only thing that changed), so each level and half is
        pre-screened by asking only whether an *endpoint* moves there: a
        removal is screened with an exact support count at the endpoint's
        old offset, an insertion with a two-vertex optimistic mini-peel that
        upper-bounds the endpoints' new offsets.  Levels that pass touch
        nothing but the endpoints' own entry slices.  Levels that fail get a
        candidate closure per half, peeled with the frozen-boundary kernels
        — exact, because non-candidates provably keep their offsets.  Only a
        closure that blows past the region budget sends its level down the
        full re-peel fallback.
        """
        frozen = None
        full_vertices: Optional[List[Vertex]] = None
        mini = None if removal else _RegionPeel(self._graph, endpoints, "dict")
        path = self._array_path
        for tau in levels:
            if tau > self._delta:  # pragma: no cover - defensive
                break
            sa_old = _OffsetView(path, ("alpha", tau))
            sb_old = _OffsetView(path, ("beta", tau))
            halves = []
            overflow = False
            for primary, old in ((Side.UPPER, sa_old), (Side.LOWER, sb_old)):
                if self._endpoints_hold(endpoints, old, primary, tau, removal, mini):
                    halves.append(None)
                    continue
                region = plan_level_region(
                    self._graph, old, primary, tau, endpoints, removal,
                    self._region_budget,
                )
                if region is None:
                    overflow = True
                    break
                new = _RegionPeel(self._graph, region, self._backend).offsets(
                    old, primary, tau
                )
                self._region_vertices_total += len(region)
                self._regions_peeled += 1
                halves.append((region, new))
            if overflow:
                # The closure outgrew the budget: re-peel the whole graph at
                # this level (other components diff to no-ops in the patch).
                if frozen is None and self._backend == "csr":
                    from repro.graph.csr import freeze

                    frozen = freeze(self._graph)
                if full_vertices is None:
                    full_vertices = list(self._graph.vertices())
                sa_new = self._full_level_offsets(tau, Side.UPPER, frozen)
                sb_new = self._full_level_offsets(tau, Side.LOWER, frozen)
                self._apply_level_patch(tau, full_vertices, sa_new, sb_new, endpoints)
                self._levels_rebuilt += 1
                continue
            merged: Set[Vertex] = set(endpoints)
            for half in halves:
                if half is not None:
                    merged.update(half[0])
            touched = list(merged)
            sa_new = halves[0][1] if halves[0] else {}
            sb_new = halves[1][1] if halves[1] else {}
            sa_new = {v: sa_new.get(v, sa_old.get(v, 0)) for v in touched}
            sb_new = {v: sb_new.get(v, sb_old.get(v, 0)) for v in touched}
            self._apply_level_patch(tau, touched, sa_new, sb_new, endpoints)
            self._levels_patched += 1

    def _endpoints_hold(
        self,
        endpoints: Sequence[Vertex],
        old: "_OffsetView",
        primary_side: Side,
        tau: int,
        removal: bool,
        mini: Optional[_RegionPeel],
    ) -> bool:
        """True when provably neither endpoint's offset moves at this half.

        Removal: an endpoint keeps its old offset exactly when its support
        at that offset (counted over the already-updated graph, everyone
        else at their old offsets) still meets the peeling requirement — and
        if both endpoints hold, no cascade can start.  Insertion: the
        two-vertex mini-peel with every external frozen one step above its
        old offset upper-bounds the endpoints' new offsets; if neither bound
        exceeds the old value, nothing rises.
        """
        graph = self._graph
        if removal:
            for vertex in endpoints:
                offset = old.get(vertex, 0)
                if offset < 1:
                    continue
                need = tau if vertex.side is primary_side else offset
                other = vertex.side.other
                support = 0
                for nbr_label in graph.neighbors(vertex.side, vertex.label):
                    if old.get(Vertex(other, nbr_label), 0) >= offset:
                        support += 1
                        if support >= need:
                            break
                if support < need:
                    return False
            return True
        bounds = mini.offsets(old, primary_side, tau, shift=1)
        return all(bounds[vertex] <= old.get(vertex, 0) for vertex in endpoints)

    def _full_level_offsets(
        self, tau: int, primary_side: Side, frozen: "Optional[CSRBipartiteGraph]"
    ) -> Dict[Vertex, int]:
        """One level's offsets over the whole graph (the budget fallback)."""
        if frozen is not None:
            from repro.decomposition.csr_kernels import csr_offsets_fixed_primary
            from repro.decomposition.offsets import offsets_dict_from_arrays

            off_u, off_l = csr_offsets_fixed_primary(frozen, primary_side, tau)
            return offsets_dict_from_arrays(frozen, off_u, off_l)
        from repro.decomposition.offsets import alpha_offsets, beta_offsets

        if primary_side is Side.UPPER:
            return alpha_offsets(self._graph, tau, backend="dict")
        return beta_offsets(self._graph, tau, backend="dict")

    def _apply_level_patch(
        self,
        tau: int,
        touched: Sequence[Vertex],
        sa_new: Dict[Vertex, int],
        sb_new: Dict[Vertex, int],
        endpoints: Sequence[Vertex],
    ) -> None:
        """Splice one level's recomputed offsets and entry slices into its arrays.

        Most levels a peel touches end up unchanged, so the patch is driven
        by the vertices whose offsets actually moved: only they, their
        neighbours (whose sorted entries embed the moved offsets) and the
        update's endpoints (whose adjacency changed) get their slices
        rebuilt — in global id space, straight from the graph adjacency and
        the patched offsets — spliced in by
        :func:`~repro.index.csr_build.patch_level_arrays` and marked dirty
        in the journal.  Changed vertices are always interior (the pinch
        verified the boundary), so every rebuilt slice stays inside the
        peeled region.
        """
        from repro.index.csr_build import patch_level_arrays

        path = self._array_path
        alpha_key, beta_key = ("alpha", tau), ("beta", tau)
        sa = path.level(alpha_key).offsets
        sb = path.level(beta_key).offsets
        graph = self._graph
        global_id = path.global_id

        changed: List[Vertex] = []
        core_delta = 0
        for vertex in touched:
            gid = global_id(vertex)
            new_a = sa_new[vertex]
            new_b = sb_new[vertex]
            old_a = int(sa[gid])
            if old_a != new_a or int(sb[gid]) != new_b:
                changed.append(vertex)
                core_delta += (new_a >= tau) - (old_a >= tau)
                sa[gid] = new_a
                sb[gid] = new_b
        self._core_sizes[tau] = self._core_sizes.get(tau, 0) + core_delta

        rebuild: Set[Vertex] = set(endpoints)
        for vertex in changed:
            rebuild.add(vertex)
            other = vertex.side.other
            rebuild.update(
                Vertex(other, nbr_label)
                for nbr_label in graph.neighbors(vertex.side, vertex.label)
            )
        if not rebuild:
            return

        owners = sorted((global_id(vertex), vertex) for vertex in rebuild)
        gids = np.array([gid for gid, _ in owners], dtype=np.int64)
        owner_pos: List[int] = []
        neighbours: List[int] = []
        weights: List[float] = []
        for pos, (gid, vertex) in enumerate(owners):
            if sa[gid] < tau:
                continue  # outside the (τ,τ)-core: owns no entries
            nbrs = graph.neighbors(vertex.side, vertex.label)
            owner_pos.extend([pos] * len(nbrs))
            neighbours.extend(path.global_ids(vertex.side.other, nbrs))
            weights.extend(nbrs.values())
        owner = np.array(owner_pos, dtype=np.int64)
        neighbour = np.array(neighbours, dtype=np.int64)
        weight = np.array(weights, dtype=np.float64)
        for key, offsets, strict in ((alpha_key, sa, False), (beta_key, sb, True)):
            counts, ev, ew, eo = _sorted_slices(
                owner, neighbour, weight, offsets, tau, strict, len(owners)
            )
            path.set_level(
                key,
                patch_level_arrays(
                    path.level(key), gids, counts, ev, ew, eo, gids, offsets[gids]
                ),
            )
            self._journal.mark_dirty(key, gids.tolist())

    def _reweight_entries(
        self, upper_label: Hashable, lower_label: Hashable, weight: float
    ) -> None:
        """Rewrite the two mirrored entry weights of one edge at every level."""
        path = self._array_path
        gid_u = path.global_id(Vertex(Side.UPPER, upper_label))
        gid_v = path.global_id(Vertex(Side.LOWER, lower_label))
        for key in path.level_keys():
            arrays = path.level(key)
            for owner, other in ((gid_u, gid_v), (gid_v, gid_u)):
                lo, hi = int(arrays.indptr[owner]), int(arrays.indptr[owner + 1])
                hit = np.flatnonzero(arrays.entry_vertex[lo:hi] == other)
                if hit.size:
                    arrays.entry_weight[lo + int(hit[0])] = weight
            self._journal.mark_dirty(key, (gid_u, gid_v))

    # ------------------------------------------------------------------ #
    # incremental degeneracy
    # ------------------------------------------------------------------ #
    def _adjust_degeneracy(self, endpoints: Sequence[Vertex], can_grow: bool) -> None:
        # Shrink: the patched core sizes say whether the (δ,δ)-core survived.
        while self._delta > 0 and self._core_sizes.get(self._delta, 0) <= 0:
            self._drop_level(self._delta)
            self._delta -= 1

        if not can_grow:  # removing an edge can never raise the degeneracy
            return
        # Growth: a new (δ+1,δ+1)-core must contain the updated edge, so both
        # endpoints must sit in the current (δ,δ)-core — an O(1) pre-screen
        # that rejects almost every update before the candidate peel runs.
        path = self._array_path
        while True:
            next_tau = self._delta + 1
            if self._delta == 0:
                if self._graph.num_edges == 0:
                    return
                candidates: Optional[List[Vertex]] = None
            else:
                offsets = _OffsetView(path, ("alpha", self._delta))
                if len(endpoints) < 2 or any(
                    offsets.get(vertex, 0) < self._delta for vertex in endpoints
                ):
                    return
                level = path.level(("alpha", self._delta))
                candidates = path.vertices(
                    np.flatnonzero(level.offsets >= self._delta).tolist()
                )
            scope = (
                self._graph
                if candidates is None
                else induced_subgraph(self._graph, candidates)
            )
            core = abcore_vertices(scope, next_tau, next_tau, backend="dict")
            if not core:
                return
            self._build_fresh_level(next_tau)
            self._delta = next_tau

    def _drop_level(self, tau: int) -> None:
        path = self._array_path
        path.drop_level(("alpha", tau))
        path.drop_level(("beta", tau))
        self._core_sizes.pop(tau, None)
        self._levels_dropped += 1

    def _build_fresh_level(self, tau: int) -> None:
        """A level the maintained index did not have yet: build it in full."""
        self._build_level(tau)
        offsets = self._array_path.level(("alpha", tau)).offsets
        self._core_sizes[tau] = int(np.count_nonzero(offsets >= tau))
        self._levels_built += 1
        for half in ("alpha", "beta"):
            self._journal.mark_full((half, tau))

    # ------------------------------------------------------------------ #
    def stats(self) -> IndexStats:
        stats = super().stats()
        stats.name = "Idelta-dynamic"
        stats.extra.update(
            {
                "maintenance_seconds": self._maintenance_seconds,
                "updates_applied": float(self._updates_applied),
                "levels_patched": float(self._levels_patched),
                "levels_rebuilt": float(self._levels_rebuilt),
                "levels_built": float(self._levels_built),
                "levels_dropped": float(self._levels_dropped),
                "region_updates": float(self._region_updates),
                "reweight_updates": float(self._reweight_updates),
                "region_mean_vertices": (
                    self._region_vertices_total / self._regions_peeled
                    if self._regions_peeled
                    else 0.0
                ),
                # The array path is the index's only store and is never
                # thrown away; the counter stays for the readers that
                # track it.
                "arrays_invalidated": 0.0,
                "chain_length": float(self._journal.base_sequence),
                "compactions": float(self._compactions),
                "deltas_folded": float(self._deltas_folded),
            }
        )
        return stats

    def note_compaction(self, folded_deltas: int) -> None:
        """Record an auto-compaction of this index's snapshot directory.

        Called by :func:`repro.index.serialization.save_index` after a
        policy-triggered fold so ``stats().extra`` reports how many
        compactions ran and how many delta segments they absorbed.
        """
        self._compactions += 1
        self._deltas_folded += folded_deltas
