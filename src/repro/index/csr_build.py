"""Array-native assembly of index levels: :class:`LevelArrays` and helpers.

:class:`LevelArrays` is the one store of an index level: per-vertex entry
slices over parallel ``entry_vertex`` / ``entry_weight`` / ``entry_offset``
arrays in a *global* vertex id space (upper vertex ``i`` ↦ ``i``, lower
vertex ``j`` ↦ ``num_upper + j``), each slice sorted by decreasing offset,
plus the per-vertex ``offsets`` of the level.  The degeneracy index builds,
queries, maintains and persists nothing else.  A whole level is built at
once from a frozen CSR snapshot:

1. expand each layer's CSR into parallel edge arrays ``(src, dst, weight)``;
2. filter with boolean masks (list-owner membership × entry eligibility);
3. one stable ``np.lexsort`` by ``(src, -offset)`` orders *all* slices of
   the level simultaneously;
4. a bincount + cumulative sum yields the slice boundaries.

Because ``np.lexsort`` is stable and the CSR neighbour order preserves the
source graph's adjacency order, ties inside a slice come out in exactly the
order the paper-literal dict construction produces;
:func:`level_arrays_from_dicts` converts that construction's dict adjacency
lists into the identical structure (the oracle of the agreement suites, and
the lazy level store of the basic indexes, which still keep dict lists).
:func:`patch_level_arrays` splices recomputed slices into a level (the
maintenance engine and snapshot delta replay) and :func:`remap_level_arrays`
moves a level into another id space (vertex growth, full snapshot export).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.bipartite import Side, Vertex
from repro.graph.csr import CSRBipartiteGraph
from repro.index.traversal import AdjacencyLists

__all__ = [
    "edge_sources",
    "build_sorted_adjacency",
    "assemble_sorted_adjacency",
    "LevelArrays",
    "level_side_entries",
    "build_level_arrays",
    "level_arrays_from_dicts",
    "remap_level_arrays",
    "patch_level_arrays",
    "assemble_sorted_vertex_table",
]

#: Per-side filtered edge arrays sorted by (owner id, decreasing offset):
#: ``{side: (owner_ids, neighbour_ids, weights, neighbour_offsets)}``.
SideEntries = Dict[Side, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LevelArrays:
    """One index level flattened into parallel arrays with per-vertex slices.

    Vertices are numbered in the global id space (upper layer first).  The
    entries of vertex ``g`` occupy ``indptr[g]:indptr[g + 1]`` in the three
    parallel entry arrays, sorted by decreasing ``entry_offset`` — the array
    analogue of one level of the sorted dict adjacency lists.  ``offsets``
    holds the per-vertex offset at this level, indexed by global id, for O(1)
    core-membership checks.
    """

    num_upper: int
    indptr: np.ndarray
    entry_vertex: np.ndarray
    entry_weight: np.ndarray
    entry_offset: np.ndarray
    offsets: np.ndarray

    @property
    def num_entries(self) -> int:
        return int(self.entry_vertex.shape[0])

    def copy(self) -> "LevelArrays":
        """An owned, writable copy (e.g. of memory-mapped snapshot segments)."""
        return LevelArrays(
            num_upper=self.num_upper,
            indptr=np.array(self.indptr, dtype=np.int64, copy=True),
            entry_vertex=np.array(self.entry_vertex, dtype=np.int64, copy=True),
            entry_weight=np.array(self.entry_weight, dtype=np.float64, copy=True),
            entry_offset=np.array(self.entry_offset, dtype=np.int64, copy=True),
            offsets=np.array(self.offsets, dtype=np.int64, copy=True),
        )


def edge_sources(csr: CSRBipartiteGraph, side: Side) -> np.ndarray:
    """Row ids of each CSR entry of ``side`` (the COO expansion of indptr)."""
    indptr, _, _ = csr.layer(side)
    n = csr.num_upper if side is Side.UPPER else csr.num_lower
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def level_side_entries(
    csr: CSRBipartiteGraph,
    member_upper: np.ndarray,
    member_lower: np.ndarray,
    entry_offsets_upper: np.ndarray,
    entry_offsets_lower: np.ndarray,
    threshold: int,
    strict: bool = False,
    src_upper: Optional[np.ndarray] = None,
    src_lower: Optional[np.ndarray] = None,
) -> SideEntries:
    """Filter and sort one level's eligible edges, per adjacency direction.

    ``member_*`` are boolean masks selecting which vertices own a list;
    ``entry_offsets_*`` give the offset attached to a vertex when it appears
    as a *neighbour* inside someone else's list.  An entry is kept when its
    offset is ``> threshold`` (``strict``) or ``>= threshold``.  Each side's
    arrays come out sorted by ``(owner id, decreasing offset)`` with the
    source adjacency order as the (stable) tie-break — the shared input of
    both the dict-list assembly and the flat level arrays.  ``src_upper`` /
    ``src_lower`` allow reusing :func:`edge_sources` expansions across levels.
    """
    entries: SideEntries = {}
    for side in (Side.UPPER, Side.LOWER):
        _, indices, weights = csr.layer(side)
        if side is Side.UPPER:
            src = src_upper if src_upper is not None else edge_sources(csr, side)
            owner_member = member_upper
            nbr_offsets = entry_offsets_lower
        else:
            src = src_lower if src_lower is not None else edge_sources(csr, side)
            owner_member = member_lower
            nbr_offsets = entry_offsets_upper
        edge_offsets = nbr_offsets[indices]
        if strict:
            keep = owner_member[src] & (edge_offsets > threshold)
        else:
            keep = owner_member[src] & (edge_offsets >= threshold)
        s = src[keep]
        d = indices[keep]
        w = weights[keep]
        o = edge_offsets[keep]
        order = np.lexsort((-o, s))
        entries[side] = (s[order], d[order], w[order], o[order])
    return entries


def build_sorted_adjacency(
    csr: CSRBipartiteGraph,
    member_upper: np.ndarray,
    member_lower: np.ndarray,
    entry_offsets_upper: np.ndarray,
    entry_offsets_lower: np.ndarray,
    threshold: int,
    strict: bool = False,
    include_empty: bool = True,
    src_upper: Optional[np.ndarray] = None,
    src_lower: Optional[np.ndarray] = None,
) -> AdjacencyLists:
    """Build one level of sorted adjacency lists from offset arrays.

    Convenience wrapper for the basic indexes' dict lists:
    :func:`level_side_entries` followed by :func:`assemble_sorted_adjacency`.
    """
    side_entries = level_side_entries(
        csr,
        member_upper,
        member_lower,
        entry_offsets_upper,
        entry_offsets_lower,
        threshold,
        strict=strict,
        src_upper=src_upper,
        src_lower=src_lower,
    )
    return assemble_sorted_adjacency(
        csr, member_upper, member_lower, include_empty, side_entries
    )


def assemble_sorted_adjacency(
    csr: CSRBipartiteGraph,
    member_upper: np.ndarray,
    member_lower: np.ndarray,
    include_empty: bool,
    side_entries: SideEntries,
) -> AdjacencyLists:
    """Materialise the dict adjacency lists of one level from sorted entries.

    With ``include_empty`` every member vertex gets a (possibly empty) list,
    which is what the α-half of the indexes stores; the β-half only keeps
    non-empty lists.
    """
    lists: AdjacencyLists = {}
    upper_handles = csr.upper_handles()
    lower_handles = csr.lower_handles()
    for side in (Side.UPPER, Side.LOWER):
        s, d, w, o = side_entries[side]
        if side is Side.UPPER:
            src_handles = upper_handles
            dst_handle_arr = csr.lower_handle_array()
        else:
            src_handles = lower_handles
            dst_handle_arr = csr.upper_handle_array()
        if s.size == 0:
            continue
        d_handles = dst_handle_arr[d].tolist()
        w_list = w.tolist()
        o_list = o.tolist()
        # One zip() builds every entry tuple of the level at C speed; each
        # vertex's list is then a contiguous slice of equal-src entries.
        entries = list(zip(d_handles, w_list, o_list))
        boundaries = np.flatnonzero(s[1:] != s[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        owners = s[starts].tolist()
        starts = starts.tolist()
        ends = boundaries.tolist()
        ends.append(s.size)
        for owner, lo, hi in zip(owners, starts, ends):
            lists[src_handles[owner]] = entries[lo:hi]
    if include_empty:
        for i in np.flatnonzero(member_upper).tolist():
            lists.setdefault(upper_handles[i], [])
        for i in np.flatnonzero(member_lower).tolist():
            lists.setdefault(lower_handles[i], [])
    return lists


def build_level_arrays(
    csr: CSRBipartiteGraph,
    entry_offsets_upper: np.ndarray,
    entry_offsets_lower: np.ndarray,
    side_entries: SideEntries,
) -> LevelArrays:
    """Assemble the flat :class:`LevelArrays` of one level, array-natively.

    ``side_entries`` must come from :func:`level_side_entries` for the same
    level.  Because each side's arrays are already sorted by owner id and all
    upper global ids precede all lower global ids, concatenating the two
    sides yields the globally ordered entry arrays directly; only a bincount
    and a cumulative sum are needed for the slice boundaries.

    Contract: the flat LevelArrays of one level, per-vertex entry slices grouped by global id in the index's sorted entry order.
    """
    num_upper = csr.num_upper
    num_vertices = num_upper + csr.num_lower
    s_u, d_u, w_u, o_u = side_entries[Side.UPPER]
    s_l, d_l, w_l, o_l = side_entries[Side.LOWER]
    owners = np.concatenate((s_u, s_l + num_upper))
    entry_vertex = np.concatenate((d_u + num_upper, d_l))
    entry_weight = np.concatenate((w_u, w_l)).astype(np.float64, copy=False)
    entry_offset = np.concatenate((o_u, o_l)).astype(np.int64, copy=False)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if owners.size:
        np.cumsum(np.bincount(owners, minlength=num_vertices), out=indptr[1:])
    offsets = np.concatenate(
        (entry_offsets_upper, entry_offsets_lower)
    ).astype(np.int64, copy=False)
    return LevelArrays(
        num_upper=num_upper,
        indptr=indptr,
        entry_vertex=entry_vertex.astype(np.int64, copy=False),
        entry_weight=entry_weight,
        entry_offset=entry_offset,
        offsets=offsets,
    )


def remap_level_arrays(
    arrays: LevelArrays,
    old_to_new: np.ndarray,
    num_upper: int,
    num_vertices: int,
) -> LevelArrays:
    """Move one level into another global id space (growth, full export).

    ``old_to_new[g]`` is the new id of old id ``g``, or ``-1`` to drop it; a
    dropped id must own no entries and appear in none (the dead ids of
    removed vertices).  New ids nobody maps to start empty with offset 0.
    An increasing map keeps the entry positions (weight and offset arrays
    are shared with ``arrays``, which the caller discards); any other map —
    a removed-then-re-added vertex moves — gathers the slices.
    """
    old_to_new = np.asarray(old_to_new, dtype=np.int64)
    kept = np.flatnonzero(old_to_new >= 0)
    new_ids = old_to_new[kept]
    indptr = arrays.indptr
    counts = np.zeros(num_vertices, dtype=np.int64)
    counts[new_ids] = indptr[kept + 1] - indptr[kept]
    new_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    total = int(new_indptr[-1])
    if total != arrays.num_entries:
        raise ValueError("remap_level_arrays: a dropped id still owns entries")
    if new_ids.size < 2 or bool(np.all(new_ids[1:] > new_ids[:-1])):
        entry_vertex = arrays.entry_vertex
        entry_weight = arrays.entry_weight
        entry_offset = arrays.entry_offset
    else:
        order = np.argsort(new_ids)
        starts = indptr[kept[order]]
        run = counts[new_ids[order]]
        positions = np.repeat(starts - (np.cumsum(run) - run), run) + np.arange(total)
        entry_vertex = arrays.entry_vertex[positions]
        entry_weight = arrays.entry_weight[positions]
        entry_offset = arrays.entry_offset[positions]
    entry_vertex = old_to_new[entry_vertex]
    if entry_vertex.size and int(entry_vertex.min()) < 0:
        raise ValueError("remap_level_arrays: an entry names a dropped id")
    offsets = np.zeros(num_vertices, dtype=np.int64)
    offsets[new_ids] = arrays.offsets[kept]
    return LevelArrays(
        num_upper=num_upper,
        indptr=new_indptr,
        entry_vertex=entry_vertex,
        entry_weight=entry_weight,
        entry_offset=entry_offset,
        offsets=offsets,
    )


def patch_level_arrays(
    arrays: LevelArrays,
    gids: np.ndarray,
    counts: np.ndarray,
    entry_vertex: np.ndarray,
    entry_weight: np.ndarray,
    entry_offset: np.ndarray,
    offset_gids: np.ndarray,
    offset_values: np.ndarray,
    allow_in_place: bool = True,
) -> LevelArrays:
    """Splice patched per-vertex entry slices into a :class:`LevelArrays`.

    ``gids`` (ascending) and ``counts`` give each patched vertex's new slice
    length, the entry arrays hold the new slices concatenated in ``gids``
    order — the wire form shared by the maintenance engine and the snapshot
    delta segments; ``offset_gids``/``offset_values`` assign the patched per-vertex offsets
    (zeros included, so vanished vertices are wiped).  When every patched
    vertex keeps its entry count and the underlying buffers are writable, the
    patch is applied in place (the common case for reweights and small
    updates); otherwise the arrays are rebuilt with one pass that copies the
    unchanged gaps between patched vertices — never touching entries outside
    the patched region.  Snapshot replay passes ``allow_in_place=False``
    because its base segments are read-only memory maps.
    """
    gids = np.asarray(gids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    offset_gids = np.asarray(offset_gids, dtype=np.int64)
    offset_values = np.asarray(offset_values, dtype=np.int64)
    indptr = arrays.indptr
    writable = all(
        getattr(buf, "flags", None) is not None and buf.flags.writeable
        for buf in (
            arrays.indptr,
            arrays.entry_vertex,
            arrays.entry_weight,
            arrays.entry_offset,
            arrays.offsets,
        )
    )
    old_counts = indptr[gids + 1] - indptr[gids] if gids.size else counts
    if allow_in_place and writable and np.array_equal(old_counts, counts):
        pos = 0
        for gid, count in zip(gids.tolist(), counts.tolist()):
            lo = int(indptr[gid])
            arrays.entry_vertex[lo : lo + count] = entry_vertex[pos : pos + count]
            arrays.entry_weight[lo : lo + count] = entry_weight[pos : pos + count]
            arrays.entry_offset[lo : lo + count] = entry_offset[pos : pos + count]
            pos += count
        if offset_gids.size:
            arrays.offsets[offset_gids] = offset_values
        return arrays

    per_vertex = np.asarray(indptr[1:] - indptr[:-1], dtype=np.int64)
    per_vertex[gids] = counts
    new_indptr = np.zeros(indptr.shape[0], dtype=np.int64)
    np.cumsum(per_vertex, out=new_indptr[1:])
    total = int(new_indptr[-1])
    new_vertex = np.empty(total, dtype=np.int64)
    new_weight = np.empty(total, dtype=np.float64)
    new_offset = np.empty(total, dtype=np.int64)

    # Copy the unchanged runs between consecutive patched vertices; both id
    # spaces advance by identical amounts inside a run, so plain slices do.
    prev_old = 0
    prev_new = 0
    for gid in gids.tolist():
        old_lo = int(indptr[gid])
        if old_lo > prev_old:
            new_lo = int(new_indptr[gid])
            new_vertex[prev_new:new_lo] = arrays.entry_vertex[prev_old:old_lo]
            new_weight[prev_new:new_lo] = arrays.entry_weight[prev_old:old_lo]
            new_offset[prev_new:new_lo] = arrays.entry_offset[prev_old:old_lo]
        prev_old = int(indptr[gid + 1])
        prev_new = int(new_indptr[gid + 1])
    if int(indptr[-1]) > prev_old:
        new_vertex[prev_new:] = arrays.entry_vertex[prev_old:]
        new_weight[prev_new:] = arrays.entry_weight[prev_old:]
        new_offset[prev_new:] = arrays.entry_offset[prev_old:]

    pos = 0
    for gid, count in zip(gids.tolist(), counts.tolist()):
        lo = int(new_indptr[gid])
        new_vertex[lo : lo + count] = entry_vertex[pos : pos + count]
        new_weight[lo : lo + count] = entry_weight[pos : pos + count]
        new_offset[lo : lo + count] = entry_offset[pos : pos + count]
        pos += count

    offsets = np.array(arrays.offsets, dtype=np.int64, copy=True)
    if offset_gids.size:
        offsets[offset_gids] = offset_values
    return LevelArrays(
        num_upper=arrays.num_upper,
        indptr=new_indptr,
        entry_vertex=new_vertex,
        entry_weight=new_weight,
        entry_offset=new_offset,
        offsets=offsets,
    )


def assemble_sorted_vertex_table(
    csr: CSRBipartiteGraph, upper_offsets: np.ndarray, lower_offsets: np.ndarray
) -> "List[Tuple[Vertex, int]]":
    """One bicore-index membership table, assembled array-natively.

    The table lists every vertex with a non-zero offset, sorted by decreasing
    offset; a stable argsort over the concatenated (upper first) offset arrays
    reproduces exactly the order the dict backend's ``sorted`` produces, so
    both backends build identical tables.
    """
    offsets = np.concatenate((upper_offsets, lower_offsets))
    nonzero = np.flatnonzero(offsets >= 1)
    order = np.argsort(-offsets[nonzero], kind="stable")
    chosen = nonzero[order]
    handles = csr.global_handles()
    return [
        (handles[gid], offset)
        for gid, offset in zip(chosen.tolist(), offsets[chosen].tolist())
    ]


def level_arrays_from_dicts(
    offsets: Mapping[Vertex, int],
    lists: AdjacencyLists,
    global_ids: Mapping[Vertex, int],
    num_upper: int,
    num_vertices: int,
) -> LevelArrays:
    """Derive the flat :class:`LevelArrays` of one level from dict structures.

    The paper-literal dict construction of the degeneracy index converts
    each level once through it (then drops the dicts), and the basic indexes
    convert their levels lazily on first array-path use: one O(entries)
    conversion per level.  Vertices absent from ``global_ids`` are skipped.

    Contract: the flat LevelArrays of one level, per-vertex entry slices grouped by global id in the index's sorted entry order.
    """
    counts = np.zeros(num_vertices, dtype=np.int64)
    for vertex, entries in lists.items():
        gid = global_ids.get(vertex)
        if gid is not None:
            counts[gid] = len(entries)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    entry_vertex = np.zeros(total, dtype=np.int64)
    entry_weight = np.zeros(total, dtype=np.float64)
    entry_offset = np.zeros(total, dtype=np.int64)
    for vertex, entries in lists.items():
        if not entries:
            continue
        gid = global_ids.get(vertex)
        if gid is None:
            continue
        lo = int(indptr[gid])
        hi = lo + len(entries)
        neighbours, weights, offs = zip(*entries)
        entry_vertex[lo:hi] = [global_ids[nbr] for nbr in neighbours]
        entry_weight[lo:hi] = weights
        entry_offset[lo:hi] = offs
    offset_arr = np.zeros(num_vertices, dtype=np.int64)
    for vertex, offset in offsets.items():
        if offset:
            gid = global_ids.get(vertex)
            if gid is not None:
                offset_arr[gid] = offset
    return LevelArrays(
        num_upper=num_upper,
        indptr=indptr,
        entry_vertex=entry_vertex,
        entry_weight=entry_weight,
        entry_offset=entry_offset,
        offsets=offset_arr,
    )
