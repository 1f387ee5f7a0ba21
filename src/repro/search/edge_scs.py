"""Significant search over parallel edge lists — the pure-python twins.

The array-native step 2 (ISSUE: retire the thaw-and-peel hot path) runs the
SCS algorithms directly over the wire form of a retrieved community: three
parallel sequences ``(src upper ids, dst lower ids, weights)`` as produced by
:func:`repro.index.traversal.bfs_over_arrays` with ``assemble=False``.  The
vectorised kernels live in :mod:`repro.decomposition.csr_kernels`; this module
holds their pure-python twins, written against plain lists and sets so the
no-numpy matrix can exercise the exact same algorithms (and so the kernels
have a numpy-free oracle in addition to the dict-backed ``scs_*`` functions).
The peel's round loop, :func:`peel_rounds`, is shared rather than twinned:
the CSR kernel calls it as well, because when nearly every edge is its own
round, list code that touches each edge once beats numpy calls per round.

All three methods compute the same unique answer (Lemma 1 of the paper):

* ``"peel"``   — Algorithm 4: remove the current minimum-weight edges round
  by round, cascade vertices below their threshold, restore the last round
  when the query dies and return its connected component.
* ``"expand"`` — Algorithm 5: insert edges heaviest-first into a union-find
  over the interned ids, with the Lemma 7 / saturation pruning rules and the
  geometric validation rule (``epsilon``).
* ``"binary"`` — binary search over the distinct weights; each probe keeps
  the edges at or above the threshold and peels them to the (α,β)-core.

Every function returns the answer as a sorted list of *edge positions* into
the input sequences, so callers can slice their arrays (or lists) without this
module ever touching labels or graph objects.
"""

from __future__ import annotations

from typing import Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_thresholds

__all__ = ["significant_edge_indices", "peel_rounds", "SCS_EDGE_METHODS"]

SCS_EDGE_METHODS = ("peel", "expand", "binary")


# --------------------------------------------------------------------------- #
# shared primitives over compacted edge lists
# --------------------------------------------------------------------------- #
def _compact(src: Sequence[int], dst: Sequence[int]) -> Tuple[List[int], List[int], int, int]:
    """Intern the two endpoint id spaces into dense ``0..n-1`` local ids."""
    upper_ids: Dict[int, int] = {}
    lower_ids: Dict[int, int] = {}
    us: List[int] = []
    ls: List[int] = []
    for u in src:
        us.append(upper_ids.setdefault(u, len(upper_ids)))
    for v in dst:
        ls.append(lower_ids.setdefault(v, len(lower_ids)))
    return us, ls, len(upper_ids), len(lower_ids)


def _degrees(
    us: Sequence[int], ls: Sequence[int], num_upper: int, num_lower: int, alive: Sequence[bool]
) -> Tuple[List[int], List[int]]:
    du = [0] * num_upper
    dl = [0] * num_lower
    for e, keep in enumerate(alive):
        if keep:
            du[us[e]] += 1
            dl[ls[e]] += 1
    return du, dl


def _core_fixpoint(
    us: Sequence[int],
    ls: Sequence[int],
    num_upper: int,
    num_lower: int,
    alive: List[bool],
    alpha: int,
    beta: int,
) -> Tuple[List[bool], List[int], List[int]]:
    """Peel ``alive`` to its (α,β)-core: kill below-threshold vertices' edges
    until every remaining vertex meets its threshold (the cascade of
    Algorithm 4 run to fixpoint)."""
    while True:
        du, dl = _degrees(us, ls, num_upper, num_lower, alive)
        bad_u = {u for u, d in enumerate(du) if 0 < d < alpha}
        bad_l = {v for v, d in enumerate(dl) if 0 < d < beta}
        if not bad_u and not bad_l:
            return alive, du, dl
        alive = [
            keep and us[e] not in bad_u and ls[e] not in bad_l
            for e, keep in enumerate(alive)
        ]


def _component_indices(
    us: Sequence[int],
    ls: Sequence[int],
    alive: Sequence[bool],
    query_in_upper: bool,
    query: int,
) -> List[int]:
    """Edge positions of the query's connected component inside ``alive``."""
    in_u: set = set()
    in_l: set = set()
    (in_u if query_in_upper else in_l).add(query)
    changed = True
    while changed:
        changed = False
        for e, keep in enumerate(alive):
            if not keep:
                continue
            u, v = us[e], ls[e]
            if (u in in_u) != (v in in_l):
                in_u.add(u)
                in_l.add(v)
                changed = True
    return [
        e for e, keep in enumerate(alive) if keep and us[e] in in_u and ls[e] in in_l
    ]


# --------------------------------------------------------------------------- #
# peel (Algorithm 4)
# --------------------------------------------------------------------------- #
def _incidence_index(
    heads: Sequence[int], tails: Sequence[int], num_vertices: int
) -> Tuple[List[int], List[int], List[int]]:
    """Vertex → incident edge positions, as ``(start, incident, degree)``.

    ``heads`` / ``tails`` name each edge's two endpoints in one shared vertex
    space of ``num_vertices`` ids; the positions incident to vertex ``x`` are
    ``incident[start[x]:start[x + 1]]`` and ``degree[x]`` is their count (a
    counting sort; the CSR kernel builds the same index with one argsort).
    """
    degree = [0] * num_vertices
    for x in heads:
        degree[x] += 1
    for x in tails:
        degree[x] += 1
    start = [0] * (num_vertices + 1)
    for x in range(num_vertices):
        start[x + 1] = start[x] + degree[x]
    fill = start[:-1]
    incident = [0] * start[-1]
    for ends in (heads, tails):
        for e, x in enumerate(ends):
            incident[fill[x]] = e
            fill[x] += 1
    return start, incident, degree


def peel_rounds(
    heads: Sequence[int],
    tails: Sequence[int],
    order: Sequence[int],
    round_ends: Sequence[int],
    start: Sequence[int],
    incident: Sequence[int],
    degree: MutableSequence[int],
    num_upper: int,
    query_vertex: int,
    alpha: int,
    beta: int,
) -> Optional[bytearray]:
    """The incremental SCS peel shared by the array kernel and its twin.

    Edges ``0..m-1`` run from upper vertex ``heads[e]`` to lower vertex
    ``tails[e]`` in one vertex space (upper ids below ``num_upper``); all of
    them start alive.  ``order`` lists the edges by ascending weight and
    round ``r`` is ``order[round_ends[r - 1]:round_ends[r]]``, one run of
    equal weights.  ``start`` / ``incident`` / ``degree`` are the
    :func:`_incidence_index` of the edges (``degree`` is consumed).  Each
    round removes its alive edges and cascades vertices below their
    threshold through a stack; an undo log of the round's removals restores
    the round in which the query dies.  Every edge is removed once and every
    incidence slice is scanned at most once, so a call costs O(m + n).

    Returns the alive flags of the last round the query survived, or
    ``None`` if it never dies (impossible for a well-formed input).
    """
    alive = bytearray(b"\x01") * len(order)
    limit = [alpha - 1] * num_upper + [beta - 1] * (len(degree) - num_upper)
    # Vertices already below threshold fall in the first round's cascade.
    stack = [x for x, d in enumerate(degree) if 0 < d <= limit[x]]
    push = stack.append
    # Undo log: every removal in order; the current round starts at ``mark``.
    log: List[int] = []
    record = log.append
    query_limit = limit[query_vertex]
    pos = 0
    for end in round_ends:
        mark = len(log)
        for e in order[pos:end]:
            if alive[e]:
                alive[e] = 0
                record(e)
                x = heads[e]
                d = degree[x] - 1
                degree[x] = d
                if d == limit[x]:
                    push(x)
                x = tails[e]
                d = degree[x] - 1
                degree[x] = d
                if d == limit[x]:
                    push(x)
        pos = end
        # Cascade: a vertex below its threshold loses all remaining edges.
        # A vertex enters the stack once, when it first drops below.
        while stack:
            x = stack.pop()
            ends = tails if x < num_upper else heads
            for f in incident[start[x] : start[x + 1]]:
                if alive[f]:
                    alive[f] = 0
                    record(f)
                    y = ends[f]
                    d = degree[y] - 1
                    degree[y] = d
                    if d == limit[y]:
                        push(y)
        if degree[query_vertex] <= query_limit:
            # The graph as it stood at the start of this round is the last
            # valid one: undo the round's removals.
            for e in log[mark:]:
                alive[e] = 1
            return alive
    return None


def _peel_indices(
    us: Sequence[int],
    ls: Sequence[int],
    weight: Sequence[float],
    num_upper: int,
    num_lower: int,
    alive: List[bool],
    query_in_upper: bool,
    query: int,
    alpha: int,
    beta: int,
) -> List[int]:
    """Peel the ``alive`` subset; mirrors ``scs_peel`` round for round.

    Compacts the subset to local positions and runs :func:`peel_rounds` over
    a counting-sorted incidence index, so each edge is removed once.

    Contract: remove minimum-weight edges round by round, cascade the core, and return the query's component of the last surviving round.
    """
    live = [e for e, keep in enumerate(alive) if keep]
    order = sorted(range(len(live)), key=lambda i: weight[live[i]])
    ordered_weight = [weight[live[i]] for i in order]
    round_ends = [
        i for i in range(1, len(order)) if ordered_weight[i] != ordered_weight[i - 1]
    ]
    round_ends.append(len(order))
    if len(round_ends) <= 1:
        # Single distinct weight: the (sub)community itself is the answer.
        return live
    heads = [us[e] for e in live]
    tails = [num_upper + ls[e] for e in live]
    start, incident, degree = _incidence_index(heads, tails, num_upper + num_lower)
    flags = peel_rounds(
        heads, tails, order, round_ends,
        start, incident, degree, num_upper,
        query if query_in_upper else num_upper + query, alpha, beta,
    )
    if flags is None:
        # Unreachable for a well-formed input (the query must eventually
        # fail), kept as the same safe fall-back the dict algorithm uses.
        return live
    previous = [False] * len(alive)
    for i, keep in enumerate(flags):
        if keep:
            previous[live[i]] = True
    return _component_indices(us, ls, previous, query_in_upper, query)


# --------------------------------------------------------------------------- #
# binary search over distinct weights
# --------------------------------------------------------------------------- #
def _binary_indices(
    us: Sequence[int],
    ls: Sequence[int],
    weight: Sequence[float],
    num_upper: int,
    num_lower: int,
    query_in_upper: bool,
    query: int,
    alpha: int,
    beta: int,
) -> List[int]:
    """Binary search over the distinct weights; mirrors ``scs_binary``.

    Contract: query component of the core at the largest weight threshold keeping the query alive; error if none does.
    """
    distinct = sorted(set(weight))
    low, high = 0, len(distinct) - 1
    best: Optional[List[bool]] = None
    while low <= high:
        mid = (low + high) // 2
        threshold = distinct[mid]
        alive, du, dl = _core_fixpoint(
            us, ls, num_upper, num_lower, [w >= threshold for w in weight], alpha, beta
        )
        survives = (du[query] if query_in_upper else dl[query]) > 0
        if survives:
            best = alive
            low = mid + 1
        else:
            high = mid - 1
    if best is None:
        raise InvalidParameterError(
            f"the supplied edges are not a valid ({alpha},{beta})-community "
            "of the query vertex"
        )
    return _component_indices(us, ls, best, query_in_upper, query)


# --------------------------------------------------------------------------- #
# expand (Algorithm 5): union-find over the interned ids
# --------------------------------------------------------------------------- #
def _expand_indices(
    us: Sequence[int],
    ls: Sequence[int],
    weight: Sequence[float],
    num_upper: int,
    num_lower: int,
    query_in_upper: bool,
    query: int,
    alpha: int,
    beta: int,
    epsilon: float,
) -> List[int]:
    """Heaviest-first expansion; mirrors ``expand_over_pool``.

    Contract: heaviest-first expansion with epsilon-geometric validation; the first component passing validation is the answer.
    """
    order = sorted(range(len(weight)), key=lambda e: -weight[e])
    total = len(order)
    n = num_upper + num_lower
    query_vertex = query if query_in_upper else num_upper + query
    query_threshold = alpha if query_in_upper else beta

    parent = list(range(n))
    size = [1] * n
    degree = [0] * n
    comp_edges = [0] * n
    comp_upper = [1 if v < num_upper else 0 for v in range(n)]
    comp_lower = [0 if v < num_upper else 1 for v in range(n)]
    comp_usat = [0] * n
    comp_lsat = [0] * n

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def add_edge(e: int) -> None:
        a, b = us[e], num_upper + ls[e]
        ra, rb = find(a), find(b)
        if ra == rb:
            comp_edges[ra] += 1
        else:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            comp_edges[ra] += comp_edges[rb] + 1
            comp_upper[ra] += comp_upper[rb]
            comp_lower[ra] += comp_lower[rb]
            comp_usat[ra] += comp_usat[rb]
            comp_lsat[ra] += comp_lsat[rb]
        for v in (a, b):
            degree[v] += 1
            threshold = alpha if v < num_upper else beta
            if degree[v] == threshold:
                root = find(v)
                if v < num_upper:
                    comp_usat[root] += 1
                else:
                    comp_lsat[root] += 1

    def validate(inserted: int) -> Optional[List[int]]:
        """Peel the query's component of the grown graph; None if q dies."""
        root = find(query_vertex)
        candidate = [False] * total
        for e in order[:inserted]:
            if find(us[e]) == root:
                candidate[e] = True
        core, du, dl = _core_fixpoint(
            us, ls, num_upper, num_lower, candidate, alpha, beta
        )
        if (du[query] if query_in_upper else dl[query]) == 0:
            return None
        component = _component_indices(us, ls, core, query_in_upper, query)
        mask = [False] * total
        for e in component:
            mask[e] = True
        return _peel_indices(
            us, ls, weight, num_upper, num_lower, mask,
            query_in_upper, query, alpha, beta,
        )

    previous_checked_size = 0
    pos = 0
    while pos < total:
        batch_weight = weight[order[pos]]
        before = comp_edges[find(query_vertex)] if degree[query_vertex] else -1
        while pos < total and weight[order[pos]] == batch_weight:
            add_edge(order[pos])
            pos += 1
        if not degree[query_vertex]:
            continue
        root = find(query_vertex)
        component_edges = comp_edges[root]
        if component_edges == before:
            continue  # C* unchanged in this round.
        # Lemma 7 / saturation pruning, exactly as ``expand_over_pool``.
        if alpha * beta - alpha - beta > (
            component_edges - comp_upper[root] - comp_lower[root]
        ):
            continue
        if comp_usat[root] < beta or comp_lsat[root] < alpha:
            continue
        if degree[query_vertex] < query_threshold:
            continue
        if previous_checked_size and component_edges < previous_checked_size * epsilon:
            continue
        previous_checked_size = component_edges
        answer = validate(pos)
        if answer is not None:
            return answer
    if degree[query_vertex]:
        answer = validate(total)
        if answer is not None:
            return answer
    raise InvalidParameterError(
        f"the supplied edges contain no ({alpha},{beta})-community "
        "of the query vertex"
    )


# --------------------------------------------------------------------------- #
# public dispatcher
# --------------------------------------------------------------------------- #
def significant_edge_indices(
    src: Sequence[int],
    dst: Sequence[int],
    weight: Sequence[float],
    query_in_upper: bool,
    query_id: int,
    alpha: int,
    beta: int,
    method: str = "peel",
    epsilon: float = 2.0,
) -> List[int]:
    """Extract ``R(α,β)[q]`` from community edge lists; return edge positions.

    ``src`` / ``dst`` / ``weight`` are the parallel edge sequences of one
    retrieved (α,β)-community (ids of the two layers live in independent
    spaces, as on the wire); ``query_id`` names the query vertex in the space
    selected by ``query_in_upper``.  The result is the ascending list of
    positions whose edges form the significant community — identical, edge
    for edge, to what the dict-backed ``scs_*`` oracle computes on the
    assembled graph.

    Contract: ascending positions of the query's significant (alpha,beta)-community edges, identical to the dict-backed scs oracle.
    """
    check_thresholds(alpha, beta)
    if method not in SCS_EDGE_METHODS:
        raise InvalidParameterError(
            f"unknown edge-search method {method!r}; expected one of {SCS_EDGE_METHODS}"
        )
    if method == "expand" and epsilon <= 1.0:
        raise InvalidParameterError("epsilon must be larger than 1")
    us, ls, num_upper, num_lower = _compact(src, dst)
    if query_in_upper:
        members = {u for u in src}
    else:
        members = {v for v in dst}
    if query_id not in members:
        raise InvalidParameterError(
            f"query vertex {query_id!r} is not in the supplied community edges"
        )
    # Re-intern the query into the compacted space.
    if query_in_upper:
        query = us[list(src).index(query_id)]
    else:
        query = ls[list(dst).index(query_id)]
    if len(set(weight)) <= 1:
        # Single distinct weight: the community itself is the answer (the
        # same short-circuit every dict algorithm takes).
        return list(range(len(us)))
    if method == "peel":
        return _peel_indices(
            us, ls, weight, num_upper, num_lower, [True] * len(us),
            query_in_upper, query, alpha, beta,
        )
    if method == "binary":
        return _binary_indices(
            us, ls, weight, num_upper, num_lower,
            query_in_upper, query, alpha, beta,
        )
    return _expand_indices(
        us, ls, weight, num_upper, num_lower,
        query_in_upper, query, alpha, beta, epsilon,
    )
