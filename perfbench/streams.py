"""Seeded inputs of the benchmark: graphs, query pools, request and op streams.

Everything here is a pure function of its arguments (a seed among them), so
the same seed always yields the same graph, the same request sequence and the
same write stream.  The program under test only ever sees the generated
inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

#: Zipf exponent of the hot-community and churn-serve read streams.
ZIPF_S = 1.1
#: Exponent of both Zipfian degree sequences: the hub-heavy shape whose
#: edge updates are expensive.
DEGREE_EXPONENT = 1.0
WEIGHT_MODEL = "UF"


@dataclass(frozen=True)
class Query:
    """One served query: vertex side and label plus its thresholds."""

    side: str  # "upper" | "lower"
    label: Hashable
    alpha: int
    beta: int


def make_graph(num_edges: int, seed: int, name: str = "bench"):
    """The benchmark's graph family: ``power_law_bipartite`` with UF weights.

    Vertex counts follow the serving benchmarks' ratio (|U| = 0.15 |E|,
    |L| = 0.12 |E|) and both degree sequences have exponent 1.0.
    """
    from repro.graph.generators import power_law_bipartite
    from repro.graph.weights import apply_weights

    graph = power_law_bipartite(
        num_upper=max(num_edges * 3 // 20, 10),
        num_lower=max(num_edges * 3 // 25, 10),
        num_edges=num_edges,
        exponent_upper=DEGREE_EXPONENT,
        exponent_lower=DEGREE_EXPONENT,
        seed=seed,
        name=name,
    )
    return apply_weights(graph, WEIGHT_MODEL, seed=seed)


def _side(vertex) -> str:
    return "upper" if vertex.side.name == "UPPER" else "lower"


def deep_pool(index, seed: int, size: int, depth: int = 2) -> List[Query]:
    """``size`` queries on vertices of the deepest cores of ``index``.

    The threshold pairs are ``(a, b)`` with ``a, b`` in ``[δ-depth+1, δ]``;
    vertices are drawn without replacement from each pair's core (sorted by
    label first, so the draw depends only on the seed).
    """
    rng = random.Random(seed)
    delta = index.delta
    pairs = [
        (a, b)
        for a in range(max(1, delta - depth + 1), delta + 1)
        for b in range(max(1, delta - depth + 1), delta + 1)
    ]
    per_pair = max(1, math.ceil(size / len(pairs)))
    pool: List[Query] = []
    for alpha, beta in pairs:
        core = sorted(
            index.vertices_in_core(alpha, beta), key=lambda v: (_side(v), str(v.label))
        )
        for vertex in rng.sample(core, min(per_pair, len(core))):
            pool.append(Query(_side(vertex), vertex.label, alpha, beta))
    rng.shuffle(pool)
    return pool[:size]


def sweep_pool(index, seed: int, size: int) -> List[Query]:
    """``size`` queries over every (α, β) in ``[⌈δ/2⌉, δ]²``, in equal shares.

    Each pair gets the same number of queries, each on a vertex drawn
    uniformly from that pair's core, so the cost mix of the pool does not
    hinge on how the seed happened to spread the thresholds.
    """
    rng = random.Random(seed)
    delta = index.delta
    low = max(1, (delta + 1) // 2)
    pairs = [(a, b) for a in range(low, delta + 1) for b in range(low, delta + 1)]
    per_pair = max(1, math.ceil(size / len(pairs)))
    pool: List[Query] = []
    for alpha, beta in pairs:
        core = sorted(
            index.vertices_in_core(alpha, beta), key=lambda v: (_side(v), str(v.label))
        )
        for vertex in (rng.choice(core) for _ in range(per_pair if core else 0)):
            pool.append(Query(_side(vertex), vertex.label, alpha, beta))
    rng.shuffle(pool)
    return pool


def zipf_weights(count: int, s: float = ZIPF_S) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(count)]


def zipf_indices(count: int, n: int, seed: int, s: float = ZIPF_S) -> List[int]:
    """``n`` pool indices, rank ``r`` drawn with weight ``1 / (r+1)^s``."""
    return random.Random(seed).choices(range(count), weights=zipf_weights(count, s), k=n)


def cycle_indices(count: int, n: int, seed: int) -> List[int]:
    """``n`` pool indices that visit every entry equally often, in seeded
    random order (back-to-back shuffles of the pool)."""
    rng = random.Random(seed)
    out: List[int] = []
    while len(out) < n:
        order = list(range(count))
        rng.shuffle(order)
        out.extend(order)
    return out[:n]


def edges_flags(n: int, share: float, seed: int) -> List[bool]:
    """Which of ``n`` requests ask for the edge list (``share`` of them)."""
    rng = random.Random(seed)
    return [rng.random() < share for _ in range(n)]


# --------------------------------------------------------------------------- #
# write stream
# --------------------------------------------------------------------------- #
Op = Tuple  # ("insert", u, v, w) | ("remove", u, v) | ("reweight", u, v, w)


def op_stream(
    graph,
    seed: int,
    count: int,
    insert_share: float = 0.4,
    remove_share: float = 0.4,
    new_label_share: float = 0.1,
) -> List[Op]:
    """A seeded stream of ``count`` edge updates against ``graph``.

    The stream is planned on a shadow edge set, so it is valid when applied
    in order to ``graph``: inserts add absent edges, removes and reweights
    touch present ones.  A removal never takes the last edge of a vertex, so
    no vertex ever leaves the graph and every read stays answerable.  About
    ``new_label_share`` of the inserts bring a never-seen upper label.
    """
    rng = random.Random(seed)
    edges: List[Tuple[Hashable, Hashable]] = sorted(
        ((u, v) for u, v, _ in graph.edges()), key=lambda e: (str(e[0]), str(e[1]))
    )
    position: Dict[Tuple[Hashable, Hashable], int] = {e: i for i, e in enumerate(edges)}
    degree: Dict[Tuple[str, Hashable], int] = {}
    for u, v in edges:
        degree[("u", u)] = degree.get(("u", u), 0) + 1
        degree[("v", v)] = degree.get(("v", v), 0) + 1
    uppers = sorted({u for u, _ in edges}, key=str)
    lowers = sorted({v for _, v in edges}, key=str)
    fresh = 0

    def add(u, v) -> None:
        position[(u, v)] = len(edges)
        edges.append((u, v))
        degree[("u", u)] = degree.get(("u", u), 0) + 1
        degree[("v", v)] = degree.get(("v", v), 0) + 1

    def drop(u, v) -> None:
        index = position.pop((u, v))
        last = edges.pop()
        if index < len(edges):
            edges[index] = last
            position[last] = index
        degree[("u", u)] -= 1
        degree[("v", v)] -= 1

    ops: List[Op] = []
    while len(ops) < count:
        roll = rng.random()
        weight = round(rng.uniform(1.0, 5.0), 6)
        if roll < insert_share:
            v = rng.choice(lowers)
            if rng.random() < new_label_share:
                u = f"fresh{seed}_{fresh}"
                fresh += 1
                uppers.append(u)
            else:
                u = rng.choice(uppers)
            if (u, v) in position:
                continue
            add(u, v)
            ops.append(("insert", u, v, weight))
        elif roll < insert_share + remove_share:
            u, v = edges[rng.randrange(len(edges))]
            if degree[("u", u)] < 2 or degree[("v", v)] < 2:
                continue
            drop(u, v)
            ops.append(("remove", u, v))
        else:
            u, v = edges[rng.randrange(len(edges))]
            ops.append(("reweight", u, v, weight))
    return ops


def apply_op(index, op: Op) -> None:
    """Apply one stream op through the maintained index's public API."""
    if op[0] == "remove":
        index.remove_edge(op[1], op[2])
    else:
        index.insert_edge(op[1], op[2], op[3])
