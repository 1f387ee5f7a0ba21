"""Golden regression: the paper-example graph's semantics, frozen to disk.

``tests/golden/paper_example.json`` snapshots everything the engine computes
for the running example of Figure 2: the degeneracy δ, the full α-offset and
β-offset tables for every index level, and the edge sets of a panel of
(α,β)-community and significant-community queries.  The test recomputes the
snapshot with *both* backends and diffs against the stored file, so any
future engine refactor that silently changes semantics — a peeling order bug,
an off-by-one in the offset levels, a truncated adjacency list — fails loudly
with a field-level diff instead of slipping through.

To regenerate after an *intentional* semantic change::

    PYTHONPATH=src python tests/test_golden_regression.py --write
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.decomposition.degeneracy import degeneracy_by_peeling
from repro.exceptions import EmptyCommunityError
from repro.graph.bipartite import BipartiteGraph, Side, Vertex, lower, upper
from repro.graph.generators import paper_example_graph
from repro.index.degeneracy_index import DegeneracyIndex
from repro.search.peel import scs_peel

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_example.json"

#: (query vertex, alpha, beta) panel; chosen to cover both index halves
#: (α ≤ β and β < α), every level, and an empty-answer case.
COMMUNITY_QUERIES = (
    ("U", "u3", 2, 2),
    ("U", "u1", 4, 4),
    ("U", "u4", 3, 3),
    ("U", "u1", 2, 3),
    ("L", "v2", 3, 2),
    ("L", "v1", 1, 4),
    ("U", "u3", 4, 2),
    ("U", "u5", 2, 2),  # u5 only touches v1: not in the (2,2)-core -> empty
)

SIGNIFICANT_QUERIES = (
    ("U", "u3", 2, 2),
    ("U", "u4", 2, 2),
    ("L", "v1", 3, 3),
)


def _vertex(side_tag: str, label: str) -> Vertex:
    return upper(label) if side_tag == "U" else lower(label)


def _vertex_key(vertex: Vertex) -> str:
    return f"{'U' if vertex.side is Side.UPPER else 'L'}:{vertex.label}"


def _edge_list(graph: BipartiteGraph) -> List[List[object]]:
    return sorted([u, v, w] for u, v, w in graph.edges())


def _offset_table(offsets: Dict[Vertex, int]) -> Dict[str, int]:
    """Sparse form: zero offsets are implicit (most vertices at high levels)."""
    return {
        _vertex_key(vertex): offset
        for vertex, offset in sorted(offsets.items(), key=lambda item: _vertex_key(item[0]))
        if offset != 0
    }


def _level_offsets(index: DegeneracyIndex, half: str, tau: int) -> Dict[Vertex, int]:
    """One level's per-vertex offsets, read from the exported level arrays."""
    offsets = index.export_level_arrays()[(half, tau)].offsets
    return dict(zip(index.query_path().handles(), offsets.tolist()))


def compute_snapshot(backend: str) -> Dict[str, object]:
    graph = paper_example_graph()
    index = DegeneracyIndex(graph, backend=backend)
    snapshot: Dict[str, object] = {
        "graph": {
            "num_upper": graph.num_upper,
            "num_lower": graph.num_lower,
            "num_edges": graph.num_edges,
        },
        "delta": index.delta,
        "alpha_offsets": {
            str(tau): _offset_table(_level_offsets(index, "alpha", tau))
            for tau in range(1, index.delta + 1)
        },
        "beta_offsets": {
            str(tau): _offset_table(_level_offsets(index, "beta", tau))
            for tau in range(1, index.delta + 1)
        },
        "communities": {},
        "significant_communities": {},
    }
    communities: Dict[str, object] = snapshot["communities"]  # type: ignore[assignment]
    for side_tag, label, alpha, beta in COMMUNITY_QUERIES:
        key = f"{side_tag}:{label}|{alpha},{beta}"
        try:
            communities[key] = _edge_list(index.community(_vertex(side_tag, label), alpha, beta))
        except EmptyCommunityError:
            communities[key] = "empty"
    significant: Dict[str, object] = snapshot["significant_communities"]  # type: ignore[assignment]
    for side_tag, label, alpha, beta in SIGNIFICANT_QUERIES:
        key = f"{side_tag}:{label}|{alpha},{beta}"
        community = index.community(_vertex(side_tag, label), alpha, beta)
        answer = scs_peel(community, _vertex(side_tag, label), alpha, beta)
        significant[key] = _edge_list(answer)
    return snapshot


def load_golden() -> Dict[str, object]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend", ["dict", "csr"])
def test_snapshot_matches_golden(backend):
    golden = load_golden()
    snapshot = json.loads(json.dumps(compute_snapshot(backend)))  # normalise types
    assert snapshot.keys() == golden.keys()
    for section in golden:
        assert snapshot[section] == golden[section], f"section {section!r} diverged"


def test_golden_delta_is_consistent_with_reference_peeling():
    """The stored δ must match the slow by-definition computation."""
    golden = load_golden()
    assert golden["delta"] == degeneracy_by_peeling(paper_example_graph())


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(compute_snapshot("dict"), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("pass --write to regenerate the golden snapshot")
