"""Incremental maintenance vs invalidate-and-rebuild on a 100k-edge churn stream.

An evolving deployment interleaves edge updates with query traffic.  The
maintenance engine patches the S⁺/S⁻ candidate regions into the index's
:class:`LevelArrays` — its only level store — in place, so the query path is
never rebuilt.  This benchmark replays a mixed churn stream (inserts,
removals and reweights) against both strategies, running the same probe
batch after every update:

* **maintained** — one :class:`DynamicDegeneracyIndex` absorbs every update
  (timed together with its per-update probe batch).  It runs twice: over the
  existing vertex universe, and with a fixed 10% of the inserts bringing in
  a never-seen upper or lower label, which grows the id space in place.
* **invalidate-and-rebuild** — a from-scratch :class:`DegeneracyIndex` build
  plus the same probe batch, measured over the first
  ``REPRO_BENCH_MAINT_BASELINE_UPDATES`` updates of the same stream and
  extrapolated (rebuilding after each of the 1k updates would take hours).

Correctness is asserted, not assumed: after *every* update the maintained
index's batch answers are compared element-wise against its own per-query
retrievals, and at every ``REPRO_BENCH_MAINT_VERIFY_EVERY`` updates (and at
the end) against a from-scratch rebuild of the current graph.  The gates:
maintained throughput must beat invalidate-and-rebuild by
``REPRO_BENCH_MIN_MAINT_SPEEDUP`` (default 5×), and the new-label stream's
per-update time must stay within ``NEW_LABEL_MAX_RATIO`` (2×) of the
existing-label stream's.

Run standalone for a human-readable report::

    PYTHONPATH=src python benchmarks/bench_maintenance_stream.py

or as a pytest gate (not collected by the tier-1 run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_maintenance_stream.py -q

Scale knobs: ``REPRO_BENCH_MAINT_EDGES`` (default 100_000) and
``REPRO_BENCH_MAINT_UPDATES`` (default 1000).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex

NUM_EDGES = int(os.environ.get("REPRO_BENCH_MAINT_EDGES", "100000"))
NUM_UPDATES = int(os.environ.get("REPRO_BENCH_MAINT_UPDATES", "1000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_MAINT_QUERIES", "12"))
VERIFY_EVERY = int(os.environ.get("REPRO_BENCH_MAINT_VERIFY_EVERY", "100"))
BASELINE_UPDATES = int(os.environ.get("REPRO_BENCH_MAINT_BASELINE_UPDATES", "10"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_MAINT_SPEEDUP", "5.0"))

#: Share of inserts that bring in a never-seen vertex label in the
#: new-label stream, and the gate on its per-update time relative to the
#: existing-label stream.
NEW_LABEL_SHARE = 0.10
NEW_LABEL_MAX_RATIO = 2.0

#: Probe thresholds: deep enough that answers stay serving-sized.
QUERY_THRESHOLDS: Tuple[Tuple[int, int], ...] = ((3, 3), (4, 4), (3, 5), (5, 3))

_cache: Dict[str, object] = {}


def benchmark_graph() -> BipartiteGraph:
    if "graph" not in _cache:
        _cache["graph"] = power_law_bipartite(
            num_upper=max(NUM_EDGES * 3 // 10, 10),
            num_lower=max(NUM_EDGES // 4, 10),
            num_edges=NUM_EDGES,
            exponent_upper=0.6,
            exponent_lower=0.6,
            seed=7,
            name="maintenance",
        )
    return _cache["graph"]  # type: ignore[return-value]


Update = Tuple[str, object, object, float]


def churn_stream(
    graph: BipartiteGraph, updates: int, seed: int = 11, new_label_share: float = 0.0
) -> List[Update]:
    """A seeded mixed stream over the graph's vertex universe.

    ~40% inserts between random existing vertices, ~45% removals of live
    edges, ~15% reweights — the rating-stream shape an evolving bipartite
    deployment sees.  With ``new_label_share`` that fraction of the inserts
    replaces one endpoint (upper or lower, alternately by coin) with a
    never-seen label.  Removals always name a live edge (the stream tracks
    liveness while it is generated), so both strategies replay identical
    work.
    """
    rng = random.Random(seed)
    uppers = list(graph.upper_labels())
    lowers = list(graph.lower_labels())
    live: List[Tuple[object, object]] = [(u, v) for u, v, _ in graph.edges()]
    live_set = set(live)
    stream: List[Update] = []
    while len(stream) < updates:
        roll = rng.random()
        if roll < 0.40:
            u, v = rng.choice(uppers), rng.choice(lowers)
            if rng.random() < new_label_share:
                if rng.random() < 0.5:
                    u = f"new-u{len(stream)}"
                else:
                    v = f"new-v{len(stream)}"
            if (u, v) in live_set:
                continue
            live.append((u, v))
            live_set.add((u, v))
            stream.append(("insert", u, v, float(rng.randint(1, 5))))
        elif roll < 0.85:
            while True:
                position = rng.randrange(len(live))
                u, v = live[position]
                if (u, v) in live_set:
                    break
            live_set.discard((u, v))
            stream.append(("remove", u, v, 0.0))
        else:
            u, v = rng.choice(sorted(live_set)) if len(live_set) < 64 else live[
                rng.randrange(len(live))
            ]
            if (u, v) not in live_set:
                continue
            stream.append(("reweight", u, v, float(rng.randint(1, 5))))
    return stream


def apply_update(index: DynamicDegeneracyIndex, update: Update) -> None:
    kind, u, v, weight = update
    if kind == "remove":
        index.remove_edge(u, v)
    else:
        index.insert_edge(u, v, weight)


def apply_to_graph(graph: BipartiteGraph, update: Update) -> None:
    kind, u, v, weight = update
    if kind == "remove":
        graph.remove_edge(u, v)
        graph.discard_isolated()
    else:
        graph.add_edge(u, v, weight)


def probe_queries(index: DegeneracyIndex) -> List[Tuple[Vertex, int, int]]:
    rng = random.Random(13)
    queries: List[Tuple[Vertex, int, int]] = []
    per_pair = max(-(-NUM_QUERIES // len(QUERY_THRESHOLDS)), 1)
    for alpha, beta in QUERY_THRESHOLDS:
        core = index.vertices_in_core(alpha, beta)
        if core:
            queries.extend((vertex, alpha, beta) for vertex in rng.sample(core, min(per_pair, len(core))))
    return queries[:NUM_QUERIES]


def _assert_same_answers(got, want, context: str) -> None:
    if len(got) != len(want):
        raise AssertionError(f"{context}: answer counts diverged")
    for position, (answer, expected) in enumerate(zip(got, want)):
        if (answer is None) != (expected is None):
            raise AssertionError(f"{context}: query {position} emptiness diverged")
        if answer is not None and not answer.same_structure(expected):
            raise AssertionError(f"{context}: query {position} structure diverged")


def run_maintained(stream: List[Update]) -> Dict[str, float]:
    """Replay the stream through the maintenance engine; verify throughout."""
    index = DynamicDegeneracyIndex(benchmark_graph(), backend="csr")
    queries = probe_queries(index)
    start_vertices = index.query_path().num_vertices
    index.batch_community(queries, on_empty="none")  # warm the query path
    verification_graph = index.graph.copy()
    maintained_seconds = 0.0
    for step, update in enumerate(stream, start=1):
        start = time.perf_counter()
        apply_update(index, update)
        batched = index.batch_community(queries, on_empty="none")
        maintained_seconds += time.perf_counter() - start

        # Every update: the memoised batch answers must agree with fresh
        # per-query retrievals over the patched arrays.
        sequential = []
        for query, alpha, beta in queries:
            try:
                sequential.append(index.community(query, alpha, beta))
            except Exception:  # noqa: BLE001 - outside-the-core probes
                sequential.append(None)
        _assert_same_answers(batched, sequential, f"update {step} (batch vs per-query)")

        apply_to_graph(verification_graph, update)
        if step % VERIFY_EVERY == 0 or step == len(stream):
            fresh = DegeneracyIndex(verification_graph, backend="csr")
            if fresh.delta != index.delta:
                raise AssertionError(f"update {step}: degeneracy diverged")
            _assert_same_answers(
                batched,
                fresh.batch_community(queries, on_empty="none"),
                f"update {step} (vs from-scratch rebuild)",
            )
    stats = index.stats()
    return {
        "seconds": maintained_seconds,
        "per_update": maintained_seconds / len(stream),
        "updates_per_second": len(stream) / maintained_seconds,
        **{key: stats.extra[key] for key in (
            "levels_patched",
            "levels_rebuilt",
            "levels_built",
            "region_mean_vertices",
            "reweight_updates",
            "arrays_invalidated",
        )},
        "grown_vertices": float(index.query_path().num_vertices - start_vertices),
    }


def run_rebuild_baseline(stream: List[Update]) -> Dict[str, float]:
    """Invalidate-and-rebuild over a sampled prefix of the same stream."""
    graph = benchmark_graph().copy()
    index = DegeneracyIndex(graph, backend="csr")
    queries = probe_queries(index)
    sampled = stream[:BASELINE_UPDATES]
    start = time.perf_counter()
    for update in sampled:
        apply_to_graph(graph, update)
        index = DegeneracyIndex(graph, backend="csr")
        index.batch_community(queries, on_empty="none")
    seconds = time.perf_counter() - start
    return {
        "sampled_updates": float(len(sampled)),
        "per_update": seconds / len(sampled),
        "updates_per_second": len(sampled) / seconds,
    }


def format_report(
    maintained: Dict[str, float],
    new_labels: Dict[str, float],
    baseline: Dict[str, float],
) -> str:
    graph = benchmark_graph()
    speedup = baseline["per_update"] / maintained["per_update"]
    lines = [
        f"maintenance stream on {graph.name!r}: |U|={graph.num_upper} "
        f"|L|={graph.num_lower} |E|={graph.num_edges}, {NUM_UPDATES} updates, "
        f"{NUM_QUERIES} probe queries per update",
        f"{'strategy':<34} {'ms/update':>10} {'updates/s':>10}",
        f"{'  maintained, existing labels':<34} {maintained['per_update'] * 1000:>10.2f} "
        f"{maintained['updates_per_second']:>10.1f}",
        f"{f'  maintained, {NEW_LABEL_SHARE:.0%} new-label inserts':<34} "
        f"{new_labels['per_update'] * 1000:>10.2f} "
        f"{new_labels['updates_per_second']:>10.1f}   "
        f"(id space grew by {new_labels['grown_vertices']:.0f} vertices)",
        f"{'  invalidate-and-rebuild':<34} {baseline['per_update'] * 1000:>10.2f} "
        f"{baseline['updates_per_second']:>10.2f}   "
        f"(sampled over {int(baseline['sampled_updates'])} updates)",
        f"speedup: {speedup:.1f}x; new-label / existing-label time: "
        f"{new_labels['per_update'] / maintained['per_update']:.2f}x",
        f"levels patched/rebuilt/built: {maintained['levels_patched']:.0f} / "
        f"{maintained['levels_rebuilt']:.0f} / {maintained['levels_built']:.0f}; "
        f"mean candidate region {maintained['region_mean_vertices']:.0f} vertices; "
        f"reweights {maintained['reweight_updates']:.0f}; "
        f"arrays invalidated {maintained['arrays_invalidated'] + new_labels['arrays_invalidated']:.0f}",
    ]
    return "\n".join(lines)


def check_gates(
    maintained: Dict[str, float],
    new_labels: Dict[str, float],
    baseline: Dict[str, float],
) -> List[str]:
    """Every failed gate, as a message (empty when all hold)."""
    failures = []
    speedup = baseline["per_update"] / maintained["per_update"]
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"maintained throughput {speedup:.1f}x below the {MIN_SPEEDUP:.1f}x target"
        )
    ratio = new_labels["per_update"] / maintained["per_update"]
    if ratio > NEW_LABEL_MAX_RATIO:
        failures.append(
            f"new-label updates {ratio:.2f}x slower than existing-label ones "
            f"(gate {NEW_LABEL_MAX_RATIO:.1f}x)"
        )
    return failures


def run_all() -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    graph = benchmark_graph()
    stream = churn_stream(graph, NUM_UPDATES)
    maintained = run_maintained(stream)
    new_labels = run_maintained(
        churn_stream(graph, NUM_UPDATES, new_label_share=NEW_LABEL_SHARE)
    )
    baseline = run_rebuild_baseline(stream)
    return maintained, new_labels, baseline


# --------------------------------------------------------------------------- #
# pytest entry point
# --------------------------------------------------------------------------- #
def test_maintenance_stream_meets_speedup_target():
    maintained, new_labels, baseline = run_all()
    print()
    print(format_report(maintained, new_labels, baseline))
    failures = check_gates(maintained, new_labels, baseline)
    assert not failures, "; ".join(failures)


def main() -> int:
    maintained, new_labels, baseline = run_all()
    print(format_report(maintained, new_labels, baseline))
    failures = check_gates(maintained, new_labels, baseline)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    speedup = baseline["per_update"] / maintained["per_update"]
    print(f"OK: maintained updates {speedup:.1f}x faster than invalidate-and-rebuild")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
