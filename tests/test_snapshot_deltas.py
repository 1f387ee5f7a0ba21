"""Snapshot delta segments: incremental persistence of maintained indexes.

``save_index(format="snapshot")`` on a :class:`DynamicDegeneracyIndex` whose
base snapshot already lives in the target directory appends a ``delta-*``
segment instead of rewriting the base; ``load_snapshot`` replays the chain
and must be element-wise indistinguishable from a fresh full snapshot of the
same maintained index.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.exceptions import IndexConsistencyError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Side
from repro.index.degeneracy_index import DegeneracyIndex
from repro.index.maintenance import DynamicDegeneracyIndex
from repro.index.serialization import load_index, save_index
from repro.serving.snapshot import (
    SnapshotIndex,
    delta_paths,
    load_snapshot,
    snapshot_version,
)

from tests.reference import assert_same_level_arrays

def churn_graph(seed: int, labels: int = 11, edges: int = 55) -> BipartiteGraph:
    rng = random.Random(seed)
    return BipartiteGraph.from_edges(
        [
            (f"u{rng.randrange(labels)}", f"v{rng.randrange(labels)}", float(rng.randint(1, 9)))
            for _ in range(edges)
        ]
    )


def apply_churn(dynamic: DynamicDegeneracyIndex, rng: random.Random, updates: int, labels: int = 11) -> None:
    """Mixed inserts/removals/reweights over the *existing* label universe."""
    for _ in range(updates):
        roll = rng.random()
        if roll < 0.45 or dynamic.graph.num_edges < 5:
            dynamic.insert_edge(
                f"u{rng.randrange(labels)}", f"v{rng.randrange(labels)}", float(rng.randint(1, 9))
            )
        else:
            u, v, _ = rng.choice(sorted(dynamic.graph.edges(), key=repr))
            dynamic.remove_edge(u, v)


def all_queries(graph: BipartiteGraph, delta: int):
    delta = max(delta, 1)
    pairs = [(1, 1), (2, 2), (delta, delta), (2, 3), (3, 2), (1, delta), (delta, 1)]
    return [(vertex, a, b) for a, b in pairs for vertex in graph.vertices()]


def assert_same_answers(index_a, index_b, queries) -> None:
    answers_a = index_a.batch_community(queries, on_empty="none")
    answers_b = index_b.batch_community(queries, on_empty="none")
    assert len(answers_a) == len(answers_b)
    for (query, alpha, beta), got, want in zip(queries, answers_a, answers_b):
        assert (got is None) == (want is None), (query, alpha, beta)
        if got is not None:
            assert got.same_structure(want), (query, alpha, beta)


class TestDeltaRoundTrip:
    def test_second_save_appends_a_delta(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(0), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 0
        apply_churn(dynamic, random.Random(1), 10)
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 1
        assert (target / "delta-00001.json").is_file()
        assert (target / "delta-00001.bin").is_file()

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_replayed_chain_equals_fresh_rebuild(self, tmp_path, backend):
        dynamic = DynamicDegeneracyIndex(churn_graph(2), backend=backend)
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        rng = random.Random(7)
        for generation in range(3):
            apply_churn(dynamic, rng, 8)
            save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 3
        replayed = load_index(target)
        assert isinstance(replayed, SnapshotIndex)
        assert replayed.version == 3
        fresh = DegeneracyIndex(dynamic.graph, backend="dict")
        assert replayed.delta == fresh.delta
        queries = all_queries(dynamic.graph, fresh.delta)
        assert_same_answers(replayed, fresh, queries)
        for alpha in range(1, fresh.delta + 2):
            for beta in range(1, fresh.delta + 2):
                assert sorted(replayed.vertices_in_core(alpha, beta), key=repr) == sorted(
                    fresh.vertices_in_core(alpha, beta), key=repr
                )

    def test_replayed_chain_equals_fresh_full_snapshot(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(3), backend="dict")
        incremental_dir = tmp_path / "incremental"
        save_index(dynamic, incremental_dir, format="snapshot")
        apply_churn(dynamic, random.Random(9), 12)
        save_index(dynamic, incremental_dir, format="snapshot")
        full_dir = tmp_path / "full"
        fresh_full = save_index(
            DynamicDegeneracyIndex(dynamic.graph, backend="dict"), full_dir, format="snapshot"
        )
        replayed = load_snapshot(incremental_dir)
        full = load_snapshot(fresh_full)
        assert replayed.delta == full.delta
        assert replayed.graph.same_structure(full.graph)
        queries = all_queries(full.graph, full.delta)
        assert_same_answers(replayed, full, queries)

    def test_replayed_graph_matches_maintained_graph(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(4), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        apply_churn(dynamic, random.Random(11), 15)
        save_index(dynamic, target, format="snapshot")
        assert load_snapshot(target).graph.same_structure(dynamic.graph)

    def test_removed_vertex_raises_like_a_fresh_snapshot(self, tmp_path):
        graph = BipartiteGraph.from_edges(
            [("a", "x", 1), ("a", "y", 1), ("b", "x", 1), ("b", "y", 1), ("p", "q", 2)]
        )
        dynamic = DynamicDegeneracyIndex(graph, backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        dynamic.remove_edge("p", "q")  # p and q vanish from the graph
        save_index(dynamic, target, format="snapshot")
        replayed = load_snapshot(target)
        from repro.graph.bipartite import upper

        with pytest.raises(InvalidParameterError):
            replayed.community(upper("p"), 1, 1)
        assert all(v.label != "p" for v in replayed.vertices_in_core(1, 1))

    def test_new_vertex_falls_back_to_a_full_rewrite(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(5), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        apply_churn(dynamic, random.Random(2), 5)
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 1
        dynamic.insert_edge("brand-new-upper", "v0", 3.0)  # outside the base id space
        assert not dynamic.journal.compatible
        save_index(dynamic, target, format="snapshot")
        # the rewrite cleared the old chain and re-bound the journal
        assert snapshot_version(target) == 0
        assert dynamic.journal.compatible
        replayed = load_snapshot(target)
        fresh = DegeneracyIndex(dynamic.graph, backend="dict")
        assert_same_answers(replayed, fresh, all_queries(dynamic.graph, fresh.delta))

    def test_noop_save_appends_nothing(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(6), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 0


class TestFullSaveLevels:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_full_save_after_removals_and_new_labels_writes_fresh_levels(
        self, tmp_path, backend
    ):
        # Removals leave dead ids behind, a removed-then-re-added vertex keeps
        # its old id, and new labels grow the id space; the full save must
        # still write exactly the levels a fresh index of the graph has.
        dynamic = DynamicDegeneracyIndex(churn_graph(21), backend=backend)
        victim = sorted(dynamic.graph.upper_labels())[0]
        victim_edges = list(dynamic.graph.neighbors(Side.UPPER, victim).items())
        for lower_label, _ in victim_edges:
            dynamic.remove_edge(victim, lower_label)
        apply_churn(dynamic, random.Random(22), 8)
        dynamic.insert_edge("new-u", "v1", 4.0)
        dynamic.insert_edge("u2", "new-v", 2.0)
        lower_label, weight = victim_edges[0]
        dynamic.insert_edge(victim, lower_label, weight)
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        fresh = DegeneracyIndex(dynamic.graph, backend=backend)
        saved = load_snapshot(target)
        assert saved.delta == fresh.delta
        assert_same_level_arrays(saved.level_arrays(), fresh.export_level_arrays())
        # The index adopted the saved id space: later deltas replay onto it.
        apply_churn(dynamic, random.Random(23), 6)
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 1
        assert_same_answers(
            load_snapshot(target), dynamic, all_queries(dynamic.graph, dynamic.delta)
        )


    def test_export_between_saves_forces_a_full_rewrite(self, tmp_path):
        # A manual export re-keys the id space (dropping the removed vertex's
        # id), so pending dirty ids no longer name base ids: the next save
        # must rewrite the base instead of appending a delta.
        dynamic = DynamicDegeneracyIndex(churn_graph(24), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        victim = sorted(dynamic.graph.upper_labels())[0]
        for lower_label in list(dynamic.graph.neighbors(Side.UPPER, victim)):
            dynamic.remove_edge(victim, lower_label)
        apply_churn(dynamic, random.Random(25), 4)
        dynamic.export_level_arrays()
        save_index(dynamic, target, format="snapshot")
        assert snapshot_version(target) == 0
        assert_same_answers(
            load_snapshot(target), dynamic, all_queries(dynamic.graph, dynamic.delta)
        )


class TestFromSnapshot:
    def test_round_trip_through_from_snapshot(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(7), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        apply_churn(dynamic, random.Random(3), 10)
        save_index(dynamic, target, format="snapshot")
        reopened = DynamicDegeneracyIndex.from_snapshot(load_snapshot(target))
        fresh = DegeneracyIndex(dynamic.graph, backend="dict")
        assert reopened.delta == fresh.delta
        assert reopened.graph.same_structure(dynamic.graph)
        assert_same_answers(reopened, fresh, all_queries(dynamic.graph, fresh.delta))

    def test_from_snapshot_appends_to_the_same_base(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(8), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        apply_churn(dynamic, random.Random(4), 6)
        save_index(dynamic, target, format="snapshot")
        reopened = DynamicDegeneracyIndex.from_snapshot(load_snapshot(target))
        apply_churn(reopened, random.Random(5), 6)
        save_index(reopened, target, format="snapshot")
        assert snapshot_version(target) == 2
        replayed = load_snapshot(target)
        fresh = DegeneracyIndex(reopened.graph, backend="dict")
        assert_same_answers(replayed, fresh, all_queries(reopened.graph, fresh.delta))

    def test_maintained_updates_keep_working_after_reopen(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(9), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        reopened = DynamicDegeneracyIndex.from_snapshot(load_snapshot(target))
        rng = random.Random(6)
        working = reopened.graph.copy()
        for _ in range(10):
            if rng.random() < 0.5 or working.num_edges < 5:
                u, v = f"u{rng.randrange(11)}", f"v{rng.randrange(11)}"
                w = float(rng.randint(1, 9))
                reopened.insert_edge(u, v, w)
                working.add_edge(u, v, w)
            else:
                u, v, _ = rng.choice(sorted(working.edges(), key=repr))
                reopened.remove_edge(u, v)
                working.remove_edge(u, v)
                working.discard_isolated()
            fresh = DegeneracyIndex(working, backend="dict")
            assert reopened.delta == fresh.delta
            assert_same_answers(reopened, fresh, all_queries(working, fresh.delta))


class TestCorruption:
    def _saved_chain(self, tmp_path, generations: int = 2):
        dynamic = DynamicDegeneracyIndex(churn_graph(10), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        rng = random.Random(8)
        for _ in range(generations):
            apply_churn(dynamic, rng, 6)
            save_index(dynamic, target, format="snapshot")
        return target

    def test_missing_chain_link_names_the_path(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=2)
        (target / "delta-00001.json").unlink()
        with pytest.raises(IndexConsistencyError, match="delta-00001.json"):
            load_snapshot(target)

    def test_corrupt_delta_manifest_names_the_path(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=1)
        (target / "delta-00001.json").write_text("{ not json", encoding="utf-8")
        with pytest.raises(IndexConsistencyError, match="delta-00001.json"):
            load_snapshot(target)

    def test_truncated_delta_data_raises(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=1)
        data = target / "delta-00001.bin"
        data.write_bytes(data.read_bytes()[: max(data.stat().st_size // 2, 1)])
        with pytest.raises(IndexConsistencyError):
            load_snapshot(target)

    def test_missing_delta_data_raises(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=1)
        (target / "delta-00001.bin").unlink()
        with pytest.raises(IndexConsistencyError, match="delta-00001.bin"):
            load_snapshot(target)

    def test_foreign_delta_raises(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=1)
        manifest = json.loads((target / "delta-00001.json").read_text(encoding="utf-8"))
        manifest["base_id"] = "not-the-base"
        (target / "delta-00001.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexConsistencyError, match="different base"):
            load_snapshot(target)

    def test_wrong_sequence_number_raises(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=1)
        manifest = json.loads((target / "delta-00001.json").read_text(encoding="utf-8"))
        manifest["sequence"] = 7
        (target / "delta-00001.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexConsistencyError, match="sequence"):
            load_snapshot(target)

    def test_delta_paths_rejects_gaps(self, tmp_path):
        target = self._saved_chain(tmp_path, generations=2)
        assert len(delta_paths(target)) == 2
        (target / "delta-00001.json").rename(target / "delta-00009.json")
        with pytest.raises(IndexConsistencyError):
            delta_paths(target)


class TestTornWrites:
    """The crash-safe segment writer: torn writes never corrupt a reader."""

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        import numpy as np

        from repro.serving.snapshot import _write_segment_file

        class Boom(RuntimeError):
            pass

        def items():
            yield "ok", np.arange(8, dtype=np.int64)
            raise Boom("process died mid-save")

        target = tmp_path / "arrays.bin"
        with pytest.raises(Boom):
            _write_segment_file(target, items())
        # Neither a torn final file nor a stale staging file survives.
        assert not target.exists()
        assert not target.with_name("arrays.bin.tmp").exists()

    def test_orphan_tmp_file_is_ignored_by_readers(self, tmp_path):
        dynamic = DynamicDegeneracyIndex(churn_graph(17), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        apply_churn(dynamic, random.Random(18), 6)
        save_index(dynamic, target, format="snapshot")
        # A crash between staging and rename leaves only a `.tmp` sibling.
        (target / "delta-00002.bin.tmp").write_bytes(b"\0" * 64)
        assert snapshot_version(target) == 1
        reopened = load_snapshot(target)
        assert reopened.version == 1
        assert_same_answers(reopened, dynamic, all_queries(dynamic.graph, dynamic.delta))

    def test_orphan_data_without_manifest_is_ignored(self, tmp_path):
        # The delta writer renames `delta-N.bin` into place before writing
        # `delta-N.json`; dying in between leaves data with no manifest, which
        # readers must treat as if the segment was never appended.
        dynamic = DynamicDegeneracyIndex(churn_graph(19), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        apply_churn(dynamic, random.Random(20), 6)
        save_index(dynamic, target, format="snapshot")
        data = (target / "delta-00001.bin").read_bytes()
        (target / "delta-00002.bin").write_bytes(data)
        assert snapshot_version(target) == 1
        assert load_snapshot(target).version == 1

    def test_fresh_save_over_torn_base_recovers(self, tmp_path):
        # A base save that died mid-write leaves `.tmp` staging and stale
        # generation files; a retried full save must produce a clean snapshot.
        target = tmp_path / "snap"
        target.mkdir()
        (target / "arrays.bin.tmp").write_bytes(b"\0" * 32)
        (target / "arrays-deadbeef0000.bin").write_bytes(b"junk")
        dynamic = DynamicDegeneracyIndex(churn_graph(23), backend="dict")
        save_index(dynamic, target, format="snapshot")
        ok = load_snapshot(target)
        assert ok.version == 0
        assert ok.graph.same_structure(dynamic.graph)
        assert not (target / "arrays.bin.tmp").exists()
        assert not (target / "arrays-deadbeef0000.bin").exists()


class TestServingReload:
    def test_reload_swaps_workers_onto_new_version(self, tmp_path):
        from repro.serving.server import CommunityServer

        dynamic = DynamicDegeneracyIndex(churn_graph(12, labels=14, edges=80), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        queries = [(v, 2, 2) for v in dynamic.vertices_in_core(2, 2)[:8]]
        if not queries:
            pytest.skip("graph has no (2,2)-core")
        with CommunityServer(target, num_workers=2) as server:
            assert server.snapshot_version() == 0
            server.batch_community(queries, on_empty="none")
            apply_churn(dynamic, random.Random(13), 12, labels=14)
            save_index(dynamic, target, format="snapshot")
            server.reload()
            assert server.snapshot_version() == 1
            served = server.batch_community(queries, on_empty="none")
            expected = dynamic.batch_community(queries, on_empty="none")
            for got, want in zip(served, expected):
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.same_structure(want)

    def test_reload_on_a_stopped_server_stays_stopped(self, tmp_path):
        from repro.serving.server import CommunityServer

        dynamic = DynamicDegeneracyIndex(churn_graph(14), backend="dict")
        target = tmp_path / "snap"
        save_index(dynamic, target, format="snapshot")
        server = CommunityServer(target, num_workers=1)
        server.reload()
        assert not server.is_running
