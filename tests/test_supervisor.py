"""Tests for worker supervision, snapshot watching and reload consistency."""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time

import pytest

from repro.exceptions import ServingError
from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

from tests.conftest import wait_for_exit

#: Kill tests bound every batch: a wedged gather fails with a ServingError
#: instead of hanging the suite.
BATCH_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def supervisor_graph():
    return power_law_bipartite(80, 70, 600, seed=13, name="supervisor-test")


@pytest.fixture(scope="module")
def supervisor_index(supervisor_graph):
    return DegeneracyIndex(supervisor_graph, backend="csr")


@pytest.fixture()
def snapshot_dir(tmp_path, supervisor_index):
    """A fresh snapshot per test: several tests mutate it (deltas/compaction)."""
    from repro.serving.snapshot import save_snapshot

    return save_snapshot(supervisor_index, tmp_path / "snap")


@pytest.fixture(scope="module")
def mixed_queries(supervisor_index):
    queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:20]]
    queries += [(q, 3, 3) for q in supervisor_index.vertices_in_core(3, 3)[:10]]
    assert len(queries) >= 10
    return queries


@pytest.fixture(scope="module")
def expected(supervisor_index, mixed_queries):
    return supervisor_index.batch_community(mixed_queries, on_empty="none")


def _assert_matches(answers, expected):
    assert len(answers) == len(expected)
    for answer, want in zip(answers, expected):
        assert (answer is None) == (want is None)
        if want is not None:
            assert answer.same_structure(want)


def _append_delta(snapshot_dir):
    """Reweight an existing edge: stays in the base id space, so saving
    appends a true delta segment (a new vertex would force a rewrite)."""
    from repro.index.maintenance import DynamicDegeneracyIndex
    from repro.index.serialization import save_index
    from repro.serving.snapshot import load_snapshot, snapshot_version

    before = snapshot_version(snapshot_dir)
    dynamic = DynamicDegeneracyIndex.from_snapshot(load_snapshot(snapshot_dir))
    upper, lower, weight = next(iter(dynamic.graph.edges()))
    dynamic.insert_edge(upper, lower, weight + 1.0)
    save_index(dynamic, snapshot_dir, format="snapshot")
    assert snapshot_version(snapshot_dir) == before + 1


class TestSupervisedServer:
    def test_respawns_after_idle_kill_and_answers_match(
        self, snapshot_dir, mixed_queries, expected
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(
            snapshot_dir, num_workers=2, batch_timeout=BATCH_TIMEOUT
        ) as server:
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            wait_for_exit(victim)
            answers = server.batch_community(mixed_queries, on_empty="none")
            assert server.respawns >= 1
            _assert_matches(answers, expected)
            assert len(server.worker_pids()) == 2
            assert victim not in server.worker_pids()

    def test_respawns_after_mid_batch_kill(
        self, snapshot_dir, mixed_queries, expected
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(
            snapshot_dir, num_workers=2, batch_timeout=BATCH_TIMEOUT
        ) as server:
            server.batch_community(mixed_queries[:2], on_empty="none")  # warm

            def killer():
                time.sleep(0.005)
                pids = server.worker_pids()
                if pids:
                    try:
                        os.kill(pids[-1], signal.SIGKILL)
                    except ProcessLookupError:
                        pass

            thread = threading.Thread(target=killer)
            thread.start()
            answers = server.batch_community(mixed_queries * 5, on_empty="none")
            thread.join()
            _assert_matches(answers, expected * 5)

    def test_crash_budget_surfaces_single_typed_error(
        self, snapshot_dir, mixed_queries
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        server = SupervisedCommunityServer(
            snapshot_dir,
            num_workers=1,
            max_respawns_per_batch=0,
            batch_timeout=BATCH_TIMEOUT,
        )
        try:
            server.start()
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            wait_for_exit(victim)
            with pytest.raises(ServingError, match="kept crashing"):
                server.batch_community(mixed_queries[:4], on_empty="none")
            assert not server.is_running
        finally:
            server.stop()

    def test_ensure_workers_heals_idle_deaths(self, snapshot_dir, mixed_queries):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(
            snapshot_dir, num_workers=2, batch_timeout=BATCH_TIMEOUT
        ) as server:
            assert server.ensure_workers() == 0  # nothing to do
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            wait_for_exit(victim)
            assert server.ensure_workers() == 1
            assert len(server.worker_pids()) == 2
            answers = server.batch_community(mixed_queries[:5], on_empty="none")
            assert len(answers) == 5

    def test_reload_waits_for_inflight_batch(
        self, snapshot_dir, mixed_queries, expected
    ):
        """Regression: reload() must drain a running batch, not drop shards."""
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(snapshot_dir, num_workers=2) as server:
            server.batch_community(mixed_queries[:2], on_empty="none")  # warm
            results = {}

            def run_batch():
                results["answers"] = server.batch_community(
                    mixed_queries * 5, on_empty="none"
                )

            thread = threading.Thread(target=run_batch)
            thread.start()
            time.sleep(0.005)  # let the batch take the fleet lock
            server.reload()
            thread.join()
            _assert_matches(results["answers"], expected * 5)


def _tearing_worker_main(flag_path):
    """A ``worker_main`` whose first result message is torn mid-frame.

    The first worker to claim ``flag_path`` wraps its result pipe so that the
    first ``"result"`` message writes a length header promising the whole
    pickled frame, then only half of the frame, then SIGKILLs its own
    process.  Every other worker (respawns included) behaves normally.
    """
    from repro.serving.worker import worker_main

    class TearingPipe:
        def __init__(self, conn):
            self._conn = conn

        def send(self, message):
            if message[0] == "result":
                frame = pickle.dumps(message)
                torn = struct.pack("!i", len(frame)) + frame[: len(frame) // 2]
                os.write(self._conn.fileno(), torn)
                os.kill(os.getpid(), signal.SIGKILL)
            self._conn.send(message)

    def main(snapshot_dir, tasks, results, cache_entries=0):
        try:
            os.close(os.open(flag_path, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return worker_main(snapshot_dir, tasks, results, cache_entries)
        return worker_main(snapshot_dir, tasks, TearingPipe(results), cache_entries)

    return main


@pytest.fixture()
def tearing_workers(monkeypatch, tmp_path):
    """Fork workers through :func:`_tearing_worker_main`; yields the flag path."""
    import multiprocessing

    import repro.serving.server as server_module

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork so workers inherit the patched worker entry")
    flag = tmp_path / "torn"
    monkeypatch.setattr(server_module, "worker_main", _tearing_worker_main(str(flag)))
    return flag


class TestTornResultFrame:
    """A worker killed halfway through writing a result frame.

    Its private result pipe ends mid-message.  The server must read that as
    the worker's death — not block forever in the frame read — whether the
    fleet is supervised or not.
    """

    def test_supervised_server_respawns_and_answers(
        self, snapshot_dir, mixed_queries, expected, tearing_workers
    ):
        from repro.serving.supervisor import SupervisedCommunityServer

        with SupervisedCommunityServer(
            snapshot_dir,
            num_workers=2,
            start_method="fork",
            batch_timeout=BATCH_TIMEOUT,
        ) as server:
            answers = server.batch_community(mixed_queries, on_empty="none")
            assert tearing_workers.exists()
            assert server.respawns == 1
            _assert_matches(answers, expected)

    def test_unsupervised_server_fails_fast(
        self, snapshot_dir, mixed_queries, tearing_workers
    ):
        from repro.serving.server import CommunityServer

        server = CommunityServer(
            snapshot_dir,
            num_workers=2,
            start_method="fork",
            batch_timeout=BATCH_TIMEOUT,
        )
        try:
            started = time.monotonic()
            with pytest.raises(ServingError, match="died while serving"):
                server.batch_community(mixed_queries, on_empty="none")
            assert time.monotonic() - started < BATCH_TIMEOUT / 2
            assert tearing_workers.exists()
            assert not server.is_running
        finally:
            server.stop()


class TestReloadUnderTraffic:
    """The front end auto-reloads on snapshot changes without wrong answers."""

    def _edge_sets(self, snapshot_dir, queries):
        from repro.serving.snapshot import load_snapshot

        answers = load_snapshot(snapshot_dir).batch_community(
            queries, on_empty="none"
        )
        return [
            None
            if answer is None
            else {(u, v, float(w)) for u, v, w in answer.edges()}
            for answer in answers
        ]

    def _stream(self, frontend, queries, stop, replies, slot):
        from repro.serving.frontend import FrontendClient

        with FrontendClient(frontend.host, frontend.port, timeout=60.0) as client:
            while not stop.is_set():
                for position, (vertex, alpha, beta) in enumerate(queries):
                    side = "upper" if vertex.side.name == "UPPER" else "lower"
                    reply = client.community(
                        vertex.label, alpha, beta, side=side, edges=True
                    )
                    assert reply["ok"], reply
                    replies[slot].append((position, reply))

    def _wait_for_reload(self, frontend, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while frontend.reloads < 1:
            assert time.monotonic() < deadline, "front end never detected the swap"
            time.sleep(0.05)

    def test_streams_identical_across_autodetected_compaction(
        self, snapshot_dir, supervisor_index
    ):
        """Compaction folds deltas without changing answers: every reply of a
        stream crossing the swap must be element-wise identical to the
        sequential batch, and the front end must notice the swap by itself."""
        from repro.serving.compaction import compact_snapshot
        from repro.serving.frontend import ServingFrontend

        _append_delta(snapshot_dir)
        queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:6]]
        expected = self._edge_sets(snapshot_dir, queries)
        replies = [[], []]
        stop = threading.Event()
        with ServingFrontend(
            snapshot_dir, num_workers=2, cache_entries=128, watch_interval=0.05
        ) as frontend:
            threads = [
                threading.Thread(
                    target=self._stream,
                    args=(frontend, queries, stop, replies, slot),
                )
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            report = compact_snapshot(snapshot_dir)
            assert report.compacted
            self._wait_for_reload(frontend)
            time.sleep(0.3)  # keep streaming on the new generation
            stop.set()
            for thread in threads:
                thread.join()
            assert frontend.reloads >= 1
            cache_generation = (
                None if frontend.cache is None else frontend.cache.generation
            )
        assert cache_generation is not None
        assert cache_generation[0] == report.snapshot_id
        total = 0
        for slot in range(2):
            for position, reply in replies[slot]:
                want = expected[position]
                assert reply["found"] == (want is not None)
                if want is not None:
                    got = {(u, v, float(w)) for u, v, w in reply["edges"]}
                    assert got == want, "answer changed across a compaction swap"
                total += 1
        assert total > 0

    def test_no_stale_cache_hits_after_content_change(
        self, snapshot_dir, supervisor_index
    ):
        """A delta that reweights an edge changes answers: once the front end
        reloads, cached pre-swap answers must never surface again."""
        from repro.serving.frontend import ServingFrontend

        queries = [(q, 2, 2) for q in supervisor_index.vertices_in_core(2, 2)[:6]]
        pre = self._edge_sets(snapshot_dir, queries)
        replies = [[], []]
        stop = threading.Event()
        with ServingFrontend(
            snapshot_dir, num_workers=2, cache_entries=128, watch_interval=0.05
        ) as frontend:
            threads = [
                threading.Thread(
                    target=self._stream,
                    args=(frontend, queries, stop, replies, slot),
                )
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            _append_delta(snapshot_dir)
            post = self._edge_sets(snapshot_dir, queries)
            self._wait_for_reload(frontend)
            time.sleep(0.3)  # post-swap traffic, including cache hits
            stop.set()
            for thread in threads:
                thread.join()
        assert pre != post, "the reweight delta should have changed some answer"
        post_seen = 0
        for slot in range(2):
            seen_post = False
            for position, reply in replies[slot]:
                got = (
                    {(u, v, float(w)) for u, v, w in reply["edges"]}
                    if reply["found"]
                    else None
                )
                if got == pre[position] and pre[position] == post[position]:
                    continue  # this query's answer is version-independent
                if got == post[position]:
                    seen_post = True
                    post_seen += 1
                    continue
                assert got == pre[position], "reply matches neither version"
                # a pre-swap answer after a post-swap one is a stale cache hit
                assert not seen_post, "stale pre-swap answer served after reload"
        assert post_seen > 0, "no reply ever reflected the new snapshot version"


class TestGenerationFence:
    """The front end names the version its workers loaded, not a later one."""

    def _frontend(self, snapshot_dir):
        from repro.serving.frontend import ServingFrontend

        return ServingFrontend(
            snapshot_dir, num_workers=2, cache_entries=16, watch_interval=0
        )

    def test_generation_comes_from_the_workers(self, snapshot_dir, monkeypatch):
        from repro.serving.snapshot import load_snapshot, snapshot_version
        from repro.serving.supervisor import SnapshotWatcher

        frontend = self._frontend(snapshot_dir)
        fleet = frontend.fleet
        try:
            fleet.start()
            frontend._sync_fleet(reload=False)
            frontend._watcher = SnapshotWatcher(snapshot_dir)
            _append_delta(snapshot_dir)  # version 1: the tick reloads onto it
            real_reload = fleet.reload

            def reload_then_publish():
                real_reload()
                monkeypatch.setattr(fleet, "reload", real_reload)
                _append_delta(snapshot_dir)  # version 2 lands after the load

            monkeypatch.setattr(fleet, "reload", reload_then_publish)
            assert frontend._watch_tick()
            snapshot_id = load_snapshot(snapshot_dir).snapshot_id
            assert snapshot_version(snapshot_dir) == 2
            assert fleet.loaded_generation() == (snapshot_id, 1)
            assert frontend._meta.generation == (snapshot_id, 1)
            # The next tick sees version 2 and moves the whole fleet onto it.
            assert frontend._watch_tick()
            assert frontend._meta.generation == (snapshot_id, 2)
        finally:
            fleet.stop()

    def test_a_split_fleet_reloads_again(self, snapshot_dir, monkeypatch):
        frontend = self._frontend(snapshot_dir)
        fleet = frontend.fleet
        real_generation = fleet.loaded_generation
        real_reload = fleet.reload
        answers = [None]  # the first report: workers on different versions
        reloads = []

        def generation():
            return answers.pop() if answers else real_generation()

        def counted_reload():
            reloads.append(True)
            return real_reload()

        monkeypatch.setattr(fleet, "loaded_generation", generation)
        monkeypatch.setattr(fleet, "reload", counted_reload)
        try:
            fleet.start()
            frontend._sync_fleet(reload=False)
            assert len(reloads) == 1
            assert frontend._meta.generation == real_generation()
        finally:
            fleet.stop()


class TestSnapshotWatcher:
    def test_no_change_no_trigger(self, snapshot_dir):
        from repro.serving.supervisor import SnapshotWatcher

        watcher = SnapshotWatcher(snapshot_dir)
        assert watcher.poll() is False
        assert watcher.poll() is False

    def test_delta_append_trips_the_watcher(self, snapshot_dir):
        from repro.serving.supervisor import SnapshotWatcher

        watcher = SnapshotWatcher(snapshot_dir)
        _append_delta(snapshot_dir)
        assert watcher.poll() is True
        assert watcher.poll() is False  # edge-triggered, not level-triggered

    def test_compaction_trips_the_watcher(self, snapshot_dir):
        from repro.serving.compaction import compact_snapshot
        from repro.serving.supervisor import SnapshotWatcher

        _append_delta(snapshot_dir)
        watcher = SnapshotWatcher(snapshot_dir)
        report = compact_snapshot(snapshot_dir)
        assert report.compacted
        assert watcher.poll() is True
        assert watcher.poll() is False

    def test_missing_manifest_is_no_change(self, tmp_path):
        from repro.serving.supervisor import SnapshotWatcher

        watcher = SnapshotWatcher(tmp_path / "does-not-exist")
        assert watcher.signature is None
        assert watcher.poll() is False
