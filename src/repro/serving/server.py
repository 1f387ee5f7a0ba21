"""The multi-process community server.

:class:`CommunityServer` turns one snapshot directory into a query-serving
fleet: N worker processes each reopen the snapshot read-only (one set of
physical pages, shared by the OS), the driving process shards every batch of
``(query, alpha, beta)`` triples across a task queue, and the shard results
are reassembled in input order so the caller sees exactly what the
single-process batch APIs return — including the ``on_empty`` policy and the
position at which a ``"raise"`` policy fires.

The server process itself never opens the snapshot, so standing up a server
is as cheap as forking the workers; all index state lives behind the mmap.

Typical use::

    from repro.serving import CommunityServer

    with CommunityServer("snapshots/movies", num_workers=4) as server:
        answers = server.batch_community(stream, on_empty="none")

or, from a built index, ``CommunitySearcher.serve()``.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro.exceptions as exceptions
from repro.exceptions import EmptyCommunityError, ReproError, ServingError
from repro.graph.bipartite import BipartiteGraph
from repro.index.base import BatchQuery, check_on_empty
from repro.search.result import SearchResult
from repro.serving.snapshot import MANIFEST_NAME
from repro.serving.wire import DeferredCommunity
from repro.serving.worker import worker_main

_logger = logging.getLogger(__name__)

__all__ = ["CommunityServer"]

PathLike = Union[str, Path]

#: How long to wait for the workers to map their snapshots before giving up.
_STARTUP_TIMEOUT = 120.0


def _rebuild_error(info: Tuple[str, str, str]) -> ReproError:
    """Re-raise a worker-side failure as its original library exception.

    Only single-message exceptions from :mod:`repro.exceptions` are
    reconstructed exactly; anything else (or an exception whose constructor
    needs structured arguments) degrades to :class:`ServingError` carrying the
    original type and message.
    """
    module, name, message = info
    if module == exceptions.__name__:
        cls = getattr(exceptions, name, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            try:
                return cls(message)
            except TypeError:
                pass
    return ServingError(f"worker failed with {module}.{name}: {message}")


class CommunityServer:
    """Shard batch community queries across worker processes over one snapshot.

    Parameters
    ----------
    snapshot:
        The snapshot directory to serve (as written by
        :func:`repro.serving.snapshot.save_snapshot`), or a
        :class:`~repro.serving.snapshot.SnapshotIndex` already opened from one.
    num_workers:
        Worker process count; defaults to the machine's CPU count capped at 8.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (workers then inherit the imported library for free) and
        ``"spawn"`` otherwise.
    shards_per_worker:
        Each batch is split into ``num_workers * shards_per_worker`` chunks,
        assigned round-robin across the workers' private task queues (several
        small shards per worker approximate the balance a shared work queue
        would give; *private* queues are what makes supervision possible — a
        worker SIGKILLed while blocked on a shared queue's read lock would
        wedge every other reader forever, whereas an abandoned private queue
        hurts nobody).  Results come back the same way, over one private
        pipe per worker: a worker killed mid-write tears only its own pipe,
        which the server reads as that worker's death.
    cleanup_snapshot:
        Remove the snapshot directory when the server stops.  Set by
        :meth:`CommunitySearcher.serve` for the temporary snapshots it writes.
    batch_timeout:
        Seconds to wait for the next shard result of a running batch before
        giving up (and stopping the fleet).  ``None`` — the default — waits
        indefinitely: worker *crashes* are still detected promptly via their
        exit codes, so the timeout only matters as a guard against a wedged
        (alive but silent) worker.
    cache_entries:
        When > 0, every worker keeps a cross-batch
        :class:`~repro.serving.answer_cache.AnswerCache` of this capacity
        (in components) instead of dropping its memoised answers after each
        batch.  Workers reopen the snapshot on :meth:`reload`, so the cache
        is implicitly invalidated on every version swap.

    Thread safety: batches, :meth:`reload` and :meth:`stop` serialise on one
    re-entrant fleet lock, so a reload requested while a batch is in flight
    *drains* the batch first instead of tearing the workers down under it.
    """

    def __init__(
        self,
        snapshot: Union[PathLike, "object"],
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        shards_per_worker: int = 4,
        cleanup_snapshot: bool = False,
        batch_timeout: Optional[float] = None,
        cache_entries: int = 0,
    ) -> None:
        directory = getattr(snapshot, "directory", snapshot)
        self._snapshot_dir = Path(directory)
        if num_workers is None:
            num_workers = max(1, min(8, multiprocessing.cpu_count()))
        if num_workers < 1:
            raise ServingError(f"num_workers must be >= 1, got {num_workers}")
        if shards_per_worker < 1:
            raise ServingError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        if cache_entries < 0:
            raise ServingError(f"cache_entries must be >= 0, got {cache_entries}")
        self._num_workers = num_workers
        self._start_method = start_method
        self._shards_per_worker = shards_per_worker
        self._cleanup_snapshot = cleanup_snapshot
        self._batch_timeout = batch_timeout
        self._cache_entries = cache_entries
        self._processes: List[multiprocessing.Process] = []
        # One private task queue and result pipe per worker, aligned with
        # _processes.
        self._task_queues: List = []
        self._result_readers: List[multiprocessing.connection.Connection] = []
        self._context = None
        self._batch_seq = 0
        self._spawned = 0
        self._labels = None
        # pid -> (snapshot_id, version) from each worker's "ready" message
        self._generations: Dict[int, Tuple[str, int]] = {}
        # Serialises batches against fleet swaps (reload/stop): see class
        # docstring.  Re-entrant because error paths inside a batch stop the
        # fleet while the batch still holds the lock.
        self._fleet_lock = threading.RLock()
        # State of the batch currently holding the fleet lock, for subclasses
        # that respawn workers mid-batch and must reship lost shards:
        # (batch_id, kind, queries, options, bounds, pending shard-id set).
        self._inflight: Optional[Tuple] = None
        self._batch_crashes = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def snapshot_dir(self) -> Path:
        return self._snapshot_dir

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def is_running(self) -> bool:
        return bool(self._processes)

    @property
    def fleet_lock(self) -> "threading.RLock":
        """The re-entrant lock serialising batches against fleet swaps.

        Exposed so a driver can make a *group* of fleet operations atomic
        with respect to :meth:`reload` — e.g. the network front end runs
        "batch + read snapshot metadata" under one acquisition so an answer
        can never be paired with the metadata of a different version.
        """
        return self._fleet_lock

    def start(self) -> "CommunityServer":
        """Fork the workers and wait until every one has mapped the snapshot.

        Idempotent: calling :meth:`start` on a running server is a no-op.  The
        batch methods call it automatically, so explicit use only matters when
        the fork-and-mmap cost should be paid ahead of the first batch.
        """
        with self._fleet_lock:
            if self._processes:
                return self
            if not (self._snapshot_dir / MANIFEST_NAME).is_file():
                raise ServingError(
                    f"{self._snapshot_dir} is not a community-index snapshot "
                    f"(no {MANIFEST_NAME}); write one with save_snapshot() first"
                )
            method = self._start_method
            if method is None:
                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
            self._context = multiprocessing.get_context(method)
            self._batch_crashes = 0
            try:
                for _ in range(self._num_workers):
                    tasks, reader, process = self._spawn_worker()
                    self._task_queues.append(tasks)
                    self._result_readers.append(reader)
                    self._processes.append(process)
                ready = 0
                while ready < self._num_workers:
                    message = self._next_message(_STARTUP_TIMEOUT)
                    if message[0] == "ready":
                        self._note_ready(message)
                        ready += 1
                    elif message[0] == "fatal":
                        raise _rebuild_error(message[2])
            except BaseException:
                self.stop(_cleanup=False)
                raise
            return self

    def _spawn_worker(
        self,
    ) -> Tuple[object, multiprocessing.connection.Connection, multiprocessing.Process]:
        """Fork one worker with a fresh private task queue and result pipe.

        Returns the task queue, the read end of the result pipe and the
        process.  The server drops its copy of the write end at once, so the
        worker holds the only one: when the worker dies, the read end sees
        EOF.
        """
        self._spawned += 1
        tasks = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker_main,
            args=(
                str(self._snapshot_dir),
                tasks,
                writer,
                self._cache_entries,
            ),
            daemon=True,
            name=f"repro-serve-{self._spawned}",
        )
        try:
            process.start()
        finally:
            writer.close()
        return tasks, reader, process

    def _note_ready(self, message: Tuple[object, ...]) -> None:
        """Record the ``(snapshot_id, version)`` a worker reported loading."""
        self._generations[message[1]] = tuple(message[2])

    def loaded_generation(self) -> Optional[Tuple[str, int]]:
        """The ``(snapshot_id, version)`` every live worker reported loading.

        ``None`` when the workers loaded different versions (a writer
        published between their loads) or one has not reported yet.
        """
        with self._fleet_lock:
            seen = {self._generations.get(pid) for pid in self.worker_pids()}
        if len(seen) != 1 or None in seen:
            return None
        return seen.pop()

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (empty when stopped)."""
        return [p.pid for p in self._processes if p.pid is not None]

    def stop(self, _cleanup: bool = True) -> None:
        """Stop the workers; optionally remove an owned snapshot directory.

        Waits for an in-flight batch on another thread to drain first (the
        fleet lock), so callers never lose shard results to a shutdown.
        """
        with self._fleet_lock:
            self._stop_locked()
        if _cleanup and self._cleanup_snapshot:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._cleanup_snapshot = False

    def _stop_locked(self) -> None:
        self._generations = {}
        if self._processes:
            for tasks in self._task_queues:
                try:
                    tasks.put(None)
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    continue
            # Nothing is read any more: a worker still writing a result gets
            # a broken pipe and exits instead of blocking on a full pipe.
            for reader in self._result_readers:
                reader.close()
            self._result_readers = []
            # process.ident is None for workers that never started (a partial
            # startup failure); joining those would raise and mask the cause.
            for process in self._processes:
                if process.ident is not None:
                    process.join(timeout=5.0)
            for process in self._processes:
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
            self._processes = []
            for tasks in self._task_queues:
                tasks.cancel_join_thread()
                tasks.close()
            self._task_queues = []

    def reload(self) -> "CommunityServer":
        """Swap the workers onto the snapshot directory's current version.

        A maintained index persisted with ``save_index(format="snapshot")``
        appends delta segments next to the base the fleet is serving from;
        ``reload`` restarts the workers so every one reopens the snapshot and
        replays the new deltas.  The swap takes the fleet lock, so a batch in
        flight on another thread drains completely before the workers go
        down — no shard results are dropped — and the next batch runs on the
        new version.  A server that was not running is left stopped.
        Returns ``self``.
        """
        with self._fleet_lock:
            was_running = self.is_running
            self._stop_locked()
            self._labels = None
            if was_running:
                self.start()
        return self

    def snapshot_version(self) -> int:
        """The served snapshot's version (number of delta segments)."""
        from repro.serving.snapshot import snapshot_version

        return snapshot_version(self._snapshot_dir)

    def __enter__(self) -> "CommunityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.stop()
        except (OSError, ValueError, RuntimeError, AttributeError) as exc:
            # Interpreter teardown can leave queues/processes half-collected;
            # those specific failures are expected here, but never silent.
            _logger.debug("CommunityServer.__del__ stop failed: %r", exc)

    # ------------------------------------------------------------------ #
    # batch serving
    # ------------------------------------------------------------------ #
    def batch_community(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "raise",
    ) -> List[Optional[BipartiteGraph]]:
        """Sharded :meth:`CommunityIndex.batch_community` over the workers.

        Results come back in input order and are element-wise identical to a
        single-process batch over the same snapshot; ``on_empty`` follows the
        library-wide policy (``"raise"`` | ``"none"`` | ``"skip"``).  Answers
        are :class:`~repro.serving.wire.DeferredCommunity` graphs: fully
        functional ``BipartiteGraph`` objects whose adjacency dicts are
        assembled from the compact wire arrays only when first accessed, so
        a driver that forwards answers does not pay materialisation.
        """
        check_on_empty(on_empty)
        queries = list(queries)
        wire = self._scatter_gather("community", queries, {})
        labels = self._label_arrays()
        answers: List[Optional[BipartiteGraph]] = [
            None
            if edges is None
            else DeferredCommunity(
                edges, labels, name=f"C({alpha},{beta})[{query.label!r}]"
            )
            for (query, alpha, beta), edges in zip(queries, wire)
        ]
        return self._apply_policy(queries, answers, on_empty)

    def batch_significant_communities(
        self,
        queries: Iterable[BatchQuery],
        method: str = "auto",
        epsilon: float = 2.0,
        on_empty: str = "raise",
    ) -> List[Optional[SearchResult]]:
        """Sharded two-step search: retrieval plus per-query extraction.

        Step 2 (peel / expand / binary) runs inside the workers too — over
        the raw wire edge arrays, so a worker never materialises a dict graph
        per community and answers cross the process boundary as flat buffer
        copies.  The driver wraps each answer's arrays in a lazy
        :class:`~repro.serving.wire.DeferredCommunity`; results match
        :meth:`CommunitySearcher.batch_significant_communities` element-wise
        (``"baseline"`` answers, which are inherently graph-based, arrive
        materialised as before).
        """
        check_on_empty(on_empty)
        queries = list(queries)
        answers = self._scatter_gather(
            "significant", queries, {"method": method, "epsilon": epsilon}
        )
        results: List[Optional[SearchResult]] = []
        for (query, alpha, beta), item in zip(queries, answers):
            if item is None or isinstance(item, SearchResult):
                results.append(item)
                continue
            edges, resolved, space = item
            graph = DeferredCommunity(
                edges,
                self._label_arrays(),
                name=f"R({alpha},{beta})[{query.label!r}]",
            )
            results.append(
                SearchResult(
                    graph=graph,
                    query=query,
                    alpha=alpha,
                    beta=beta,
                    method=resolved,
                    search_space_edges=space,
                )
            )
        return self._apply_policy(queries, results, on_empty)

    def batch_community_wire(
        self,
        queries: Iterable[BatchQuery],
        on_empty: str = "none",
    ) -> List[Optional[Tuple]]:
        """:meth:`batch_community` without the lazy graph wrapping.

        Answers are the raw wire triples ``(upper ids, lower ids, weights)``
        exactly as they crossed the worker boundary (``None`` for queries
        outside their core under ``on_empty="none"``).  This is the form the
        network front end caches and serialises, so it skips even the cheap
        :class:`~repro.serving.wire.DeferredCommunity` shell.
        """
        check_on_empty(on_empty)
        queries = list(queries)
        wire = self._scatter_gather("community", queries, {})
        return self._apply_policy(queries, wire, on_empty)

    def batch_significant_wire(
        self,
        queries: Iterable[BatchQuery],
        method: str = "auto",
        epsilon: float = 2.0,
        on_empty: str = "none",
    ) -> List[Optional[object]]:
        """:meth:`batch_significant_communities` without the graph wrapping.

        Index-backed answers are ``(wire triple, resolved method, search
        space edges)`` tuples; ``"baseline"`` answers remain materialised
        :class:`~repro.search.result.SearchResult` objects.
        """
        check_on_empty(on_empty)
        queries = list(queries)
        answers = self._scatter_gather(
            "significant", queries, {"method": method, "epsilon": epsilon}
        )
        return self._apply_policy(queries, answers, on_empty)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _label_arrays(self) -> Tuple[object, object]:
        """The snapshot's intern table (read once, lazily).

        The only piece of the snapshot the driving process ever opens; the
        index segments themselves stay exclusive to the workers.
        """
        if self._labels is None:
            from repro.serving.snapshot import load_label_arrays

            self._labels = load_label_arrays(self._snapshot_dir)
        return self._labels

    def _scatter_gather(
        self, kind: str, queries: Sequence[BatchQuery], options: Dict
    ) -> List:
        if not queries:
            return []
        with self._fleet_lock:
            self.start()
            shard_count = min(
                len(queries), self._num_workers * self._shards_per_worker
            )
            bounds: List[Tuple[int, int]] = []
            base, remainder = divmod(len(queries), shard_count)
            position = 0
            for shard_id in range(shard_count):
                size = base + (1 if shard_id < remainder else 0)
                bounds.append((position, position + size))
                position += size
            self._batch_seq += 1
            self._batch_crashes = 0
            batch_id = self._batch_seq
            pending = set(range(shard_count))
            self._inflight = (batch_id, kind, queries, options, bounds, pending)
            try:
                for shard_id, (lo, hi) in enumerate(bounds):
                    # Static round-robin over the private queues; several
                    # shards per worker keep the load approximately even.
                    tasks = self._task_queues[shard_id % len(self._task_queues)]
                    tasks.put((batch_id, shard_id, kind, queries[lo:hi], options))
                answers: List = [None] * len(queries)
                while pending:
                    message = self._next_message(self._batch_timeout)
                    tag = message[0]
                    if tag == "ready":  # a respawned worker came up
                        self._note_ready(message)
                        continue
                    if tag == "fatal":
                        raise _rebuild_error(message[2])
                    _, msg_batch, shard_id, payload = message
                    if msg_batch != batch_id:
                        continue  # stale shard of a batch that already raised
                    if tag == "error":
                        raise _rebuild_error(payload)
                    lo, hi = bounds[shard_id]
                    answers[lo:hi] = payload
                    pending.discard(shard_id)
                return answers
            finally:
                self._inflight = None

    def _handle_worker_death(
        self, dead: Sequence[multiprocessing.Process]
    ) -> None:
        """React to crashed workers noticed while waiting for results.

        The base server has no supervision: it tears the fleet down and
        surfaces one typed error.  :class:`SupervisedCommunityServer`
        overrides this to respawn the workers and reship lost shards.
        """
        names = ", ".join(p.name for p in dead)
        self.stop(_cleanup=False)
        raise ServingError(f"worker process(es) {names} died while serving a batch")

    def _next_message(self, timeout: Optional[float]) -> Tuple[object, ...]:
        """Read one protocol message, watching worker liveness while waiting.

        Waits on every worker's result pipe and process sentinel at once.  A
        pipe at EOF — or one that ends mid-message, because its worker was
        killed while writing — and an exited process both count as that
        worker's death and go to :meth:`_handle_worker_death`; pending
        messages of a dead worker are read first.  ``timeout=None`` waits
        indefinitely, so only a wedged-but-alive worker could stall the
        caller.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            ready = set(
                multiprocessing.connection.wait(
                    self._result_readers + [p.sentinel for p in self._processes],
                    remaining,
                )
            )
            if not ready:
                self.stop(_cleanup=False)
                raise ServingError(
                    f"timed out after {timeout:.0f}s waiting for worker results"
                )
            dead: List[multiprocessing.Process] = []
            for reader, process in zip(self._result_readers, self._processes):
                exited = process.sentinel in ready
                # An exited worker's last messages are still read first.
                if reader in ready or (exited and reader.poll()):
                    try:
                        return reader.recv()
                    except (EOFError, OSError):
                        dead.append(process)
                elif exited:
                    dead.append(process)
            self._handle_worker_death(dead)

    @staticmethod
    def _apply_policy(
        queries: Sequence[BatchQuery], answers: List, on_empty: str
    ) -> List:
        """Apply the ``on_empty`` policy in input order (``None`` == empty)."""
        if on_empty == "raise":
            for (query, alpha, beta), answer in zip(queries, answers):
                if answer is None:
                    raise EmptyCommunityError(query, alpha, beta)
            return answers
        if on_empty == "none":
            return answers
        return [answer for answer in answers if answer is not None]
