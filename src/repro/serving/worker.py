"""Worker-process side of the community server.

Each worker reopens the shared snapshot read-only — the OS backs every
worker's ``numpy.memmap`` with the same physical pages — wraps it in a
:class:`~repro.api.CommunitySearcher` and then drains shards of query triples
from its private task queue until it receives the ``None`` stop sentinel,
writing every answer to its private result pipe.

Shards are always answered with the ``on_empty="none"`` policy so the result
list stays aligned with the shard: a ``None`` element marks a query outside
its (α,β)-core, and the *driving* process applies the caller's actual policy
in input order (raising the first :class:`EmptyCommunityError` exactly where
a sequential run would).  Plain community retrievals come back in the compact
wire form of :mod:`repro.serving.wire` — raw edge-id arrays, with repeated
components deduplicated by pickle's memo because the per-shard cache shares
array objects; significant-community results carry their (small) extracted
graphs directly.  Non-empty failures — bad thresholds, unknown query
vertices, unexpected bugs — travel back as a ``(module, name, message)``
description; exception objects themselves are not pickled because several
library exceptions carry structured constructor arguments that do not survive
a pickle round-trip.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from multiprocessing import Queue
    from multiprocessing.connection import Connection

__all__ = ["worker_main", "describe_error"]


def describe_error(exc: BaseException) -> Tuple[str, str, str]:
    """A pickle-safe ``(module, class name, message)`` description of ``exc``."""
    return (type(exc).__module__, type(exc).__name__, str(exc))


def worker_main(
    snapshot_dir: str, tasks: "Queue", results: "Connection", cache_entries: int = 0
) -> None:
    """Serve shards from ``tasks`` until the ``None`` sentinel arrives.

    ``results`` is the write end of this worker's result pipe.  When the
    server has closed the read end (it is stopping) the worker just exits.

    Protocol (all messages tuples, first element a tag):

    * startup: ``("ready", pid, (snapshot_id, version))`` once the snapshot
      is open — the generation it loaded, which the serving process labels
      answers with — or
      ``("fatal", pid, error_description)`` if it cannot be opened.
    * per shard: input ``(batch_id, shard_id, kind, triples, options)`` where
      ``kind`` is ``"community"`` or ``"significant"``; output
      ``("result", batch_id, shard_id, answers)`` or
      ``("error", batch_id, shard_id, error_description)``.

    ``cache_entries > 0`` replaces the per-batch memoisation dict with a
    cross-batch :class:`~repro.serving.answer_cache.AnswerCache` of that
    capacity: hot components survive between batches, and because the worker
    itself is restarted on every ``reload()`` the cache can never serve a
    stale snapshot version.
    """
    from repro.api import CommunitySearcher
    from repro.serving.answer_cache import AnswerCache
    from repro.serving.snapshot import load_snapshot

    pid = os.getpid()
    try:
        index = load_snapshot(snapshot_dir)
        searcher = CommunitySearcher(index=index)
        answer_cache = None
        if cache_entries > 0:
            answer_cache = AnswerCache(
                cache_entries,
                generation=(index.snapshot_id, index.version),
            )
            index.use_answer_cache(answer_cache)
    except BaseException as exc:  # noqa: BLE001 - report, then die quietly
        results.send(("fatal", pid, describe_error(exc)))
        return
    try:
        results.send(("ready", pid, (index.snapshot_id, index.version)))
        # One component cache per batch (unless a cross-batch AnswerCache is
        # configured): the server runs batches serially, so a new batch_id
        # means the previous batch's shards are all done and its memoised
        # components can be dropped.
        cache_batch_id = None
        cache = answer_cache if answer_cache is not None else {}
        while True:
            task = tasks.get()
            if task is None:
                break
            batch_id, shard_id, kind, triples, options = task
            if answer_cache is None and batch_id != cache_batch_id:
                cache_batch_id = batch_id
                cache = {}
            try:
                if kind == "community":
                    answers = index.batch_community_edges(
                        triples, on_empty="none", cache=cache
                    )
                elif kind == "significant":
                    method = options.get("method", "auto")
                    epsilon = options.get("epsilon", 2.0)
                    if method == "baseline":
                        # Baseline is index-free and graph-based; its (small)
                        # extracted graphs ship materialised, as before.
                        answers = searcher.batch_significant_communities(
                            triples,
                            method=method,
                            epsilon=epsilon,
                            on_empty="none",
                        )
                    else:
                        # Array-native step 2 over the mapped levels: answers
                        # are (wire triple, resolved method, search-space
                        # size) tuples sharing the community cache with
                        # "community" shards.
                        answers = index.batch_significant_edges(
                            triples,
                            method=method,
                            epsilon=epsilon,
                            on_empty="none",
                            cache=cache,
                        )
                else:
                    raise ValueError(f"unknown task kind {kind!r}")
                results.send(("result", batch_id, shard_id, answers))
            except BaseException as exc:  # noqa: BLE001 - ship to the server
                results.send(("error", batch_id, shard_id, describe_error(exc)))
    except BrokenPipeError:
        pass  # the server stopped reading: nobody is left to answer
