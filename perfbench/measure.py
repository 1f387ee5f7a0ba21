"""Pure measurement helpers: percentiles that count failures, and spans.

Latency percentiles follow the nearest-rank rule over *every request sent*:
a request that failed, was refused or never answered counts as missing every
limit, i.e. as an infinitely slow sample.  Spans are kept in memory and turned
into per-layer self time (a span's duration minus the part of it covered by
its children).
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

MISS = math.inf


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q <= 1``)."""
    if not values:
        raise ValueError("no samples")
    data = sorted(values)
    index = max(0, math.ceil(q * len(data)) - 1)
    return data[min(index, len(data) - 1)]


def latency_percentile(ok_ms: Sequence[float], misses: int, q: float) -> float:
    """``q``-quantile over answered latencies plus ``misses`` infinite ones."""
    return nearest_rank(list(ok_ms) + [MISS] * misses, q)


def tail_percentile(
    ok_ms: Sequence[float], misses: int, q: float = 0.99, min_beyond: int = 10
) -> Tuple[float, float]:
    """The ``q``-quantile, lowered until ``min_beyond`` samples lie beyond it.

    Returns ``(value, quantile used)``; failures count as misses.
    """
    data = sorted(list(ok_ms) + [MISS] * misses)
    n = len(data)
    if n == 0:
        raise ValueError("no samples")
    index = max(0, math.ceil(q * n) - 1)
    index = max(0, min(index, n - 1 - min_beyond))
    return data[index], (index + 1) / n


def window_stats(
    latencies: Sequence[float], q: float = 0.9, min_window: int = 1100
) -> Tuple[List[float], List[float], float]:
    """Each window's p50 and ``q`` tail over consecutive windows of a run.

    ``latencies`` are in send order, failures as :data:`MISS`.  The run is
    cut into as many equal windows as hold ``min_window`` samples each (at
    least one window); each window's tail keeps ten samples beyond it (see
    :func:`tail_percentile`).  Returns the per-window p50s, tails and the
    lowest tail quantile used.
    """
    count = max(1, len(latencies) // min_window)
    size = len(latencies) // count
    p50s, tails, quantiles = [], [], []
    for window in range(count):
        chunk = latencies[window * size : (window + 1) * size if window < count - 1 else None]
        p50s.append(nearest_rank(chunk, 0.5))
        tail, used = tail_percentile(chunk, 0, q)
        tails.append(tail)
        quantiles.append(used)
    return p50s, tails, min(quantiles)


def quiet_quartile(values: Sequence[float], higher_is_better: bool = False) -> float:
    """The better-quartile value of per-window figures (nearest rank).

    The benchmark shares its machine: a neighbour's burst slows a few
    windows of a run.  The quartile on the good side is what the program
    delivers in the quieter quarter of the run, and it still moves with
    every change to the program.
    """
    return nearest_rank(values, 0.75 if higher_is_better else 0.25)


def per_query_quiet(tries: Iterable[Sequence[float]]) -> List[float]:
    """Each query's quiet latency: the lower quartile of its tries.

    ``tries`` holds one list of latencies per query, failures as
    :data:`MISS`; a query reads as a miss once more than three quarters of
    its tries failed.  The host's slow spells come and go within seconds,
    and a query's tries are spread over the whole run, so the lower
    quartile is what the program delivers to that query while the host is
    quiet.
    """
    return [nearest_rank(values, 0.25) for values in tries]


def closed_loop_rates(
    replies: Sequence[Tuple[float, bool]], in_flight: int, per_window: int = 400
) -> List[float]:
    """Success rates of closed-loop windows, by Little's law.

    ``replies`` are the ``(latency s, ok)`` of every request answered within
    the closed-loop phases, in completion order.  They are cut into windows
    of ``per_window`` replies (a short remainder joins the last window).
    With ``in_flight`` requests always outstanding, a window's throughput is
    ``in_flight / mean latency``; its success rate is that times its share
    of ok replies.  Unlike counting replies per time slice, this does not
    jump by a whole micro-batch when a slow workload answers 16 requests at
    once.
    """
    count = max(1, len(replies) // per_window)
    rates: List[float] = []
    for window in range(count):
        chunk = replies[window * per_window : (window + 1) * per_window if window < count - 1 else None]
        if not chunk:
            continue
        mean_s = sum(latency for latency, _ in chunk) / len(chunk)
        ok_share = sum(1 for _, ok in chunk if ok) / len(chunk)
        rates.append(in_flight / mean_s * ok_share)
    return rates


def finite(value: float, cap: float) -> float:
    """``value`` with an infinite miss replaced by ``cap`` (for JSON output)."""
    return cap if math.isinf(value) else value


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    :meth:`span` nests through one stack, so it is used from the main thread
    only; the load generator's reader threads record finished request spans
    through :meth:`record` with an explicit parent instead.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next = 0

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[int]:
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> int:
        """Record a span measured elsewhere (e.g. one request's round trip)."""
        span_id = self._new_id()
        self.spans.append(Span(span_id, name, start, end, parent, request))
        return span_id

    def wrap(self, owner: object, attribute: str, name: str) -> "Patch":
        """Record a span around every call of ``owner.attribute``."""
        return Patch(self, owner, attribute, name)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, request)."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )


class Patch:
    """Context manager that swaps a public function for a span-recording one."""

    def __init__(self, tracer: Tracer, owner: object, attribute: str, name: str) -> None:
        self._tracer = tracer
        self._owner = owner
        self._attribute = attribute
        self._name = name
        self._original = getattr(owner, attribute)
        #: Return values of the wrapped calls, in call order.
        self.results: List[object] = []

    def __enter__(self) -> "Patch":
        original = self._original
        tracer = self._tracer
        name = self._name
        results = self.results

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            results.append(result)
            return result

        setattr(self._owner, self._attribute, traced)
        return self

    def __exit__(self, *exc_info: object) -> None:
        setattr(self._owner, self._attribute, self._original)


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            total += right - left
            cursor = right
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }
