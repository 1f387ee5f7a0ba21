"""The three workloads: set-up, timed phases, oracle checks and layer probes.

Every workload serves one fixed ``power_law_bipartite`` graph (exponent 1.0,
UF weights, generator seed :data:`GRAPH_SEED`) through ``python -m repro
serve --port 0`` with ``nproc`` workers and drives it from this process over
at most ``nproc`` pipelined connections.  End-to-end numbers come from an
untraced pass; with ``trace=True`` a second, traced pass and the layer
probes follow.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import streams
from loadgen import (
    Client,
    PhaseResult,
    Record,
    ServerProcess,
    closed_loop,
    pin_plan,
    open_loop,
    pinned,
    request_body,
)
from measure import (
    MISS,
    Tracer,
    closed_loop_rates,
    finite,
    latency_percentile,
    nearest_rank,
    per_query_quiet,
    quiet_quartile,
    tail_percentile,
    window_stats,
)
from streams import Query

#: JSON stand-in for an infinite (failed) latency: the reply timeout.
MISS_MS = 30_000.0
#: A run whose generator sent more than 1% of requests later than this
#: behind schedule is marked invalid (its latencies still count from the
#: due time, so they stay honest, but they measure the generator too).
LATE_LIMIT_MS = 20.0
SETUP_REPEATS = 5
#: Queries of the set-up's warm pass (see :func:`warm_pass`).
WARM_QUERIES = 64
#: Each workload serves one fixed graph of the family, like a dataset; the
#: run's seed draws the query pool, the request streams and the op stream.
#: (Graphs drawn per seed moved the significant-sweep figures by up to 2x
#: between seeds, through their core depth and community sizes.)
GRAPH_SEED = 7
#: Open-loop + closed-loop rounds of the hot-community and sweep passes.
ROUNDS = 12
#: Closed-loop replies per capacity window (unless ``Spec.whole_passes``).
RATE_WINDOW = 400
WATCH_INTERVAL_S = 0.2
#: Probe batches for the differential stage split.
PROBE_QUERIES = 16
PROBE_BATCH = 8
PROBE_REPEATS = 5


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; every number is fixed, only the seed varies.

    Why each workload exists, and what each should show, is in
    ``perfbench/README.md``.
    """

    name: str
    num_edges: int
    kind: str  # the served verb: community | significant
    pool: str  # deep | sweep
    pool_size: int
    rate: float  # open-loop requests per second
    edges_share: float  # share of timed requests asking for the edge list
    window: int  # closed-loop in-flight requests
    load_share: float  # open-loop share of the open + closed-loop time
    #: Streams run whole passes over the pool and each capacity window is
    #: one pass, so every window has the same cost mix (see
    #: :func:`end_to_end`); otherwise a window is :data:`RATE_WINDOW` replies.
    whole_passes: bool = False
    churn: bool = False
    ops_per_step: int = 0
    read_window_s: float = 0.0
    max_chain_len: int = 0


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="hot-community",
            num_edges=20_000,
            kind="community",
            pool="deep",
            pool_size=32,
            rate=1000.0,
            edges_share=0.0,
            window=16,
            load_share=0.7,
        ),
        Spec(
            name="significant-sweep",
            num_edges=10_000,
            kind="significant",
            pool="sweep",
            pool_size=81,
            rate=20.0,
            edges_share=0.1,
            window=16,
            load_share=0.7,
            whole_passes=True,
        ),
        Spec(
            name="churn-serve",
            num_edges=1_500,
            kind="community",
            pool="deep",
            pool_size=32,
            rate=200.0,
            edges_share=0.0,
            window=16,
            load_share=0.8,
            churn=True,
            ops_per_step=4,
            read_window_s=1.0,
            max_chain_len=4,
        ),
    )
}


class WrongAnswer(Exception):
    """A served answer disagreed with the oracle."""


# --------------------------------------------------------------------------- #
# answers in comparable form
# --------------------------------------------------------------------------- #
def _triple_counts(triple) -> Tuple:
    src, dst, _ = triple
    return (True, len(set(src.tolist())), len(set(dst.tolist())), int(src.shape[0]))


def oracle_key(kind: str, answer) -> Tuple:
    """Comparable form of a direct ``SnapshotIndex`` batch answer."""
    if answer is None:
        return (False,)
    if kind == "community":
        return _triple_counts(answer)
    triple, method, space = answer
    return _triple_counts(triple) + (method, int(space))


def graph_key(graph) -> Tuple:
    """Comparable form of a ``DegeneracyIndex.batch_community`` answer."""
    if graph is None:
        return (False,)
    return (True, graph.num_upper, graph.num_lower, graph.num_edges)


def reply_key(kind: str, reply: dict) -> Tuple:
    if not reply.get("found"):
        return (False,)
    key = (True, reply["num_upper"], reply["num_lower"], reply["num_edges"])
    if kind == "significant":
        key += (reply["method"], reply["search_space_edges"])
    return key


def triple_edges(triple, labels) -> List[Tuple]:
    upper, lower = labels
    src, dst, weight = triple
    return sorted(
        (upper[u], lower[v], float(w))
        for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist())
    )


# --------------------------------------------------------------------------- #
# run context
# --------------------------------------------------------------------------- #
@dataclass
class Run:
    spec: Spec
    root: Path
    work: Path
    seed: int
    seconds: float
    nproc: int
    graph: object = None
    index: object = None  # the writer's index (DynamicDegeneracyIndex on churn)
    snapshot: Optional[Path] = None
    server: Optional[ServerProcess] = None
    client: Optional[Client] = None
    pool: List[Query] = field(default_factory=list)
    bodies: Dict[Tuple[int, bool], bytes] = field(default_factory=dict)
    oracle: List[Tuple] = field(default_factory=list)
    oracle_edges: Dict[int, List[Tuple]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    pss_mb: float = 0.0
    checked: int = 0
    edges_checked: int = 0
    #: churn-serve: oracle answers of every published version, oldest first.
    versions: List[List[Tuple]] = field(default_factory=list)
    #: Cores the busy processes are pinned to (:func:`loadgen.pin_plan`).
    cpus: Optional[List[int]] = None

    def __post_init__(self) -> None:
        self.cpus = pin_plan()

    @property
    def client_cpu(self) -> Optional[int]:
        """The load generator's core during timed passes."""
        return self.cpus[0] if self.cpus else None

    # -- helpers ----------------------------------------------------------- #
    def vertex_queries(self, indices: Sequence[int]):
        from repro.graph.bipartite import Side, Vertex

        return [
            (
                Vertex(Side.UPPER if q.side == "upper" else Side.LOWER, q.label),
                q.alpha,
                q.beta,
            )
            for q in (self.pool[i] for i in indices)
        ]

    def body(self, index: int, edges: bool = False) -> bytes:
        key = (index, edges)
        if key not in self.bodies:
            q = self.pool[index]
            self.bodies[key] = request_body(
                self.spec.kind, q.side, q.label, q.alpha, q.beta, edges
            )
        return self.bodies[key]

    def record(self, index: int, edges: bool = False, due: float = 0.0) -> Tuple[Record, bytes]:
        assert self.client is not None
        rec = Record(self.client.new_id(), self.spec.kind, index, edges, due)
        return rec, self.body(index, edges)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None


# --------------------------------------------------------------------------- #
# set-up: build + snapshot save + server ready + warm pass
# --------------------------------------------------------------------------- #
def _build(run: Run, n_jobs: int = 1):
    from repro.index.degeneracy_index import DegeneracyIndex
    from repro.index.maintenance import DynamicDegeneracyIndex

    if run.spec.churn:
        return DynamicDegeneracyIndex(
            run.graph, backend="csr", n_jobs=n_jobs, max_chain_len=run.spec.max_chain_len
        )
    return DegeneracyIndex(run.graph, backend="csr", n_jobs=n_jobs)


def _make_pool(run: Run, index) -> None:
    """The query pool: per seed for hot-community, fixed for the sweep.

    The sweep's pool is part of its dataset, like the graph: with a pool
    drawn per seed, the median direct cost of its queries moved by up to
    1.7x between seeds (two queries per (α, β) pair) and 1.2x (eight per
    pair), through which vertices were drawn.  Its seed still draws the
    request order, the ``edges`` flags and the closed-loop stream.
    """
    if run.spec.pool == "deep":
        run.pool = streams.deep_pool(index, run.seed * 1009 + 17, run.spec.pool_size)
    else:
        run.pool = streams.sweep_pool(index, GRAPH_SEED, run.spec.pool_size)
    if not run.pool:
        raise RuntimeError("empty query pool: the graph has no deep cores")


def warm_pass(run: Run) -> PhaseResult:
    """The first :data:`WARM_QUERIES` pool queries, pipelined.

    That covers the whole hot-community pool (every answer cached) and
    opens the workers' query paths; the sweep's cost stays per request.
    """
    assert run.client is not None
    now = time.perf_counter()
    count = min(len(run.pool), WARM_QUERIES)
    schedule = [run.record(i, due=now) for i in range(count)]
    return open_loop(run.client, schedule)


def setup(run: Run) -> None:
    """Set up ``SETUP_REPEATS`` times; keep the last server; record each time."""
    from repro.index import serialization

    run.graph = streams.make_graph(run.spec.num_edges, GRAPH_SEED, name=run.spec.name)
    for attempt in range(SETUP_REPEATS):
        directory = run.work / f"snapshot-{attempt}"
        start = time.perf_counter()
        index = _build(run)
        serialization.save_index(index, str(directory), format="snapshot")
        built = time.perf_counter() - start
        if not run.pool:
            _make_pool(run, index)  # untimed: input generation
        start = time.perf_counter()
        server = ServerProcess(
            run.root, directory, run.nproc, WATCH_INTERVAL_S, run.work / "server.log"
        ).start()
        run.server = server
        if run.cpus:
            server.pin(run.cpus)
        run.client = Client(server.host, server.port, run.nproc)
        warm = warm_pass(run)
        run.setup_s.append(built + time.perf_counter() - start)
        if warm.unanswered or len(warm.ok()) != len(warm.records):
            raise RuntimeError("warm pass failed: the server did not answer every query")
        if attempt < SETUP_REPEATS - 1:
            run.close()
            shutil.rmtree(directory, ignore_errors=True)
        else:
            run.index = index
            run.snapshot = directory
    run.pss_mb = run.server.pss_mb()


def compute_oracle(run: Run) -> None:
    """Direct ``SnapshotIndex`` answers for every pool query (untimed)."""
    from repro.serving.snapshot import load_label_arrays, load_snapshot

    snap = load_snapshot(run.snapshot)
    queries = run.vertex_queries(range(len(run.pool)))
    if run.spec.kind == "community":
        answers = snap.batch_community_edges(queries, on_empty="none", cache={})
    else:
        answers = snap.batch_significant_edges(queries, on_empty="none", cache={})
    run.oracle = [oracle_key(run.spec.kind, a) for a in answers]
    if run.spec.edges_share > 0:
        upper, lower = load_label_arrays(run.snapshot)
        labels = (upper.tolist(), lower.tolist())
        for i, answer in enumerate(answers):
            if answer is not None:
                triple = answer if run.spec.kind == "community" else answer[0]
                run.oracle_edges[i] = triple_edges(triple, labels)


def check_replies(run: Run, records: Sequence[Record], oracles: Sequence[Sequence[Tuple]]) -> None:
    """Every answered, ok query must match one of ``oracles`` (per pool index)."""
    edges_budget = 16
    for rec in records:
        if rec.reply is None or not rec.reply.get("ok") or rec.query < 0:
            continue
        got = reply_key(rec.kind, rec.reply)
        if not any(got == oracle[rec.query] for oracle in oracles):
            raise WrongAnswer(
                f"{rec.kind} {run.pool[rec.query]} answered {got} "
                f"(cached={rec.reply.get('cached')}), "
                f"oracle {[oracle[rec.query] for oracle in oracles]}"
            )
        run.checked += 1
        if rec.edges and rec.reply.get("found") and edges_budget > 0:
            edges_budget -= 1
            served = sorted((u, v, float(w)) for u, v, w in rec.reply["edges"])
            if served != run.oracle_edges[rec.query]:
                raise WrongAnswer(f"edge list of {run.pool[rec.query]} differs from the oracle")
            run.edges_checked += 1


def cold_start_tries(run: Run, repeats: int) -> List[float]:
    """``repeats`` timings (ms) of ``load_snapshot`` + the first answered query.

    The query is the pool's deepest: its small answer keeps the figure about
    opening the snapshot, whichever vertices the seed drew.
    """
    from repro.serving.snapshot import load_snapshot

    first = max(range(len(run.pool)), key=lambda i: (run.pool[i].alpha + run.pool[i].beta, -i))
    query = run.vertex_queries([first])
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        snap = load_snapshot(run.snapshot)
        if run.spec.kind == "community":
            snap.batch_community_edges(query, on_empty="none")
        else:
            snap.batch_significant_edges(query, on_empty="none")
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def cold_start_figure(run: Run, result: "Pass") -> float:
    """The pass's ``cold_start_ms``.

    hot-community / significant-sweep: the quiet quartile of tries spread
    over every round.  churn-serve: the median over the saves that left the
    longest live delta chain (the chain cycles between 0 and
    ``max_chain_len - 1`` segments and a full rewrite resets it), so the
    figure is the cold start the compaction policy bounds; with no such
    save, over every save.
    """
    if not run.spec.churn:
        return quiet_quartile([ms for _, ms in result.cold_start_ms])
    longest = [ms for chain, ms in result.cold_start_ms if chain == run.spec.max_chain_len - 1]
    return statistics.median(longest or [ms for _, ms in result.cold_start_ms])


# --------------------------------------------------------------------------- #
# timed phases
# --------------------------------------------------------------------------- #
def _indices(run: Run, n: int, salt: int) -> List[int]:
    seed = run.seed * 7919 + salt
    if run.spec.pool == "deep":
        return streams.zipf_indices(len(run.pool), n, seed)
    return streams.cycle_indices(len(run.pool), n, seed)


def _schedule(
    run: Run, indices: Sequence[int], flags: Sequence[bool], start: float
) -> List[Tuple[Record, bytes]]:
    return [
        run.record(index, flag, start + position / run.spec.rate)
        for position, (index, flag) in enumerate(zip(indices, flags))
    ]


def _open_stream(run: Run, count: int, salt: int) -> Tuple[List[int], List[bool]]:
    """A pass's open-loop pool indices and ``edges`` flags, in send order."""
    flags = streams.edges_flags(count, run.spec.edges_share, run.seed * 31 + salt)
    return _indices(run, count, salt), flags


class _Stream:
    """An endless seeded stream of pool indices, extended in whole passes."""

    def __init__(self, run: Run, salt: int) -> None:
        self._run = run
        self._salt = salt
        self._items: List[int] = []
        self._position = 0

    def take(self) -> int:
        if self._position >= len(self._items):
            size = len(self._run.pool)
            count = size * max(1, 1024 // size)
            self._items.extend(_indices(self._run, count, self._salt * 7 + len(self._items)))
        self._position += 1
        return self._items[self._position - 1]


def capacity_phase(run: Run, seconds: float, stream: _Stream) -> PhaseResult:
    assert run.client is not None
    return closed_loop(
        run.client, lambda _position: run.record(stream.take()), run.spec.window, seconds
    )


@dataclass
class Pass:
    """The end-to-end outcome of one timed pass."""

    load: List[PhaseResult] = field(default_factory=list)
    closed: List[PhaseResult] = field(default_factory=list)
    #: churn-serve: ms from each save's return to ``health`` showing it.
    visible_lag_ms: List[float] = field(default_factory=list)
    #: (live delta chain length, cold start ms): one try per entry on
    #: hot-community / sweep, the best of 3 after each save on churn-serve.
    cold_start_ms: List[Tuple[int, float]] = field(default_factory=list)

    def query_records(self) -> List[Record]:
        return [r for phase in self.load for r in phase.records]

    def all_phases(self) -> List[PhaseResult]:
        return self.load + self.closed


def serve_pass(run: Run, tracer: Optional[Tracer], salt: int) -> Pass:
    with pinned(run.client_cpu):
        return _serve_pass(run, tracer, salt)


def _serve_pass(run: Run, tracer: Optional[Tracer], salt: int) -> Pass:
    """hot-community / significant-sweep: rounds of open loop + closed loop.

    Interleaving short open- and closed-loop windows spreads both over the
    whole run, so a burst of noise from the shared machine lands in a few
    windows of each instead of in all of one (see :func:`end_to_end`).
    """
    assert run.client is not None
    result = Pass()
    open_s = run.seconds * run.spec.load_share / ROUNDS
    closed_s = run.seconds * (1.0 - run.spec.load_share) / ROUNDS
    total = int(run.spec.rate * open_s * ROUNDS)
    if run.spec.whole_passes:
        total = max(total - total % len(run.pool), len(run.pool))
    indices, flags = _open_stream(run, total, salt)
    closed_stream = _Stream(run, salt + 1)
    for round_no in range(ROUNDS):
        part = slice(total * round_no // ROUNDS, total * (round_no + 1) // ROUNDS)
        schedule = _schedule(run, indices[part], flags[part], time.perf_counter() + 0.02)
        result.load.append(_traced_open_loop(run, schedule, tracer))
        result.closed.append(capacity_phase(run, closed_s, closed_stream))
        result.cold_start_ms.extend((0, ms) for ms in cold_start_tries(run, 2))
    check_replies(run, result.query_records(), [run.oracle])
    check_replies(run, [r for phase in result.closed for r in phase.records], [run.oracle])
    return result


def _traced_open_loop(
    run: Run, schedule, tracer: Optional[Tracer], poll=None
) -> PhaseResult:
    assert run.client is not None
    if tracer is None:
        return open_loop(run.client, schedule, poll)
    with tracer.span("loadgen.phase") as phase_id:

        def on_reply(_slot: int, rec: Record) -> None:
            tracer.record("loadgen.request", rec.sent, rec.done, phase_id, rec.rid)

        run.client.on_reply = on_reply
        try:
            return open_loop(run.client, schedule, poll)
        finally:
            run.client.on_reply = None


# --------------------------------------------------------------------------- #
# churn-serve
# --------------------------------------------------------------------------- #
def _generation(directory: Path) -> Tuple[str, int]:
    from repro.serving.snapshot import snapshot_version

    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return str(manifest.get("snapshot_id", "")), snapshot_version(directory)


def _fresh_oracle(run: Run) -> List[Tuple]:
    """Answers of a from-scratch ``DegeneracyIndex`` of the writer's graph."""
    from repro.index.degeneracy_index import DegeneracyIndex

    fresh = DegeneracyIndex(run.index.graph.copy(), backend="csr")
    queries = run.vertex_queries(range(len(run.pool)))
    return [graph_key(g) for g in fresh.batch_community(queries, on_empty="none")]


class Writer:
    """Applies the op stream through the public update and save API."""

    def __init__(self, run: Run, ops: List[Tuple]) -> None:
        self.run = run
        self.ops = ops
        self.cursor = 0
        self.update_s: List[float] = []
        self.save_s: List[float] = []
        self.steps: List[Dict[str, object]] = []

    def step(self, tracer: Optional[Tracer]) -> float:
        """Apply one write step and save; return when the save returned."""
        from repro.index import serialization

        run = self.run
        directory = str(run.snapshot)
        bytes_before = _dir_bytes(run.snapshot)
        extra_before = run.index.stats().extra
        batch = self.ops[self.cursor : self.cursor + run.spec.ops_per_step]
        if len(batch) < run.spec.ops_per_step:
            raise RuntimeError("op stream exhausted; raise MAX_OPS")
        self.cursor += len(batch)
        for op in batch:
            start = time.perf_counter()
            if tracer is None:
                streams.apply_op(run.index, op)
            else:
                with tracer.span("maintenance.update"):
                    streams.apply_op(run.index, op)
            self.update_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        serialization.save_index(run.index, directory, format="snapshot")
        saved = time.perf_counter()
        self.save_s.append(saved - start)
        extra_after = run.index.stats().extra
        self.steps.append(
            {
                "ops": len(batch),
                "bytes_added": _dir_bytes(run.snapshot) - bytes_before,
                "compacted": extra_after["compactions"] > extra_before["compactions"],
            }
        )
        return saved


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


MAX_OPS = 4000


def _stale_report(records: Sequence[Record], visible: float,
                  history: List[List[Tuple]], writer: "Writer") -> str:
    """Which published version the wrong post-swap answers match, if any."""
    bad = [r for r in records if r.sent >= visible and r.reply and r.reply.get("ok")
           and reply_key(r.kind, r.reply) != history[-1][r.query]]
    matches = set()
    for rec in bad:
        got = reply_key(rec.kind, rec.reply)
        ages = [age for age, oracle in enumerate(reversed(history)) if oracle[rec.query] == got]
        matches.add(ages[0] if ages else None)
    last = writer.steps[-1]
    return (f"{len(bad)} post-swap replies wrong, sent "
            f"{(bad[0].sent - visible) * 1000:.1f}-{(bad[-1].sent - visible) * 1000:.1f} ms "
            f"after the swap became visible; they match the version published "
            f"{sorted(matches, key=str)} saves earlier (None: no published version); "
            f"the last save compacted={last['compacted']}")


def churn_pass(run: Run, tracer: Optional[Tracer], salt: int, writer: "Writer") -> Pass:
    with pinned(run.client_cpu):
        return _churn_pass(run, tracer, salt, writer)


def _churn_pass(run: Run, tracer: Optional[Tracer], salt: int, writer: "Writer") -> Pass:
    """Cycles of a write step, a fixed-rate read window and a closed loop.

    Each cycle's closed-loop window follows its read window, so capacity is
    sampled across the whole churn like the latencies are.
    """
    assert run.client is not None
    client = run.client
    result = Pass()
    closed_s = run.spec.read_window_s * (1.0 - run.spec.load_share) / run.spec.load_share
    measured = 0.0
    lags: List[float] = []
    if not run.versions:
        run.versions.append(_fresh_oracle(run))
    history = run.versions
    previous = history[-1]
    step_no = 0
    while measured < run.seconds:
        step_start = time.perf_counter()
        if tracer is None:
            saved = writer.step(None)
        else:
            with tracer.span("churn.write_step"):
                saved = writer.step(tracer)
        target = _generation(run.snapshot)
        visible: List[float] = []
        health: List[Record] = []

        def poll(now: float) -> Optional[float]:
            for rec in health:
                if rec.reply is not None and rec.reply.get("ok"):
                    if (rec.reply["snapshot_id"], rec.reply["version"]) == target:
                        visible.append(rec.done)
                        return None
            if now - saved > 30.0:
                raise RuntimeError(f"snapshot generation {target} never became visible")
            if not health or health[-1].reply is not None:
                rec = Record(client.new_id(), "health", due=now)
                health.append(rec)
                client.send(0, rec, b'{"op":"health"}')
            return now + 0.005

        count = int(run.spec.rate * run.spec.read_window_s)
        schedule = _schedule(run, *_open_stream(run, count, salt * 1000 + step_no), saved)
        phase = _traced_open_loop(run, schedule, tracer, poll)
        if run.cpus:  # the reload forked new workers on the front end's core
            run.server.pin(run.cpus)
        closed = capacity_phase(run, closed_s, _Stream(run, salt * 1000 + step_no))
        measured += time.perf_counter() - step_start
        step_no += 1
        # untimed: the new version's oracle; reads sent after the swap became
        # visible must match it, earlier ones may match either version
        current = _fresh_oracle(run)
        lags.append((visible[0] - saved) * 1000.0)
        after = [r for r in phase.records if r.sent >= visible[0]]
        before = [r for r in phase.records if r.sent < visible[0]]
        history.append(current)
        try:
            check_replies(run, after, [current])
        except WrongAnswer as exc:
            raise WrongAnswer(f"{exc}; {_stale_report(phase.records, visible[0], history, writer)}")
        check_replies(run, before, [current, previous])
        check_replies(run, closed.records, [current])
        previous = current
        result.cold_start_ms.append((target[1], min(cold_start_tries(run, 3))))
        result.load.append(phase)
        result.closed.append(closed)
    result.visible_lag_ms = lags
    return result


# --------------------------------------------------------------------------- #
# end-to-end metrics
# --------------------------------------------------------------------------- #
def _closed_replies(phase: PhaseResult) -> List[Tuple[float, bool]]:
    """``(latency s, ok)`` of the replies within a closed-loop phase, in order."""
    assert phase.completions is not None
    stop = phase.completions[2]
    answered = sorted(
        (r for r in phase.records if r.reply is not None and r.done <= stop),
        key=lambda r: r.done,
    )
    return [(r.done - r.due, bool(r.reply.get("ok"))) for r in answered]


def end_to_end(run: Run, result: Pass, cold_ms: float) -> Tuple[Dict[str, float], Dict]:
    """The end-to-end metrics of a pass, plus the run record's counts.

    The host's slow spells come and go within seconds, so each figure is
    taken where they cannot pile up: ``query_p50_ms`` is the median over the
    pool's queries of each query's quiet latency (the lower quartile of its
    tries, :func:`~measure.per_query_quiet`), and ``capacity_qps`` the
    median over closed-loop windows (:func:`~measure.closed_loop_rates`).
    Failures count as misses in every figure.
    """
    records = result.query_records()
    ok_ms = [r.latency_ms for r in records if r.reply is not None and r.reply.get("ok")]
    misses = len(records) - len(ok_ms)
    in_order = [
        r.latency_ms if r.reply is not None and r.reply.get("ok") else MISS for r in records
    ]
    p50s, tails, q_used = window_stats(in_order)
    tries: Dict[int, List[float]] = {}
    for rec, ms in zip(records, in_order):
        tries.setdefault(rec.query, []).append(ms)
    p50 = nearest_rank(per_query_quiet(tries.values()), 0.5)
    p99, p99_q = tail_percentile(ok_ms, misses, 0.99)
    replies = [reply for phase in result.closed for reply in _closed_replies(phase)]
    per_window = len(run.pool) if run.spec.whole_passes else RATE_WINDOW
    rates = closed_loop_rates(replies, run.spec.window, per_window)
    closed_ok = sum(ok for _, ok in replies)
    closed_s = sum(p.completions[2] - p.completions[1] for p in result.closed)
    overall_qps = closed_ok / closed_s
    phases = result.all_phases()
    sent = sum(len(p.records) for p in phases)
    good = sum(len(p.ok()) for p in phases)
    late = [r.late_ms for r in records]
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "query_p50_ms": finite(p50, MISS_MS),
        "capacity_qps": statistics.median(rates),
        "ok_ratio": good / sent,
        "server_pss_mb": run.pss_mb,
        "cold_start_ms": cold_ms,
    }
    late_p99 = tail_percentile(late, 0, 0.99)[0] if late else 0.0
    info = {
        "samples": len(records),
        "windows": len(p50s),
        "window_p50_ms": [finite(v, MISS_MS) for v in p50s],
        "window_p90_ms": [finite(v, MISS_MS) for v in tails],
        "window_capacity_qps": rates,
        "overall_capacity_qps": overall_qps,
        "tail_quantile_used": q_used,
        "whole_run_p50_ms": finite(latency_percentile(ok_ms, misses, 0.5), MISS_MS),
        "query_p90_ms": finite(quiet_quartile(tails), MISS_MS),
        "query_p99_ms": finite(p99, MISS_MS),
        "p99_quantile_used": p99_q,
        "sent": sent,
        "succeeded": good,
        "failed": sum(p.failed() for p in phases),
        "refused": sum(p.refused() for p in phases),
        "failed_ratio": (sent - good) / sent,
        "loadgen_late_p99_ms": late_p99,
        "loadgen_cpu_s": sum(p.cpu_s for p in phases),
        "valid": late_p99 <= LATE_LIMIT_MS,
        "phases": [
            {
                "sent": len(p.records),
                "succeeded": len(p.ok()),
                "failed": p.failed(),
                "refused": p.refused(),
            }
            for p in phases
        ],
    }
    return metrics, info


# --------------------------------------------------------------------------- #
# layer probes (traced runs only)
# --------------------------------------------------------------------------- #
def _ms_per(samples: List[float], per: int) -> float:
    return statistics.median(samples) * 1000.0 / per


def layer_probes(run: Run, tracer: Tracer) -> Dict[str, float]:
    """Differential split: socket vs in-process server vs direct snapshot."""
    from repro.serving.server import CommunityServer
    from repro.serving.snapshot import load_snapshot

    assert run.client is not None
    sample = list(range(min(PROBE_QUERIES, len(run.pool))))
    queries = run.vertex_queries(sample)
    batches = [queries[i : i + PROBE_BATCH] for i in range(0, len(queries), PROBE_BATCH)]
    out: Dict[str, float] = {}

    # cached socket round trips: each community query twice, time the second
    rtts = []
    for i in sample:
        q = run.pool[i]
        payload = {"op": "community", "side": q.side, "label": q.label,
                   "alpha": q.alpha, "beta": q.beta}
        run.client.call(payload)
        with tracer.span("probe.socket_cached") as _:
            start = time.perf_counter()
            reply = run.client.call(payload)
            rtts.append(time.perf_counter() - start)
        if reply.get("found") and not reply.get("cached"):
            raise RuntimeError("a repeated community request missed the answer cache")
    out["frontend.cached_rtt_ms"] = statistics.median(rtts) * 1000.0

    # the workload's own verb, one request at a time
    socket_s, cached_flags = [], []
    for i in sample:
        q = run.pool[i]
        payload = {"op": run.spec.kind, "side": q.side, "label": q.label,
                   "alpha": q.alpha, "beta": q.beta}
        with tracer.span("probe.socket"):
            start = time.perf_counter()
            reply = run.client.call(payload)
            socket_s.append(time.perf_counter() - start)
        cached_flags.append(bool(reply.get("cached")))

    snap = load_snapshot(run.snapshot)
    kind = run.spec.kind

    def direct(batch, fn_kind: str):
        if fn_kind == "community":
            return snap.batch_community_edges(batch, on_empty="none", cache={})
        return snap.batch_significant_edges(batch, on_empty="none", cache={})

    def timed(name: str, fn: Callable, batch) -> float:
        with tracer.span(name):
            start = time.perf_counter()
            fn(batch)
            return time.perf_counter() - start

    community_s, significant_s, direct_s, server_s, single_server_s = [], [], [], [], []
    server = CommunityServer(run.snapshot, num_workers=1, shards_per_worker=1)
    try:
        server.start()
        wire = server.batch_community_wire if kind == "community" else server.batch_significant_wire
        for batch in batches:  # warm the worker's query path and the page cache
            wire(batch, on_empty="none")
            direct(batch, kind)
        for _ in range(PROBE_REPEATS):
            for batch in batches:
                community_s.append(timed("snapshot.batch_community_edges",
                                         lambda b: direct(b, "community"), batch))
                significant_s.append(timed("snapshot.batch_significant_edges",
                                           lambda b: direct(b, "significant"), batch))
                direct_s.append(community_s[-1] if kind == "community" else significant_s[-1])
                server_s.append(timed("server.batch_wire",
                                      lambda b: wire(b, on_empty="none"), batch))
        for query in queries:
            single_server_s.append(timed("server.batch_wire_single",
                                         lambda b: wire(b, on_empty="none"), [query]))
    finally:
        server.stop()
    size = len(batches[0])
    out["snapshot.community_edges_ms"] = _ms_per(community_s, size)
    out["search.significant_ms"] = max(
        0.0, _ms_per(significant_s, size) - out["snapshot.community_edges_ms"]
    )
    out["server.dispatch_ipc_ms"] = (
        statistics.median(server_s) - statistics.median(direct_s)
    ) * 1000.0
    frontend_self = [
        sock - (0.0 if cached else fleet)
        for sock, fleet, cached in zip(socket_s, single_server_s, cached_flags)
    ]
    out["frontend.self_ms"] = statistics.median(frontend_self) * 1000.0
    return out


def build_probes(run: Run, tracer: Tracer) -> Dict[str, float]:
    """Index build at 1 and ``nproc`` jobs, snapshot save, query-path open."""
    from repro.serving.snapshot import load_snapshot, save_snapshot

    out: Dict[str, float] = {}
    index = None
    for label, jobs in (("index.build_s_1job", 1), ("index.build_s_njobs", run.nproc)):
        with tracer.span("build.index"):
            start = time.perf_counter()
            index = _build(run, n_jobs=jobs)
            out[label] = time.perf_counter() - start
    directory = run.work / "probe-snapshot"
    with tracer.span("build.save_snapshot"):
        start = time.perf_counter()
        save_snapshot(index, directory)
        out["snapshot.save_ms"] = (time.perf_counter() - start) * 1000.0
    out["snapshot.bytes"] = float(_dir_bytes(directory))
    with tracer.span("build.query_path"):
        start = time.perf_counter()
        load_snapshot(directory).query_path()
        out["snapshot.query_path_ms"] = (time.perf_counter() - start) * 1000.0
    shutil.rmtree(directory, ignore_errors=True)
    return out


def stats_probe(run: Run) -> Dict[str, float]:
    """Counters of the ``stats`` verb: front end, answer cache, supervisor."""
    assert run.client is not None
    extra = run.client.call({"op": "stats"})["stats"]["extra"]
    hits = extra.get("answer_cache_hits", 0.0)
    lookups = hits + extra.get("answer_cache_misses", 0.0)
    batches = extra.get("frontend_batches", 0.0)
    return {
        "frontend.mean_batch_size": (
            extra.get("frontend_batched_requests", 0.0) / batches if batches else 0.0
        ),
        "frontend.overload_rejections": extra.get("frontend_overload_rejections", 0.0),
        "frontend.request_errors": extra.get("frontend_request_errors", 0.0),
        "answer_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "answer_cache.evictions": extra.get("answer_cache_evictions", 0.0),
        "answer_cache.resets": extra.get("answer_cache_resets", 0.0),
        "supervisor.reloads": extra.get("frontend_reloads", 0.0),
        "supervisor.respawns": extra.get("frontend_respawns", 0.0),
    }


WRITE_PATH_SPANS = (
    ("index.save_index", "repro.index.serialization", "save_index"),
    ("snapshot.save_snapshot_delta", "repro.serving.snapshot", "save_snapshot_delta"),
    ("snapshot.save_snapshot", "repro.serving.snapshot", "save_snapshot"),
    ("compaction.compact_snapshot", "repro.serving.compaction", "compact_snapshot"),
)


def wrap_write_path(stack: contextlib.ExitStack, tracer: Tracer) -> List:
    """Span every call of :data:`WRITE_PATH_SPANS` until ``stack`` closes.

    Returns the list that collects ``compact_snapshot``'s reports.
    """
    reports: List = []
    for name, module, attribute in WRITE_PATH_SPANS:
        patch = stack.enter_context(
            tracer.wrap(importlib.import_module(module), attribute, name)
        )
        if name == "compaction.compact_snapshot":
            reports = patch.results
    return reports


def write_mark(run: Run, writer: Writer) -> Dict[str, object]:
    """Where the writer stands before a pass, for :func:`write_path_metrics`."""
    return {"step": len(writer.steps), "op": len(writer.update_s),
            "extra": run.index.stats().extra}


def write_path_metrics(run: Run, tracer: Tracer, writer: Writer, mark: Dict,
                       lags: List[float], reports: List) -> Dict[str, float]:
    """Maintenance, delta and compaction numbers of the traced churn pass."""
    by_name: Dict[str, List[float]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
    before = mark["extra"]
    extra = run.index.stats().extra
    updates = extra["updates_applied"] - before["updates_applied"]
    steps = writer.steps[mark["step"]:]
    ops = sum(step["ops"] for step in steps)
    write_s = sum(writer.update_s[mark["op"]:]) + sum(writer.save_s[mark["step"]:])
    delta_steps = [s for s in steps if not s["compacted"] and s["bytes_added"] > 0]

    def p50_ms(name: str) -> float:
        values = by_name.get(name, [])
        return statistics.median(values) * 1000.0 if values else 0.0

    return {
        "maintenance.update_ms": p50_ms("maintenance.update"),
        "maintenance.levels_patched_per_update": (
            (extra["levels_patched"] - before["levels_patched"]) / updates if updates else 0.0
        ),
        "maintenance.region_mean_vertices": extra["region_mean_vertices"],
        "maintenance.arrays_invalidated": extra["arrays_invalidated"]
        - before["arrays_invalidated"],
        "maintenance.ingest_ops_s": ops / write_s if write_s else 0.0,
        "delta.save_ms": p50_ms("snapshot.save_snapshot_delta"),
        "delta.bytes_per_op": (
            sum(s["bytes_added"] for s in delta_steps) / sum(s["ops"] for s in delta_steps)
            if delta_steps else 0.0
        ),
        "delta.full_rewrites": float(len(by_name.get("snapshot.save_snapshot", []))),
        "compaction.ms": p50_ms("compaction.compact_snapshot"),
        "compaction.bytes_rewritten": float(sum(r.bytes_after for r in reports)),
        "compaction.count": float(len(reports)),
        "supervisor.visible_lag_ms": statistics.median(lags) if lags else 0.0,
    }


#: Write steps of :func:`write_probe`; a fresh label forces a full rewrite, so
#: the chain reaches ``max_chain_len`` (and compacts) only every few steps.
WRITE_PROBE_STEPS = 24


def write_probe(run: Run, tracer: Tracer) -> Dict[str, float]:
    """The write path of churn-serve, timed without a server watching it.

    Builds the churn-serve graph as a ``DynamicDegeneracyIndex``, saves it,
    then applies :data:`WRITE_PROBE_STEPS` steps of the run's seeded op
    stream, each saved with ``save_index`` (delta appends and
    auto-compaction).  After every save, the directory's answers must match
    a from-scratch ``DegeneracyIndex`` of the writer's graph.  Gives the
    maintenance, delta and compaction metrics on the workloads that serve a
    fixed snapshot.
    """
    from repro.index import serialization
    from repro.serving.snapshot import load_snapshot

    spec = SPECS["churn-serve"]
    probe = Run(spec=spec, root=run.root, work=run.work / "write-probe",
                seed=run.seed, seconds=0.0, nproc=run.nproc)
    probe.work.mkdir(parents=True, exist_ok=True)
    probe.graph = streams.make_graph(spec.num_edges, GRAPH_SEED, name=spec.name)
    probe.index = _build(probe)
    probe.snapshot = probe.work / "snapshot"
    serialization.save_index(probe.index, str(probe.snapshot), format="snapshot")
    _make_pool(probe, probe.index)
    ops = streams.op_stream(
        probe.graph, run.seed * 65537 + 3, WRITE_PROBE_STEPS * spec.ops_per_step
    )
    writer = Writer(probe, ops)
    mark = write_mark(probe, writer)
    queries = probe.vertex_queries(range(len(probe.pool)))
    with contextlib.ExitStack() as stack:
        reports = wrap_write_path(stack, tracer)
        for _ in range(WRITE_PROBE_STEPS):
            with tracer.span("churn.write_step"):
                writer.step(tracer)
            served = load_snapshot(probe.snapshot).batch_community_edges(
                queries, on_empty="none", cache={}
            )
            got = [oracle_key("community", answer) for answer in served]
            if got != _fresh_oracle(probe):
                raise WrongAnswer(
                    f"write probe: snapshot answers after save {len(writer.steps)} differ "
                    "from a from-scratch DegeneracyIndex of the writer's graph"
                )
            run.checked += len(got)
    out = write_path_metrics(probe, tracer, writer, mark, [], reports)
    del out["supervisor.visible_lag_ms"]  # no server watches the probe's directory
    shutil.rmtree(probe.work, ignore_errors=True)
    return out
