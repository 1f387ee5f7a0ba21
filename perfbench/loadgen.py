"""The served system and the load generator that drives it.

:class:`ServerProcess` starts the operator path, ``python -m repro serve
--port 0``, in its own process group and stops it (and its forked workers)
again.  :class:`Client` holds a few pipelined newline-JSON connections and
drives them from one thread; :func:`open_loop` sends on a fixed schedule and times
every request from when it was *due*, :func:`closed_loop` keeps a fixed
number of requests in flight.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Seconds to wait for outstanding replies after a phase's last send.
REPLY_TIMEOUT_S = 30.0


#: Niceness of the served process tree.  Load generator and server share the
#: machine's cores; with this small priority edge the generator still sends
#: on time while the workers are busy, so measured latency is the server's.
SERVER_NICENESS = 5


def _lower_priority() -> None:
    os.nice(SERVER_NICENESS)


class ServerProcess:
    """``python -m repro serve --port 0`` over one snapshot directory.

    The server gets its own process group (same session, so it shares the
    scheduler group with the generator and its niceness takes effect), which
    :meth:`stop` kills as a whole.
    """

    def __init__(
        self,
        root: Path,
        snapshot: Path,
        workers: int,
        watch_interval: float,
        log_path: Path,
    ) -> None:
        self._root = root
        self._snapshot = snapshot
        self._workers = workers
        self._watch_interval = watch_interval
        self._log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self._root / "src")
        env["TMPDIR"] = str(self._log_path.parent)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--snapshot", str(self._snapshot),
            "--workers", str(self._workers),
            "--host", self.host,
            "--port", "0",
            "--watch-interval", str(self._watch_interval),
        ]
        with open(self._log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=self._root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                process_group=0,
                preexec_fn=_lower_priority,
            )
        line = self._read_ready_line(timeout)
        # "serving frontend on HOST:PORT (N workers: ...)"
        address = line.split(" on ", 1)[1].split(" ", 1)[0]
        self.port = int(address.rsplit(":", 1)[1])
        return self

    def _read_ready_line(self, timeout: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            self.stop()
            raise RuntimeError(f"server not ready within {timeout:.0f}s")
        line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
        if not line.startswith("serving frontend on "):
            self.stop()
            raise RuntimeError(f"server failed to start (see {self._log_path}): {line!r}")
        return line

    def pids(self) -> List[int]:
        """The server and every descendant (its forked workers)."""
        if self.proc is None:
            return []
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    children = (task / "children").read_text().split()
                except OSError:
                    continue
                frontier.extend(int(child) for child in children)
        return found

    def pin(self, cpus: Sequence[int]) -> None:
        """Pin the front end to the last of ``cpus``, workers round-robin.

        Threads the front end starts later inherit its pin, and so do
        workers it forks later (a reload): pin again after one.
        """
        assert self.proc is not None
        _pin_process(self.proc.pid, cpus[-1])
        workers = sorted(self.pids()[1:])
        for slot, pid in enumerate(workers):
            _pin_process(pid, cpus[slot % len(cpus)])

    def pss_mb(self) -> float:
        """Summed PSS of the server process tree, from ``smaps_rollup``."""
        total_kb = 0
        for pid in self.pids():
            try:
                text = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            for row in text.splitlines():
                if row.startswith("Pss:"):
                    total_kb += int(row.split()[1])
                    break
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT (a clean shutdown), then SIGKILL the group; wait for all.

        The group kill runs even when the wait is interrupted, so no worker
        outlives the benchmark.
        """
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            self.proc = None
            _kill_group(proc)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


@contextmanager
def pinned(cpu: Optional[int]) -> Iterator[None]:
    """Run the calling thread on ``cpu`` for the block (``None``: anywhere)."""
    if cpu is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _pin_process(pid: int, cpu: int) -> None:
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            os.sched_setaffinity(int(task.name), {cpu})
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def pin_plan() -> Optional[List[int]]:
    """The cores every busy process is pinned to, or ``None`` below two.

    The generator takes the first, the front end the last, the workers go
    round-robin.  Left to the scheduler, the busy processes shared cores in
    a different way from run to run, and stayed that way for tens of
    seconds: hot-community capacity jumped twofold, and sweep capacity
    moved between about 110 and 180 req/s, between runs of the same code.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) >= 2 else None


# --------------------------------------------------------------------------- #
# client side
# --------------------------------------------------------------------------- #
@dataclass
class Record:
    """One request: what was asked, when it was due, sent and answered."""

    rid: int
    kind: str  # community | significant | health | stats
    query: int = -1  # index into the workload's pool
    edges: bool = False
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    reply: Optional[dict] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def encode(rid: int, body: bytes) -> bytes:
    """Prefix a pre-encoded request object (``b'{...}'``) with its id."""
    return b'{"id":' + str(rid).encode() + b"," + body[1:] + b"\n"


def request_body(kind: str, side: str, label, alpha: int, beta: int, edges: bool) -> bytes:
    payload = {"op": kind, "side": side, "label": label, "alpha": alpha, "beta": beta}
    if edges:
        payload["edges"] = True
    return json.dumps(payload, separators=(",", ":")).encode()


class Client:
    """Pipelined connections to the front end, driven from one thread.

    Sending and reading happen on the caller's thread: :meth:`pump` waits in
    ``select`` (microsecond timeouts) until a reply arrives or the next send
    is due, so the generator never waits for a lock or a thread wake-up.
    """

    def __init__(self, host: str, port: int, connections: int) -> None:
        self._socks: List[socket.socket] = []
        self._buffers: List[bytes] = []
        self._pending: Dict[int, Record] = {}
        self.on_reply: Optional[Callable[[int, Record], None]] = None
        self._next_id = 0
        for _ in range(connections):
            sock = socket.create_connection((host, port), timeout=None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks.append(sock)
            self._buffers.append(b"")

    @property
    def connections(self) -> int:
        return len(self._socks)

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send(self, slot: int, record: Record, body: bytes) -> None:
        self._pending[record.rid] = record
        record.sent = time.perf_counter()
        self._socks[slot].sendall(encode(record.rid, body))

    def pump(self, timeout: float) -> None:
        """Read whatever replies arrive within ``timeout`` seconds."""
        readable, _, _ = select.select(self._socks, [], [], max(0.0, timeout))
        for sock in readable:
            chunk = sock.recv(1 << 20)
            now = time.perf_counter()
            if not chunk:
                raise ConnectionError("the front end closed a connection")
            slot = self._socks.index(sock)
            *lines, self._buffers[slot] = (self._buffers[slot] + chunk).split(b"\n")
            for line in lines:
                self._deliver(slot, line, now)

    def _deliver(self, slot: int, line: bytes, now: float) -> None:
        reply = json.loads(line)
        record = self._pending.pop(reply.get("id"), None)
        if record is None:
            return
        record.done = now
        record.reply = reply
        if self.on_reply is not None:
            self.on_reply(slot, record)

    def drain(self, timeout: float = REPLY_TIMEOUT_S) -> int:
        """Read until every sent request is answered; return how many were not."""
        deadline = time.perf_counter() + timeout
        while self._pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            self.pump(min(remaining, 0.05))
        left = len(self._pending)
        self._pending.clear()
        return left

    def call(self, payload: dict, timeout: float = REPLY_TIMEOUT_S) -> dict:
        """One blocking request on connection 0 (nothing else in flight)."""
        record = Record(self.new_id(), str(payload.get("op")))
        body = json.dumps(payload, separators=(",", ":")).encode()
        record.due = time.perf_counter()
        self.send(0, record, body)
        if self.drain(timeout):
            raise RuntimeError(f"no reply to {payload!r} within {timeout:.0f}s")
        assert record.reply is not None
        return record.reply

    def close(self) -> None:
        for sock in self._socks:
            sock.close()


@dataclass
class PhaseResult:
    """What one load phase sent and got back."""

    records: List[Record] = field(default_factory=list)
    unanswered: int = 0
    cpu_s: float = 0.0
    #: Closed loop only: (reply times within the phase, start, stop).
    completions: Optional[Tuple[List[float], float, float]] = None

    def ok(self) -> List[Record]:
        return [r for r in self.records if r.reply is not None and r.reply.get("ok")]

    def refused(self) -> int:
        return sum(
            1
            for r in self.records
            if r.reply is not None
            and not r.reply.get("ok")
            and r.reply.get("error", {}).get("type") == "OverloadedError"
        )

    def failed(self) -> int:
        """Errors other than refusals, plus requests never answered."""
        errors = sum(1 for r in self.records if r.reply is not None and not r.reply.get("ok"))
        return errors - self.refused() + self.unanswered


def open_loop(
    client: Client,
    schedule: Sequence[Tuple[Record, bytes]],
    poll: Optional[Callable[[float], Optional[float]]] = None,
) -> PhaseResult:
    """Send each request when due (its ``due`` is absolute) and wait for all.

    Requests rotate over the client's connections.  ``poll(now)`` runs
    before every wait and returns when it next wants to run (or ``None``).
    """
    cpu0 = time.process_time()
    next_poll = time.perf_counter() if poll is not None else None
    with _gc_paused():
        _send_on_schedule(client, schedule, poll, next_poll)
        unanswered = client.drain()
    return PhaseResult(
        records=[record for record, _ in schedule],
        unanswered=unanswered,
        cpu_s=time.process_time() - cpu0,
    )


@contextmanager
def _gc_paused() -> Iterator[None]:
    """No cyclic GC pauses in the generator while a phase is timed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _send_on_schedule(client, schedule, poll, next_poll) -> None:
    for position, (record, body) in enumerate(schedule):
        while True:
            now = time.perf_counter()
            if next_poll is not None and now >= next_poll:
                next_poll = poll(now)
                continue
            wake = record.due if next_poll is None else min(record.due, next_poll)
            if wake <= now:
                break
            client.pump(wake - now)
        client.send(position % client.connections, record, body)
    while next_poll is not None:
        now = time.perf_counter()
        if now >= next_poll:
            next_poll = poll(now)
        else:
            client.pump(next_poll - now)


def closed_loop(
    client: Client,
    next_request: Callable[[int], Tuple[Record, bytes]],
    window: int,
    seconds: float,
) -> PhaseResult:
    """Keep ``window`` requests in flight for ``seconds``.

    Each reply immediately releases the next request on the same connection.
    The result's ``completions`` are the reply times within the phase.
    """
    records: List[Record] = []
    start = time.perf_counter()
    stop = start + seconds
    done: List[float] = []

    def issue(slot: int) -> None:
        record, body = next_request(len(records))
        records.append(record)
        record.due = time.perf_counter()
        client.send(slot, record, body)

    def on_reply(slot: int, record: Record) -> None:
        if record.done <= stop:
            done.append(record.done)
            issue(slot)

    client.on_reply = on_reply
    cpu0 = time.process_time()
    try:
        with _gc_paused():
            for position in range(window):
                issue(position % client.connections)
            while time.perf_counter() < stop:
                client.pump(stop - time.perf_counter())
            unanswered = client.drain()
    finally:
        client.on_reply = None
    return PhaseResult(
        records=records,
        unanswered=unanswered,
        cpu_s=time.process_time() - cpu0,
        completions=(done, start, stop),
    )
