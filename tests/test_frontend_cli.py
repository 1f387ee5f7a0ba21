"""End-to-end tests for the CLI frontend mode (``serve --port`` / ``stats --frontend``).

Runs ``python -m repro`` as a real subprocess: the regression of interest is
the process-level shutdown path (SIGINT must reap every forked worker and
exit 0), which cannot be exercised in-process.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys

import pytest

from repro.graph.generators import power_law_bipartite
from repro.index.degeneracy_index import DegeneracyIndex

from tests.conftest import has_exited, wait_for_exit

READY_LINE = re.compile(
    r"serving frontend on ([\d.]+):(\d+) \((\d+) workers: ([\d, ]+)\)"
)


def _repro_env():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture(scope="module")
def cli_index():
    graph = power_law_bipartite(80, 70, 600, seed=13, name="cli-frontend")
    return DegeneracyIndex(graph, backend="csr")


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, cli_index):
    from repro.serving.snapshot import save_snapshot

    return save_snapshot(cli_index, tmp_path_factory.mktemp("cli") / "snap")


def _start_serve(snapshot_dir):
    """Start ``repro serve --port 0`` on ``snapshot_dir`` with two workers.

    Returns ``(proc, host, port, worker_pids)`` once the ready line is out.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot",
            str(snapshot_dir),
            "--workers",
            "2",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_repro_env(),
    )
    line = proc.stdout.readline()
    match = READY_LINE.match(line)
    if not match:
        _kill(proc)
        pytest.fail(f"unexpected ready line: {line!r}")
    host, port = match.group(1), int(match.group(2))
    pids = [int(p) for p in match.group(4).split(",")]
    assert int(match.group(3)) == 2 and len(pids) == 2
    return proc, host, port, pids


def _kill(proc):
    """Make sure ``proc`` is gone and its pipes are closed."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    proc.stderr.close()


@pytest.fixture(scope="module")
def serve_process(snapshot_dir):
    """One ``repro serve --port 0`` subprocess shared by the module's tests.

    Yields ``(proc, host, port, worker_pids)``.
    """
    proc, host, port, pids = _start_serve(snapshot_dir)
    try:
        yield proc, host, port, pids
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        _kill(proc)


class TestServeFrontendCli:
    def test_serves_queries_over_the_socket(self, serve_process, cli_index):
        from repro.serving.frontend import FrontendClient

        _, host, port, _ = serve_process
        with FrontendClient(host, port, timeout=60.0) as client:
            health = client.health()
            assert health["ok"] and health["workers"] == 2
            label = cli_index.vertices_in_core(2, 2)[0].label
            reply = client.community(label, 2, 2)
            assert reply["ok"] and reply["found"]

    def test_stats_frontend_subcommand(self, serve_process):
        _, host, port, _ = serve_process
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "stats",
                "--frontend",
                f"{host}:{port}",
            ],
            capture_output=True,
            text=True,
            env=_repro_env(),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "frontend_requests_community" in result.stdout
        assert "answer_cache_hits" in result.stdout

    def test_stats_frontend_rejects_bad_address(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--frontend", "nowhere:abc"],
            capture_output=True,
            text=True,
            env=_repro_env(),
            timeout=60,
        )
        assert result.returncode != 0
        assert "frontend" in result.stderr.lower() or "port" in result.stderr.lower()

    def test_sigint_shutdown_is_clean(self, snapshot_dir):
        """SIGINT exits 0, says "interrupted" and leaves no live worker."""
        proc, _, _, pids = _start_serve(snapshot_dir)
        try:
            assert not any(has_exited(pid) for pid in pids)
            proc.send_signal(signal.SIGINT)
            try:
                returncode = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pytest.fail("frontend did not exit on SIGINT")
            stderr = proc.stderr.read()
            assert returncode == 0, (returncode, stderr)
            assert "interrupted" in stderr
            for pid in pids:
                wait_for_exit(pid)
        finally:
            _kill(proc)
