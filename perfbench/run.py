"""The repository benchmark: one command, three workloads, absolute numbers.

Run from the repository root::

    python3 perfbench/run.py --workload hot-community --seed 1 --seconds 15 --trace 0

``--workload`` is ``hot-community``, ``significant-sweep`` or ``churn-serve``.
With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics
instead (a traced pass plus differential probes follow the untraced pass, and
the spans are written to ``.perfbench-work/spans-<workload>-<seed>.jsonl``).
Every timed reply is checked against an oracle; a wrong answer exits 1.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("capacity_qps", "req/s"),
    ("ok_ratio", "fraction"),
    ("server_pss_mb", "MB"),
    ("cold_start_ms", "ms"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("frontend.cached_rtt_ms", "ms"),
    ("frontend.self_ms", "ms"),
    ("frontend.mean_batch_size", "count"),
    ("frontend.overload_rejections", "count"),
    ("frontend.request_errors", "count"),
    ("answer_cache.hit_ratio", "fraction"),
    ("answer_cache.evictions", "count"),
    ("answer_cache.resets", "count"),
    ("server.dispatch_ipc_ms", "ms"),
    ("snapshot.community_edges_ms", "ms"),
    ("search.significant_ms", "ms"),
    ("supervisor.reloads", "count"),
    ("supervisor.respawns", "count"),
    ("supervisor.visible_lag_ms", "ms"),
    ("maintenance.update_ms", "ms"),
    ("maintenance.levels_patched_per_update", "count"),
    ("maintenance.region_mean_vertices", "count"),
    ("maintenance.arrays_invalidated", "count"),
    ("maintenance.ingest_ops_s", "ops/s"),
    ("delta.save_ms", "ms"),
    ("delta.bytes_per_op", "B"),
    ("delta.full_rewrites", "count"),
    ("compaction.ms", "ms"),
    ("compaction.bytes_rewritten", "B"),
    ("compaction.count", "count"),
    ("index.build_s_1job", "s"),
    ("index.build_s_njobs", "s"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("snapshot.query_path_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.cpu_s", "s"),
    ("loadgen.failed_ratio", "fraction"),
    ("loadgen.query_p90_ms", "ms"),
    ("loadgen.query_p99_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_capacity_qps", "req/s"),
    ("self.loadgen.request_ms", "ms"),
    ("self.maintenance.update_ms", "ms"),
    ("self.index.save_index_ms", "ms"),
    ("self.snapshot.save_snapshot_delta_ms", "ms"),
    ("self.compaction.compact_snapshot_ms", "ms"),
)

#: Span names whose mean self time is reported as ``self.<name>_ms``.
SELF_SPANS = (
    "loadgen.request",
    "maintenance.update",
    "index.save_index",
    "snapshot.save_snapshot_delta",
    "compaction.compact_snapshot",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("hot-community", "significant-sweep", "churn-serve"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight(root: Path) -> Optional[str]:
    """Why the benchmark cannot run here, or ``None`` when it can."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return f"no repro package under {root / 'src'}; run from the repository root"
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "numpy is required (the snapshot store maps numpy arrays)"
    return None


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree.

    Git is kept from searching above the checkout for another repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(run, root: Path) -> Dict[str, object]:
    import numpy

    spec = run.spec
    graph = run.graph
    return {
        "workload": spec.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "nproc": run.nproc,
        "workers": run.nproc,
        "connections": run.nproc,
        "pinned_cpus": run.cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "graph": {
            "num_upper": graph.num_upper,
            "num_lower": graph.num_lower,
            "num_edges": graph.num_edges,
            "delta": run.index.delta,
            "generator": "power_law_bipartite",
            "exponent": 1.0,
            "weights": "UF",
        },
        "rate_per_s": spec.rate,
        "in_flight_window": spec.window,
        "edges_share": spec.edges_share,
        "pool_size": len(run.pool),
        "ops_per_step": spec.ops_per_step,
        "max_chain_len": spec.max_chain_len,
    }


def run_passes(run, trace: bool) -> Tuple[Dict[str, float], Dict[str, float], Dict]:
    """Set up, run the untraced pass and, when asked, the traced pass."""
    import streams
    import workloads as w
    from measure import Tracer, self_times

    w.setup(run)
    w.compute_oracle(run)
    writer = None
    if run.spec.churn:
        ops = streams.op_stream(run.graph, run.seed * 65537 + 3, w.MAX_OPS)
        writer = w.Writer(run, ops)
        untraced = w.churn_pass(run, None, 1, writer)
    else:
        untraced = w.serve_pass(run, None, 1)
    cold = w.cold_start_figure(run, untraced)
    e2e, info = w.end_to_end(run, untraced, cold)
    info["passes"] = {"untraced": _pass_counts(untraced)}
    if not trace:
        return e2e, {}, info

    tracer = Tracer()
    layer: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    if writer is not None:
        with contextlib.ExitStack() as stack:
            mark = w.write_mark(run, writer)
            reports = w.wrap_write_path(stack, tracer)
            traced = w.churn_pass(run, tracer, 2, writer)
        layer.update(
            w.write_path_metrics(run, tracer, writer, mark, traced.visible_lag_ms, reports)
        )
    else:
        traced = w.serve_pass(run, tracer, 2)
        layer.update(w.write_probe(run, tracer))
    traced_e2e, _ = w.end_to_end(run, traced, cold)
    info["passes"]["traced"] = _pass_counts(traced)
    layer.update(w.stats_probe(run))
    layer.update(w.layer_probes(run, tracer))
    layer.update(w.build_probes(run, tracer))
    layer["loadgen.late_p99_ms"] = info["loadgen_late_p99_ms"]
    layer["loadgen.cpu_s"] = info["loadgen_cpu_s"]
    layer["loadgen.failed_ratio"] = info["failed_ratio"]
    layer["loadgen.query_p90_ms"] = info["query_p90_ms"]
    layer["loadgen.query_p99_ms"] = info["query_p99_ms"]
    layer["trace.overhead_p50_ms"] = traced_e2e["query_p50_ms"] - e2e["query_p50_ms"]
    layer["trace.overhead_capacity_qps"] = e2e["capacity_qps"] - traced_e2e["capacity_qps"]
    own = self_times(tracer.spans)
    for name in SELF_SPANS:
        values = [own[s.span_id] for s in tracer.spans if s.name == name]
        layer[f"self.{name}_ms"] = statistics.mean(values) * 1000.0 if values else 0.0
    spans_path = run.root / ".perfbench-work" / f"spans-{run.spec.name}-{run.seed}.jsonl"
    tracer.dump(spans_path)
    info["spans"] = {"count": len(tracer.spans), "path": str(spans_path.relative_to(run.root))}
    info["traced_end_to_end"] = traced_e2e
    return e2e, layer, info


def _terminate_handler(main_pid: int):
    """SIGTERM unwinds the benchmark like Ctrl-C, so it still stops its server.

    Processes forked from it (the parallel index build's pool) inherit the
    handler; they die as plain SIGTERM would.
    """

    def handler(signum: int, _frame) -> None:
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise KeyboardInterrupt

    return handler


def _pass_counts(result) -> Dict[str, int]:
    phases = result.all_phases()
    return {
        "sent": sum(len(p.records) for p in phases),
        "succeeded": sum(len(p.ok()) for p in phases),
        "failed": sum(p.failed() for p in phases),
        "refused": sum(p.refused() for p in phases),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    problem = preflight(root)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as w

    work_root = root / ".perfbench-work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    signal.signal(signal.SIGTERM, _terminate_handler(os.getpid()))
    run = w.Run(
        spec=w.SPECS[args.workload],
        root=root,
        work=work,
        seed=args.seed,
        seconds=args.seconds,
        nproc=os.cpu_count() or 1,
    )
    correct = True
    try:
        e2e, layer, info = run_passes(run, bool(args.trace))
    except w.WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(1, run.checked),
                          "failed": 0, "metrics": {}}))
        return 1
    record = {"environment": environment(run, root), "run": info,
              "checked_answers": run.checked, "checked_edge_lists": run.edges_checked}
    print(json.dumps(record, indent=1, sort_keys=True, default=str))
    if not info["valid"]:
        print(f"perfbench: run INVALID: the generator sent late "
              f"(p99 {info['loadgen_late_p99_ms']:.2f} ms > {w.LATE_LIMIT_MS} ms)",
              file=sys.stderr)
    print("end-to-end:")
    for name, unit in END_TO_END:
        print(f"  {name:<40} {e2e[name]:>14.4f} {unit}")
    print(f"  {'failed_ratio':<40} {info['failed_ratio']:>14.4f} fraction")
    print(f"  {'query_p90_ms (not gated)':<40} {info['query_p90_ms']:>14.4f} ms")
    print(f"  {'query_p99_ms (whole run, not gated)':<40} {info['query_p99_ms']:>14.4f} ms")
    selected = END_TO_END
    values = e2e
    if args.trace:
        print("per-layer:")
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layer[name]:>14.4f} {unit}")
        selected = PER_LAYER
        values = layer
    result = {
        "correct": True,
        "attempted": info["sent"],
        "failed": info["failed"] + info["refused"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in selected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
