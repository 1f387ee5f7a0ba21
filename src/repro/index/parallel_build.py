"""Multicore sharding of the per-level index construction passes.

The τ = 1..δ levels of Algorithm 3 are embarrassingly parallel: each level
is a pure function of the frozen CSR arrays, so the per-τ offset sweeps and
entry filtering can run on worker processes while the parent keeps the
``LevelArrays`` assembly and ``ArrayQueryPath`` population sequential and
deterministic.

The split is chosen so parallelism cannot change results:

* workers compute only :class:`LevelPayload` values — plain ``numpy`` arrays
  (offset vectors and sorted :data:`~repro.index.csr_build.SideEntries`)
  produced by deterministic kernels;
* the parent consumes payloads in increasing τ order, running exactly the
  same assembly code as the sequential build.

The six CSR arrays are shipped once per worker through the pool initializer
(pickled buffers; a fork start method shares the parent pages outright), not
once per level.  ``_parallel_payloads`` and ``_sequential_payloads`` are
registered as a kernel/twin pair — ``n_jobs=1`` must stay element-wise
identical to any worker count.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.decomposition.csr_kernels import csr_offsets_fixed_primary
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import Side
from repro.graph.csr import CSRBipartiteGraph
from repro.index.csr_build import SideEntries, edge_sources, level_side_entries

__all__ = [
    "LevelPayload",
    "check_n_jobs",
    "compute_level_payloads",
    "level_payload",
]

#: The CSR array attributes shipped to workers, in constructor order.
_CSR_ARRAY_FIELDS = (
    "u_indptr",
    "u_indices",
    "u_weights",
    "l_indptr",
    "l_indices",
    "l_weights",
)


@dataclass(frozen=True)
class LevelPayload:
    """Everything level τ contributes before handle-dependent assembly.

    ``alpha_upper``/``alpha_lower`` are the α-offset vectors at level τ
    (``sa`` in the paper's notation), ``beta_upper``/``beta_lower`` the
    β-offset vectors; the entry dicts are the filtered, sorted per-side edge
    arrays of each index half.  All fields are plain arrays (and picklable),
    so a payload crosses process boundaries unchanged.
    """

    tau: int
    alpha_upper: "np.ndarray"
    alpha_lower: "np.ndarray"
    beta_upper: "np.ndarray"
    beta_lower: "np.ndarray"
    alpha_entries: SideEntries
    beta_entries: SideEntries
    seconds: float


def check_n_jobs(n_jobs: int) -> int:
    """Validate a worker-count parameter (a positive int), returning it."""
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, int) or n_jobs < 1:
        raise InvalidParameterError(
            f"n_jobs must be a positive integer, got {n_jobs!r}"
        )
    return n_jobs


def level_payload(
    csr: CSRBipartiteGraph,
    tau: int,
    src_upper: "np.ndarray",
    src_lower: "np.ndarray",
) -> LevelPayload:
    """Compute level τ's offset vectors and sorted entry arrays.

    Pure in the CSR arrays: every step (fixed-primary offset sweeps, member
    masks, entry filtering and the lexicographic entry sort) is deterministic,
    so the payload is identical no matter which process computes it.
    """
    started = time.perf_counter()
    sa_u, sa_l = csr_offsets_fixed_primary(csr, Side.UPPER, tau)
    sb_u, sb_l = csr_offsets_fixed_primary(csr, Side.LOWER, tau)
    member_upper = sa_u >= tau
    member_lower = sa_l >= tau
    alpha_entries = level_side_entries(
        csr,
        member_upper,
        member_lower,
        sa_u,
        sa_l,
        tau,
        strict=False,
        src_upper=src_upper,
        src_lower=src_lower,
    )
    beta_entries = level_side_entries(
        csr,
        member_upper,
        member_lower,
        sb_u,
        sb_l,
        tau,
        strict=True,
        src_upper=src_upper,
        src_lower=src_lower,
    )
    return LevelPayload(
        tau=tau,
        alpha_upper=sa_u,
        alpha_lower=sa_l,
        beta_upper=sb_u,
        beta_lower=sb_l,
        alpha_entries=alpha_entries,
        beta_entries=beta_entries,
        seconds=time.perf_counter() - started,
    )


# --------------------------------------------------------------------- #
# worker-side state
# --------------------------------------------------------------------- #
#: Per-worker frozen graph + precomputed edge sources, installed by the pool
#: initializer so the arrays ship once per worker instead of once per level.
_WORKER_STATE: Optional[Tuple[CSRBipartiteGraph, "np.ndarray", "np.ndarray"]] = None


def _init_worker(arrays: Tuple["np.ndarray", ...]) -> None:
    """Rebuild a label-free CSR view over the shipped arrays in this worker.

    Workers only ever run array kernels (``layer``/``num_upper``/
    ``num_lower``), so integer-range stand-in labels are enough — the parent
    keeps the real intern table and does all label-dependent assembly.
    """
    global _WORKER_STATE
    num_upper = int(arrays[0].shape[0]) - 1
    num_lower = int(arrays[3].shape[0]) - 1
    csr = CSRBipartiteGraph(
        "", list(range(num_upper)), list(range(num_lower)), *arrays
    )
    _WORKER_STATE = (csr, edge_sources(csr, Side.UPPER), edge_sources(csr, Side.LOWER))


def _worker_level(tau: int) -> LevelPayload:
    """Pool map target: compute one level against the worker's CSR view."""
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("parallel build worker used before initialisation")
    csr, src_upper, src_lower = state
    return level_payload(csr, tau, src_upper, src_lower)


# --------------------------------------------------------------------- #
# the kernel/twin pair
# --------------------------------------------------------------------- #
def _sequential_payloads(csr: CSRBipartiteGraph, delta: int) -> List[LevelPayload]:
    """In-process level computation, one τ at a time.

    Contract: one LevelPayload per level tau = 1..delta, in increasing tau
    order, each holding that level's deterministic offset vectors and sorted
    side-entry arrays.
    """
    src_upper = edge_sources(csr, Side.UPPER)
    src_lower = edge_sources(csr, Side.LOWER)
    return [level_payload(csr, tau, src_upper, src_lower) for tau in range(1, delta + 1)]


def _parallel_payloads(
    csr: CSRBipartiteGraph, delta: int, jobs: int
) -> List[LevelPayload]:
    """Level computation sharded across a process pool.

    Contract: one LevelPayload per level tau = 1..delta, in increasing tau
    order, each holding that level's deterministic offset vectors and sorted
    side-entry arrays.
    """
    arrays = tuple(getattr(csr, field) for field in _CSR_ARRAY_FIELDS)
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(method)
    with context.Pool(
        processes=jobs, initializer=_init_worker, initargs=(arrays,)
    ) as pool:
        # chunksize=1: levels get cheaper as tau grows, so fine-grained
        # dispatch balances the skewed per-level cost across workers.
        return pool.map(_worker_level, range(1, delta + 1), chunksize=1)


def compute_level_payloads(
    csr: CSRBipartiteGraph, delta: int, n_jobs: int = 1
) -> Tuple[List[LevelPayload], Dict[str, float]]:
    """All level payloads of an index build, plus build observability metrics.

    ``n_jobs`` caps at ``delta`` (a worker per level is the finest useful
    grain); 0 or 1 effective workers run sequentially in-process.  The
    returned metrics surface through ``IndexStats.extra``:
    ``build_jobs`` (effective worker count), ``build_shipped_bytes``
    (CSR array bytes pickled to each worker, 0 for the in-process path),
    and ``build_level_seconds_total``/``build_level_seconds_max`` (summed and
    slowest per-level compute time, measured inside the workers).
    """
    jobs = min(check_n_jobs(n_jobs), max(delta, 1))
    if jobs > 1:
        payloads = _parallel_payloads(csr, delta, jobs)
        shipped = float(
            sum(getattr(csr, field).nbytes for field in _CSR_ARRAY_FIELDS)
        )
    else:
        payloads = _sequential_payloads(csr, delta)
        shipped = 0.0
    seconds = [payload.seconds for payload in payloads]
    metrics = {
        "build_jobs": float(jobs),
        "build_shipped_bytes": shipped,
        "build_level_seconds_total": float(sum(seconds)),
        "build_level_seconds_max": float(max(seconds, default=0.0)),
    }
    return payloads, metrics
