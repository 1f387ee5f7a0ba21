"""Figure 10 — index construction time (Iv, Iα_bs, Iβ_bs, Iδ)."""

from __future__ import annotations

import pytest

from repro.index.basic_index import BasicIndex
from repro.index.bicore_index import BicoreIndex
from repro.index.degeneracy_index import DegeneracyIndex

from benchmarks.conftest import BENCH_DATASETS

BUILD_DATASETS = BENCH_DATASETS[:3]
BASIC_LEVEL_CAP = 6


@pytest.mark.parametrize("dataset", BUILD_DATASETS)
def test_build_bicore_index(benchmark, bench_graphs, dataset):
    graph = bench_graphs[dataset]
    index = benchmark.pedantic(lambda: BicoreIndex(graph), rounds=2, iterations=1)
    assert index.delta >= 1


@pytest.mark.parametrize("dataset", BUILD_DATASETS)
def test_build_degeneracy_index(benchmark, bench_graphs, dataset):
    graph = bench_graphs[dataset]
    index = benchmark.pedantic(lambda: DegeneracyIndex(graph), rounds=2, iterations=1)
    assert index.stats().entries > 0


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
@pytest.mark.parametrize("dataset", BUILD_DATASETS[:1])
def test_build_degeneracy_index_jobs_sweep(benchmark, bench_graphs, dataset, n_jobs):
    """CSR build at 1/2/4 workers — the Figure 10 curve, parallel edition.

    At benchmark scale the absolute times are small; the dedicated speedup
    gate lives in ``bench_parallel_build.py``.  This sweep tracks the trend
    and asserts the worker count never changes the built structure.
    """
    graph = bench_graphs[dataset]
    index = benchmark.pedantic(
        lambda: DegeneracyIndex(graph, backend="csr", n_jobs=n_jobs),
        rounds=2,
        iterations=1,
    )
    assert index.stats().entries > 0
    assert index.stats().extra["build_jobs"] == float(min(n_jobs, index.delta))


@pytest.mark.parametrize("dataset", BUILD_DATASETS)
@pytest.mark.parametrize("direction", ["alpha", "beta"])
def test_build_basic_index_capped(benchmark, bench_graphs, dataset, direction):
    """Capped basic-index build; the full build grows with α_max / β_max."""
    graph = bench_graphs[dataset]
    index = benchmark.pedantic(
        lambda: BasicIndex(graph, direction, max_level=BASIC_LEVEL_CAP),
        rounds=1,
        iterations=1,
    )
    assert index.max_level <= BASIC_LEVEL_CAP
