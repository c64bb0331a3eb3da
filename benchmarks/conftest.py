"""Shared helpers for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the ``tiny``
scale (override with the ``REPRO_BENCH_SCALE`` environment variable) and
prints the regenerated rows/series.  Benchmarks are registered with
pytest-benchmark in pedantic mode (one round, one iteration) because each
invocation is a full federated run, not a micro-kernel.
"""

from __future__ import annotations

import os
import platform

import pytest

DEFAULT_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


def bench_environment() -> dict:
    """Machine context recorded in every ``BENCH_*.json`` payload.

    ROADMAP's "results from 1-core containers are dispatch-overhead-bound"
    caveat becomes machine-readable: consumers can filter on ``cpu_count``
    instead of knowing the folklore.  Splat this into the payload dict
    (``**bench_environment()``) so all benchmarks stay schema-consistent.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        # BLAS threading context: fused-cohort and fused-eval numbers depend
        # on how many threads the BLAS is allowed, so the knobs ride along
        # with every payload.
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mkl_num_threads": os.environ.get("MKL_NUM_THREADS"),
    }


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Scale preset used by every benchmark (``tiny`` unless overridden)."""
    return DEFAULT_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
