#!/usr/bin/env python3
"""Run one workload of the end-to-end federated-round benchmark.

Usage, from the root of a checkout::

    python3 roundbench/run.py --workload zkt-serial --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same loop with the per-layer wrappers on every second
timed round and reports the per-layer metrics instead.  ``--quick`` runs a
single short episode (the self-tests' smoke mode).  Human-readable lines
come first; the last line of standard output is the result object::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

The benchmark imports ``repro`` from the checkout's own ``src/`` and
refuses to run without it.  BLAS/OpenMP threads are pinned to one per
process so the driver and the two tcp workers do not oversubscribe a
2-core machine; the setting is inherited by spawned workers.
"""

from __future__ import annotations

import argparse
import faulthandler
import importlib.util
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds past ``--seconds`` after which a run that is still going (a hang
#: the per-round deadline could not interrupt) dumps its stacks and exits 1.
HANG_EXIT_S = 130.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one two-round episode and one set-up")
    return parser.parse_args(argv)


def prepare_imports() -> None:
    """Pin threads, then make the checkout's ``repro`` importable (only it)."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    os.environ.pop("REPRO_SLICE_THREADS", None)
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package at {package}; "
                         "run the benchmark from a full checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {package}")


def bench_environment() -> dict:
    """The environment fields every ``BENCH_*.json`` payload records."""
    path = ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bench_environment()


def main(argv=None) -> int:
    args = parse_args(argv)
    faulthandler.dump_traceback_later(args.seconds + HANG_EXIT_S, exit=True)
    prepare_imports()
    import bench

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(bench.WORKLOADS)}")
    print("environment " + json.dumps(bench_environment(), sort_keys=True))
    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                trace=bool(args.trace), quick=args.quick)
    outcome = bench.report(result, trace=bool(args.trace))
    bench.describe(result)
    for name, metric in outcome["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
