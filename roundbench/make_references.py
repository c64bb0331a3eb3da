#!/usr/bin/env python3
"""Regenerate ``references.json``: the float64 round records every workload
must reproduce.

Each reference is the plain configuration of its algorithm (serial backend,
no server sharding, no cohort fusion) run for one episode's rounds on each
seed ``0 .. NUM_SEEDS-1``.  ``zkt-tcp-sharded`` is checked against the
``fedzkt`` reference and ``avg-fused`` against the unfused ``fedavg`` one,
because the repository guarantees bit-identical histories across backends,
server shards and exact cohort fusion.  Run it from the checkout root only
when the numerics are meant to change::

    python3 roundbench/make_references.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import sys
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run


def _generate(job):
    import bench

    key, seed = job
    workload = bench.REFERENCE_WORKLOADS[key]
    simulation, backend = bench.set_up(workload, seed)
    try:
        records = [bench.record_of(simulation.run_round(index))
                   for index in range(workload.rounds)]
    finally:
        bench.tear_down(simulation, backend)
    return key, seed, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    run.prepare_imports()
    import bench

    jobs = [(key, seed) for key in bench.REFERENCE_WORKLOADS for seed in range(bench.NUM_SEEDS)]
    references = {key: {} for key in bench.REFERENCE_WORKLOADS}
    with ProcessPoolExecutor(max_workers=args.jobs, initializer=run.prepare_imports,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for key, seed, records in pool.map(_generate, jobs):
            references[key][str(seed)] = records
            print(f"{key} seed {seed}: local_loss "
                  + " ".join(repr(r["local_loss"]) for r in records), flush=True)
    Path(bench.REFERENCES).write_text(json.dumps(references, sort_keys=True, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
