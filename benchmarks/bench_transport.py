"""State-transport benchmark: bytes on the wire with the content-addressed store.

Runs a FedZKT simulation (sharded server update, ``process:2``) and records,
per round, what the execution backend actually shipped across process
boundaries (``shipped_bytes``) against what the pre-store wire format
would have shipped (``inline_equivalent_bytes``: one full payload inlined
into every task that references it).  Phase 1 of the server update is the
stress case: the same teacher states used to be re-shipped inside every
forward/VJP shard task of every synthesis iteration; the store publishes
them once per round.

What ``shipped_bytes`` counts depends on the backend:

* ``process:N`` — published blobs + worker cache-miss fetches + task
  pickles + context publishes.  Task *results* return through the process
  pool and are not counted.
* ``tcp://…`` — all of the above, plus the result frames workers send back
  (``result_bytes``) and the blobs they upload.  Result bytes also enter
  ``inline_equivalent_bytes``, but the store cannot shrink them, so the
  same workload reports a smaller reduction on tcp.  On a 2-core x86_64
  host the two measured rounds read 12.7x and 13.1x on ``process:2`` but
  9.2x and 8.9x on ``tcp://127.0.0.1:0?workers=2``, where 12.3 MB of
  result bytes cross the wire over 3 rounds.  The 10x target is set for
  ``process:N``.

The benchmark **asserts** its three regression guards (exit code 1 on
violation, so CI fails loudly):

* ≥ {TARGET_REDUCTION}x reduction in shipped bytes per measured round;
* teacher-state worker-cache hit rate ≥ {TARGET_HIT_RATE:.0%} after the
  warm-up round;
* the worker pool is never respawned — not even on a context change.  On
  ``process:N`` that is the backend's ``pool_restarts``; on ``tcp://…`` it
  is ``server_starts`` (the server and its spawned workers start once).

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_transport.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import bench_environment  # noqa: E402

from repro.core import build_fedzkt  # noqa: E402
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator  # noqa: E402
from repro.federated import FederatedConfig, ServerConfig, WorkerContext, make_backend  # noqa: E402

TARGET_REDUCTION = 10.0
TARGET_HIT_RATE = 0.90

__doc__ = __doc__.format(TARGET_REDUCTION=TARGET_REDUCTION,
                         TARGET_HIT_RATE=TARGET_HIT_RATE)


def _data(samples_train=120, samples_test=40):
    config = SyntheticImageConfig(name="transport-rgb", num_classes=4, channels=3,
                                  height=8, width=8, family_seed=21, noise_level=0.2,
                                  max_shift=1, modes_per_class=1, background_strength=0.2)
    generator = SyntheticImageGenerator(config)
    return generator.sample(samples_train, seed=1), generator.sample(samples_test, seed=2)


def _config(iterations: int, rounds: int) -> FederatedConfig:
    # Phase-1-heavy configuration: many synthesis iterations over a small
    # synthetic batch, so teacher-state traffic dominates — exactly the
    # FedZKT regime the store is built for.
    return FederatedConfig(
        num_devices=6, rounds=rounds, local_epochs=1, batch_size=16,
        device_lr=0.05, seed=3,
        server=ServerConfig(distillation_iterations=iterations, batch_size=4,
                            noise_dim=16, device_distill_lr=0.02, server_shards=2,
                            global_steps_per_generator_step=1),
    )


def _pool_starts(backend) -> int:
    """How often the backend built its worker pool (tcp: its server)."""
    if hasattr(backend, "pool_restarts"):
        return backend.pool_restarts
    return getattr(backend, "server_starts", 0)


def _delta(after: dict, before: dict, key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))


def _label_delta(after: dict, before: dict, label: str, key: str) -> int:
    after_bucket = after.get("by_label", {}).get(label, {})
    before_bucket = before.get("by_label", {}).get(label, {})
    return int(after_bucket.get(key, 0)) - int(before_bucket.get(key, 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="distillation iterations per server update")
    parser.add_argument("--measured-rounds", type=int, default=2)
    parser.add_argument("--backend", default="process:2")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_transport.json"))
    args = parser.parse_args(argv)

    iterations = args.iterations if args.iterations is not None else (12 if args.quick else 50)
    # --quick shrinks the workload below the regime the targets are set
    # for (teacher traffic needs many synthesis iterations to dominate);
    # it reports the numbers without enforcing them.
    enforce = not args.quick
    total_rounds = 1 + args.measured_rounds
    train, test = _data()
    config = _config(iterations, total_rounds)

    print(f"transport benchmark: fedzkt on {args.backend}, "
          f"{config.num_devices} devices, {iterations} distillation iterations, "
          f"1 warm-up + {args.measured_rounds} measured rounds")

    backend = make_backend(args.backend)
    rounds = []
    failures = []
    with backend:
        with build_fedzkt(train, test, config, family="small", backend=backend) as sim:
            start = time.perf_counter()
            sim.run(rounds=1)  # warm-up: pool spawn, context publish, cold caches
            warmup_seconds = time.perf_counter() - start
            before = backend.transport_stats()

            for round_index in range(2, total_rounds + 1):
                start = time.perf_counter()
                sim.run_round(round_index)
                seconds = time.perf_counter() - start
                after = backend.transport_stats()
                shipped = _delta(after, before, "shipped_bytes")
                inline = _delta(after, before, "inline_equivalent_bytes")
                reduction = (inline / shipped) if shipped else float("inf")
                teacher_resolved = _label_delta(after, before, "teacher", "resolved")
                teacher_fetches = _label_delta(after, before, "teacher", "fetches")
                teacher_hit_rate = (1.0 - teacher_fetches / teacher_resolved
                                    if teacher_resolved else None)
                rounds.append({
                    "round": round_index,
                    "seconds": seconds,
                    "shipped_bytes": shipped,
                    "inline_equivalent_bytes": inline,
                    "reduction_factor": reduction,
                    "teacher_refs_resolved": teacher_resolved,
                    "teacher_fetches": teacher_fetches,
                    "teacher_hit_rate": teacher_hit_rate,
                })
                print(f"  round {round_index}: shipped {shipped / 1e6:7.2f} MB  "
                      f"inline-equivalent {inline / 1e6:7.2f} MB  "
                      f"reduction {reduction:5.1f}x  "
                      f"teacher hit rate {teacher_hit_rate:.3f}  ({seconds:.1f}s)")
                if reduction < TARGET_REDUCTION:
                    failures.append(
                        f"round {round_index}: reduction {reduction:.1f}x "
                        f"< target {TARGET_REDUCTION}x")
                if teacher_hit_rate is None or teacher_hit_rate < TARGET_HIT_RATE:
                    failures.append(
                        f"round {round_index}: teacher hit rate {teacher_hit_rate} "
                        f"< target {TARGET_HIT_RATE}")
                before = after

            final = backend.transport_stats()
            pool_restarts = _pool_starts(backend)
            if pool_restarts > 1:
                failures.append(f"pool respawned: {pool_restarts} pool starts for one run")

        # A context change on the live pool must re-publish, not respawn.
        backend.start(WorkerContext(models={}, shards={}, train_configs={}))
        if _pool_starts(backend) != pool_restarts:
            failures.append("context change respawned the worker pool")

    payload = {
        "benchmark": "transport",
        "backend": args.backend,
        "num_devices": config.num_devices,
        "distillation_iterations": iterations,
        "server_shards": config.server.server_shards,
        "warmup_seconds": warmup_seconds,
        "measured_rounds": rounds,
        "pool_restarts": pool_restarts,
        "targets": {"reduction_factor": TARGET_REDUCTION,
                    "teacher_hit_rate": TARGET_HIT_RATE},
        "final_stats": {key: value for key, value in final.items() if key != "by_label"},
        "by_label": final.get("by_label", {}),
        "failures": failures,
        **bench_environment(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, default=float) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    if failures and not enforce:
        print("targets not enforced under --quick; would have failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 0
    if failures:
        print("TRANSPORT REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: >= {TARGET_REDUCTION}x fewer bytes shipped per round, "
          f"teacher hit rate >= {TARGET_HIT_RATE:.0%}, pool never respawned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
