"""Eval-fusion benchmark: fused batch-of-devices inference vs the per-device loop.

Times one evaluation sweep (top-1 accuracy on a shared test set) for a
homogeneous cohort of B={COHORT} devices two ways: the historical
per-device loop (:func:`~repro.federated.trainer.evaluate_accuracy` once
per device, each a chain of small no-grad forwards) and the fused path
(one eval-mode :class:`~repro.nn.BatchedModule`: all B parameter sets
stacked on a leading axis, the shared batch broadcast across the cohort,
one stacked forward per test batch).  The fused path performs the same float64
arithmetic per cohort slice — it is pinned bit-identical by
``tests/federated/test_eval_fusion.py`` — so any speedup is pure
Python/dispatch-overhead amortization plus larger BLAS calls, exactly the
per-round evaluation sweep of the federated simulation.

The benchmark **asserts** its regression guard (exit code 1 on violation,
so CI fails loudly): fused per-device evaluation must be at least
{TARGET_SPEEDUP}x faster than the per-device loop for every measured
architecture at cohort size {COHORT}.

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_eval_fusion.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import bench_environment  # noqa: E402

from repro.datasets.base import ImageDataset  # noqa: E402
from repro.federated.trainer import evaluate_accuracy  # noqa: E402
from repro.models.simple import FullyConnected, LeNet, SimpleCNN  # noqa: E402
from repro.nn import BatchedModule  # noqa: E402

TARGET_SPEEDUP = 2.0
COHORT = 8
INPUT_SHAPE = (3, 8, 8)
NUM_CLASSES = 4
EVAL_SAMPLES = 256
EVAL_BATCH = 8

__doc__ = __doc__.format(TARGET_SPEEDUP=TARGET_SPEEDUP, COHORT=COHORT)

WORKLOADS = {
    "fully_connected": lambda seed: FullyConnected(
        INPUT_SHAPE, NUM_CLASSES, hidden_sizes=(16, 8), seed=seed),
    "simple_cnn": lambda seed: SimpleCNN(
        INPUT_SHAPE, NUM_CLASSES, channels=(4, 8), hidden_size=16, seed=seed),
    "lenet": lambda seed: LeNet(
        INPUT_SHAPE, NUM_CLASSES, conv_channels=(4, 8), fc_sizes=(24,), seed=seed),
}


def _eval_set(rng, samples):
    images = rng.normal(size=(samples, *INPUT_SHAPE))
    labels = rng.integers(0, NUM_CLASSES, size=samples)
    return ImageDataset(images, labels, NUM_CLASSES, "bench-eval")


def _time_serial(factory, dataset):
    models = [factory(seed=index) for index in range(COHORT)]
    start = time.perf_counter()
    accuracies = [evaluate_accuracy(model, dataset, batch_size=EVAL_BATCH)
                  for model in models]
    return time.perf_counter() - start, accuracies


def _time_fused(factory, dataset):
    states = [factory(seed=index).state_dict() for index in range(COHORT)]
    template = factory(seed=0)
    start = time.perf_counter()
    correct = np.zeros(COHORT)
    module = BatchedModule(template, states, requires_grad=False).eval()
    for begin in range(0, len(dataset), EVAL_BATCH):
        images = dataset.images[begin:begin + EVAL_BATCH]
        labels = dataset.labels[begin:begin + EVAL_BATCH]
        logits = module.predict(np.broadcast_to(images, (COHORT,) + images.shape))
        correct += (logits.argmax(axis=-1) == labels[None, :]).sum(axis=-1)
    accuracies = (correct / len(dataset)).tolist()
    return time.perf_counter() - start, accuracies


def _measure(factory, repeats):
    """Best-of-``repeats`` per-device evaluation times (seconds)."""
    rng = np.random.default_rng(17)
    dataset = _eval_set(rng, EVAL_SAMPLES)
    serial_times, fused_times = [], []
    serial_acc = fused_acc = None
    for _ in range(repeats):
        elapsed, serial_acc = _time_serial(factory, dataset)
        serial_times.append(elapsed)
        elapsed, fused_acc = _time_fused(factory, dataset)
        fused_times.append(elapsed)
    # The fused sweep must agree with the serial one — a fast wrong answer
    # is a bug, not a speedup.
    if not np.allclose(serial_acc, fused_acc):
        raise AssertionError(
            f"fused accuracies {fused_acc} != serial {serial_acc}")
    return min(serial_times) / COHORT, min(fused_times) / COHORT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats (best-of)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_eval_fusion.json"))
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 5)
    # --quick shrinks the measurement below timing-noise floors; it reports
    # the numbers without enforcing the target.
    enforce = not args.quick

    print(f"eval-fusion benchmark: B={COHORT} devices, {EVAL_SAMPLES} samples, "
          f"batch {EVAL_BATCH}, best-of-{repeats}, target >= {TARGET_SPEEDUP}x")

    results = []
    failures = []
    for name, factory in sorted(WORKLOADS.items()):
        serial_eval, fused_eval = _measure(factory, repeats)
        speedup = serial_eval / fused_eval
        results.append({
            "workload": name,
            "serial_per_device_eval_ms": serial_eval * 1e3,
            "fused_per_device_eval_ms": fused_eval * 1e3,
            "speedup": speedup,
        })
        print(f"  {name:16s} serial {serial_eval * 1e3:7.3f} ms/device-eval  "
              f"fused {fused_eval * 1e3:7.3f} ms/device-eval  "
              f"speedup {speedup:4.2f}x")
        if speedup < TARGET_SPEEDUP:
            failures.append(f"{name}: speedup {speedup:.2f}x < target "
                            f"{TARGET_SPEEDUP}x")

    payload = {
        "benchmark": "eval_fusion",
        "cohort_size": COHORT,
        "input_shape": list(INPUT_SHAPE),
        "num_classes": NUM_CLASSES,
        "eval_samples": EVAL_SAMPLES,
        "eval_batch": EVAL_BATCH,
        "repeats": repeats,
        "workloads": results,
        "targets": {"speedup": TARGET_SPEEDUP},
        "failures": failures,
        **bench_environment(),
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, default=float) + "\n",
                      encoding="utf-8")
    print(f"\nwrote {output}")

    if failures and not enforce:
        print("targets not enforced under --quick; would have failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 0
    if failures:
        print("EVAL-FUSION REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: fused evaluation >= {TARGET_SPEEDUP}x faster per device "
          f"at B={COHORT} for all workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
