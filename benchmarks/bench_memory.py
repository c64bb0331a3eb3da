"""Memory benchmark: transient allocations of the pooled autograd path.

Two sections, each gated by an absolute per-workload ceiling in bytes:

* **fused device-step** — trains one fused cohort of B={COHORT} devices
  (``BatchedModule`` + ``BatchedSGD``) through a warmed steady-state step
  loop.  Gradients accumulate in place into persistent ``.grad`` buffers
  (``zero_grad(set_to_none=False)``) and im2col / grad-cols scratch comes
  from the thread-local :class:`~repro.nn.BufferPool`.  The measurement is
  peak traced bytes minus the steady-state baseline across the step loop,
  i.e. the transient working set the allocator must service per step,
  normalized per fused device-step.
* **forward** — the same training step loop on a single (serial) model,
  measuring only the ``model(...)`` call.  Training forwards write their
  outputs into pooled buffers that backward reclaims, so in steady state a
  forward recycles the previous step's activations.

The benchmark **asserts** its regression guards (exit code 1 on violation,
so CI fails loudly): no workload may exceed its ceiling in either section.
Each ceiling is the largest value measured over 12 runs of the v1.8.0
release (Linux x86_64, CPython 3.11, numpy 2.4), so a change that adds a
per-step allocation to the training hot path fails the gate.

Not a pytest file on purpose (no ``test_`` prefix): run it directly with

    PYTHONPATH=src python benchmarks/bench_memory.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from conftest import bench_environment  # noqa: E402

from repro.models.simple import FullyConnected, LeNet, SimpleCNN  # noqa: E402
from repro.nn import SGD, Tensor, scratch_pool  # noqa: E402
from repro.nn.batched import (  # noqa: E402
    BatchedModule,
    BatchedSGD,
    batched_cross_entropy,
)
from repro.nn.losses import cross_entropy  # noqa: E402

COHORT = 8
INPUT_SHAPE = (3, 8, 8)
NUM_CLASSES = 4
BATCH_SIZE = 8
LR, MOMENTUM = 0.05, 0.9
WARMUP_STEPS = 3

# Transient bytes per fused device-step and per serial training forward.
STEP_CEILINGS = {"fully_connected": 14_675, "lenet": 136_102, "simple_cnn": 145_786}
FORWARD_CEILINGS = {"fully_connected": 14_946, "lenet": 33_012, "simple_cnn": 81_158}

__doc__ = __doc__.format(COHORT=COHORT)

WORKLOADS = {
    "fully_connected": lambda seed: FullyConnected(
        INPUT_SHAPE, NUM_CLASSES, hidden_sizes=(16, 8), seed=seed),
    "simple_cnn": lambda seed: SimpleCNN(
        INPUT_SHAPE, NUM_CLASSES, channels=(4, 8), hidden_size=16, seed=seed),
    "lenet": lambda seed: LeNet(
        INPUT_SHAPE, NUM_CLASSES, conv_channels=(4, 8), fc_sizes=(24,), seed=seed),
}


def _cohort_data(rng, steps):
    images = rng.normal(size=(steps, COHORT, BATCH_SIZE, *INPUT_SHAPE))
    labels = rng.integers(0, NUM_CLASSES, size=(steps, COHORT, BATCH_SIZE))
    return images, labels


def _step(module, optimizer, images, labels):
    optimizer.zero_grad(set_to_none=False)
    loss_vec = batched_cross_entropy(module(Tensor(images)), labels)
    loss_vec.sum().backward()
    optimizer.step()


def _measure_step(factory, steps):
    """Peak transient traced bytes per device-step across a warmed fused loop."""
    scratch_pool().reset()
    rng = np.random.default_rng(23)
    images, labels = _cohort_data(rng, WARMUP_STEPS + steps)
    states = [factory(seed=index).state_dict() for index in range(COHORT)]
    module = BatchedModule(factory(seed=0), states)
    module.train()
    optimizer = BatchedSGD(module.parameters(), COHORT, lr=LR, momentum=MOMENTUM)

    tracemalloc.start()
    # Warm-up establishes the steady state: persistent grad buffers and
    # pooled scratch.
    for step in range(WARMUP_STEPS):
        _step(module, optimizer, images[step], labels[step])
    gc.collect()
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]
    for step in range(WARMUP_STEPS, WARMUP_STEPS + steps):
        _step(module, optimizer, images[step], labels[step])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # Temporaries die within the step that made them, so the loop peak
    # is one step's transient working set, not ``steps`` of them.
    return max(peak - baseline, 0) / COHORT


def _measure_forward(factory, steps):
    """Worst transient traced bytes of one *forward pass* in a serial train loop.

    Only the ``model(...)`` call is inside the measurement window; the
    loss, backward, and optimizer step run between windows so backward
    reclaim can recycle pooled activations for the next forward.
    """
    scratch_pool().reset()
    rng = np.random.default_rng(29)
    images, labels = _cohort_data(rng, WARMUP_STEPS + steps)
    model = factory(seed=0)
    model.train()
    optimizer = SGD(model.parameters(), lr=LR, momentum=MOMENTUM)

    def rest_of_step(index, out):
        loss = cross_entropy(out, labels[index, 0])
        loss.backward()
        optimizer.step()

    tracemalloc.start()
    for index in range(WARMUP_STEPS):
        optimizer.zero_grad(set_to_none=False)
        rest_of_step(index, model(Tensor(images[index, 0])))
    gc.collect()
    worst = 0
    for index in range(WARMUP_STEPS, WARMUP_STEPS + steps):
        optimizer.zero_grad(set_to_none=False)
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        out = model(Tensor(images[index, 0]))
        peak = tracemalloc.get_traced_memory()[1]
        worst = max(worst, peak - baseline)
        rest_of_step(index, out)
    tracemalloc.stop()
    return max(worst, 0)


def _section(title, unit, measure, ceilings, steps, failures):
    print(title)
    results = []
    for name, factory in sorted(WORKLOADS.items()):
        measured = measure(factory, steps)
        ceiling = ceilings[name]
        results.append({"workload": name, f"bytes_per_{unit}": measured,
                        "ceiling": ceiling})
        print(f"  {name:16s} {measured:12,.1f} B/{unit}  ceiling {ceiling:10,d} B  "
              f"{'ok' if measured <= ceiling else 'OVER'}")
        if measured > ceiling:
            failures.append(f"{unit}/{name}: {measured:,.1f} B > ceiling {ceiling:,d} B")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload (sanity check, not a real measurement)")
    parser.add_argument("--steps", type=int, default=None,
                        help="measured training steps per workload")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_memory.json"))
    args = parser.parse_args(argv)

    steps = args.steps if args.steps is not None else (3 if args.quick else 10)
    enforce = not args.quick

    failures = []
    step_results = _section(
        f"memory benchmark: transient bytes per fused device-step (B={COHORT} "
        f"devices, batch {BATCH_SIZE}, {steps} measured steps)",
        "device_step", _measure_step, STEP_CEILINGS, steps, failures)
    forward_results = _section(
        "\ntransient bytes per serial training forward",
        "forward", _measure_forward, FORWARD_CEILINGS, steps, failures)

    payload = {
        "benchmark": "memory",
        "cohort_size": COHORT,
        "batch_size": BATCH_SIZE,
        "input_shape": list(INPUT_SHAPE),
        "num_classes": NUM_CLASSES,
        "warmup_steps": WARMUP_STEPS,
        "measured_steps": steps,
        "metric": "tracemalloc peak minus steady-state baseline, per fused "
                  "device-step and per serial training forward",
        "workloads": step_results,
        "forward": forward_results,
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
        print("ceilings not enforced under --quick; would have failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 0
    if failures:
        print("MEMORY REGRESSIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("ok: every workload stays within its transient-byte ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
