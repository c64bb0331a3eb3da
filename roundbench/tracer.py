"""In-memory span tracer and the layer wrappers of the traced run.

The tracer records nested spans with ``perf_counter_ns`` on a stack and
keeps them in memory; :func:`summarize` turns them into per-name call
counts, inclusive time and self time (a span's duration minus the part of
it its child spans cover).

:class:`LayerWrappers` installs timing wrappers on *public* functions and
methods of each ``repro`` layer from outside the package: the
``Simulation`` round phases, the FedZKT distiller phases, the execution
backend, the cohort planner, the generator / global model / teacher
ensemble forwards, and the ``nn`` layers, ``Tensor.backward`` and the
optimizer steps.  Wrappers only time and count: they pass arguments and
results through untouched, so a traced round must reproduce the untraced
reference bit for bit (the benchmark checks it).  Nothing here runs inside
tcp worker processes; there the per-layer view is the driver-side wait
plus the transport counters.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Span names whose subtree is "inside distillation"; their descendants
#: carry the phase as their scope.
PHASE_SPANS = ("distill.phase1", "distill.phase2")


@dataclass
class Span:
    name: str
    parent: int
    scope: Optional[str]
    start: int
    end: int = -1

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Nested spans of one thread (the benchmark driver), kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        scope = self.spans[parent].scope if parent >= 0 else None
        if name in PHASE_SPANS:
            scope = name
        self.spans.append(Span(name, parent, scope, time.perf_counter_ns()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)


@dataclass
class Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Summary:
    """Aggregates of a span list: by name, by (scope, name), and the
    direct children of every span of a given name."""

    by_name: Dict[str, Totals] = field(default_factory=lambda: defaultdict(Totals))
    by_scope: Dict[Tuple[Optional[str], str], Totals] = field(
        default_factory=lambda: defaultdict(Totals))
    child_ns: Dict[Tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))

    def total_s(self, name: str) -> float:
        return self.by_name[name].total_ns / 1e9 if name in self.by_name else 0.0

    def self_s(self, name: str) -> float:
        return self.by_name[name].self_ns / 1e9 if name in self.by_name else 0.0

    def calls(self, name: str) -> int:
        return self.by_name[name].calls if name in self.by_name else 0

    def scoped_s(self, name: str, scopes: Sequence[str] = PHASE_SPANS) -> float:
        return sum(self.by_scope[(scope, name)].total_ns
                   for scope in scopes if (scope, name) in self.by_scope) / 1e9

    def children_s(self, parent: str, child: str) -> float:
        return self.child_ns.get((parent, child), 0) / 1e9


def summarize(spans: Sequence[Span]) -> Summary:
    """Calls, inclusive and self time per span name.

    A span's self time is its duration minus the summed durations of its
    direct children (children never outlive their parent on one stack).
    Recursive spans of the same name are counted at every level in
    ``calls`` and ``self_ns``; ``total_ns`` counts only the outermost one
    so nested same-name time is not double counted.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span.end < 0:
            raise ValueError(f"span {span.name!r} was never closed")
        if span.parent >= 0:
            covered[span.parent] += span.duration
    summary = Summary()
    for index, span in enumerate(spans):
        self_ns = span.duration - covered[index]
        outermost = not _has_ancestor_named(spans, span)
        for totals in (summary.by_name[span.name], summary.by_scope[(span.scope, span.name)]):
            totals.calls += 1
            totals.self_ns += self_ns
            if outermost:
                totals.total_ns += span.duration
        if span.parent >= 0:
            summary.child_ns[(spans[span.parent].name, span.name)] += span.duration
    return summary


def _has_ancestor_named(spans: Sequence[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


# --------------------------------------------------------------------------- #
# Layer wrappers
# --------------------------------------------------------------------------- #
def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Wall cost one wrapper adds to a call: the median over ``repeats`` of
    (``calls`` wrapped no-op calls minus ``calls`` bare ones) / ``calls``."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = _timed(tracer, "calibration", noop)
    samples = []
    for _ in range(repeats):
        tracer.spans.clear()
        begin = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        samples.append(((middle - begin) - (time.perf_counter() - middle)) / calls)
    return statistics.median(samples)


class LayerWrappers:
    """Install / remove the traced run's timing wrappers around one round."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: One ``(fused_groups, fused_tasks, tasks)`` triple per cohort plan.
        self.plans: List[Tuple[int, int, int]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner, attribute: str, name: str) -> None:
        self._patch(owner, attribute, _timed(self.tracer, name, owner.__dict__[attribute]))

    @contextlib.contextmanager
    def installed(self, global_model, backend_cls):
        """Wrappers on for the ``with`` body.

        ``global_model`` is the server's global model, whose forwards are
        labelled apart from device-model forwards; ``backend_cls`` is the
        class of the workload's execution backend.
        """
        try:
            self._install(global_model, backend_cls)
            yield self
        finally:
            self._uninstall()

    def _install(self, global_model, backend_cls) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        from repro.core import distillation, server_update
        from repro.federated import simulation
        from repro.models.base import ClassificationModel
        from repro.models.generator import Generator
        from repro.nn import batched, layers, optim, tensor

        tracer = self.tracer
        for method, name in (("device_tasks", "round.dispatch"),
                             ("run_device_tasks", "round.train"),
                             ("process_result", "round.collect"),
                             ("aggregate_round", "round.aggregate"),
                             ("broadcast", "round.broadcast"),
                             ("evaluate_round", "round.evaluate")):
            self._wrap(simulation.Simulation, method, name)
        self._wrap(server_update.ZeroShotDistiller, "adversarial_distillation", "distill.phase1")
        self._wrap(server_update.ZeroShotDistiller, "transfer_to_devices", "distill.phase2")
        self._wrap(backend_cls, "run_tasks", "backend.run_tasks")
        teacher_forward = _timed(tracer, "ensemble.forward", distillation.ensemble_output)
        self._patch(distillation, "ensemble_output", teacher_forward)
        self._patch(server_update, "ensemble_output", teacher_forward)
        self._wrap(Generator, "forward", "generator.forward")
        self._wrap(tensor.Tensor, "backward", "tensor.backward")
        for cls in (optim.SGD, optim.Adam, batched.BatchedAdam):
            self._wrap(cls, "step", "optim.step")
        for cls, name in ((layers.Conv2d, "nn.conv2d"),
                          (layers.DepthwiseConv2d, "nn.dwconv2d"),
                          (layers.MaxPool2d, "nn.maxpool2d"),
                          (layers.BatchNorm2d, "nn.batchnorm2d"),
                          (layers.Linear, "nn.linear"),
                          (layers.UpsampleNearest2d, "nn.upsample2d"),
                          (batched.BatchedModule, "nn.batched")):
            self._wrap(cls, "forward", name)
        # BatchedModule binds ``__call__ = forward`` at class creation.
        self._wrap(batched.BatchedModule, "__call__", "nn.batched")

        module_call = ClassificationModel.__call__

        def model_call(model, *args, **kwargs):
            if model is not global_model:
                return module_call(model, *args, **kwargs)
            index = tracer.open("global.forward")
            try:
                return module_call(model, *args, **kwargs)
            finally:
                tracer.close(index)

        # ClassificationModel inherits __call__ from Module: give it an own
        # attribute and delete that again on uninstall.
        if "__call__" in ClassificationModel.__dict__:
            raise RuntimeError("ClassificationModel defines __call__; update the wrapper")
        self._saved.append((ClassificationModel, "__call__", None))
        ClassificationModel.__call__ = model_call

        plan_cohorts = simulation.plan_cohorts
        plans = self.plans

        def planned(tasks, key):
            plan = plan_cohorts(tasks, key)
            fused = [len(scatter) for scatter in plan.scatter if len(scatter) > 1]
            plans.append((plan.fused_group_count, sum(fused), len(tasks)))
            return plan

        self._patch(simulation, "plan_cohorts", planned)

    def _uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._saved = []
