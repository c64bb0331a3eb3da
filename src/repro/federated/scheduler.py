"""Round schedulers: synchronous, deadline (straggler-aware), and async.

The round loop is a pluggable layer: a :class:`RoundScheduler` drives a
*round engine* (the simulation) through explicit phases —

    sample → dispatch → collect → aggregate → broadcast → evaluate

— and decides **when** each upload joins an aggregation on a simulated
clock fed by the :class:`~repro.federated.heterogeneity.HeterogeneityModel`.

A round engine is any object exposing the phase protocol (duck-typed; the
generic :class:`~repro.federated.simulation.Simulation` implements it by
delegating to its :class:`~repro.federated.strategy.Strategy`):

``devices``, ``backend``, ``config``, ``history``, ``heterogeneity``
    attributes shared with the scheduler;
``ensure_backend()``
    start the execution backend with the simulation's worker context;
``sample_round(round_index) -> List[int]``
    the sampler's pick of candidate devices for a round (or dispatch event);
``device_tasks(device_ids, round_index) -> List[task]``
    package the round's device-side work as backend tasks (one per id);
``process_result(result, meta) -> float``
    absorb one completed task into its device, hand the upload (plus its
    :class:`~repro.federated.server.UploadMeta`) to the server, and return
    the local loss;
``aggregate_round(round_index, device_ids, upload_meta)``
    the server-side computation over the uploads that made this round;
``broadcast(device_ids=None)``
    deliver server payloads (``None`` = every device);
``evaluate_round(round_index, active, losses, sim_time, extra_metrics)``
    evaluate, append and return the :class:`RoundRecord`;
``verbose_line(record, total_rounds)``
    the progress line printed in verbose mode;
``supports_async``
    flag; engines whose round structure cannot tolerate reordered or
    partial uploads set it to ``False`` and only run under
    :class:`SynchronousScheduler` (the generic engine derives it from its
    strategy's ``supports_schedulers`` capability declaration).

Engines may also expose a ``strategy`` attribute with
``on_round_start(round_index)`` / ``on_round_end(record)`` lifecycle
hooks; the base :meth:`RoundScheduler.run_round` template invokes them
around every round regardless of scheduler kind.

Three schedulers ship:

* :class:`SynchronousScheduler` — lockstep rounds, bit-identical to the
  historical loop (the backend-parity tests pin this);
* :class:`DeadlineScheduler` — each round aggregates whichever uploads
  arrive before ``now + deadline`` on the simulated clock; stragglers'
  uploads land in later rounds carrying staleness and a discounted weight;
* :class:`AsyncBufferedScheduler` — FedBuff-style: the server aggregates
  every ``buffer_size`` arrivals with staleness-discounted weights, and
  freed devices are immediately re-dispatched.

Determinism: all timing/availability draws are stateless keyed draws from
the heterogeneity model, dispatch batches are collected by device id (not
by real completion order), and ties are broken by ``(ready_time,
device_id)`` — so deadline and async runs are reproducible across repeats
and across serial vs process execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .config import SchedulerConfig
from .history import RoundRecord, TrainingHistory
from .server import UploadMeta

__all__ = [
    "RoundScheduler",
    "SynchronousScheduler",
    "DeadlineScheduler",
    "AsyncBufferedScheduler",
    "SchedulerState",
    "PendingUpload",
    "make_scheduler",
]

# Tag for the async scheduler's refill-permutation draws (namespaced away
# from the heterogeneity model's tags).
_TAG_REFILL = 29


@dataclass
class PendingUpload:
    """An upload in flight on the simulated clock."""

    device_id: int
    result: object
    dispatch_round: int
    ready_time: float
    version: int = 0  # server version the device trained from (async)


@dataclass
class SchedulerState:
    """Mutable cross-round scheduler state (clock, in-flight uploads, ...)."""

    now: float = 0.0
    in_flight: Dict[int, PendingUpload] = field(default_factory=dict)
    version: int = 0
    dispatch_count: Dict[int, int] = field(default_factory=dict)
    concurrency: int = 0


class RoundScheduler:
    """Base class: drives a round engine through scheduler-defined rounds."""

    name = "base"

    #: Whether this scheduler reorders/partially aggregates uploads — such
    #: schedulers refuse engines with ``supports_async = False`` (FedMD).
    reorders_uploads = False

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------ #
    def run(self, engine, total_rounds: int, verbose: bool = False,
            state: Optional[SchedulerState] = None) -> TrainingHistory:
        """Execute ``total_rounds`` scheduler rounds against ``engine``.

        ``state`` lets the engine thread one persistent
        :class:`SchedulerState` through interleaved ``run``/``run_round``
        calls (clock and in-flight uploads carry over); ``None`` starts
        fresh.
        """
        self.check_engine(engine)
        if state is None:
            state = self.initial_state(engine)
        for round_index in range(1, total_rounds + 1):
            record = self.run_round(engine, round_index, state)
            if verbose:
                print(engine.verbose_line(record, total_rounds))
        return engine.history

    def check_engine(self, engine) -> None:
        """Validate that ``engine`` can run under this scheduler."""
        if self.reorders_uploads and not getattr(engine, "supports_async", True):
            raise ValueError(
                f"{type(engine).__name__} only supports the synchronous scheduler "
                f"(requested {self.name!r}); its round structure needs every "
                "active upload before aggregation")

    def initial_state(self, engine) -> SchedulerState:
        engine.ensure_backend()
        return SchedulerState()

    def run_round(self, engine, round_index: int, state: SchedulerState) -> RoundRecord:
        """One scheduler round, wrapped in the strategy lifecycle hooks.

        Also bumps the engine's state-store round version (when the engine
        exposes one), which is what evicts parameter payloads published two
        or more rounds ago from the backend's state channel.
        """
        advance = getattr(engine, "advance_round_version", None)
        if advance is not None:
            advance(round_index)
        strategy = getattr(engine, "strategy", None)
        if strategy is not None:
            strategy.on_round_start(round_index)
        record = self._run_round(engine, round_index, state)
        if strategy is not None:
            strategy.on_round_end(record)
        return record

    def _run_round(self, engine, round_index: int, state: SchedulerState) -> RoundRecord:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def staleness_weight(self, staleness: int) -> float:
        """FedBuff-style polynomial staleness discount ``1/(1+s)^alpha``."""
        if staleness <= 0:
            return 1.0
        return float(1.0 / (1.0 + staleness) ** self.config.staleness_alpha)

    def _run_batch(self, engine, device_ids: Sequence[int], round_index: int) -> Dict[int, object]:
        """Execute one dispatch batch, keyed by device id.

        Results are drained in completion order (overlapping with worker
        execution on a process backend) but *stored* by device id, so the
        simulated ordering applied afterwards is backend-independent.

        Deferred-absorb schedulers compute results eagerly but deliver them
        at the upload's simulated arrival.  On the serial backend the worker
        context shares model objects with the devices, so executing a task
        trains the device's model in place; each device's *published* state
        is therefore rolled back to the task's pre-dispatch snapshot until
        the result is absorbed — matching process-pool semantics, where the
        dispatching process's models never move.
        """
        if not device_ids:
            return {}
        tasks = engine.device_tasks(device_ids, round_index)
        snapshots = [(task.device_id, task.state) for task in tasks]
        results: Dict[int, object] = {}
        runner = getattr(engine, "run_device_tasks_as_completed", None)
        completed = (runner(tasks) if runner is not None
                     else engine.backend.run_tasks_as_completed(tasks))
        for index, result in completed:
            results[device_ids[index]] = result
        for device_id, state in snapshots:
            engine.restore_model_state(device_id, state)
        return results

    @staticmethod
    def _staleness_metrics(meta: Dict[int, UploadMeta], state: SchedulerState) -> Dict[str, float]:
        staleness = [m.staleness for m in meta.values()]
        return {
            "aggregated_uploads": float(len(meta)),
            "late_uploads": float(sum(1 for s in staleness if s > 0)),
            "mean_staleness": float(np.mean(staleness)) if staleness else 0.0,
            "in_flight_uploads": float(len(state.in_flight)),
        }


class SynchronousScheduler(RoundScheduler):
    """Lockstep rounds: every active upload joins this round's aggregation.

    This is the historical lockstep round loop, phase by phase and in the
    same order, so its training histories are bit-identical to the
    pre-scheduler loop (pinned by the parity tests).  The simulated
    clock still advances — by the slowest active device's duration — which
    is what makes sync vs deadline vs async *time-to-accuracy* comparisons
    meaningful.
    """

    name = "sync"

    def _run_round(self, engine, round_index: int, state: SchedulerState) -> RoundRecord:
        engine.ensure_backend()
        hetero = engine.heterogeneity
        sampled = engine.sample_round(round_index)
        active = hetero.filter_available(sampled, round_index)

        tasks = engine.device_tasks(active, round_index)
        runner = getattr(engine, "run_device_tasks", None)
        results = runner(tasks) if runner is not None else engine.backend.run_tasks(tasks)

        losses: List[float] = []
        meta: Dict[int, UploadMeta] = {}
        durations: List[float] = []
        for device_id, result in zip(active, results):
            duration = hetero.duration(device_id, round_index)
            durations.append(duration)
            upload = UploadMeta(device_id=device_id, dispatch_round=round_index,
                                arrival_time=state.now + duration)
            losses.append(engine.process_result(result, upload))
            meta[device_id] = upload

        engine.aggregate_round(round_index, active, meta)
        engine.broadcast()
        state.now += max(durations) if durations else 1.0
        return engine.evaluate_round(round_index, active, losses, sim_time=state.now)


class DeadlineScheduler(RoundScheduler):
    """Straggler-aware rounds with a per-round simulated deadline.

    Each round dispatches local training to every sampled device that is
    available and not still busy with a previous dispatch.  The round then
    aggregates whichever in-flight uploads arrive before ``now + deadline``;
    uploads that miss the deadline stay in flight and join the first later
    round whose deadline covers their arrival, carrying ``staleness = rounds
    late`` and the scheduler's staleness-discounted weight.  Devices busy
    past the deadline are skipped by sampling (they cannot start new work)
    and do not receive broadcasts until their upload lands.
    """

    name = "deadline"
    reorders_uploads = True

    def _run_round(self, engine, round_index: int, state: SchedulerState) -> RoundRecord:
        engine.ensure_backend()
        hetero = engine.heterogeneity
        sampled = engine.sample_round(round_index)
        ready = [device_id for device_id in sampled
                 if device_id not in state.in_flight
                 and hetero.available(device_id, round_index)]

        results = self._run_batch(engine, ready, round_index)
        for device_id in ready:
            state.in_flight[device_id] = PendingUpload(
                device_id=device_id,
                result=results[device_id],
                dispatch_round=round_index,
                ready_time=state.now + hetero.duration(device_id, round_index),
            )

        horizon = state.now + self.config.deadline
        arrived = sorted(
            (upload for upload in state.in_flight.values() if upload.ready_time <= horizon),
            key=lambda upload: (upload.ready_time, upload.device_id),
        )

        losses: List[float] = []
        meta: Dict[int, UploadMeta] = {}
        for upload in arrived:
            del state.in_flight[upload.device_id]
            staleness = round_index - upload.dispatch_round
            upload_meta = UploadMeta(
                device_id=upload.device_id, dispatch_round=upload.dispatch_round,
                arrival_time=upload.ready_time, staleness=staleness,
                weight=self.staleness_weight(staleness),
            )
            losses.append(engine.process_result(upload.result, upload_meta))
            meta[upload.device_id] = upload_meta

        arrived_ids = [upload.device_id for upload in arrived]
        engine.aggregate_round(round_index, arrived_ids, meta)
        free = [device.device_id for device in engine.devices
                if device.device_id not in state.in_flight]
        engine.broadcast(free)
        state.now = horizon
        extra = self._staleness_metrics(meta, state)
        return engine.evaluate_round(round_index, arrived_ids, losses,
                                     sim_time=state.now, extra_metrics=extra)


class AsyncBufferedScheduler(RoundScheduler):
    """FedBuff-style asynchronous aggregation every K arrivals.

    The server keeps ``ceil(participation_fraction * num_devices)`` devices
    training concurrently.  Each "round" of the history is one aggregation
    event: the scheduler pops the ``buffer_size`` earliest arrivals off the
    simulated clock, aggregates them with staleness-discounted weights
    (staleness = server versions elapsed since the device's dispatch),
    broadcasts the new model to every idle device, and refills the
    in-flight set from the available idle devices.
    """

    name = "async"
    reorders_uploads = True

    def initial_state(self, engine) -> SchedulerState:
        engine.ensure_backend()
        state = SchedulerState()
        num_devices = len(engine.devices)
        fraction = engine.config.participation_fraction
        state.concurrency = max(1, int(np.ceil(fraction * num_devices)))
        if self.config.buffer_size > state.concurrency:
            raise ValueError(
                f"async buffer_size ({self.config.buffer_size}) exceeds the "
                f"concurrent-trainer count ceil(participation_fraction * "
                f"num_devices) = {state.concurrency}; the buffer could never "
                "fill — lower buffer_size or raise participation_fraction")
        # Same eligibility rules as the refill path: sampler's pick, then
        # the availability trace at event 0.
        cohort = engine.heterogeneity.filter_available(engine.sample_round(0), 0)
        self._dispatch(engine, cohort[:state.concurrency], state)
        return state

    def _dispatch(self, engine, device_ids: Sequence[int], state: SchedulerState) -> None:
        results = self._run_batch(engine, device_ids, state.version)
        hetero = engine.heterogeneity
        for device_id in device_ids:
            ordinal = state.dispatch_count.get(device_id, 0)
            state.dispatch_count[device_id] = ordinal + 1
            state.in_flight[device_id] = PendingUpload(
                device_id=device_id,
                result=results[device_id],
                dispatch_round=state.version,
                ready_time=state.now + hetero.duration(device_id, ordinal),
                version=state.version,
            )

    def _run_round(self, engine, round_index: int, state: SchedulerState) -> RoundRecord:
        engine.ensure_backend()
        # Pop the earliest arrivals until the aggregation buffer is full
        # (the buffer never carries across events — every aggregation
        # drains whatever it managed to collect).
        buffer: List[PendingUpload] = []
        while len(buffer) < self.config.buffer_size and state.in_flight:
            upload = min(state.in_flight.values(),
                         key=lambda u: (u.ready_time, u.device_id))
            del state.in_flight[upload.device_id]
            state.now = max(state.now, upload.ready_time)
            buffer.append(upload)

        losses: List[float] = []
        meta: Dict[int, UploadMeta] = {}
        for upload in buffer:
            staleness = state.version - upload.version
            upload_meta = UploadMeta(
                device_id=upload.device_id, dispatch_round=upload.dispatch_round,
                arrival_time=upload.ready_time, staleness=staleness,
                weight=self.staleness_weight(staleness),
            )
            losses.append(engine.process_result(upload.result, upload_meta))
            meta[upload.device_id] = upload_meta
        aggregated_ids = [upload.device_id for upload in buffer]

        engine.aggregate_round(round_index, aggregated_ids, meta)
        if meta:
            state.version += 1
        idle = [device.device_id for device in engine.devices
                if device.device_id not in state.in_flight]
        engine.broadcast(idle)

        # Refill the in-flight set from the idle devices the sampler deems
        # eligible this event (so FixedSampler-style participation
        # constraints keep holding after the first aggregation) that are
        # also available per the dropout trace.
        eligible = set(engine.sample_round(round_index))
        candidates = engine.heterogeneity.filter_available(
            [device_id for device_id in idle if device_id in eligible], round_index)
        need = max(0, state.concurrency - len(state.in_flight))
        if need and candidates:
            rng = np.random.default_rng(
                np.random.SeedSequence((abs(int(engine.config.seed)), _TAG_REFILL,
                                        int(round_index))))
            order = [candidates[i] for i in rng.permutation(len(candidates))]
            self._dispatch(engine, sorted(order[:need]), state)

        extra = self._staleness_metrics(meta, state)
        extra["server_version"] = float(state.version)
        return engine.evaluate_round(round_index, aggregated_ids, losses,
                                     sim_time=state.now, extra_metrics=extra)


def make_scheduler(config: Union[SchedulerConfig, str, None]) -> RoundScheduler:
    """Build a scheduler from a :class:`SchedulerConfig` or a kind string."""
    if config is None:
        config = SchedulerConfig()
    elif isinstance(config, str):
        config = SchedulerConfig(kind=config)
    schedulers = {
        "sync": SynchronousScheduler,
        "deadline": DeadlineScheduler,
        "async": AsyncBufferedScheduler,
    }
    return schedulers[config.kind](config)
