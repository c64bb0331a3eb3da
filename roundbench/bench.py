"""End-to-end federated-round benchmark: workloads, measurement loop, metrics.

A run repeats *episodes* until ``seconds`` have passed.  An episode is what
a user of the library does for a short run, through the public API only:
``federated_config_for`` -> ``load_dataset`` -> ``make_partitioner`` ->
``build_fedzkt``/``build_fedavg`` -> ``Simulation.ensure_backend`` (the
set-up), one untimed warm-up ``run_round(0)``, then the timed
``run_round(1 .. rounds-1)``, then ``close``.  Episodes have a fixed round
count so that every record the benchmark can produce has a stored float64
reference (``references.json``); a faster program runs more episodes, not
more rounds.  Every round record, warm-up included, is compared bit for bit
with the reference, and a timed round that raises, runs past
``ROUND_TIMEOUT_S`` or differs counts as failed.  A set-up or warm-up that
raises or hangs ends the run, and the timed rounds it kept from running
count as attempted and failed.

With ``trace=True`` the same loop runs, but every second timed round is
run with :class:`tracer.LayerWrappers` installed (which rounds alternates
between episodes, so each round index is seen both ways); the per-layer
metrics come from those rounds and the tracing overhead is the traced over
the untraced round-time median of the same run.  The end-to-end metrics
are always taken from an untraced run.

Metric names and units are read from ``BENCHMARK.json``; this module only
says how each one is computed.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.baselines.fedavg import build_fedavg
from repro.core.fedzkt import build_fedzkt
from repro.datasets.registry import dataset_family, load_dataset
from repro.experiments.configs import federated_config_for, get_scale
from repro.federated.backend import make_backend
from repro.nn.buffers import scratch_pool
from repro.partition import make_partitioner

from tracer import LayerWrappers, Tracer, span_cost_s, summarize

REFERENCES = Path(__file__).resolve().parent / "references.json"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DATASET = "mnist"
SCALE = "tiny"
NUM_DEVICES = 5
#: ``--seed`` is reduced modulo this; references exist for seeds 0..N-1.
NUM_SEEDS = 16
#: A set-up, warm-up or timed round still running after this long is
#: interrupted and counted as failed.
ROUND_TIMEOUT_S = 60.0
MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Workload:
    algorithm: str
    backend: str
    server_shards: int
    cohort_fusion: bool
    #: Rounds per episode, warm-up included.
    rounds: int
    #: Reference key: the plain serial, unsharded, unfused run whose
    #: history this workload must reproduce bit for bit.
    reference: str
    #: Extra set-ups (each closed at once) measured after every timed
    #: round.  Spread over the run, their median sees the same mix of
    #: host-speed phases as the rounds, not just the first second.
    setups_per_round: int = 0
    #: Worker processes the backend spawns; set-up waits until all of
    #: them have connected.
    workers: int = 0


WORKLOADS: Dict[str, Workload] = {
    "zkt-serial": Workload("fedzkt", "serial", 1, False, rounds=3, reference="fedzkt",
                           setups_per_round=10),
    "avg-fused": Workload("fedavg", "serial", 1, True, rounds=6, reference="fedavg",
                          setups_per_round=3),
    "zkt-tcp-sharded": Workload("fedzkt", "tcp://127.0.0.1:0?workers=2", 2, False,
                                rounds=3, reference="fedzkt", setups_per_round=3,
                                workers=2),
}

#: The plain configuration each reference is generated from.
REFERENCE_WORKLOADS: Dict[str, Workload] = {
    "fedzkt": WORKLOADS["zkt-serial"],
    "fedavg": Workload("fedavg", "serial", 1, False, rounds=6, reference="fedavg"),
}


def _metric_units(kind: str) -> Dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


#: name -> unit of every metric, in report order, as ``BENCHMARK.json``
#: declares them.
END_TO_END_UNITS: Dict[str, str] = _metric_units("end_to_end")
PER_LAYER_UNITS: Dict[str, str] = _metric_units("per_layer")


# --------------------------------------------------------------------------- #
# Public-API episode pieces
# --------------------------------------------------------------------------- #
def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def set_up(workload: Workload, seed: int, tracer: Optional[Tracer] = None):
    """Build a ready-to-run simulation; returns ``(simulation, backend)``.

    On tcp the set-up ends once every spawned worker has connected, so it
    includes worker start-up.
    """
    scale = get_scale(SCALE)
    family = dataset_family(DATASET)
    config = federated_config_for(scale, family, num_devices=NUM_DEVICES, seed=seed,
                                  server_shards=workload.server_shards,
                                  cohort_fusion=workload.cohort_fusion)
    with _span(tracer, "setup.dataset"):
        train, test = load_dataset(DATASET, train_size=scale.train_size,
                                   test_size=scale.test_size,
                                   image_size=scale.image_size, seed=seed)
    partitioner = make_partitioner("iid", config.num_devices, seed=seed)
    backend = make_backend(workload.backend)
    with _span(tracer, "setup.build"):
        if workload.algorithm == "fedzkt":
            simulation = build_fedzkt(train, test, config, family=family,
                                      partitioner=partitioner, backend=backend)
        else:
            simulation = build_fedavg(train, test, config, partitioner=partitioner,
                                      backend=backend)
    try:
        with _span(tracer, "setup.backend"):
            simulation.ensure_backend()
            while backend.transport_stats().get("workers_connected", 0) < workload.workers:
                time.sleep(0.005)
    except BaseException:
        backend.shutdown()
        raise
    return simulation, backend


class RoundTimeout(Exception):
    """A set-up or round ran past ``ROUND_TIMEOUT_S``."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`RoundTimeout` in the body once ``seconds`` have passed.

    Uses ``SIGALRM``, so it interrupts blocking waits too (a tcp round
    whose workers stopped answering); main thread only.
    """
    def expire(signum, frame):
        raise RoundTimeout(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tear_down(simulation, backend) -> None:
    simulation.close()
    backend.shutdown()


def canonical(record: dict) -> str:
    """Exact text form of a round record (floats by ``repr``, NaN kept)."""
    return json.dumps(record, sort_keys=True, default=float)


def record_of(record) -> dict:
    """A ``RoundRecord`` as the JSON-native dict the references store."""
    return json.loads(canonical(record.as_dict()))


def matches(record, expected: dict) -> bool:
    """Whether a ``RoundRecord`` is bit-identical to its stored reference."""
    return canonical(record.as_dict()) == canonical(expected)


def load_references(path: Path = REFERENCES) -> Dict[str, Dict[str, List[dict]]]:
    with Path(path).open(encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# Process accounting (driver plus spawned tcp workers)
# --------------------------------------------------------------------------- #
def _child_pids() -> List[int]:
    pids: List[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def _child_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return 0.0
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _child_peak_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_snapshot() -> Dict[int, float]:
    """CPU seconds of this process (key 0) and of each live child."""
    snapshot = {0: time.process_time()}
    for pid in _child_pids():
        snapshot[pid] = _child_cpu_s(pid)
    return snapshot


def cpu_between(before: Dict[int, float], after: Dict[int, float]) -> float:
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def driver_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# The measurement loop
# --------------------------------------------------------------------------- #
@dataclass
class TracedRound:
    stats_before: dict
    stats_after: dict
    pool_free_mb: float


@dataclass
class RunResult:
    workload: str
    seed: int
    setup_s: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    traced_round_s: List[float] = field(default_factory=list)
    traced: List[TracedRound] = field(default_factory=list)
    timed_cpu_s: float = 0.0
    worker_peak_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    warmup_mismatches: int = 0
    errors: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    wrappers: Optional[LayerWrappers] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.warmup_mismatches == 0 and not self.errors

    def end_to_end(self) -> Dict[str, float]:
        timed = len(self.round_s) + len(self.traced_round_s)
        return {
            "setup_s": _median(self.setup_s),
            "run_s": _median(self.run_s),
            "round_s": _median(self.round_s),
            "cpu_s_per_round": _ratio(self.timed_cpu_s, timed),
            "peak_rss_mb": driver_peak_mb() + self.worker_peak_mb,
        }


def _median(samples: List[float]) -> float:
    """Median, or 0.0 for a run that ended before producing a sample."""
    return statistics.median(samples) if samples else 0.0


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def _stats(backend) -> dict:
    stats = dict(backend.transport_stats())
    stats.pop("by_label", None)
    return stats


def run_workload(name: str, seed: int, seconds: float, *, trace: bool = False,
                 quick: bool = False, references: Optional[dict] = None) -> RunResult:
    """Measure ``name`` for ``seconds`` (at least one episode).

    ``quick`` runs a single episode with one timed round (two when
    traced): the end-to-end smoke mode of the self-tests.
    """
    workload = WORKLOADS[name]
    data_seed = seed % NUM_SEEDS
    references = references if references is not None else load_references()
    expected = references[workload.reference][str(data_seed)]
    # Traced runs trace every second timed round, so a quick traced run
    # needs two timed rounds.
    rounds = (3 if trace else 2) if quick else workload.rounds
    if len(expected) < rounds:
        raise ValueError(f"reference {workload.reference}/{data_seed} has "
                         f"{len(expected)} rounds, the workload needs {rounds}")
    result = RunResult(name, data_seed)
    tracer = None
    if trace:
        tracer = result.tracer = Tracer()
        result.wrappers = LayerWrappers(tracer)
    start = time.perf_counter()
    # Episodes run until the next one would end after ``seconds``, at least
    # one; a run never stops halfway through an episode.
    while _episode(workload, data_seed, rounds, expected, result, tracer):
        elapsed = time.perf_counter() - start
        if quick or elapsed + elapsed / len(result.run_s) > seconds:
            break
    return result


def _fail(result: RunResult, rounds_lost: int) -> bool:
    """Record the exception being handled; the episode's timed rounds that
    did not run (``rounds_lost``) count as attempted and failed."""
    result.errors.append(traceback.format_exc())
    result.attempted += rounds_lost
    result.failed += rounds_lost
    return False


def _timed_set_up(workload: Workload, seed: int, result: RunResult,
                  tracer: Optional[Tracer]):
    begin = time.perf_counter()
    with deadline(ROUND_TIMEOUT_S):
        simulation, backend = set_up(workload, seed, tracer)
    result.setup_s.append(time.perf_counter() - begin)
    return simulation, backend


def _episode(workload: Workload, seed: int, rounds: int, expected: List[dict],
             result: RunResult, tracer: Optional[Tracer]) -> bool:
    """Run one episode into ``result``; False once any part of it failed to run.

    The episode's ``run_s`` sample is its set-up, warm-up and timed rounds;
    the extra set-ups between rounds are left out of it.
    """
    try:
        simulation, backend = _timed_set_up(workload, seed, result, tracer)
    except Exception:
        return _fail(result, rounds - 1)
    episode = len(result.run_s)
    try:
        begin = time.perf_counter()
        try:
            with deadline(ROUND_TIMEOUT_S):
                warm_up = simulation.run_round(0)
        except Exception:
            return _fail(result, rounds - 1)
        if not matches(warm_up, expected[0]):
            result.warmup_mismatches += 1
        run_s = result.setup_s[-1] + time.perf_counter() - begin
        for round_index in range(1, rounds):
            traced = result.wrappers is not None and (round_index + episode) % 2 == 0
            before = cpu_snapshot()
            try:
                ok, wall = _timed_round(simulation, backend, round_index,
                                        expected[round_index], result, traced)
            except Exception:
                return _fail(result, rounds - round_index)
            result.attempted += 1
            result.timed_cpu_s += cpu_between(before, cpu_snapshot())
            (result.traced_round_s if traced else result.round_s).append(wall)
            run_s += wall
            if not ok:
                result.failed += 1
            if round_index == rounds - 1:
                result.worker_peak_mb = max(result.worker_peak_mb, sum(
                    _child_peak_mb(pid) for pid in _child_pids()))
            try:
                for _ in range(workload.setups_per_round):
                    tear_down(*_timed_set_up(workload, seed, result, tracer))
            except Exception:
                return _fail(result, rounds - 1 - round_index)
        result.run_s.append(run_s)
    finally:
        tear_down(simulation, backend)
    return True


def _timed_round(simulation, backend, round_index: int, expected: dict,
                 result: RunResult, traced: bool) -> Tuple[bool, float]:
    if not traced:
        with deadline(ROUND_TIMEOUT_S):
            begin = time.perf_counter()
            record = simulation.run_round(round_index)
            wall = time.perf_counter() - begin
        return matches(record, expected), wall
    stats_before = _stats(backend)
    with result.wrappers.installed(simulation.server.global_model, type(backend)):
        with deadline(ROUND_TIMEOUT_S):
            begin = time.perf_counter()
            with result.tracer.span("round"):
                record = simulation.run_round(round_index)
            wall = time.perf_counter() - begin
    result.traced.append(TracedRound(stats_before, _stats(backend),
                                     scratch_pool().free_bytes() / MB))
    return matches(record, expected), wall


# --------------------------------------------------------------------------- #
# Per-layer metrics of a traced run
# --------------------------------------------------------------------------- #
_ROUND_PHASES = ("dispatch", "train", "collect", "aggregate", "broadcast", "evaluate")
_NN_SPANS = {"conv2d": "nn.conv2d", "dwconv2d": "nn.dwconv2d", "maxpool2d": "nn.maxpool2d",
             "batchnorm2d": "nn.batchnorm2d", "linear": "nn.linear",
             "upsample2d": "nn.upsample2d", "batched": "nn.batched",
             "backward": "tensor.backward", "optim_step": "optim.step"}


def _delta(traced: List[TracedRound], key: str) -> float:
    return float(sum(float(r.stats_after.get(key) or 0) - float(r.stats_before.get(key) or 0)
                     for r in traced))


def per_layer(result: RunResult) -> Dict[str, float]:
    """Per-layer metrics of a traced run, averaged per traced round.

    A run that failed before its first traced round reports every metric
    as 0.
    """
    if result.tracer is None:
        raise ValueError("per-layer metrics need a traced run")
    if not result.traced:
        return dict.fromkeys(PER_LAYER_UNITS, 0.0)
    summary = summarize(result.tracer.spans)
    rounds = len(result.traced)
    setups = len(result.setup_s)
    metrics: Dict[str, float] = {
        "setup.dataset_s": summary.total_s("setup.dataset") / setups,
        "setup.build_s": summary.total_s("setup.build") / setups,
        "setup.backend_s": summary.total_s("setup.backend") / setups,
    }
    covered = 0.0
    for phase in _ROUND_PHASES:
        seconds = summary.children_s("round", f"round.{phase}")
        covered += seconds
        metrics[f"round.{phase}_s"] = seconds / rounds
    metrics["round.coverage"] = _ratio(covered, summary.total_s("round"))

    plans = result.wrappers.plans
    metrics["cohort.fused_groups"] = sum(plan[0] for plan in plans) / rounds
    metrics["cohort.fused_device_share"] = _ratio(sum(plan[1] for plan in plans),
                                                  sum(plan[2] for plan in plans))

    metrics["distill.phase1_s"] = summary.total_s("distill.phase1") / rounds
    metrics["distill.phase2_s"] = summary.total_s("distill.phase2") / rounds
    metrics["distill.generator_fwd_s"] = summary.scoped_s(
        "generator.forward", ("distill.phase1",)) / rounds
    metrics["distill.teacher_fwd_s"] = summary.scoped_s("ensemble.forward") / rounds
    metrics["distill.global_fwd_s"] = summary.scoped_s("global.forward") / rounds
    metrics["distill.backward_s"] = summary.scoped_s("tensor.backward") / rounds
    metrics["distill.optim_step_s"] = summary.scoped_s("optim.step") / rounds
    metrics["distill.synthesis_s"] = summary.scoped_s(
        "generator.forward", ("distill.phase2",)) / rounds

    metrics["backend.run_tasks_calls"] = summary.calls("backend.run_tasks") / rounds
    metrics["backend.run_tasks_s"] = summary.total_s("backend.run_tasks") / rounds
    traced = result.traced
    metrics["store.hit_rate"] = _ratio(_delta(traced, "hits"), _delta(traced, "refs_resolved"))
    metrics["net.shipped_mb_per_round"] = _delta(traced, "shipped_bytes") / MB / rounds
    metrics["net.result_mb_per_round"] = _delta(traced, "result_bytes") / MB / rounds
    metrics["net.tasks_shipped_per_round"] = _delta(traced, "tasks_shipped") / rounds
    metrics["net.fetch_hit_rate"] = 1.0 - _ratio(_delta(traced, "fetched_bytes"),
                                                 _delta(traced, "inline_bytes"), empty=1.0)
    last = traced[-1].stats_after
    metrics["net.tasks_requeued"] = float(last.get("tasks_requeued", 0))
    metrics["net.worker_restarts"] = float(last.get("worker_restarts", 0))

    for layer, span in _NN_SPANS.items():
        metrics[f"nn.{layer}_self_s"] = summary.self_s(span) / rounds
        metrics[f"nn.{layer}_calls"] = summary.calls(span) / rounds
    metrics["nn.pool_free_mb"] = statistics.median(r.pool_free_mb for r in traced)
    traced_s = sum(result.traced_round_s)
    metrics["trace.overhead"] = _ratio(statistics.median(result.traced_round_s),
                                       _median(result.round_s))
    # The same ratio estimated without a second round: the traced rounds'
    # span count times the calibrated cost of one wrapper.
    round_spans = sum(1 for span in result.tracer.spans if not span.name.startswith("setup."))
    metrics["trace.overhead_est"] = _ratio(traced_s, traced_s - round_spans * span_cost_s())
    return _in_declared_order(metrics, PER_LAYER_UNITS)


def _in_declared_order(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, float]:
    """``values`` in ``BENCHMARK.json`` order; every declared metric, no other."""
    if set(values) != set(units):
        raise ValueError(f"computed metrics {sorted(values)} differ from the declared "
                         f"{sorted(units)}")
    return {name: values[name] for name in units}


def report(result: RunResult, trace: bool) -> dict:
    """The benchmark's result object (the last line of its output)."""
    if trace:
        values, units = per_layer(result), PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        values = _in_declared_order(result.end_to_end(), units)
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def describe(result: RunResult, out=sys.stdout) -> None:
    """Human-readable lines printed before the result object."""
    print(f"workload {result.workload}  seed {result.seed}  set-ups {len(result.setup_s)}  "
          f"episodes {len(result.run_s)}  timed rounds {result.attempted} "
          f"({len(result.round_s)} untraced, {len(result.traced_round_s)} traced)", file=out)
    for label, samples in (("setup_s", result.setup_s), ("run_s", result.run_s),
                           ("round_s", result.round_s)):
        print(f"{label} samples: " + " ".join(f"{s:.4f}" for s in samples), file=out)
    if result.traced_round_s:
        print("traced round_s samples: " + " ".join(f"{s:.4f}" for s in result.traced_round_s),
              file=out)
    if result.warmup_mismatches:
        print(f"warm-up rounds differing from the reference: {result.warmup_mismatches}", file=out)
    for error in result.errors:
        print(error, file=out)
