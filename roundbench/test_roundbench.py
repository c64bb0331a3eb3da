"""Self-tests of the round benchmark (not part of the tier-1 suite).

Run from the checkout root::

    python -m pytest -q roundbench/test_roundbench.py

The quick-mode tests run every workload end to end (about two minutes on a
2-core machine, most of it in the two FedZKT workloads).
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_imports()

import bench  # noqa: E402
import tracer as tracing  # noqa: E402


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _spans(rows):
    """``(name, parent, scope, start, end)`` rows -> spans."""
    return [tracing.Span(name, parent, scope, start, end)
            for name, parent, scope, start, end in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("round", -1, None, 0, 100),
        ("round.aggregate", 0, None, 10, 90),
        ("distill.phase1", 1, "distill.phase1", 20, 70),
        ("nn.conv2d", 2, "distill.phase1", 25, 35),
        ("nn.conv2d", 2, "distill.phase1", 40, 45),
        ("tensor.backward", 2, "distill.phase1", 50, 68),
        ("nn.conv2d", 5, "distill.phase1", 55, 60),
        ("tensor.backward", 1, None, 72, 80),
    ])
    summary = tracing.summarize(spans)
    assert summary.by_name["round"].self_ns == 100 - 80
    assert summary.by_name["round.aggregate"].self_ns == 80 - 50 - 8
    assert summary.by_name["distill.phase1"].self_ns == 50 - 10 - 5 - 18
    assert summary.by_name["tensor.backward"].self_ns == (18 - 5) + 8
    assert summary.by_name["nn.conv2d"].self_ns == 10 + 5 + 5
    assert summary.calls("nn.conv2d") == 3
    assert summary.total_s("tensor.backward") == pytest.approx(26e-9)
    assert summary.scoped_s("tensor.backward") == pytest.approx(18e-9)
    assert summary.children_s("round", "round.aggregate") == pytest.approx(80e-9)
    assert summary.children_s("round", "nn.conv2d") == 0.0


def test_recursive_spans_are_not_double_counted_in_totals():
    spans = _spans([
        ("nn.batched", -1, None, 0, 50),
        ("nn.batched", 0, None, 10, 30),
    ])
    summary = tracing.summarize(spans)
    assert summary.by_name["nn.batched"].total_ns == 50
    assert summary.by_name["nn.batched"].self_ns == 30 + 20
    assert summary.calls("nn.batched") == 2


def test_tracer_records_scope_and_rejects_out_of_order_close():
    tracer = tracing.Tracer()
    outer = tracer.open("distill.phase2")
    inner = tracer.open("generator.forward")
    assert tracer.spans[inner].scope == "distill.phase2"
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    tracer = tracing.Tracer()
    with tracer.span("round"):
        with tracer.span("round.train"):
            pass
    assert [s.name for s in tracer.spans] == ["round", "round.train"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].scope is None
    assert all(s.end >= s.start for s in tracer.spans)


def test_unclosed_span_is_an_error():
    with pytest.raises(ValueError):
        tracing.summarize(_spans([("round", -1, None, 0, -1)]))


def test_wrappers_restore_every_patched_attribute():
    from repro.federated import simulation
    from repro.federated.backend import SerialBackend
    from repro.models.base import ClassificationModel
    from repro.nn import layers

    before = (simulation.Simulation.run_device_tasks, layers.Conv2d.forward,
              simulation.plan_cohorts, ClassificationModel.__call__)
    wrappers = tracing.LayerWrappers(tracing.Tracer())
    with wrappers.installed(None, SerialBackend):
        assert layers.Conv2d.forward is not before[1]
        assert "__call__" in ClassificationModel.__dict__
    after = (simulation.Simulation.run_device_tasks, layers.Conv2d.forward,
             simulation.plan_cohorts, ClassificationModel.__call__)
    assert after == before
    assert "__call__" not in ClassificationModel.__dict__


# --------------------------------------------------------------------------- #
# End to end (quick mode)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_quick_run_is_correct_and_emits_every_end_to_end_metric(workload):
    result = bench.run_workload(workload, seed=3, seconds=0, quick=True)
    outcome = bench.report(result, trace=False)
    assert outcome["correct"] is True
    assert (outcome["attempted"], outcome["failed"]) == (1, 0)
    metrics = outcome["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == bench.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", ["avg-fused", "zkt-tcp-sharded"])
def test_quick_traced_run_matches_reference_and_emits_every_layer_metric(workload):
    result = bench.run_workload(workload, seed=3, seconds=0, trace=True, quick=True)
    outcome = bench.report(result, trace=True)
    # The traced round reproduces the untraced reference bit for bit.
    assert outcome["correct"] is True
    assert (outcome["attempted"], outcome["failed"]) == (2, 0)
    metrics = outcome["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == bench.PER_LAYER_UNITS
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["round.coverage"] > 0.9
    assert values["trace.overhead"] > 0
    if workload == "avg-fused":
        assert values["cohort.fused_groups"] >= 1
        assert values["cohort.fused_device_share"] == 1.0
        assert values["distill.phase1_s"] == 0.0
        assert values["nn.batched_calls"] > 0
    else:
        assert values["cohort.fused_groups"] == 0
        assert values["distill.phase1_s"] > 0
        assert values["net.tasks_shipped_per_round"] > 0
        assert values["net.shipped_mb_per_round"] > 0


def _corrupt(references, key, seed, round_index):
    corrupted = copy.deepcopy(references)
    record = corrupted[key][str(seed)][round_index]
    record["local_loss"] = math.nextafter(record["local_loss"], math.inf)
    return corrupted


def test_a_one_ulp_wrong_reference_fails_the_timed_round():
    references = bench.load_references()
    result = bench.run_workload("avg-fused", seed=0, seconds=0, quick=True,
                                references=_corrupt(references, "fedavg", 0, 1))
    outcome = bench.report(result, trace=False)
    assert outcome["correct"] is False
    assert (outcome["attempted"], outcome["failed"]) == (1, 1)


def test_a_wrong_warm_up_reference_makes_the_run_incorrect():
    references = bench.load_references()
    result = bench.run_workload("avg-fused", seed=0, seconds=0, quick=True,
                                references=_corrupt(references, "fedavg", 0, 0))
    assert result.warmup_mismatches == 1
    assert bench.report(result, trace=False)["correct"] is False


def test_a_raising_set_up_is_reported_as_failed_rounds(monkeypatch):
    def broken(*args, **kwargs):
        raise OSError("no dataset")

    monkeypatch.setattr(bench, "set_up", broken)
    result = bench.run_workload("zkt-serial", seed=0, seconds=0)
    outcome = bench.report(result, trace=False)
    assert outcome["correct"] is False
    assert (outcome["attempted"], outcome["failed"]) == (2, 2)
    assert "no dataset" in result.errors[0]


def test_a_hung_round_is_interrupted_and_counted_as_failed(monkeypatch):
    from repro.federated.simulation import Simulation

    run_round = Simulation.run_round

    def hang_in_round_one(self, round_index):
        if round_index == 1:
            time.sleep(60)
        return run_round(self, round_index)

    monkeypatch.setattr(Simulation, "run_round", hang_in_round_one)
    monkeypatch.setattr(bench, "ROUND_TIMEOUT_S", 0.5)
    begin = time.perf_counter()
    result = bench.run_workload("avg-fused", seed=0, seconds=0, quick=True)
    assert time.perf_counter() - begin < 30
    outcome = bench.report(result, trace=False)
    assert (outcome["attempted"], outcome["failed"]) == (1, 1)
    assert "RoundTimeout" in result.errors[0]


def test_tcp_set_up_waits_for_every_worker():
    simulation, backend = bench.set_up(bench.WORKLOADS["zkt-tcp-sharded"], seed=0)
    try:
        assert backend.transport_stats()["workers_connected"] == 2
    finally:
        bench.tear_down(simulation, backend)


def test_metrics_must_match_the_declared_names():
    declared = json.loads(bench.BENCHMARK.read_text(encoding="utf-8"))
    assert list(bench.END_TO_END_UNITS) == [m["name"] for m in declared["end_to_end"]]
    assert list(bench.PER_LAYER_UNITS) == [m["name"] for m in declared["per_layer"]]
    with pytest.raises(ValueError):
        bench._in_declared_order({"setup_s": 1.0}, bench.END_TO_END_UNITS)


def test_seeds_reduce_onto_the_stored_references():
    references = bench.load_references()
    for key, workload in bench.REFERENCE_WORKLOADS.items():
        assert sorted(references[key], key=int) == [str(s) for s in range(bench.NUM_SEEDS)]
        assert all(len(records) == workload.rounds for records in references[key].values())


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def test_cli_prints_the_result_object_last():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "avg-fused", "--seed", "21",
         "--seconds", "0", "--trace", "0", "--quick"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    lines = completed.stdout.strip().splitlines()
    assert lines[0].startswith("environment ")
    assert '"omp_num_threads": "1"' in lines[0]
    outcome = json.loads(lines[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True


def test_cli_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "avg-fused",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
