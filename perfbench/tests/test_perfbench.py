"""Tests of the benchmark's own machinery (not of the program it measures)."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import oracles, run, workloads  # noqa: E402
from perfbench.probe import HostProbe  # noqa: E402
from perfbench.tracing import Tracer, instrument, self_times  # noqa: E402


# -- fixed work -------------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    assert workloads.sweep_passes(3, 5) == workloads.sweep_passes(3, 5)
    assert workloads.sweep_passes(3, 5) != workloads.sweep_passes(4, 5)
    assert workloads.campaign_seed(3) != workloads.campaign_seed(4)
    assert workloads.serve_queries(3, 1) == workloads.serve_queries(3, 1)
    assert workloads.serve_queries(3, 1)[0] != workloads.serve_queries(4, 1)[0]


def test_work_depends_on_seconds_not_on_the_clock():
    for workload in workloads.WORKLOADS:
        assert workloads.segment_count(workload, 10) == workloads.segment_count(workload, 10)
        assert workloads.segment_count(workload, 1) == workloads.MIN_SEGMENTS


def test_serve_query_mix_is_the_same_for_every_seed():
    shape = lambda queries: [(q["op"], q["num_cores"]) for q in queries[0]]  # noqa: E731
    assert shape(workloads.serve_queries(1, 2)) == shape(workloads.serve_queries(2, 2))
    queries, repeats = workloads.serve_queries(1, 2)
    for repeat, original in repeats.items():
        assert {**queries[repeat], "id": original} == queries[original]


def test_one_seed_gives_identical_counts_across_runs(tmp_path):
    probe = HostProbe()
    probe.point(1)
    params = {"workdir": str(tmp_path), "per_group": [[2, 1]]}
    worker = run.Worker("sweep", params, run.program_env())
    try:
        first, again, other = (
            run.drive(
                worker,
                {"op": "pass", "seed": seed, "trace": False, "sample": {}},
                probe,
                repeats=1,
            )[2]
            for seed in (11, 11, 12)
        )
        worker.stop()
    finally:
        worker.kill()
    assert first["digest"] == again["digest"]
    assert first["kernel"] == again["kernel"]
    assert first["storage_bytes"] == again["storage_bytes"]
    assert first["digest"] != other["digest"]


# -- tracing ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("inner"):  # 1 .. 9
            with tracer.span("leaf"):  # 2 .. 4
                pass
            with tracer.span("leaf"):  # 5 .. 8
                pass
    total, own = self_times(tracer.spans)
    assert total == {"outer": 10.0, "inner": 8.0, "leaf": 5.0}
    assert own == {"outer": 2.0, "inner": 3.0, "leaf": 5.0}


def test_self_times_of_hand_built_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    total, own = self_times(spans)
    assert total == {"root": 10.0, "a": 7.0, "b": 1.0}
    assert own == {"root": 3.0, "a": 6.0, "b": 1.0}


def test_instrument_wraps_and_restores():
    class Layer:
        def work(self, value):
            return value * 2

    original = Layer.work
    tracer = Tracer()
    with instrument(tracer, [(Layer, "work", "layer")]):
        assert Layer().work(3) == 6
    assert Layer.work is original
    assert [span[0] for span in tracer.spans] == ["layer"]
    with instrument(None, [(Layer, "work", "layer")]):
        assert Layer.work is original


# -- oracle checks ------------------------------------------------------------------


def _fast_sweep_slot():
    """A cheap slot (2 cores, highest utilization group) and its true answer."""
    from repro.batch import BatchDesignService, build_specs
    from repro.experiments.config import ExperimentConfig

    spec = build_specs(ExperimentConfig(num_cores=2, tasksets_per_group=1, seed=7))[9]
    answer = BatchDesignService(2).evaluate_spec(spec)
    return 9, (answer.to_json() if answer is not None else None)


def test_sweep_oracle_accepts_the_true_answer_and_counts_a_wrong_one():
    job, answer = _fast_sweep_slot()
    assert oracles.check_sweep_slots(2, 1, 7, {job: answer}) == 0
    wrong = json.loads(json.dumps(answer))
    if wrong is None:
        wrong = {"injected": True}
    else:
        wrong["num_rt_tasks"] += 1
    assert oracles.check_sweep_slots(2, 1, 7, {job: wrong}) == 1


def test_serve_oracle_counts_a_wrong_admit_answer():
    queries, _repeats = workloads.serve_queries(5, 1)
    admit = next(q for q in queries if q["op"] == "admit" and q["num_cores"] == 2)
    truth = oracles.reference_admit_answer(admit)
    wrong = dict(truth, feasible=not truth["feasible"])
    calls = [
        (oracles.check_serve_answers, [admit], {admit["id"]: answer})
        for answer in (truth, wrong, truth)
    ]
    assert run.run_checks(calls, os.sched_getaffinity(0)) == 1


def test_latency_percentiles_are_medians_over_groups():
    result = run.Result()
    groups = [[(float(value), 1.0) for value in range(first, first + 4)] for first in (1, 5, 9)]
    result.end_to_end([(1.0, 2.0)], 50.0, 10, [(2.0, 1.0), (4.0, 1.0), (5.0, 1.0)], groups)
    # Nearest-rank p50 of each group is its 2nd value, p90 its 4th.
    assert result.metrics["lat_p50_ms"] == 6000.0
    assert result.metrics["lat_p90_ms"] == 8000.0
    assert result.metrics["throughput_per_s"] == 2.5
    assert result.metrics["setup_s"] == 2.0 and result.raw["setup_s"] == 1.0


def test_a_failed_operation_makes_the_run_incorrect(capsys):
    result = run.Result()
    result.attempted, result.checked, result.failed = 10, 4, 1
    run.print_result(result, {"git_rev": "x"}, per_layer=False)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["correct"] is False
    assert printed["failed"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(printed["metrics"]) == {entry["name"] for entry in spec["end_to_end"]}
