"""Checks of the program's outputs against its frozen oracles.

Every check runs in the client after the measured work has finished: the
sweep slots and the serve answers are recomputed on the seed evaluation
path (:mod:`repro.batch.reference`), campaign trials on the tick-accurate
simulator.  Each function returns the number of mismatches.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional, Sequence

#: Each check compares plain JSON payloads, so a mismatch is any difference.
Payload = Optional[Dict[str, object]]


def check_sweep_slots(
    cores: int,
    per_group: int,
    seed: int,
    answers: Mapping[int, Payload],
) -> int:
    """Recompute sampled sweep slots ``{job index: evaluation}`` on the
    reference path."""
    from repro.batch import build_specs
    from repro.batch.reference import reference_evaluate_one
    from repro.experiments.config import ExperimentConfig

    specs = build_specs(
        ExperimentConfig(num_cores=cores, tasksets_per_group=per_group, seed=seed)
    )
    mismatches = 0
    for job, answer in answers.items():
        spec = specs[job]
        expected = reference_evaluate_one(
            cores, spec.group_index, spec.normalized_range, spec.seed
        )
        mismatches += _differs(expected, answer)
    return mismatches


def check_campaign_trials(spec_fields: Mapping[str, object], answers: Mapping[int, Payload]) -> int:
    """Replay sampled campaign trials ``{trial index: record}`` on the tick
    backend."""
    from repro.campaign import CampaignRunner, CampaignSpec, JitterModel, build_trial_specs

    fields = dict(spec_fields)
    fields["jitter"] = JitterModel.uniform(fields["jitter"])
    spec = CampaignSpec(backend="tick", **fields)
    trials = build_trial_specs(spec)
    runner = CampaignRunner(spec)
    records = runner.run_trials([trials[index] for index in sorted(answers)])
    return sum(
        _differs(record, answers[record.trial_index]) for record in records
    )


def reference_design_answer(query: Mapping[str, object]) -> Payload:
    """What a ``design`` query must answer, from the reference path."""
    from repro.batch.reference import reference_evaluate_one

    evaluation = reference_evaluate_one(
        query["num_cores"],
        query["group_index"],
        tuple(query["normalized_range"]),
        query["seed"],
    )
    return {"evaluation": _json(evaluation)}


def reference_admit_answer(query: Mapping[str, object]) -> Payload:
    """What an ``admit`` query must answer, from the reference path."""
    from repro.batch.reference import (
        reference_design_global_tmax,
        reference_design_hydra,
        reference_design_hydra_c,
        reference_partition_rt_tasks,
    )
    from repro.batch.results import SCHEME_NAMES, TasksetEvaluation
    from repro.errors import AllocationError, UnschedulableError
    from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet

    num_cores = query["num_cores"]
    platform = Platform(num_cores=num_cores)
    taskset = TaskSet.create(
        [RealTimeTask(**task) for task in query["rt_tasks"]],
        [SecurityTask(**task) for task in query["security_tasks"]],
    )
    try:
        mapping = reference_partition_rt_tasks(taskset, platform).mapping
    except AllocationError:
        return {"feasible": False, "evaluation": None}
    designs = {
        "HYDRA-C": lambda: reference_design_hydra_c(platform, taskset, mapping),
        "HYDRA": lambda: reference_design_hydra(platform, taskset, mapping),
        "GLOBAL-TMax": lambda: reference_design_global_tmax(platform, taskset),
        "HYDRA-TMax": lambda: reference_design_hydra(
            platform, taskset, mapping, pin_periods_to_max=True
        ),
    }
    schedulable, periods = {}, {}
    for name in SCHEME_NAMES:
        try:
            design = designs[name]()
        except UnschedulableError:
            design = None
        schedulable[name] = design is not None and design.schedulable
        periods[name] = (
            {task: period for task, period in design.security_periods().items() if period is not None}
            if schedulable[name]
            else None
        )
    evaluation = TasksetEvaluation(
        group_index=0,
        normalized_utilization=taskset.normalized_utilization(num_cores),
        num_rt_tasks=taskset.num_rt_tasks,
        num_security_tasks=taskset.num_security_tasks,
        max_periods=taskset.security_max_period_vector(),
        schedulable=schedulable,
        periods=periods,
    )
    return {"feasible": True, "evaluation": evaluation.to_json()}


def check_serve_answers(
    queries: Sequence[Mapping[str, object]],
    answers: Mapping[int, Payload],
) -> int:
    """Recompute sampled serve answers ``{query id: result}``."""
    by_id = {query["id"]: query for query in queries}
    mismatches = 0
    for query_id, answer in answers.items():
        query = by_id[query_id]
        if query["op"] == "design":
            mismatches += _differs(reference_design_answer(query), answer)
        else:
            # The rejection wording is not part of the frozen contract.
            answer = {key: value for key, value in answer.items() if key != "reason"}
            mismatches += _differs(reference_admit_answer(query), answer)
    return mismatches


def _json(value):
    return value.to_json() if hasattr(value, "to_json") else value


def _differs(expected, answer) -> int:
    """1 when the two answers differ as JSON, else 0."""
    return int(json.dumps(_json(expected), sort_keys=True) != json.dumps(_json(answer), sort_keys=True))
