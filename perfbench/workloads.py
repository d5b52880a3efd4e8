"""The fixed work of each workload, derived from the seed and nothing else.

A run's work is a pure function of ``(workload, seed, seconds)``: the
requested seconds only choose how many equal segments run
(:func:`segment_count`), never how much work fits in a clock window, so
one seed always yields the same inputs and the same counts, and a slow
host turns into a longer run instead of a smaller one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: Task sets per utilization group in one sweep pass, per core count:
#: equal counts on both platforms, as in the paper's sweep.  A pass covers
#: all ten groups on 2 and then 4 cores in four checkpoint chunks of the
#: default size (25), two per platform.
SWEEP_PER_GROUP = {2: 5, 4: 5}

#: Campaign segment = this many checkpoint chunks of the default size.
CAMPAIGN_CHUNKS_PER_SEGMENT = 4
CAMPAIGN_CHUNK_SIZE = 8
CAMPAIGN_SCHEMES = (
    "HYDRA-C",
    "HYDRA-C-WF",
    "HYDRA-C-GC",
    "HYDRA",
    "HYDRA-TMax",
    "GLOBAL-TMax",
)
CAMPAIGN_JITTER = 250
CAMPAIGN_PLATFORMS = {
    "campaign-rm": ("rm", "none", "zero"),
    "campaign-edf-pip": ("edf", "pip", "zero"),
}

#: Serve segment: per utilization group one unseen ``design`` query on each
#: core count, six ``admit`` queries on each core count (spread over the
#: groups), plus verbatim repeats -- 40 queries, a fifth of them repeats,
#: and as many 2-core as 4-core ones.
SERVE_DESIGNS_PER_GROUP = {2: 1, 4: 1}
SERVE_ADMITS = {2: 6, 4: 6}
SERVE_REPEATS_PER_SEGMENT = 8
SERVE_SEGMENT_QUERIES = (
    10 * sum(SERVE_DESIGNS_PER_GROUP.values())
    + sum(SERVE_ADMITS.values())
    + SERVE_REPEATS_PER_SEGMENT
)
SERVE_PING_EVERY = 25
#: The client probes the host after every this many queries.
SERVE_PROBE_EVERY = 6

#: Segments per requested second, per workload.  At the default 12 s a
#: segment takes 0.6-4.5 s on the reference host and an untraced run
#: 20-35 s in all, set-up and oracle checks included; more segments buy
#: steadier medians at that cost.
SEGMENTS_PER_SECOND = {
    "sweep": 0.45,
    "campaign-rm": 1.5,
    "campaign-edf-pip": 1.1,
    "serve": 0.6,
}
MIN_SEGMENTS = 5

#: Host-probe parts per workload (see :mod:`perfbench.probe`), matched to
#: where the workload spends its time: the daemon answers on the
#: pure-python RTA tier, the sweep and the campaigns mix interpreter work
#: with compiled code and NumPy.
PROBE_PARTS = {
    "sweep": ("dict", "fixed_point", "zlib", "numpy"),
    "campaign-rm": ("dict", "fixed_point", "zlib", "numpy"),
    "campaign-edf-pip": ("dict", "fixed_point", "zlib", "numpy"),
    "serve": ("dict", "fixed_point"),
}

WORKLOADS = tuple(SEGMENTS_PER_SECOND)


def segment_count(workload: str, seconds: int) -> int:
    return max(MIN_SEGMENTS, round(seconds * SEGMENTS_PER_SECOND[workload]))


def derive_seeds(seed: int, tag: str, count: int) -> List[int]:
    """*count* independent 32-bit seeds for one purpose of one run."""
    entropy = [seed] + [ord(char) for char in tag]
    return [int(value) for value in np.random.SeedSequence(entropy).generate_state(count)]


def sweep_passes(seed: int, segments: int) -> List[int]:
    """Seed of each sweep pass (one pass = one segment)."""
    return derive_seeds(seed, "sweep", segments)


def campaign_trials(segments: int) -> int:
    return segments * CAMPAIGN_CHUNKS_PER_SEGMENT * CAMPAIGN_CHUNK_SIZE


def campaign_seed(seed: int) -> int:
    return derive_seeds(seed, "campaign", 1)[0]


def serve_queries(seed: int, segments: int) -> Tuple[List[Dict[str, object]], Dict[int, int]]:
    """The closed loop's query list (pings excluded), in send order, and
    ``{repeat id: original id}``.

    Every segment holds the same mix (see :data:`SERVE_SEGMENT_QUERIES`):
    unseen ``design`` queries over both core counts and all ten groups,
    ``admit`` queries carrying generator-made task sets, and verbatim
    repeats of earlier queries (same payload, new id).  The order and the
    repeat targets are the same for every seed; the seed draws only the
    task sets.
    """
    from repro.experiments.config import UTILIZATION_GROUPS
    from repro.generation import TasksetGenerationConfig, TasksetGenerator

    order = np.random.default_rng(2020)
    inputs = np.random.default_rng(derive_seeds(seed, "serve", 1)[0])
    groups = len(UTILIZATION_GROUPS)
    queries: List[Dict[str, object]] = []
    repeat_of: Dict[int, int] = {}
    for segment in range(segments):
        plan = [
            ("design", cores, group)
            for cores, count in SERVE_DESIGNS_PER_GROUP.items()
            for group in range(groups)
            for _ in range(count)
        ]
        plan += [
            ("admit", cores, (k + segment * count) % groups)
            for cores, count in SERVE_ADMITS.items()
            for k in range(count)
        ]
        plan = [plan[int(i)] for i in order.permutation(len(plan))]
        for k in range(SERVE_REPEATS_PER_SEGMENT):
            plan.insert(int(order.integers(1, len(plan) + 1)), ("repeat", None, None))
        for op, cores, group in plan:
            position = len(queries)
            if op == "repeat":
                target = int(order.integers(0, position))
                original = repeat_of.get(target, target)
                repeat_of[position] = original
                queries.append(dict(queries[original], id=position))
                continue
            low, high = UTILIZATION_GROUPS[group]
            task_seed = int(inputs.integers(0, 2**31))
            if op == "design":
                queries.append(
                    {
                        "op": "design",
                        "id": position,
                        "num_cores": cores,
                        "seed": task_seed,
                        "group_index": group,
                        "normalized_range": [low, high],
                    }
                )
                continue
            generator = TasksetGenerator(TasksetGenerationConfig(num_cores=cores), seed=task_seed)
            taskset = generator.generate_normalized(float(inputs.uniform(low, high)))
            queries.append(
                {
                    "op": "admit",
                    "id": position,
                    "num_cores": cores,
                    "rt_tasks": [
                        {"name": t.name, "wcet": t.wcet, "period": t.period}
                        for t in taskset.rt_tasks
                    ],
                    "security_tasks": [
                        {"name": t.name, "wcet": t.wcet, "max_period": t.max_period}
                        for t in taskset.security_tasks
                    ],
                }
            )
    return queries, repeat_of
