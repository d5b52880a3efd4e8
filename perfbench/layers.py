"""Where a traced run draws its layer boundaries.

Each target wraps one public function or method of the program (or the
module-level name a layer calls it through) as a span.  The span names are
the prefixes of the per-layer metrics in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import List

from perfbench.tracing import Target

#: The sweep's scheme spans are named after the scheme that answered.
SCHEME_PREFIX = "schemes."


def _scheme_name(design) -> str:
    return SCHEME_PREFIX + design.scheme


def sweep_targets() -> List[Target]:
    import repro.batch.service as batch_service
    import repro.rta.vectorized as vectorized
    from repro.baselines.hydra import Hydra
    from repro.batch import BatchDesignService
    from repro.generation import TasksetGenerator
    from repro.schemes.builtin import GlobalTMaxPlugin, HydraCPlugin, HydraFamilyPlugin

    targets: List[Target] = [
        (BatchDesignService, "evaluate_specs", "batch"),
        (TasksetGenerator, "generate_normalized", "generation"),
        (vectorized, "partition_column", "partitioning"),
        (batch_service, "partitioned_rt_check", "schedulability.eq1"),
        (Hydra, "allocate_security", "baselines.alloc"),
    ]
    for plugin in (HydraCPlugin, HydraFamilyPlugin, GlobalTMaxPlugin):
        targets.append((plugin, "design", SCHEME_PREFIX + "raised", _scheme_name))
    return targets


def campaign_targets() -> List[Target]:
    import repro.campaign.trial as trial
    from repro.campaign import CampaignRunner
    from repro.sim import EventCompressedSimulator, Simulator

    return [
        (CampaignRunner, "run_trials", "campaign.trials"),
        (Simulator, "__init__", "sim.build"),
        (Simulator, "run", "sim.run"),
        (EventCompressedSimulator, "run", "sim.run"),
        (trial, "simulate_trials_batched", "sim.batched"),
        (trial, "evaluate_detection", "security.detection"),
    ]
