"""The program side of a ``sweep`` or ``campaign-*`` run, one process.

``python perfbench/worker.py WORKLOAD PARAMS_JSON`` imports the program,
does the workload's set-up (the compiled-kernel load; for campaigns also
the orchestrator build, i.e. design integration), prints a ``ready`` line
and then runs the work named by each command read from stdin.  At every
checkpoint chunk the program pauses: the worker reports the chunk's time
and waits for ``go``, so the client (``run.py``) can run the host probe
while nothing else runs.  Times reported exclude those pauses.  Outputs for
the oracle checks are sent after the measured work.

Protocol lines go to the original stdout; anything the program prints is
redirected to stderr so it cannot corrupt the protocol.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

_PROTOCOL = os.fdopen(os.dup(1), "w", buffering=1)
os.dup2(2, 1)
sys.stdout = sys.stderr

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import layers  # noqa: E402
from perfbench.tracing import Tracer, instrument, self_times  # noqa: E402


def reply(payload) -> None:
    _PROTOCOL.write(json.dumps(payload, separators=(",", ":")) + "\n")


def read_command():
    line = sys.stdin.readline()
    if not line:
        raise SystemExit(0)  # client went away
    return json.loads(line)


def layer_report(tracer: Tracer):
    total, own = self_times(tracer.spans)
    calls = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return {"total": total, "self": own, "calls": calls}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pacer:
    """Progress callback that pauses the program at every chunk boundary.

    Each chunk is reported as ``{"chunk": seconds}``; every
    ``chunks_per_segment`` chunks the message also carries the segment's
    time.  Traced runs keep one ``segment`` root span open while the
    program runs and close it across each pause, so span coverage is
    measured against working time only.
    """

    def __init__(self, tracer=None, chunks_per_segment=None) -> None:
        self.tracer = tracer
        self.chunks_per_segment = chunks_per_segment
        self._root = None

    def begin(self) -> None:
        self._start = self._resume = time.perf_counter()
        self._paused = 0.0
        self._chunks = 0
        if self.tracer is not None:
            self._root = self.tracer.begin("segment")

    def elapsed(self) -> float:
        """Working time since :meth:`begin`, pauses excluded."""
        return time.perf_counter() - self._start - self._paused

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.end(self._root)

    def progress(self, _snapshot) -> None:
        now = time.perf_counter()
        message = {"chunk": now - self._resume}
        self._chunks += 1
        if self.chunks_per_segment and self._chunks % self.chunks_per_segment == 0:
            message["segment"] = now - self._start - self._paused
        self.end()
        reply(message)
        if read_command()["op"] != "go":
            raise SystemExit("protocol error: expected go")
        self._resume = time.perf_counter()
        if "segment" in message:
            self._start, self._paused = self._resume, 0.0
        else:
            self._paused += self._resume - now
        if self.tracer is not None:
            self._root = self.tracer.begin("segment")


# -- sweep ----------------------------------------------------------------------


def sweep_main(params) -> None:
    from repro.batch import open_result_store
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.sweep import run_sweep
    from repro.rta.compiled import resolve_kernel

    tier = "compiled" if resolve_kernel("auto") is not None else "python"
    reply({"ready": True, "rta_tier": tier})
    workdir = Path(params["workdir"])
    while True:
        command = read_command()
        if command["op"] == "exit":
            return
        tracer = Tracer() if command["trace"] else None
        pacer = Pacer(tracer)
        kernel = {}
        runs = []
        with instrument(tracer, layers.sweep_targets()):
            pacer.begin()
            for cores, per_group in params["per_group"]:
                config = ExperimentConfig(
                    num_cores=cores,
                    tasksets_per_group=per_group,
                    seed=command["seed"],
                    kernel="auto",
                )
                path = workdir / f"sweep-{cores}.jsonl"
                path.unlink(missing_ok=True)
                store = open_result_store(str(path), config)
                if tracer is not None:
                    store.append_chunk = tracer.wrap(store.append_chunk, "storage.append")
                sink = {}
                result = run_sweep(config, store=store, progress=pacer.progress, stats_sink=sink)
                runs.append((cores, config, path, result))
                for key, value in sink.items():
                    kernel[key] = kernel.get(key, 0) + value
            elapsed = pacer.elapsed()
            pacer.end()
        # Everything below is outside the timed region.
        outcome = {
            "segment": elapsed,
            "done": True,
            "kernel": kernel,
            "records": {},
            "digest": [],
            "storage_bytes": 0,
            "sample": {},
        }
        for cores, config, path, result in runs:
            evaluations = [evaluation.to_json() for evaluation in result.evaluations]
            outcome["storage_bytes"] += path.stat().st_size
            outcome["records"][cores] = len(evaluations)
            outcome["digest"].append(digest(evaluations))
            wanted = command["sample"].get(str(cores), [])
            if wanted:
                stored = open_result_store(str(path), config).load()
                outcome["sample"][cores] = {
                    str(job): (stored[job].to_json() if stored[job] is not None else None)
                    for job in wanted
                }
        if tracer is not None:
            outcome["layers"] = layer_report(tracer)
        reply(outcome)


# -- campaigns ------------------------------------------------------------------


def campaign_main(params) -> None:
    from repro.campaign import (
        CampaignOrchestrator,
        CampaignSpec,
        CampaignStats,
        JitterModel,
        open_campaign_store,
    )

    scheduler, protocol, overheads = params["platform"]
    workdir = Path(params["workdir"])
    spec = CampaignSpec(
        schemes=tuple(params["schemes"]),
        num_trials=params["trials"],
        seed=params["seed"],
        jitter=JitterModel.uniform(params["jitter"]),
        scheduler=scheduler,
        protocol=protocol,
        overheads=overheads,
    )

    def build(tracer, name):
        path = workdir / name
        path.unlink(missing_ok=True)
        store = open_campaign_store(str(path), spec)
        if tracer is not None:
            store.append_chunk = tracer.wrap(store.append_chunk, "storage.append")
        stats = CampaignStats()
        pacer = Pacer(tracer, params["chunks_per_segment"])
        orchestrator = CampaignOrchestrator(
            spec, store=store, progress=pacer.progress, stats_sink=stats
        )
        return orchestrator, stats, pacer, path

    orchestrator, stats, pacer, path = build(None, "campaign.jsonl")
    reply({"ready": True, "backend": spec.backend})
    sample = set(params["sample"])
    while True:
        command = read_command()
        if command["op"] == "exit":
            return
        tracer = Tracer() if command["trace"] else None
        with instrument(tracer, layers.campaign_targets()):
            if tracer is not None:
                # A second, traced pass over the very same trials.
                with tracer.span("campaign.integrate"):
                    orchestrator, stats, pacer, path = build(tracer, "campaign-traced.jsonl")
            pacer.begin()
            result = orchestrator.run()
            pacer.end()
        outcome = {
            "done": True,
            "stats": stats.as_dict(),
            "storage_bytes": path.stat().st_size,
            "sample": {
                str(record.trial_index): record.to_json()
                for record in result.records
                if record.trial_index in sample
            },
            "digest": digest([record.to_json() for record in result.records]),
        }
        if tracer is not None:
            outcome["layers"] = layer_report(tracer)
        reply(outcome)


def main() -> None:
    workload, params = sys.argv[1], json.loads(sys.argv[2])
    if workload == "sweep":
        sweep_main(params)
    else:
        campaign_main(params)


if __name__ == "__main__":
    main()
