"""Benchmark entry point: one workload, one seed, a fixed amount of work.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``sweep`` -- passes of one 2-core and one 4-core design grid over the
  ten utilization groups through ``run_sweep`` (the paper's four schemes,
  ``kernel="auto"``, a fresh JSONL checkpoint per grid);
* ``campaign-rm`` / ``campaign-edf-pip`` -- one rover campaign through
  ``CampaignOrchestrator`` (six schemes, ``uniform:250`` jitter, default
  backend and chunking, JSONL checkpoint) on ``rm/none/zero`` and
  ``edf/pip/zero``;
* ``serve`` -- a real ``hydra-c serve`` daemon with default knobs, one
  Unix-socket connection and a closed loop over a fixed query list.

``--seconds`` sets how many equal segments of work run
(:mod:`perfbench.workloads`), never how long: a slow host makes a longer
run, not a smaller one.  Client and program are pinned to one CPU and take
turns: at every checkpoint chunk (every few queries for serve) the program
waits while the client runs the host-speed probe (:mod:`perfbench.probe`).
Each time is rescaled to reference-host seconds by the mean of the probe
points around it, and the end-to-end figures are medians over segments
(``setup_s``: over launches).  Outputs are checked against the frozen
oracles after the measured work, on two processes
(:mod:`perfbench.oracles`, :data:`CAMPAIGN_SAMPLES`); a mismatch or an
error answer counts the operation as failed.

End-to-end metrics: ``setup_s`` (launch to ready: imports and the
compiled-kernel load, plus design integration for campaigns and the first
``ping`` answer for serve), ``peak_rss_mb`` of the program process,
``throughput_per_s`` (task sets, trials or queries per second) and
``lat_p50_ms``/``lat_p90_ms`` (per design/admit query over the whole
run for serve; per checkpoint chunk otherwise, taken within each segment
and then as the median over the segments).

``--trace 1`` runs the same work twice, untraced then traced with spans
around each layer's public functions (:mod:`perfbench.layers`), and
reports the per-layer metrics and the tracing overhead between the two.
A layer a workload does not exercise reports 0.

Standard output ends with two lines: ``stamp {...}`` (the environment the
numbers were taken in, plus the raw unscaled figures) and the result
object.  ``perfbench/compare.py`` compares saved outputs and refuses when
their environments differ.  Everything the benchmark writes stays under
``perfbench/.cache`` of the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE = ROOT / "perfbench" / ".cache"
sys.pycache_prefix = str(CACHE / "pycache")
sys.path.insert(0, str(ROOT))

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.probe import HostProbe  # noqa: E402

#: Set-up launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Probe repetitions per probe point: around set-up launches, at sweep
#: chunk pauses (chunks of ~0.5 s), at campaign chunk pauses and every
#: ``workloads.SERVE_PROBE_EVERY`` serve queries (~0.2 s of work each;
#: the serve probe has half the parts, so twice the repetitions).
SETUP_PROBE_REPEATS = 3
SWEEP_PROBE_REPEATS = 2
CAMPAIGN_PROBE_REPEATS = 1
SERVE_PROBE_REPEATS = 2
#: Outputs re-checked per run on the oracles, which are far slower than
#: the program (about 1 s per 2-core and 2.5 s per 4-core sweep slot or
#: serve answer, 3 s per campaign trial on the reference host): one slot
#: of every sweep pass, one trial in each of ``CAMPAIGN_SAMPLES`` equal
#: stretches of the campaign, one fresh answer per serve segment (design
#: and admit in turn).
CAMPAIGN_SAMPLES = 4
#: Processes the oracle checks run on once the measured work is over.
CHECK_PROCESSES = 2

#: One measured time and the factor that rescales it.
Timed = Tuple[float, float]


class BenchmarkError(Exception):
    """The run cannot complete; reported as a one-line error."""


# -- environment ----------------------------------------------------------------


def program_env(cache: Path = CACHE) -> Dict[str, str]:
    """Environment of every program process: sources from ``src``, all
    bytecode and the compiled kernel under the benchmark's cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(cache / "pycache")
    env["REPRO_COMPILED_CACHE"] = str(cache / "compiled")
    env.pop("REPRO_DISABLE_COMPILED", None)
    return env


def pin_to_one_cpu() -> set:
    """Pin this process, and so every child it starts, to one CPU; returns
    the CPUs it could use before."""
    if not hasattr(os, "sched_setaffinity"):
        return set(range(os.cpu_count() or 1))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


def build(env: Dict[str, str]) -> None:
    """Byte-compile the sources and build the compiled kernel (untimed)."""
    script = (
        "import compileall, sys\n"
        "ok = all([compileall.compile_dir(d, quiet=1) for d in ('src', 'perfbench')])\n"
        "from repro.rta.compiled import resolve_kernel\n"
        "resolve_kernel('auto')\n"
        "sys.exit(0 if ok else 1)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, stdout=subprocess.DEVNULL
    )
    if done.returncode != 0:
        raise BenchmarkError("build step failed")


def stamp(rta_tier: str) -> Dict[str, object]:
    """What the numbers depend on besides the code (see compare.py)."""
    import numpy

    from repro.campaign import CampaignSpec

    rev, dirty = "none", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT, capture_output=True, text=True, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.CalledProcessError):
            rev = "unknown"
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "rta_tier": rta_tier,
        "sim_backend": CampaignSpec().backend,
    }


# -- program processes ------------------------------------------------------------


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("no VmHWM in /proc status")


class Worker:
    """A ``perfbench/worker.py`` process speaking JSON lines."""

    def __init__(self, workload: str, params: Dict[str, object], env: Dict[str, str]) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, json.dumps(params)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready = self.receive()
        self.setup_seconds = time.perf_counter() - started

    def send(self, command: Dict[str, object]) -> None:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()

    def receive(self) -> Dict[str, object]:
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"worker exited with code {self.process.wait()}")
        return json.loads(line)

    def stop(self) -> float:
        """End the process; returns its peak RSS in MiB."""
        peak = _peak_rss_mb(self.process.pid)
        self.send({"op": "exit"})
        self.process.wait(timeout=60)
        return peak

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


class Daemon:
    """A ``hydra-c serve`` process on a Unix socket, with one connection."""

    def __init__(self, env: Dict[str, str], socket_path: str, handle_log: Optional[Path] = None) -> None:
        self.socket_path = socket_path
        if handle_log is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"), str(handle_log)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv + ["serve", "--socket", socket_path, "--quiet"], cwd=ROOT, env=env
        )
        self.connection = self._connect()
        self.reader = self.connection.makefile("rb")
        if not self.request({"op": "ping", "id": "ready"}).get("ok"):
            raise BenchmarkError("daemon did not answer ping")
        self.setup_seconds = time.perf_counter() - started

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + 120
        while True:
            if self.process.poll() is not None:
                raise BenchmarkError(f"daemon exited with code {self.process.returncode}")
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                client.connect(self.socket_path)
                return client
            except (FileNotFoundError, ConnectionRefusedError):
                client.close()
                if time.monotonic() > deadline:
                    raise BenchmarkError("daemon never started listening")
                time.sleep(0.002)

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.connection.sendall((json.dumps(payload, separators=(",", ":")) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise BenchmarkError("daemon closed the connection")
        return json.loads(line)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), as an operator stops it."""
        self.reader.close()
        self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def launch_repeatedly(probe: HostProbe, launch) -> Tuple[object, List[Timed]]:
    """Start the program :data:`SETUP_LAUNCHES` times, one after another,
    probing around each launch; all but the last process are stopped."""
    timed: List[Timed] = []
    process = None
    before = probe.point(SETUP_PROBE_REPEATS)
    for _ in range(SETUP_LAUNCHES):
        if process is not None:
            process.stop()
        process = launch()
        after = probe.point(SETUP_PROBE_REPEATS)
        timed.append((process.setup_seconds, probe.factor(before, after)))
        before = after
    return process, timed


def drive(worker: Worker, command: Dict[str, object], probe: HostProbe, repeats: int):
    """Run one worker command, probing at every chunk pause.

    Returns the segments as (raw seconds, factor) pairs, the chunks of
    each segment likewise, and the worker's final message.
    """
    worker.send(command)
    segment_start = last = len(probe.samples) - 1
    segments: List[Timed] = []
    chunks: List[List[Timed]] = [[]]
    while True:
        message = worker.receive()
        if "chunk" in message:
            now = probe.point(repeats)
            chunks[-1].append((message["chunk"], probe.factor(last, now)))
            last = now
        if "segment" in message:
            segments.append((message["segment"], probe.factor(segment_start, last)))
            segment_start = last
            chunks.append([])
        if message.get("done"):
            return segments, [group for group in chunks if group], message
        worker.send({"op": "go"})


# -- results -------------------------------------------------------------------------


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share - 1e-9)) - 1]


def _call(call):
    function, *arguments = call
    return function(*arguments)


def run_checks(calls: Sequence[tuple], cpus) -> int:
    """Run oracle checks ``(function, *arguments)``, each returning its
    mismatch count, on up to :data:`CHECK_PROCESSES` processes over *cpus*
    (nothing is measured any more); returns the total."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)
    workers = max(1, min(CHECK_PROCESSES, len(cpus), len(calls)))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return sum(pool.map(_call, calls))


def scaled(timed: Sequence[Timed]) -> List[float]:
    return [seconds * factor for seconds, factor in timed]


class Result:
    """Everything one run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.metrics: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self.segments: List[float] = []

    def check(self, mismatches: int, operations: int = 1) -> None:
        self.checked += operations
        self.failed += mismatches

    def end_to_end(
        self,
        setup: Sequence[Timed],
        rss_mb: float,
        units: int,
        segments: Sequence[Timed],
        latencies: Sequence[Sequence[Timed]],
    ) -> None:
        """The end-to-end metrics, rescaled; the raw figures go to the stamp.

        *latencies* holds groups of operation times: each percentile is the
        median over the groups of the group's percentile.
        """
        for rescale, into in ((True, self.metrics), (False, self.raw)):
            view = scaled if rescale else (lambda timed: [seconds for seconds, _ in timed])
            into["setup_s"] = statistics.median(view(setup))
            into["throughput_per_s"] = units / statistics.median(view(segments))
            for name, share in (("lat_p50_ms", 0.5), ("lat_p90_ms", 0.9)):
                into[name] = statistics.median(percentile(view(group), share) for group in latencies) * 1000.0
        self.metrics["peak_rss_mb"] = rss_mb
        self.segments = scaled(segments)

    def layers(self, replies: Sequence[Dict[str, object]], factor: float) -> Dict[str, Dict[str, float]]:
        """Traced spans summed over *replies*: self and total seconds
        (rescaled by *factor*) and call counts per span name."""
        sums: Dict[str, Dict[str, float]] = {"total": {}, "self": {}, "calls": {}}
        for reply in replies:
            for kind, scale in (("total", factor), ("self", factor), ("calls", 1)):
                for name, value in reply["layers"][kind].items():
                    sums[kind][name] = sums[kind].get(name, 0) + value * scale
        self.metrics["trace.coverage"] = 1.0 - sums["self"]["segment"] / sums["total"]["segment"]
        return sums

    def overhead(self, untraced: Sequence[Timed], traced: Sequence[Timed]) -> None:
        """Median slowdown of a traced segment against its untraced twin."""
        ratios = [t / u for u, t in zip(scaled(untraced), scaled(traced))]
        self.metrics["trace.overhead"] = statistics.median(ratios) - 1.0


def print_result(result: Result, stamp_fields: Dict[str, object], per_layer: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        entry["name"]: {"value": float(result.metrics.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in spec["per_layer" if per_layer else "end_to_end"]
    }
    print("stamp " + json.dumps({**stamp_fields, "raw": result.raw, "segments_s": result.segments}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and result.checked > 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


# -- workloads -----------------------------------------------------------------------


def _choose(seed: int, tag: str, population: Sequence, count: int) -> List:
    """A deterministic sample of *population* for the oracle checks."""
    import numpy as np

    rng = np.random.default_rng(workloads.derive_seeds(seed, tag, 1)[0])
    picks = rng.choice(len(population), size=min(count, len(population)), replace=False)
    return [population[int(index)] for index in sorted(picks)]


def run_sweep(args, env, probe: HostProbe, workdir: Path, result: Result) -> str:
    from perfbench import oracles

    segments = workloads.segment_count("sweep", args.seconds)
    seeds = workloads.sweep_passes(args.seed, segments)
    per_group = sorted(workloads.SWEEP_PER_GROUP.items())
    units = sum(10 * count for _cores, count in per_group)
    # One slot of every pass is re-checked, on 2 and 4 cores in turn.
    checked = [
        {str(cores): _choose(seed, "sweep-slot", range(10 * count), 1)}
        for (cores, count), seed in zip(itertools.islice(itertools.cycle(per_group), args.seed % 2, None), seeds)
    ]
    params = {"workdir": str(workdir), "per_group": per_group}
    worker, setup = launch_repeatedly(probe, lambda: Worker("sweep", params, env))
    phases = []
    try:
        for trace in [False, True][: 1 + args.trace]:
            passes, chunks, replies = [], [], []
            for seed, sample in zip(seeds, checked):
                command = {"op": "pass", "seed": seed, "trace": trace, "sample": sample}
                segment, chunk, reply = drive(worker, command, probe, SWEEP_PROBE_REPEATS)
                passes += segment
                chunks += chunk
                replies.append(reply)
            phases.append((passes, chunks, replies))
        rss = worker.stop()
    finally:
        worker.kill()

    passes, chunks, replies = phases[0]
    result.attempted = units * segments * len(phases)
    calls = [
        (oracles.check_sweep_slots, cores, count, seed, {job: reply["sample"][str(cores)][str(job)]})
        for seed, sample, reply in zip(seeds, checked, replies)
        for cores, count in per_group
        for job in sample.get(str(cores), [])
    ]
    result.check(run_checks(calls, args.cpus), len(calls))
    result.end_to_end(setup, rss, units, passes, chunks)
    kernel: Dict[str, int] = {}
    for reply in replies:
        for key, value in reply["kernel"].items():
            kernel[key] = kernel.get(key, 0) + value
    lookups = kernel["dedup_verdict_hits"] + kernel["dedup_verdict_misses"]
    result.metrics.update(
        {
            "rta.exact_solves": kernel["exact_solves"],
            "rta.compiled_solves": kernel["compiled_solves"],
            "rta.dedup_verdict_hit_ratio": kernel["dedup_verdict_hits"] / lookups if lookups else 0.0,
            "rta.dedup_pinned_solves": kernel["dedup_pinned_solves"],
            "storage.bytes": sum(reply["storage_bytes"] for reply in replies),
        }
    )
    if args.trace:
        traced_passes, _chunks, traced = phases[1]
        # Tracing must not change a single answer.
        for plain, again in zip(replies, traced):
            result.check(int(plain["digest"] != again["digest"]))
        sums = result.layers(traced, statistics.median(factor for _s, factor in traced_passes))
        own = sums["self"]
        for metric, span in (
            ("generation.s", "generation"),
            ("partitioning.s", "partitioning"),
            ("schedulability.eq1_s", "schedulability.eq1"),
            ("baselines.alloc_s", "baselines.alloc"),
            ("storage.append_s", "storage.append"),
            ("batch.self_s", "batch"),
        ) + tuple((f"schemes.{name}.s", f"schemes.{name}") for name in ("HYDRA-C", "HYDRA", "HYDRA-TMax", "GLOBAL-TMax")):
            result.metrics[metric] = own.get(span, 0.0)
        accepted = sum(sum(reply["records"].values()) for reply in traced)
        result.metrics["generation.attempts_per_taskset"] = sums["calls"]["generation"] / accepted
        result.overhead(passes, traced_passes)
    return worker.ready["rta_tier"]


def run_campaign(args, env, probe: HostProbe, workdir: Path, result: Result) -> str:
    from perfbench import oracles

    segments = workloads.segment_count(args.workload, args.seconds)
    trials = workloads.campaign_trials(segments)
    scheduler, protocol, overheads = workloads.CAMPAIGN_PLATFORMS[args.workload]
    spec_fields = {
        "schemes": list(workloads.CAMPAIGN_SCHEMES),
        "num_trials": trials,
        "seed": workloads.campaign_seed(args.seed),
        "jitter": workloads.CAMPAIGN_JITTER,
        "scheduler": scheduler,
        "protocol": protocol,
        "overheads": overheads,
    }
    params = {
        "workdir": str(workdir),
        "chunks_per_segment": workloads.CAMPAIGN_CHUNKS_PER_SEGMENT,
        "sample": [
            _choose(
                args.seed,
                f"campaign-check-{k}",
                range(trials * k // CAMPAIGN_SAMPLES, trials * (k + 1) // CAMPAIGN_SAMPLES),
                1,
            )[0]
            for k in range(CAMPAIGN_SAMPLES)
        ],
        "platform": [scheduler, protocol, overheads],
        "schemes": spec_fields["schemes"],
        "seed": spec_fields["seed"],
        "jitter": spec_fields["jitter"],
        "trials": trials,
    }
    worker, setup = launch_repeatedly(probe, lambda: Worker("campaign", params, env))
    phases = []
    try:
        for trace in [False, True][: 1 + args.trace]:
            phases.append(drive(worker, {"op": "run", "trace": trace}, probe, CAMPAIGN_PROBE_REPEATS))
        rss = worker.stop()
    finally:
        worker.kill()

    parts, chunks, final = phases[0]
    result.attempted = trials * len(phases)
    calls = [
        (oracles.check_campaign_trials, spec_fields, {int(index): record})
        for index, record in final["sample"].items()
    ]
    result.check(run_checks(calls, args.cpus), len(calls))
    units = workloads.CAMPAIGN_CHUNKS_PER_SEGMENT * workloads.CAMPAIGN_CHUNK_SIZE
    result.end_to_end(setup, rss, units, parts, chunks)
    stats = final["stats"]
    result.metrics.update(
        {
            "campaign.dedup_hit_ratio": stats["design_dedup_hits"] / (trials * len(workloads.CAMPAIGN_SCHEMES)),
            "sim.batched_trials": stats["batched_trials"],
            "sim.fallback_trials": stats["fallback_trials"],
            "storage.bytes": final["storage_bytes"],
        }
    )
    if args.trace:
        traced_parts, _chunks, traced = phases[1]
        result.check(int(final["digest"] != traced["digest"]))
        sums = result.layers([traced], statistics.median(factor for _s, factor in traced_parts))
        own = sums["self"]
        result.metrics.update(
            {
                "campaign.integrate_s": sums["total"]["campaign.integrate"],
                "sim.s": sum(own.get(name, 0.0) for name in ("sim.build", "sim.run", "sim.batched")),
                "sim.runs": sums["calls"].get("sim.run", 0),
                "security.detection_s": own.get("security.detection", 0.0),
                "storage.append_s": own.get("storage.append", 0.0),
            }
        )
        result.overhead(parts, traced_parts)
    # Design integration runs on the program's default (python) RTA tier.
    return "python"


def _closed_loop(daemon: Daemon, queries, probe: HostProbe):
    """Send every query, one at a time, each after the previous answer.

    Returns the segments and each design/admit query's round trip as
    (raw seconds, factor) pairs, the answers, and the ping round trips.
    """
    segments: List[Timed] = []
    round_trips: Dict[object, Timed] = {}
    answers: Dict[int, Dict[str, object]] = {}
    pings: Dict[object, Timed] = {}
    size = workloads.SERVE_SEGMENT_QUERIES
    last = len(probe.samples) - 1
    for first in range(0, len(queries), size):
        segment_start, busy, pending = last, 0.0, []
        for position, query in enumerate(queries[first : first + size], start=first):
            if position % workloads.SERVE_PING_EVERY == workloads.SERVE_PING_EVERY - 1:
                ping_id = f"ping-{position}"
                sent = time.perf_counter()
                daemon.request({"op": "ping", "id": ping_id})
                pending.append((pings, ping_id, time.perf_counter() - sent))
            sent = time.perf_counter()
            answers[query["id"]] = daemon.request(query)
            elapsed = time.perf_counter() - sent
            busy += elapsed
            pending.append((round_trips, query["id"], elapsed))
            if len(pending) >= workloads.SERVE_PROBE_EVERY or position == first + size - 1:
                now = probe.point(SERVE_PROBE_REPEATS)
                factor = probe.factor(last, now)
                for into, key, seconds in pending:
                    into[key] = (seconds, factor)
                pending, last = [], now
        segments.append((busy, probe.factor(segment_start, last)))
    return segments, round_trips, answers, list(pings.values())


def run_serve(args, env, probe: HostProbe, workdir: Path, result: Result) -> str:
    from perfbench import oracles

    segments = workloads.segment_count("serve", args.seconds)
    queries, repeat_of = workloads.serve_queries(args.seed, segments)
    socket_path = os.path.relpath(workdir / "serve.sock", ROOT)
    daemon, setup = launch_repeatedly(probe, lambda: Daemon(env, socket_path))
    traced_daemon = None
    try:
        plain = _closed_loop(daemon, queries, probe)
        stats = daemon.request({"op": "stats", "id": "stats"})["result"]
        rss = _peak_rss_mb(daemon.process.pid)
        daemon.stop()
        if args.trace:
            handle_log = workdir / "handle.json"
            traced_daemon = Daemon(env, socket_path, handle_log)
            probe.point(SETUP_PROBE_REPEATS)
            traced = _closed_loop(traced_daemon, queries, probe)
            traced_daemon.stop()
            handled = {
                query_id: seconds
                for query_id, op, seconds in json.loads(handle_log.read_text())
                if op in ("design", "admit")
            }
    finally:
        for process in (daemon, traced_daemon):
            if process is not None:
                process.kill()

    parts, round_trips, answers, pings = plain
    runs = [plain, traced] if args.trace else [plain]
    result.attempted = len(queries) * len(runs)
    for run in runs:
        for query in queries:
            answer = run[2][query["id"]]
            if not answer.get("ok"):
                result.check(1)
            elif query["id"] in repeat_of:
                # A repeat must answer exactly what the first asking got.
                result.check(int(answer["result"] != run[2][repeat_of[query["id"]]].get("result")))
            elif run is not plain:
                # Tracing must not change a single answer.
                result.check(int(answer["result"] != answers[query["id"]].get("result")))
    size = workloads.SERVE_SEGMENT_QUERIES
    sampled = [
        _choose(
            args.seed,
            f"serve-{first}",
            [q for q in queries[first : first + size] if q["id"] not in repeat_of and q["op"] == op],
            1,
        )[0]
        for first, op in zip(range(0, len(queries), size), itertools.cycle(("design", "admit")))
    ]
    calls = [
        (oracles.check_serve_answers, [query], {query["id"]: answers[query["id"]].get("result")})
        for query in sampled
    ]
    result.check(run_checks(calls, args.cpus), len(calls))
    result.end_to_end(setup, rss, workloads.SERVE_SEGMENT_QUERIES, parts, [list(round_trips.values())])
    result.metrics.update(
        {
            "serve.context_hit_ratio": stats["context_hits"] / len(queries),
            "rta.exact_solves": stats["kernel"]["exact_solves"],
            "serve.ping_ms": statistics.median(scaled(pings)) * 1000.0,
        }
    )
    if args.trace:
        traced_parts, traced_trips, _answers, _pings = traced
        handle_ms = [handled[qid] * factor * 1000.0 for qid, (_s, factor) in traced_trips.items()]
        wire_ms = [(seconds - handled[qid]) * factor * 1000.0 for qid, (seconds, factor) in traced_trips.items()]
        result.metrics.update(
            {
                "serve.handle_ms.p50": percentile(handle_ms, 0.5),
                "serve.handle_ms.p90": percentile(handle_ms, 0.9),
                "serve.wire_ms": statistics.median(wire_ms),
                "trace.coverage": sum(handled.values()) / sum(s for s, _f in traced_trips.values()),
            }
        )
        result.overhead(parts, traced_parts)
    return "python"


RUNNERS = {
    "sweep": run_sweep,
    "campaign-rm": run_campaign,
    "campaign-edf-pip": run_campaign,
    "serve": run_serve,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    env = program_env()
    sys.path.insert(0, env["PYTHONPATH"])
    workdir = Path(tempfile.mkdtemp(dir=CACHE / "tmp"))
    try:
        args.cpus = pin_to_one_cpu()
        build(env)
        probe = HostProbe(workloads.PROBE_PARTS[args.workload])
        result = Result()
        tier = RUNNERS[args.workload](args, env, probe, workdir, result)
        result.metrics["host.probe_iqr_ratio"] = probe.iqr_ratio()
        stamp_fields = stamp(tier)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(result, stamp_fields, per_layer=bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
