"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds 10] [--trace 0]

For every end-to-end metric it prints the median over the runs and the
inter-quartile range as a share of the median (``statistics.quantiles``,
n=4), next to the same spread of the raw, unscaled figure from each run's
stamp line, and each metric's bound from ``BENCHMARK.json``.  Each run's
full output is kept under ``perfbench/.cache/spread`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.compare import load  # noqa: E402


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    out = ROOT / "perfbench" / ".cache" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for seed in args.seeds:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        saved = out / f"{args.workload}-{seed}-t{args.trace}.txt"
        saved.write_text(done.stdout)
        stamp, result = load(str(saved))
        runs.append((stamp, result))
        print(f"seed {seed}: {time.monotonic() - started:.0f} s correct={result['correct']} "
              f"failed={result['failed']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'raw spread':>10} {'bound':>6}")
    for name in runs[0][1]["metrics"]:
        values = [result["metrics"][name]["value"] for _stamp, result in runs]
        raw = [stamp["raw"][name] for stamp, _result in runs if name in stamp["raw"]]
        raw_text = f"{spread(raw):10.3f}" if len(raw) == len(runs) else f"{'-':>10}"
        bound = bounds.get(name)
        print(f"{name:32} {statistics.median(values):12.5g} {spread(values):8.3f} {raw_text} "
              f"{bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
