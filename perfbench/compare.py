"""Compare two sets of saved benchmark outputs, per end-to-end metric.

    python3 perfbench/compare.py --before OLD1.txt OLD2.txt ... --after NEW1.txt ...

Each file is the standard output of one ``run.py`` run (``spread.py``
keeps them under ``perfbench/.cache/spread``).  The comparison is refused
-- exit code 2 -- when the runs were not taken in the same environment:
every file's stamp must agree on the Python and NumPy versions, the CPU
count, the RTA tier actually loaded and the default simulation backend.
The git revisions are printed, not compared: they are what differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Stamp fields that must be equal for two results to be comparable.
ENVIRONMENT = ("python", "numpy", "nproc", "rta_tier", "sim_backend")


def load(path: str):
    lines = Path(path).read_text().strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("stamp "):
        raise SystemExit(f"error: {path} is not a saved benchmark output")
    return json.loads(lines[-2][len("stamp "):]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    before = [load(path) for path in args.before]
    after = [load(path) for path in args.after]
    environments = {
        json.dumps({key: stamp.get(key) for key in ENVIRONMENT}, sort_keys=True)
        for stamp, _result in before + after
    }
    if len(environments) > 1:
        print("error: results come from different environments:", file=sys.stderr)
        for environment in sorted(environments):
            print(f"  {environment}", file=sys.stderr)
        return 2
    for label, runs in (("before", before), ("after", after)):
        revisions = sorted({f"{s['git_rev']}{'+dirty' if s.get('git_dirty') else ''}" for s, _ in runs})
        print(f"{label}: {len(runs)} runs of {', '.join(revisions)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'metric':24} {'before':>12} {'after':>12} {'change':>8} {'bound':>6}  verdict")
    worse_any = False
    for entry in spec["end_to_end"]:
        name = entry["name"]
        old = statistics.median(result["metrics"][name]["value"] for _s, result in before)
        new = statistics.median(result["metrics"][name]["value"] for _s, result in after)
        change = (new - old) / old
        worse = change > entry["bound"] if entry["better"] == "lower" else -change > entry["bound"]
        worse_any |= worse
        print(
            f"{name:24} {old:12.5g} {new:12.5g} {change:+8.1%} {entry['bound']:6.2f}  "
            f"{'WORSE' if worse else 'ok'}"
        )
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
