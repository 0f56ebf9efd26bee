"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --seeds 10 --seconds 20

Runs ``run.py`` once per seed (seeds first..first+n-1), one fresh process
after another, and prints for every metric its median and the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  A metric is steady enough when that
share is below a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    bounds = {}
    spec = Path("BENCHMARK.json")
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = run_child(args.workload, seed, args.seconds, trace=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        limit = bounds.get(name)
        limit_text = f"{limit / 3:8.4f}" if limit is not None else f"{'-':>8s}"
        print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f} {limit_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
