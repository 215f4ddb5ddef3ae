"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5

For every workload in BENCHMARK.json, it runs the untraced benchmark once
per seed for the declared `run_seconds`, one run after another in child
processes.  For every end-to-end metric it then prints the median over the
runs and the distance between the first and third quartile as a share of
the median (`statistics.quantiles(values, n=4)`), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        failed_shares = set()
        walls = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - started)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false\n{proc.stderr}", file=sys.stderr)
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, failed shares {sorted(failed_shares)}, "
              f"median run wall {statistics.median(walls):.1f} s")
        for name, series in values.items():
            median = statistics.median(series)
            spread = "n/a"
            if len(series) >= 2 and median:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = f"{(q3 - q1) / median:.4f}"
            print(f"  {name:16s} median {median:<12.6g} iqr/median {spread:8s} bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
