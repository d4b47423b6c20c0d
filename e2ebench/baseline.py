"""Record a steadiness baseline: each workload run once per seed.

For every end-to-end metric it keeps the median of the runs and their
spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- and
writes them, with the host record and every run's values, to
``baseline.json``::

    python3 e2ebench/baseline.py --seeds 1-10 --seconds 16
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return {"host": json.loads(lines[0].split(": ", 1)[1]),
            "run_s": time.monotonic() - start, **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)`` of the values."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="default-sweep,lane-large,"
                        "lane-sharded,service-mix")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))

    out = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            out["host"] = {k: v for k, v in result["host"].items()
                           if k != "seed"}
            runs.append(result)
            print(workload, seed, result["correct"], {
                name: round(m["value"], 6)
                for name, m in result["metrics"].items()}, flush=True)
        metrics = {}
        for name, first_metric in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, iqr = spread(values)
            metrics[name] = {"unit": first_metric["unit"], "median": median,
                             "iqr_share": iqr, "values": values}
        out["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "run_s": [run["run_s"] for run in runs],
            "metrics": metrics,
        }
        for name, metric in metrics.items():
            print(f"  {name:18s} median {metric['median']:.6g} "
                  f"{metric['unit']:5s} iqr/median {metric['iqr_share']:.3f}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
