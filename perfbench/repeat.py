"""Run the benchmark on several seeds and summarize each metric's median and spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --workloads closure oracle --seeds 1-10 \
        --seconds 20 [--trace 0] [--out summary.json]

Runs are sequential.  For every workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, plus the failed and
attempted operation counts of every run.  ``--out`` also writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in results[-1]["metrics"].items()), flush=True)
        report[workload] = {
            "seeds": args.seeds,
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "metrics": summarize(results),
        }
        print(f"{workload}: failed {report[workload]['failed']} "
              f"of attempted {report[workload]['attempted']}")
        for name, m in report[workload]["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:45s} median {m['median']:<12.6g} {m['unit']:6s} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
