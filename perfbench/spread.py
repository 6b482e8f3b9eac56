"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads enum-moments,small-batch \\
        --seeds 10 --seconds 20 [--trace] [--out summary.json]

Runs `perfbench/run.py` once per (workload, seed), one at a time, from
the current directory.  For each metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  --out writes every
run's record and result plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    status = 0
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "1" if args.trace else "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            runs.append({"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])})
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["result"]["metrics"].items()
            ), flush=True)
        metrics = {}
        if runs:
            for name in runs[0]["result"]["metrics"]:
                metrics[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
        for name, s in metrics.items():
            print(f"  {wl:14s} {name:32s} median {s['median']:.5g}  spread {s['spread']:.3f}")
        report[wl] = {"runs": runs, "summary": metrics}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
