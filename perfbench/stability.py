#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/stability.py [--seconds 20] [--trace 0] [--seeds 1-10] \
        [--workloads sfs_mix,untar,bulk_rw] [--json out.json]

Run it from the repository root. For every workload it runs
`perfbench/run.py` once per seed and prints, per metric, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. It also prints
each end-to-end bound from BENCHMARK.json next to the spread. --json writes
the per-run values and the summary, the form perfbench/TRAJECTORY.md records.
Exits nonzero when a run fails or reports "correct": false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return [str(s) for s in range(int(lo), int(hi) + 1)]
    return spec.split(",")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="sfs_mix,untar,bulk_rw")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: failed (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "seconds": round(time.time() - start, 1),
                         "metrics": values})
            print(f"{workload} seed {seed} ({runs[-1]['seconds']} s): " +
                  ", ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / abs(median)
            metrics[name] = {"median": median, "spread": spread}
            bound = bounds.get(name) if args.trace == "0" else None
            print(f"  {workload:8s} {name:28s} median {median:<14.6g} spread "
                  f"{'-' if spread is None else f'{spread:.4f}'}"
                  + ("" if bound is None else f"  bound {bound}  bound/3 {bound / 3:.4f}"))
        summary[workload] = {"runs": runs, "metrics": metrics}

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, "workloads": summary},
                      f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
