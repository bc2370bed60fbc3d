#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload base-mix --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out .bench_out/runs.jsonl]

For every end-to-end metric (or per-layer metric with --trace 1) this
prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the quartile spread
(q3 - q1) as a share of the median, next to the metric's bound from
BENCHMARK.json. Each run's JSON result is appended to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(".bench_out",
                                                  "runs.jsonl"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    out_path = os.path.join(ROOT, args.out)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s" %
                     (seed, proc.returncode, proc.stderr[-2000:]))
        result = json.loads(lines[-1])
        with open(out_path, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": args.trace,
                                "result": result}) + "\n")
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-28s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-28s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, med, q1, q3, spread, bound if bound else "-"))


if __name__ == "__main__":
    main()
