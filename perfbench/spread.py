#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values across seeds, as a share of their median
(Python's statistics.quantiles, n=4). Run from the repository root:

    python3 perfbench/spread.py --workload gmres-cheb --seeds 1-10 --seconds 20

It prints one line per metric (median, spread, bound from BENCHMARK.json)
and exits non-zero if any run fails its correctness checks or any
end-to-end metric other than setup_s spreads wider than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="also print every value")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, ok = {}, True
    for seed in seeds(args.seeds):
        res = run(args.workload, seed, seconds, args.trace)
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
            ok = False
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, ok = "  OVER BOUND", False
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print(f"{name:28s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.6g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
