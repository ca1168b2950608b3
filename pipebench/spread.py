#!/usr/bin/env python3
"""Run the benchmark over several seeds and report, per metric, the
median and the quartile spread (Q3 - Q1) / median, the figure
BENCHMARK.json's bounds are checked against.

    python3 pipebench/spread.py --workload fresh_mixed --runs 10
    python3 pipebench/spread.py --workload ingest_sat --runs 5 --trace 1

Run from the repository root. Each run is the command BENCHMARK.json
names, with seeds first-seed, first-seed + 1, ...
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--named", action="store_true",
                    help="also summarise the report line's pipeline metrics "
                         "(ingest_dps, fresh_p99_ms, ...), e.g. to compare "
                         "traced with untraced runs")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        if args.named and len(lines) >= 2:
            for name, m in json.loads(lines[-2])["pipebench"]["metrics"].items():
                values.setdefault("named:" + name, []).append(m["value"])
                units["named:" + name] = m["unit"]
        if not result["correct"]:
            print(f"seed {seed}: incorrect: {lines[-1]}", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace), file=sys.stderr)

    print(f"{'metric':45} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.3f}"
        else:
            spread = "-"
        bound = bounds.get(name)
        print(f"{name:45} {med:12.5g} {spread:>8} {bound if bound is not None else '':>6}"
              f"  {units[name]}")


if __name__ == "__main__":
    main()
