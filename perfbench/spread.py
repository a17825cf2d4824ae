#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread (Q3 - Q1) as a share of the median, beside its bound from
BENCHMARK.json.

    python3 perfbench/spread.py --workload web-bfs --seeds 1-10 [--trace 0]

Run it from the repository root. It builds and runs the benchmark through
the `command` of BENCHMARK.json, so it measures exactly what a gate does.
`--bin PATH` runs an already-built benchmark executable instead.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--bin", help="benchmark executable to run instead of the command")
    ap.add_argument("--raw", action="store_true", help="also print every value in seed order")
    args = ap.parse_args()
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values = {}
        for seed in seeds(args.seeds):
            cmd = command + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(args.seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(seeds(args.seeds))} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<28} median {med:<14.6g} spread {spread:8.4f}"
                  f"  bound {bound}  {flag}")
            if args.raw:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
