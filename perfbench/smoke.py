#!/usr/bin/env python3
"""Smoke run of every workload at a tiny size.

    python3 perfbench/smoke.py

Run it from the repository root. For each workload of BENCHMARK.json, at
the default and the held-out seed, it runs the end-to-end pass and the
traced pass with `--smoke` and checks that each run exits 0, answers every
query like the oracle, and prints exactly the metric names and units that
BENCHMARK.json declares.
"""

import json
import pathlib
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7331


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in ("0", "1"):
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", "0", "--trace", trace, "--smoke"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                label = f"{workload} seed {seed} trace {trace}"
                if proc.returncode != 0:
                    failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                if printed != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(printed))
                    extra = sorted(set(printed) - set(declared[trace]))
                    failures.append(f"{label}: names differ, missing {missing}, extra {extra}")
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{label}: {result['failed']} failed answers")
                if trace == "0" and result["metrics"]["query_success_rate"]["value"] != 1:
                    failures.append(f"{label}: query_success_rate below 1")
                print(f"ok {label}: {result['attempted']} answers checked")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
