#!/usr/bin/env python3
"""Check that the benchmark is steady: two interleaved sets of runs of one commit.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload layer-bases --first-seed 101

Runs RUNS runs of run_seconds (from BENCHMARK.json) in each of set A and set
B, alternately (A B, B A, A B, ...), each run with its own seed, and prints for every end-to-end metric each set's median and quartiles,
the spread of all runs (quartile distance over median) against the metric's
bound from BENCHMARK.json, and how far set B's median lies from set A's.  A
metric is steady when its spread stays below a third of its bound (set-up
time excepted) and the two medians differ by less than the bound.  The
failed share of operations must be identical in both sets, and every run
must be correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 5  # runs per set


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    seed = args.first_seed
    for i in range(RUNS):
        for name in ("AB" if i % 2 == 0 else "BA"):
            result = run_once(spec["command"], args.workload, seed, seconds)
            result["seed"] = seed
            sets[name].append(result)
            seed += 1
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"set {name} seed {result['seed']}: {values}", flush=True)

    everything = sets["A"] + sets["B"]
    print(f"\n{args.workload}: {RUNS} runs per set, {seconds} s each, "
          f"seeds {args.first_seed}..{seed - 1}")
    print(f"{'metric':16s} {'A q1/med/q3':>28s} {'B q1/med/q3':>28s} "
          f"{'spread':>7s} {'bound':>6s} {'B-A':>7s}  verdict")
    steady = True
    for metric, bound in bounds.items():
        a, b, (q1, med, q3) = (
            statistics.quantiles([r["metrics"][metric]["value"] for r in runs], n=4)
            for runs in (sets["A"], sets["B"], everything))
        spread = (q3 - q1) / med
        shift = (b[1] - a[1]) / a[1]
        ok = abs(shift) <= bound and (metric == "setup_s" or spread < bound / 3)
        steady &= ok
        print(f"{metric:16s} {a[0]:9.4g}/{a[1]:8.4g}/{a[2]:8.4g} "
              f"{b[0]:9.4g}/{b[1]:8.4g}/{b[2]:8.4g} {spread:7.3f} {bound:6.2f} "
              f"{shift:+7.3f}  {'ok' if ok else 'NOT STEADY'}")
    shares = {name: {r["failed"] / r["attempted"] for r in runs} for name, runs in sets.items()}
    same = len(shares["A"] | shares["B"]) == 1
    print(f"failed share: A {sorted(shares['A'])} B {sorted(shares['B'])} "
          f"{'identical' if same else 'DIFFERENT'}")
    correct = all(r["correct"] for r in everything)
    print(f"correct in every run: {correct}")
    Path("perfbench/out").mkdir(parents=True, exist_ok=True)
    Path(f"perfbench/out/steady-{args.workload}.json").write_text(json.dumps(sets, indent=1))
    return 0 if steady and same and correct else 1


if __name__ == "__main__":
    sys.exit(main())
