#!/usr/bin/env python3
"""Run one workload of the equichar benchmark and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-finite --seed 1 --seconds 30 --trace 0

The program is used from ``src/`` as it stands; nothing is installed.  Set-up
time is measured as the median CPU time (user + system) of PROBES fresh
interpreters that import numpy and equichar and build one pass of the
workload's inputs, after one untimed start that writes bytecode.  Then a
single worker process runs the workload (see worker.py).  Times are CPU
times because the processes are single-threaded and the host is shared:
time during which the host runs someone else is no work of the program.
Every child gets the same environment: one OpenBLAS thread, no
EQUICHAR_TOL, a fixed hash seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full result, and with ``--trace
1`` the spans, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("classify-finite", "monomial-pipeline", "layer-bases")
PROBES = 9
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 120  # how long a worker may run past --seconds before it is killed


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("EQUICHAR_TOL", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(root / "src"))
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_probes(worker: list[str], env, out: Path):
    """CPU times, wall times and phase timings of the timed set-up starts."""
    cpus, walls, phases = [], [], []
    for i in range(PROBES + 1):
        pdir = out / f"probe-{os.getpid()}-{i}"
        c0, t0 = _children_cpu(), time.perf_counter()
        proc = subprocess.run(worker + ["--probe", str(pdir)], env=env, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        cpu, wall = _children_cpu() - c0, time.perf_counter() - t0
        shutil.rmtree(pdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        if i > 0:  # the first start writes bytecode
            cpus.append(cpu)
            walls.append(wall)
            phases.append(json.loads(proc.stdout.splitlines()[-1]))
    return cpus, walls, phases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "equichar" / "__init__.py").is_file():
        print("error: run from the root of an equichar checkout (src/equichar is missing)",
              file=sys.stderr)
        return 2
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    tag = f"{args.workload}-s{args.seed}"
    worker = [sys.executable, str(root / "perfbench" / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    cpus, walls, phases = run_probes(worker, env, out)
    trace_file = out / f"trace-{tag}.json"
    proc = subprocess.run(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--trace-file", str(trace_file), "--work-dir", str(out / f"work-{os.getpid()}")],
        env=env, capture_output=True, text=True, timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    metrics = dict(result["metrics"])
    if args.trace:
        for key in phases[0]:
            metrics[key] = statistics.median(p[key] for p in phases)
    else:
        metrics["setup_s"] = statistics.median(cpus)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["setup_cpu_s"] = cpus
    result["setup_wall_s"] = walls
    (out / f"result-{tag}-t{args.trace}.json").write_text(json.dumps(result, indent=1))
    for name, failure in result["failures"].items():
        print(f"failed: {name}: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
