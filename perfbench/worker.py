"""The benchmark's worker process: runs one workload, or one set-up probe.

Worker mode makes one untimed warm-up pass and then timed passes over the
workload's job list until ``--seconds`` have passed (at least
``MIN_PASSES``).  Each pass builds fresh inputs first, untimed; only the job
calls are timed, and each job's output is checked after its timer stops.
A failed job is left out of the timings.  Timings are the CPU time of this
single-threaded process: on a shared host, time during which the host runs
someone else shows in wall time but is no work of the program.  Wall times
are kept in the result for comparison.
With ``--trace 1`` the timed passes alternate between traced and untraced,
so the tracing overhead is measured on the same inputs, and the spans are
written to ``--trace-file`` at the end.  The worker prints one JSON line.

Probe mode (``--probe DIR``) times what a fresh interpreter pays before the
first job: importing numpy, importing equichar, and building one pass of
inputs into DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 3


def probe(args) -> None:
    t0 = time.process_time()
    import numpy  # noqa: F401

    t1 = time.process_time()
    import equichar.cli  # noqa: F401

    t2 = time.process_time()
    import workloads

    workloads.build_pass(args.workload, args.seed, 0, Path(args.probe))
    t3 = time.process_time()
    print(json.dumps({
        "setup.import_numpy_ms": 1e3 * (t1 - t0),
        "setup.import_equichar_ms": 1e3 * (t2 - t1),
        "setup.inputs_ms": 1e3 * (t3 - t2),
    }))


def _run_job(job, tracer) -> tuple[float, float, str | None, bool]:
    """Time one job and check its answer.

    Returns (CPU seconds, wall seconds, failure or None, whether the failure
    is the job's known fault).
    """
    import workloads

    if tracer is not None:
        tracer.job = job.name
        tracer.closures = []
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        outcome = job.run()
    except Exception:  # a crash is a failed operation, not a benchmark error
        return 0.0, 0.0, traceback.format_exc(limit=-1).strip(), False
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    try:
        job.check(outcome)
        if tracer is not None:
            if outcome.code is not None:
                tracer.count({"cli.report_kb": len(outcome.text) / 1024})
            if job.closure is not None and tracer.closures != [job.closure]:
                raise workloads.Mismatch(
                    f"close_group gave {tracer.closures}, expected {job.closure}")
    except Exception as exc:  # an output the check cannot read is a wrong output
        return cpu, wall, f"{type(exc).__name__}: {exc}", _is_known_fault(job, outcome)
    return cpu, wall, None, False


def _is_known_fault(job, outcome) -> bool:
    if job.known_fault is None:
        return False
    try:
        job.known_fault(outcome)
    except Exception:
        return False
    return True


def work(args) -> None:
    import equichar
    import workloads

    src = Path("src").resolve()
    if src not in Path(equichar.__file__).resolve().parents:
        sys.exit(f"equichar was imported from {equichar.__file__}, not from {src}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    work_dir = Path(args.work_dir)
    attempted = failed = unexpected = 0
    failures: dict[str, str] = {}  # job name -> first failure
    pass_times: dict[bool, list[float]] = {False: [], True: []}  # traced? -> pass CPU s
    pass_walls: list[float] = []  # wall seconds of the untraced passes
    job_times: dict[str, list[float]] = {}
    layer_passes = []
    start = None
    index = 0
    try:
        while not _enough(start, args.seconds, pass_times, tracer is not None):
            pdir = work_dir / f"pass-{index}"
            jobs = workloads.build_pass(args.workload, args.seed, index, pdir)
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.pass_index = index
                tracer.install()
            total = total_wall = 0.0
            try:
                for job in jobs:
                    elapsed, wall, failure, known = _run_job(job, tracer if traced else None)
                    attempted += 1
                    if failure is not None:
                        failed += 1
                        unexpected += not known
                        failures.setdefault(job.name, failure)
                        continue
                    total += elapsed
                    total_wall += wall
                    if index > 0 and not traced:
                        job_times.setdefault(job.name, []).append(elapsed)
            finally:
                if traced:
                    tracer.uninstall()
            shutil.rmtree(pdir)
            if index == 0:
                start = time.monotonic()  # the warm-up pass is not timed
            else:
                pass_times[traced].append(total)
                if traced:
                    layer_passes.append(tracer.pass_metrics(index))
                else:
                    pass_walls.append(total_wall)
            index += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": index - 1,
    }
    untraced = statistics.median(pass_times[False])
    if tracer is None:
        medians = [statistics.median(t) for t in job_times.values()]
        result["metrics"] = {
            "batch_s": untraced,
            "job_geomean_ms": 1e3 * math.exp(statistics.fmean(math.log(m) for m in medians)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["job_median_ms"] = {k: 1e3 * statistics.median(v) for k, v in job_times.items()}
        result["pass_s"] = pass_times[False]
        result["pass_wall_s"] = pass_walls
    else:
        result["metrics"] = {
            key: statistics.median(p[key] for p in layer_passes) for key in layer_passes[0]
        }
        overhead_ms = 1e3 * (statistics.median(pass_times[True]) - untraced)
        result["metrics"]["trace.overhead_ms"] = overhead_ms
        Path(args.trace_file).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "pass", "job"],
            "spans": tracer.spans,
            "counters": tracer.counts,
            "traced_pass_s": pass_times[True],
            "untraced_pass_s": pass_times[False],
            "overhead_ms": overhead_ms,
        }))
    print(json.dumps(result))


def _enough(start, seconds: float, pass_times, traced_run: bool) -> bool:
    """Whole passes until the time is up and each kind has MIN_PASSES."""
    if start is None:
        return False
    kinds = (False, True) if traced_run else (False,)
    return (time.monotonic() - start >= seconds
            and min(len(pass_times[k]) for k in kinds) >= MIN_PASSES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--work-dir")
    parser.add_argument("--probe", help="build one pass of inputs into this directory and exit")
    args = parser.parse_args()
    if args.probe:
        probe(args)
    elif args.seconds is None:
        parser.error("--seconds is required without --probe")
    else:
        work(args)


if __name__ == "__main__":
    main()
