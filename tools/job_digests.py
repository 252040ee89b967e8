"""Digest the output of every benchmark job, to show that a change keeps it byte for byte.

Runs passes 0-3 of each workload of ``perfbench/workloads.py`` (imported,
not changed) at the given seeds and records one sha256 per job: of the exit
code, stdout and stderr of a CLI job, or of a stable rendering of a library
job's return value.  The pass directory is replaced by a fixed name before
hashing, so runs from different directories agree.  Run from anywhere:

    python tools/job_digests.py --root ../parent --out parent.json
    python tools/job_digests.py --compare parent.json

``--root`` is the checkout whose ``src`` and ``perfbench`` are used (default:
the one holding this file).  With ``--compare`` the jobs whose digests
differ from the file's, or that only one side has, are printed, and the exit
code is 1 if there is any.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark, so that both sides sum in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EQUICHAR_TOL", None)

import numpy as np  # noqa: E402

PASS_DIR = "<pass>"


def render(obj) -> str:
    """A rendering of a job's value that depends on its contents only."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return f"array({obj.dtype},{obj.shape},{hashlib.sha256(data).hexdigest()})"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj):
        fields = (f"{f.name}={render(getattr(obj, f.name))}" for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({','.join(fields)})"
    if isinstance(obj, (list, tuple)):
        return f"{type(obj).__name__}[{','.join(map(render, obj))}]"
    return repr(obj)  # numbers, strings and None: repr round-trips a float exactly


def outcome_text(job) -> str:
    """Exit code, stdout and stderr of a CLI job; the rendered value of a library job."""
    try:
        outcome = job.run()
    except Exception as exc:  # a crash is an output too
        return f"raised {type(exc).__name__}: {exc}"
    if outcome.code is None:
        return render(outcome.value)
    return "\0".join((str(outcome.code), outcome.text, outcome.err))


def job_digests(seeds: list[int]) -> dict[str, str]:
    import workloads

    out = {}
    for workload in workloads.BUILDERS:
        for seed in seeds:
            for index in range(4):  # passes 0-3
                with tempfile.TemporaryDirectory() as tmp:
                    pdir = Path(tmp) / "pass"
                    for job in workloads.build_pass(workload, seed, index, pdir):
                        text = outcome_text(job).replace(str(pdir), PASS_DIR)
                        key = f"{workload}/s{seed}/p{index}/{job.name}"
                        out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--out", type=Path, help="write the digests here as JSON")
    parser.add_argument("--compare", type=Path, help="digests of another checkout, as JSON")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import equichar

    if root / "src" not in Path(equichar.__file__).resolve().parents:
        sys.exit(f"equichar was imported from {equichar.__file__}, not from {root / 'src'}")
    digests = job_digests(args.seeds)
    record = {"seeds": args.seeds, "digests": digests}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} jobs from {root}")
    if args.compare is None:
        return 0
    theirs = json.loads(args.compare.read_text())["digests"]
    differ = sorted(k for k in digests.keys() | theirs.keys() if digests.get(k) != theirs.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(digests.keys() | theirs.keys())} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
