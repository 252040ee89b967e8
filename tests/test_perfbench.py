"""The benchmark harness still reaches the program: patch targets and inputs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("patch", tracing.PATCHES, ids=lambda p: f"{p[0].__name__}.{p[1]}")
def test_trace_patch_target_resolves(patch):
    module, attr, _, _ = patch
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_build_pass_builds_each_workload(workload, tmp_path):
    jobs = workloads.build_pass(workload, 7, 0, tmp_path / workload)
    names = [job.name for job in jobs]
    assert names and len(set(names)) == len(names)
    assert all(callable(job.run) and callable(job.check) for job in jobs)
