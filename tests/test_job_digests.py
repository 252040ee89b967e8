"""tools/job_digests.py: the comparison's exit code and report, and its stable rendering."""

import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from equichar import LayerBasis, SubgroupClass, SubgroupKind

TOOLS = Path(__file__).resolve().parents[1] / "tools"

with mock.patch.dict(os.environ):  # the tool sets BLAS threads and drops EQUICHAR_TOL
    sys.path.insert(0, str(TOOLS))
    try:
        import job_digests
    finally:
        sys.path.remove(str(TOOLS))


@pytest.fixture
def compare(monkeypatch, tmp_path, capsys):
    """Run ``main --compare`` against ``theirs`` with ``ours`` as this checkout's digests."""

    def run(ours: dict, theirs: dict) -> tuple[int, str]:
        monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends src and perfbench
        monkeypatch.setattr(job_digests, "job_digests", lambda seeds: dict(ours))
        path = tmp_path / "theirs.json"
        path.write_text(json.dumps({"seeds": [7], "digests": theirs}))
        code = job_digests.main(["--seeds", "7", "--compare", str(path)])
        return code, capsys.readouterr().out

    return run


def test_compare_exits_0_when_every_digest_matches(compare):
    digests = {"basis/s7/p0/a": "11", "basis/s7/p0/b": "22"}
    code, out = compare(digests, digests)
    assert code == 0
    assert "differs" not in out and "0 of 2 jobs differ" in out


def test_compare_names_each_changed_or_missing_job_and_exits_1(compare):
    ours = {"basis/s7/p0/a": "11", "basis/s7/p0/b": "22", "basis/s7/p0/new": "33"}
    theirs = {"basis/s7/p0/a": "11", "basis/s7/p0/b": "99"}
    code, out = compare(ours, theirs)
    assert code == 1
    assert out.splitlines()[1:] == [
        "differs: basis/s7/p0/b",
        "differs: basis/s7/p0/new",
        "2 of 3 jobs differ",
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.arange(6.0).reshape(2, 3),
        lambda: np.arange(12)[::2],  # a strided view renders as its contiguous copy
        lambda: SubgroupClass(SubgroupKind.POWERS_OF_B, 2.0),
        lambda: LayerBasis(np.array([[0, 1], [1, 0]])),
        lambda: [SubgroupKind.DENSE, (1, 0.1, None, "x")],
    ],
)
def test_render_depends_on_the_contents_only(make):
    assert job_digests.render(make()) == job_digests.render(make())


def test_render_tells_values_apart():
    a = np.arange(3)
    renders = [
        job_digests.render(a),
        job_digests.render(a.astype(np.int32)),  # same values, another dtype
        job_digests.render(a.reshape(3, 1)),  # same bytes, another shape
        job_digests.render(SubgroupKind.DENSE),
        job_digests.render(SubgroupKind.DENSE_POSITIVE),
        job_digests.render(SubgroupClass(SubgroupKind.POWERS_OF_B, 2.0)),
        job_digests.render(SubgroupClass(SubgroupKind.POWERS_OF_B, 3.0)),
        job_digests.render([1.0]),
        job_digests.render((1.0,)),
    ]
    assert len(set(renders)) == len(renders)
