import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles
from equichar import EquivarianceReport, cli

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, env_extra=None, timeout=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("EQUICHAR_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "equichar", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.fixture
def main_cli(monkeypatch, capsys):
    """Run ``cli.main`` in this process; the result has ``run_cli``'s fields."""

    def run(*args, env_extra=None):
        monkeypatch.delenv("EQUICHAR_TOL", raising=False)
        for key, value in (env_extra or {}).items():
            monkeypatch.setenv(key, value)
        code = cli.main(list(args))
        captured = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, captured.out, captured.err)

    return run


def write_spec(path: Path, name: str, generators) -> Path:
    generators = [np.asarray(g, dtype=float).tolist() for g in generators]
    dimension = len(generators[0]) if generators else 1
    path.write_text(
        json.dumps({"name": name, "dimension": dimension, "generators": generators})
    )
    return path


@pytest.fixture
def p_spec(tmp_path, p_matrix):
    return write_spec(tmp_path / "p.json", "p-cycle", [p_matrix])


@pytest.fixture
def s_spec(tmp_path, s_matrix):
    return write_spec(tmp_path / "s.json", "s-cycle", [s_matrix])


@pytest.fixture
def z2_spec(tmp_path, z2_matrix):
    return write_spec(tmp_path / "z2.json", "z2-scaled", [z2_matrix])


class TestClassifyCommand:
    def test_permutation_group(self, main_cli, p_spec):
        result = main_cli("classify", str(p_spec))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["command"] == "classify"
        assert report["family"] == {"kind": "Continuous"}
        assert report["classification"]["monomial"] is True
        assert report["classification"]["tclass"] == {"kind": "Trivial"}
        assert report["warnings"] == []

    def test_scaled_swap_is_2_multiplicative(self, main_cli, z2_spec):
        result = main_cli("classify", str(z2_spec))
        report = json.loads(result.stdout)
        assert report["family"]["kind"] == "BMultiplicative"
        assert report["family"]["b"] == pytest.approx(2.0)

    def test_rotation_is_linear_only_with_density_warning(self, main_cli, tmp_path, rot60):
        spec = write_spec(tmp_path / "c6.json", "c6-rotation", [rot60])
        result = main_cli("classify", str(spec))
        report = json.loads(result.stdout)
        assert report["family"] == {"kind": "LinearOnly"}
        assert any("heuristic" in w for w in report["warnings"])

    def test_byte_identical_reports(self, z2_spec):
        first = run_cli("classify", str(z2_spec))
        second = run_cli("classify", str(z2_spec))
        assert first.stdout == second.stdout

    def test_out_file_matches_stdout(self, z2_spec, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("classify", str(z2_spec), "--out", str(out))
        assert out.read_text() == result.stdout

    def test_badly_scaled_swap_is_classified(self, main_cli, tmp_path):
        spec = write_spec(tmp_path / "swap.json", "swap", [[[0, 1e5], [1e-5, 0]]])
        result = main_cli("classify", str(spec))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["classification"]["monomial"] is True
        assert report["family"]["kind"] == "BMultiplicative"
        assert report["family"]["b"] == pytest.approx(1e5)

    def test_tolerance_env_override(self, main_cli, z2_spec):
        result = main_cli("classify", str(z2_spec), env_extra={"EQUICHAR_TOL": "1e-6"})
        report = json.loads(result.stdout)
        assert report["input"]["tolerance"] == pytest.approx(1e-6)

    def test_tolerance_flag_beats_env(self, main_cli, z2_spec):
        result = main_cli(
            "classify", str(z2_spec), "--tol", "1e-7", env_extra={"EQUICHAR_TOL": "1e-5"}
        )
        assert json.loads(result.stdout)["input"]["tolerance"] == pytest.approx(1e-7)

    def test_floats_render_with_17_significant_digits(self, main_cli, z2_spec):
        result = main_cli("classify", str(z2_spec))
        assert '"tolerance": 1.0000000000000001e-09' in result.stdout


class TestNormalizeCommand:
    def test_scaled_swap(self, main_cli, z2_spec):
        result = main_cli("normalize", str(z2_spec))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["scaling"]["d"] == [1.0, 2.0]
        assert report["scaling"]["normalizedGenerators"] == [[[0.0, 1.0], [1.0, 0.0]]]

    def test_permutation_gets_identity_scaling(self, main_cli, p_spec):
        report = json.loads(main_cli("normalize", str(p_spec)).stdout)
        assert report["scaling"]["d"] == [1.0, 1.0, 1.0]

    def test_no_generators_give_unit_scaling(self, main_cli, tmp_path):
        spec = tmp_path / "e.json"
        spec.write_text(json.dumps({"name": "e", "dimension": 3, "generators": []}))
        result = main_cli("normalize", str(spec))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["scaling"] == {"d": [1.0, 1.0, 1.0], "normalizedGenerators": []}

    def test_unbounded_diagonal_exits_4_with_cycle(self, tmp_path):
        spec = write_spec(tmp_path / "d.json", "diag", [np.diag([2.0, 0.5])])
        result = run_cli("normalize", str(spec))
        assert result.returncode == 4
        report = json.loads(result.stdout)
        cycle = report["unboundedCycle"]
        assert "self-loop at index 1" in cycle["description"]
        assert "0.693" in cycle["description"]
        assert "scaling" not in report

    def test_non_monomial_exits_5(self, tmp_path, rot60):
        spec = write_spec(tmp_path / "c6.json", "c6", [rot60])
        result = run_cli("normalize", str(spec))
        assert result.returncode == 5
        assert "not monomial" in result.stderr

    def test_invertible_non_monomial_exits_5(self, main_cli, tmp_path):
        spec = write_spec(tmp_path / "h.json", "hadamard", [[[1.0, 1.0], [1.0, -1.0]]])
        result = main_cli("normalize", str(spec))
        assert result.returncode == 5
        assert "not monomial" in result.stderr

    def test_no_output_file_written_on_error(self, main_cli, tmp_path, rot60):
        spec = write_spec(tmp_path / "c6.json", "c6", [rot60])
        out = tmp_path / "never.json"
        result = main_cli("normalize", str(spec), "--out", str(out))
        assert result.returncode == 5
        assert not out.exists()


class TestBasisCommand:
    def test_order_two_symmetric_basis(self, main_cli):
        result = main_cli("basis", "--n", "4", "--k-in", "2", "--k-out", "2", "--group", "sym")
        report = json.loads(result.stdout)
        assert report["basis"]["count"] == 15
        assert report["basis"]["dimIn"] == 16
        assert report["basis"]["dimOut"] == 16

    def test_deepsets_basis(self, main_cli):
        result = main_cli("basis", "--n", "3", "--k-in", "1", "--k-out", "1", "--group", "sym")
        report = json.loads(result.stdout)
        assert report["basis"]["count"] == 2
        # elements are sparse (row, col) lists; the first is the diagonal orbit
        assert report["basis"]["elements"][0] == [[0, 0], [1, 1], [2, 2]]

    def test_trivial_group_from_file(self, main_cli, tmp_path):
        action = tmp_path / "trivial.json"
        action.write_text(json.dumps({"name": "trivial", "points": 2, "generators": []}))
        result = main_cli(
            "basis", "--n", "2", "--k-in", "1", "--k-out", "1", "--group", str(action)
        )
        assert json.loads(result.stdout)["basis"]["count"] == 4

    def test_cyclic_group(self, main_cli):
        result = main_cli("basis", "--n", "6", "--k-in", "1", "--k-out", "1", "--group", "cyclic")
        assert json.loads(result.stdout)["basis"]["count"] == 6

    def test_size_cap_exits_3(self):
        result = run_cli("basis", "--n", "101", "--k-in", "3", "--k-out", "1", "--group", "sym")
        assert result.returncode == 3

    def test_pair_limit_exits_3(self, main_cli):
        result = main_cli(
            "basis", "--n", "100", "--k-in", "3", "--k-out", "3", "--group", "cyclic"
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    HUGE = "99999999999999999999"

    # each ran for minutes or ended in a traceback before the limits were checked first;
    # a subprocess, so that a regression fails on the timeout instead of hanging the suite
    @pytest.mark.parametrize(
        "n, k_in, group",
        [("3", "100000", "sym"), (HUGE, "1", "sym"), ("3", HUGE, "cyclic"), (HUGE, "1", "cyclic")],
    )
    def test_limits_refuse_huge_arguments_at_once(self, n, k_in, group):
        argv = ["basis", "--n", n, "--k-in", k_in, "--k-out", "1", "--group", group]
        result = run_cli(*argv, timeout=30)
        assert result.returncode == 3 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_one_point_answers_for_any_order(self, main_cli):
        start = time.process_time()
        argv = ["basis", "--n", "1", "--k-in", self.HUGE, "--k-out", "2", "--group", "sym"]
        result = main_cli(*argv)
        assert time.process_time() - start < 1.0
        assert result.returncode == 0 and result.stderr == ""
        report = json.loads(result.stdout)
        assert report["input"]["kIn"] == int(self.HUGE)
        assert report["basis"] == {"dimIn": 1, "dimOut": 1, "count": 1, "elements": [[[0, 0]]]}

    def test_render_peak_memory_stays_near_the_output(self, main_cli, monkeypatch):
        reports = []
        monkeypatch.setattr(cli, "render_report", lambda report: reports.append(report) or "")
        main_cli("basis", "--n", "6", "--k-in", "3", "--k-out", "3", "--group", "sym")
        monkeypatch.undo()
        tracemalloc.start()  # a join per row peaks at 2.01x, a pass keeping every array at 2.67x
        try:
            text = cli.render_report(reports[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * len(text)

    # sha256 of stdout, taken when each element was rendered from a list of (row, col) tuples
    @pytest.mark.parametrize(
        "group, n, k_in, k_out, digest",
        [
            ("sym", 6, 3, 3, "477b6db894042431db5f23063f381f55feeca6e86c6c1ab178942882f8d9c982"),
            ("sym", 7, 2, 2, "512a2d2a449f49cd5536cf448604a15e37c723d768dbeab2ba79a1ce2da6b566"),
            ("sym", 5, 1, 3, "290b558dddd7c3c83fef85e252cfc90183a35e8d8a987321993996917426cd80"),
            ("cyclic", 4, 3, 3, "0a3807b6b66c3280d8b6ad7937b88705fe174912d97b32c4f4de058b27e0e801"),
            ("cyclic", 9, 2, 2, "81b38a38a7e929345fbe9e8d49d640809247e52f56f5ac3eca7a70cec868329a"),
            ("sym", 8, 3, 3, "58426c291b52bacb3865320a0007c75a39f592973477e6c84daa818b3e9a53b4"),
            ("sym", 1, 1, 1, "6561120c00bfb13af7a1e8dceec2e5d9ae3154db0193d1eab6fdf1515e1b40a6"),
            ("cyclic", 1, 2, 2, "94bea809bddacc6738c7d251970d707d22194f87203945592d84b932387256dc"),
            ("sym", 2, 2, 2, "aebdc07169e9e3343b404e492145bcab776d653171c208b908b252a0c0837c5e"),
        ],
    )
    def test_report_bytes_are_pinned(self, main_cli, group, n, k_in, k_out, digest):
        argv = ["basis", "--n", str(n), "--k-in", str(k_in), "--k-out", str(k_out)]
        result = main_cli(*argv, "--group", group)
        assert result.returncode == 0 and result.stderr == ""
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_odd_activation_on_signed_permutation_passes(self, main_cli, s_spec):
        result = main_cli(
            "verify", str(s_spec), "--activation", "tanh", "--trials", "200", "--seed", "1"
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verification"]["pass"] is True
        assert report["verification"]["trials"] == 200

    def test_relu_on_signed_permutation_fails(self, s_spec):
        result = run_cli(
            "verify", str(s_spec), "--activation", "relu", "--trials", "200", "--seed", "1"
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["verification"]["pass"] is False
        counterexample = report["verification"]["counterexample"]
        assert counterexample["residual"] > 1e-8
        assert len(counterexample["x"]) == 3

    def test_relu_on_plain_permutation_passes(self, main_cli, p_spec):
        result = main_cli("verify", str(p_spec), "--activation", "relu", "--seed", "3")
        assert result.returncode == 0

    def test_eta_profile_activation(self, main_cli, tmp_path, z2_spec):
        profile = tmp_path / "eta.json"
        xs = np.linspace(1.0, 2.0, 17)
        profile.write_text(
            json.dumps({"b": 2.0, "etaPlus": [[x, 0.25 * x] for x in xs]})
        )
        result = main_cli(
            "verify", str(z2_spec), "--activation", f"eta:{profile}", "--seed", "2"
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["input"]["activation"] == "eta[b=2]"

    def test_overflowing_residual_fails_with_null(self, main_cli, tmp_path):
        # 1e308 * x overflows for |x| > 1.8, so f(Mx) - M f(x) is inf - inf = NaN
        spec = write_spec(tmp_path / "huge.json", "huge", [[[0, 1e308], [1, 0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = main_cli("verify", str(spec), "--activation", "relu", "--trials", "5")
        assert result.returncode == 1 and result.stderr == ""
        verification = json.loads(result.stdout)["verification"]
        assert verification["pass"] is False
        assert '"worstResidual": null' in result.stdout
        assert verification["counterexample"]["residual"] is None

    def test_unknown_activation_is_parse_error(self, main_cli, p_spec):
        result = main_cli("verify", str(p_spec), "--activation", "gelu")
        assert result.returncode == 2

    @pytest.mark.parametrize("trials", ["3333334", "100000000000"])
    def test_trials_times_dimension_past_the_limit_exit_3(self, main_cli, p_spec, trials):
        """p_spec has dimension 3 and one generator, so each trial counts 2 x 203
        points.  Without the limit, 10^11 trials ran for hours."""
        start = time.perf_counter()
        result = main_cli("verify", str(p_spec), "--activation", "tanh", "--trials", trials)
        assert time.perf_counter() - start < 5.0
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == (
            f"error: {trials} trials x (2 vectors x (dimension 3 + 200)"
            " + 1 generators x 3^2 // 80) > 150000000\n"
        )

    def test_largest_accepted_trials_reach_verify(self, main_cli, p_spec, monkeypatch):
        """369,458 x 2 x 203 points fit in 1.5 x 10^8; one trial more does not."""
        def passing(f, mats, *, trials, tol, seed):
            return EquivarianceReport(True, trials, 0.0, None)

        monkeypatch.setattr(cli, "verify_pointwise_equivariance", passing)
        for trials, code in (("369458", 0), ("369459", 3)):
            result = main_cli("verify", str(p_spec), "--activation", "tanh", "--trials", trials)
            assert result.returncode == code

    def test_matrix_products_count_past_dimension_160(self, main_cli, tmp_path, monkeypatch):
        """At n = 400 a trial counts 2 x 600 points for its vectors and 400^2 // 80
        for its generator's two products; 46,875 trials fit, one more does not."""
        def passing(f, mats, *, trials, tol, seed):
            return EquivarianceReport(True, trials, 0.0, None)

        monkeypatch.setattr(cli, "verify_pointwise_equivariance", passing)
        cycle = np.roll(np.eye(400), 1, axis=0)
        spec = write_spec(tmp_path / "c400.json", "c400", [cycle])
        for trials, code in (("46875", 0), ("46876", 3)):
            result = main_cli("verify", str(spec), "--activation", "tanh", "--trials", trials)
            assert result.returncode == code
        assert result.stderr.count("\n") == 1 and result.stdout == ""


class TestExportActivationCommand:
    def _bump_profile(self, tmp_path) -> Path:
        xs = np.linspace(1.0, 2.0, 17)
        ys = xs * (1 + (xs - 1) * (2 - xs))
        path = tmp_path / "bump.json"
        path.write_text(json.dumps({"b": 2.0, "etaPlus": np.c_[xs, ys].tolist()}))
        return path

    def test_identity_profile_exports_identity(self, main_cli, tmp_path):
        xs = np.linspace(1.0, 2.0, 17)
        profile = tmp_path / "id.json"
        profile.write_text(json.dumps({"b": 2.0, "etaPlus": np.c_[xs, xs].tolist()}))
        out = tmp_path / "table.csv"
        result = main_cli(
            "export-activation",
            "--eta-file", str(profile),
            "--signed",
            "--grid-min", "-2", "--grid-max", "2", "--grid-count", "9",
            "--out", str(out),
        )
        assert result.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,f_x"
        assert "0,0" in lines
        for line in lines[1:]:
            x, fx = line.split(",")
            assert x == fx

    def test_worked_bump_value(self, main_cli, tmp_path):
        profile = self._bump_profile(tmp_path)
        result = main_cli(
            "export-activation",
            "--eta-file", str(profile),
            "--grid-min", "3", "--grid-max", "4", "--grid-count", "2",
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == "3,3.75"

    def test_value_past_the_float_range_is_inf_without_warning(self, main_cli, tmp_path):
        # 1e308 = 2**1023 * 1.11 and eta(1.11) = 3.34: b**n * eta(y) passes the float range
        profile = tmp_path / "big.json"
        profile.write_text(json.dumps({"b": 2.0, "etaPlus": [[1, 3], [2, 6]]}))
        result = main_cli(
            "export-activation",
            "--eta-file", str(profile),
            "--grid-min", "1", "--grid-max", "1e308", "--grid-count", "2",
            "--grid-spacing", "log",
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "x,f_x\n1,3\n1e+308,inf\n", ""
        )

    @pytest.mark.parametrize("count", ["1000001", "10000000000000"])
    def test_grid_past_the_limit_exits_3(self, main_cli, tmp_path, count):
        profile = self._bump_profile(tmp_path)
        result = main_cli(
            "export-activation",
            "--eta-file", str(profile),
            "--grid-min", "1", "--grid-max", "2", "--grid-count", count,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == f"error: grid has {count} points (limit 1000000)\n"

    def test_benchmark_sized_grid_exports(self, main_cli, tmp_path):
        profile = self._bump_profile(tmp_path)
        result = main_cli(
            "export-activation",
            "--eta-file", str(profile),
            "--grid-min", "-2", "--grid-max", "2", "--grid-count", "40001",
        )
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 40_002

    def test_b_flag_conflict_is_parse_error(self, main_cli, tmp_path):
        profile = self._bump_profile(tmp_path)
        result = main_cli(
            "export-activation",
            "--b", "3",
            "--eta-file", str(profile),
            "--grid-min", "1", "--grid-max", "2", "--grid-count", "2",
        )
        assert result.returncode == 2

    def test_endpoint_violation_exits_6(self, tmp_path):
        profile = tmp_path / "bad.json"
        profile.write_text(
            json.dumps({"b": 2.0, "etaPlus": [[1.0, 1.0], [1.5, 1.0], [2.0, 1.0]]})
        )
        result = run_cli(
            "export-activation",
            "--eta-file", str(profile),
            "--grid-min", "1", "--grid-max", "2", "--grid-count", "2",
        )
        assert result.returncode == 6


class TestParseErrors:
    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("classify", str(bad)).returncode == 2

    def test_nan_rejected(self, main_cli, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"name": "x", "dimension": 1, "generators": [[[NaN]]]}')
        assert main_cli("classify", str(bad)).returncode == 2

    def test_missing_file(self, main_cli):
        assert main_cli("classify", "/nonexistent/spec.json").returncode == 2

    def test_singular_generator(self, main_cli, tmp_path):
        bad = tmp_path / "sing.json"
        bad.write_text('{"name": "x", "dimension": 2, "generators": [[[1, 0], [0, 0]]]}')
        assert main_cli("classify", str(bad)).returncode == 2

    def test_dimension_mismatch(self, main_cli, tmp_path):
        bad = tmp_path / "dim.json"
        bad.write_text('{"name": "x", "dimension": 3, "generators": [[[1, 0], [0, 1]]]}')
        assert main_cli("classify", str(bad)).returncode == 2

    def test_action_file_points_must_match_n(self, main_cli, tmp_path):
        action = tmp_path / "act.json"
        action.write_text(json.dumps({"name": "t", "points": 3, "generators": []}))
        result = main_cli(
            "basis", "--n", "2", "--k-in", "1", "--k-out", "1", "--group", str(action)
        )
        assert result.returncode == 2


P3 = "[[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]"
HUGE_INT = "1" + "0" * 400  # past the float range
BAD_INPUT_FILES = {
    "spec": '{"name": "p", "dimension": 3, "generators": %s}' % P3,
    "tol_zero": '{"name": "p", "dimension": 3, "generators": %s, "tolerance": 0}' % P3,
    "tol_negative": '{"name": "p", "dimension": 3, "generators": %s, "tolerance": -1e-9}' % P3,
    "tol_overflow": '{"name": "p", "dimension": 3, "generators": %s, "tolerance": 1e999}' % P3,
    "tol_bool": '{"name": "p", "dimension": 3, "generators": %s, "tolerance": true}' % P3,
    "dim_bool": '{"name": "x", "dimension": true, "generators": [[[1.0]]]}',
    "points_bool": '{"name": "t", "points": true, "generators": [[0]]}',
    "images_bool": '{"name": "t", "points": 2, "generators": [[true, false]]}',
    "images_float": '{"name": "t", "points": 2, "generators": [[1.0, 0.0]]}',
    "b_str": '{"b": "x", "etaPlus": [[1, 1], [2, 2]]}',
    "b_bool": '{"b": true, "etaPlus": [[1, 1], [2, 2]]}',
    "tiny_scalar": '{"name": "x", "dimension": 1, "generators": [[[1e-10]]]}',
    "scalar_1e-8": '{"name": "x", "dimension": 1, "generators": [[[1e-8]]]}',
    "swap_1e-8": '{"name": "x", "dimension": 2, "generators": [[[0, 1e-8], [1e8, 0]]]}',
    "file_tol_1e-6": '{"name": "x", "dimension": 1, "generators": [[[1e-8]]], "tolerance": 1e-6}',
    "images_ragged": '{"name": "t", "points": 2, "generators": [[0, 1], [0]]}',
    "images_not_list": '{"name": "t", "points": 2, "generators": [[0, 1], 5]}',
    "images_bool_int": '{"name": "t", "points": 2, "generators": [[true, 0]]}',
    "profile": '{"b": 2.0, "etaPlus": [[1, 1], [2, 2]]}',
    "signed_str": '{"b": 2.0, "etaPlus": [[1, 1], [2, 2]], "signed": "false"}',
    "samples_object": '{"b": 2.0, "etaPlus": {"x": 1}}',
    "b_huge_int": '{"b": %s, "etaPlus": [[1, 1], [2, 2]]}' % HUGE_INT,
    "gen_ragged": '{"name": "x", "dimension": 2, "generators": [[[1, 0], [0]]]}',
    "gen_object": '{"name": "x", "dimension": 1, "generators": [[[{}]]]}',
    "gen_bool": '{"name": "x", "dimension": 1, "generators": [[[true]]]}',
    "gen_str": '{"name": "x", "dimension": 1, "generators": [[["2"]]]}',
    "gen_huge_int": '{"name": "x", "dimension": 1, "generators": [[[%s]]]}' % HUGE_INT,
    "gen_row_overflow": '{"name": "x", "dimension": 2, "generators": [[[1e308, 1e308], [0, 1]]]}',
    "no_generators": '{"name": "x", "dimension": 2, "generators": []}',
    "tol_huge_int": '{"name": "x", "dimension": 1, "generators": [], "tolerance": %s}' % HUGE_INT,
    "int_5000_digits": '{"name": "x", "dimension": 1%s, "generators": []}' % ("0" * 5000),
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "latin1_name": '{"name": "caf\xe9", "dimension": 1, "generators": []}',  # written as Latin-1
}
BASIS = ["basis", "--group", "sym"]
BASIS_N2 = ["basis", "--n", "2", "--k-in", "1", "--k-out", "1", "--group"]
EXPORT = ["export-activation", "--grid-min", "1", "--grid-max", "2", "--grid-count", "2"]
BAD_INPUTS = {
    "basis-n-0": (BASIS + ["--n", "0", "--k-in", "1", "--k-out", "1"], None),
    "basis-k-in-0": (BASIS + ["--n", "3", "--k-in", "0", "--k-out", "1"], None),
    "basis-k-out-negative": (BASIS + ["--n", "3", "--k-in", "1", "--k-out", "-2"], None),
    "verify-trials-0": (["verify", "{spec}", "--activation", "relu", "--trials", "0"], None),
    "flag-tol-nan": (["classify", "{spec}", "--tol", "nan"], None),
    "flag-tol-inf": (["normalize", "{spec}", "--tol", "inf"], None),
    "flag-tol-zero": (["verify", "{spec}", "--activation", "relu", "--tol", "0"], None),
    "flag-tol-negative": (["classify", "{spec}", "--tol", "-1"], None),
    "file-tol-zero": (["classify", "{tol_zero}"], None),
    "file-tol-negative": (["normalize", "{tol_negative}"], None),
    "file-tol-overflow": (["classify", "{tol_overflow}"], None),
    "file-tol-bool": (["classify", "{tol_bool}"], None),
    "env-tol-nan": (["classify", "{spec}"], "nan"),
    "env-tol-inf": (["classify", "{spec}"], "inf"),
    "env-tol-zero": (["verify", "{spec}", "--activation", "relu"], "0"),
    "env-tol-negative": (["normalize", "{spec}"], "-1e-9"),
    "dimension-bool": (["classify", "{dim_bool}"], None),
    "points-bool": (
        ["basis", "--n", "1", "--k-in", "1", "--k-out", "1", "--group", "{points_bool}"],
        None,
    ),
    "action-images-bool": (BASIS_N2 + ["{images_bool}"], None),
    "action-images-float": (BASIS_N2 + ["{images_float}"], None),
    "profile-b-str": (EXPORT + ["--eta-file", "{b_str}"], None),
    "profile-b-bool": (EXPORT + ["--eta-file", "{b_bool}"], None),
    "classify-tiny-scalar": (["classify", "{tiny_scalar}"], None),
    "normalize-tiny-scalar": (["normalize", "{tiny_scalar}"], None),
    "classify-scalar-at-flag-tol": (["classify", "{scalar_1e-8}", "--tol", "1e-6"], None),
    "normalize-scalar-at-flag-tol": (["normalize", "{scalar_1e-8}", "--tol", "1e-6"], None),
    "classify-swap-at-flag-tol": (["classify", "{swap_1e-8}", "--tol", "1e-6"], None),
    "normalize-swap-at-flag-tol": (["normalize", "{swap_1e-8}", "--tol", "1e-6"], None),
    "classify-scalar-at-file-tol": (["classify", "{file_tol_1e-6}"], None),
    "classify-scalar-at-env-tol": (["classify", "{scalar_1e-8}"], "1e-6"),
    "action-images-ragged": (BASIS_N2 + ["{images_ragged}"], None),
    "action-images-not-list": (BASIS_N2 + ["{images_not_list}"], None),
    "action-images-bool-int": (BASIS_N2 + ["{images_bool_int}"], None),
    "out-unwritable": (["classify", "{spec}", "--out", "{spec}/report.json"], None),
    "file-not-utf8": (["classify", "{latin1_name}"], None),
    "verify-seed-negative": (["verify", "{spec}", "--activation", "relu", "--seed", "-1"], None),
    "verify-no-generators": (["verify", "{no_generators}", "--activation", "relu"], None),
    "export-grid-max-inf": (
        ["export-activation", "--eta-file", "{profile}"]
        + ["--grid-min", "1", "--grid-max", "inf", "--grid-count", "3"],
        None,
    ),
    "export-b-flag-nan": (EXPORT + ["--eta-file", "{profile}", "--b", "nan"], None),
    "profile-signed-str": (EXPORT + ["--eta-file", "{signed_str}"], None),
    "profile-samples-object": (EXPORT + ["--eta-file", "{samples_object}"], None),
    "profile-b-huge-int": (EXPORT + ["--eta-file", "{b_huge_int}"], None),
    "spec-generator-ragged": (["classify", "{gen_ragged}"], None),
    "spec-generator-object": (["normalize", "{gen_object}"], None),
    "spec-generator-bool": (["classify", "{gen_bool}"], None),
    "spec-generator-str": (["classify", "{gen_str}"], None),
    "spec-generator-huge-int": (["classify", "{gen_huge_int}"], None),
    "spec-generator-row-overflow": (["classify", "{gen_row_overflow}"], None),
    "file-tol-huge-int": (["classify", "{tol_huge_int}"], None),
    "file-int-5000-digits": (["classify", "{int_5000_digits}"], None),
    "file-deep-nesting": (["classify", "{deep_nesting}"], None),
    "basis-missing-group": (["basis", "--n", "3", "--k-in", "1", "--k-out", "1"], None),
    "classify-unknown-flag": (["classify", "{spec}", "--frob", "1"], None),
    "no-command": ([], None),
}
# the part of the error line that names what was refused
BAD_INPUT_MESSAGES = {
    "classify-scalar-at-flag-tol": "generator 0 is not invertible",
    "normalize-scalar-at-flag-tol": "generator 0 is not invertible",
    "classify-swap-at-flag-tol": "generator 0 is not invertible",
    "normalize-swap-at-flag-tol": "generator 0 is not invertible",
    "classify-scalar-at-file-tol": "generator 0 is not invertible",
    "classify-scalar-at-env-tol": "generator 0 is not invertible",
    "action-images-ragged": "generator 1 must list 2 images",
    "action-images-not-list": "generator 1 must list 2 images",
    "action-images-bool-int": "generator 0 images must be integers",
    "out-unwritable": "cannot write",
    "verify-seed-negative": "--seed",
    "export-grid-max-inf": "finite",
    "export-b-flag-nan": "--b must be finite",
    "profile-signed-str": "'signed' must be true or false",
    "spec-generator-ragged": "generator 0 must be a list of equal-length rows of numbers",
    "spec-generator-row-overflow": "generator 0 has a row summing past the float range",
    "basis-missing-group": "the following arguments are required: --group",
    "classify-unknown-flag": "unrecognized arguments: --frob 1",
    "no-command": "the following arguments are required: command",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line_error(case, tmp_path, monkeypatch, capsys):
    paths = {}
    for stem, text in BAD_INPUT_FILES.items():
        paths[stem] = tmp_path / f"{stem}.json"
        paths[stem].write_text(text, encoding="latin-1")
    argv, env_tol = BAD_INPUTS[case]
    monkeypatch.delenv("EQUICHAR_TOL", raising=False)
    if env_tol is not None:
        monkeypatch.setenv("EQUICHAR_TOL", env_tol)
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert BAD_INPUT_MESSAGES.get(case, "") in captured.err


def test_one_process_reuses_one_parser_and_answers_as_fresh_processes(
    tmp_path, z2_spec, monkeypatch, capsys
):
    """A refused input, a --tol run, the same run without --tol, a --help and a
    verify run through one ``cli.main`` give a fresh process's stdout, stderr
    and exit code each, and argparse builds the parser once."""
    monkeypatch.setenv("COLUMNS", "80")  # the help width, here and in the subprocesses
    monkeypatch.delenv("EQUICHAR_TOL", raising=False)
    built = []
    real_init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli.build_parser.cache_clear()
    sequence = [
        ("classify", str(tmp_path / "missing.json")),
        ("classify", str(z2_spec), "--tol", "1e-6"),
        ("classify", str(z2_spec)),
        ("basis", "--help"),
        ("verify", str(z2_spec), "--activation", "tanh", "--trials", "20"),
    ]
    codes, outs = [], []
    for argv in sequence:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv, env_extra={"COLUMNS": "80"})
        assert (captured.out, captured.err, code) == (fresh.stdout, fresh.stderr, fresh.returncode)
        codes.append(code)
        outs.append(captured.out)
    assert codes == [2, 0, 0, 0, 1]  # tanh does not commute with the scaled swap
    assert json.loads(outs[1])["input"]["tolerance"] == 1e-06
    assert json.loads(outs[2])["input"]["tolerance"] == 1e-09
    assert outs[3].startswith("usage: equichar basis")
    assert built.count("equichar") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["basis", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: equichar basis [-h] [--out OUT] --n N")


class TestDimensionLimit:
    def test_large_non_monomial_classify_exits_3(self, main_cli, tmp_path):
        dense_row = np.eye(21)
        dense_row[0] = 1.0  # 21 entries above tol in row 0
        spec = write_spec(tmp_path / "big.json", "dense-row21", [dense_row])
        result = main_cli("classify", str(spec))
        assert result.returncode == 3
        assert "subset-sum limit" in result.stderr


class TestGoldenRotationReports:
    @pytest.mark.parametrize("stem", ["c4_rotation", "c6_rotation"])
    def test_report_matches_golden_bytes(self, stem):
        spec = GOLDEN / f"{stem}.json"
        expected = (GOLDEN / f"{stem}_report.json").read_text()
        result = run_cli("classify", str(spec))
        assert result.returncode == 0
        assert result.stdout == expected


# (pinned stdout file, exit code, argv); input files live next to the outputs
GOLDEN_JOBS = [
    ("normalize_bounded_report.json", 0, ["normalize", "normalize_bounded.json"]),
    ("normalize_unbounded_report.json", 4, ["normalize", "normalize_unbounded.json"]),
    ("verify_eta_report.json", 0, ["verify", "verify_eta.json", "--activation",
                                   "eta:eta_plain.json", "--trials", "50", "--seed", "5"]),
    ("verify_relu_report.json", 1, ["verify", "verify_relu.json", "--activation", "relu",
                                    "--trials", "20", "--seed", "1"]),
    ("export_plain.csv", 0, ["export-activation", "--eta-file", "eta_plain.json",
                             "--grid-min", "-20", "--grid-max", "20", "--grid-count", "41"]),
    ("export_signed.csv", 0, ["export-activation", "--eta-file", "eta_signed.json",
                              "--grid-min", "-20", "--grid-max", "20", "--grid-count", "41"]),
    ("classify_trivial_report.json", 0, ["classify", "classify_trivial.json"]),
]


@pytest.mark.parametrize(
    "expected, code, argv", GOLDEN_JOBS, ids=[job[0].split(".")[0] for job in GOLDEN_JOBS]
)
def test_command_output_matches_golden_bytes(main_cli, monkeypatch, expected, code, argv):
    monkeypatch.chdir(GOLDEN)
    result = main_cli(*argv)
    assert result.stdout == (GOLDEN / expected).read_text()
    assert (result.stderr, result.returncode) == ("", code)


class TestToleranceBelowDefault:
    """Value types hold exact invariants, so a --tol below 1e-9 gets a report."""

    def test_scalar_just_above_one_is_b_multiplicative(self, main_cli, tmp_path):
        spec = write_spec(tmp_path / "near1.json", "near-one", [[[1.0000000001]]])
        result = main_cli("classify", str(spec), "--tol", "1e-14")
        assert result.returncode == 0 and result.stderr == ""
        family = json.loads(result.stdout)["family"]
        assert family["kind"] == "BMultiplicative"
        assert family["b"] == pytest.approx(1.0000000001, rel=1e-15)

    def test_tolerance_below_machine_epsilon_gets_a_report(self, main_cli, tmp_path):
        # |log v| = 1.1e-16 is no base: exp of it rounds to 1
        spec = write_spec(tmp_path / "below1.json", "below-one", [[[0.9999999999999999]]])
        result = main_cli("classify", str(spec), "--tol", "1e-20")
        assert result.returncode == 0 and result.stderr == ""
        report = json.loads(result.stdout)
        assert report["classification"]["tclass"] == {"kind": "DensePositive"}

    def test_sub_tolerance_shear_is_linear_only(self, main_cli, tmp_path):
        spec = write_spec(tmp_path / "shear.json", "shear", [[[1, 1e-10], [0, -1]]])
        result = main_cli("classify", str(spec), "--tol", "1e-12")
        assert result.returncode == 0 and result.stderr == ""
        report = json.loads(result.stdout)
        assert report["classification"]["tclass"] == {"kind": "Dense"}
        assert report["family"] == {"kind": "LinearOnly"}


def test_expanding_generator_report_is_fast_and_warning_free(main_cli):
    """|det| = 1.88: the group is infinite, so no closure is run before the note."""
    expected = (GOLDEN / "random4_unbounded_report.json").read_text()
    start = time.process_time()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = main_cli("classify", str(GOLDEN / "random4_unbounded.json"))
    assert time.process_time() - start < 1.0
    assert result.returncode == 0
    assert result.stdout == expected


# ---------------------------------------------------------------------------
# fuzzing: structural mutations of small valid input files, and bad flags

FUZZ_FILES = {
    "spec": {"name": "p3", "dimension": 3, "generators": json.loads(P3), "tolerance": 1e-9},
    "scaled": {"name": "z2", "dimension": 2, "generators": [[[0, 2], [0.5, 0]]]},
    "profile": {"b": 2, "etaPlus": [[1, 1], [1.5, 1.2], [2, 2]], "etaMinus": [[1, 1], [2, 2]]},
    "signed": {"b": 2.0, "etaPlus": [[1, 1], [2, 2]], "signed": True},
    "action": {"name": "s3", "points": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
}
# A number is replaced only by a value that keeps a generator monomial or makes
# it singular or huge: a small one such as -1 can make a non-monomial generator
# of infinite order, whose closure runs to the 10,000-element cap for seconds.
ODD_VALUES = [None, True, False, 0, 1e308, -1e308, 10**400, "", "1", [], [[]], {}, {"a": 1}]
EXTRA_KEYS = ["name", "dimension", "generators", "tolerance", "b", "signed", "etaMinus", "x"]


@st.composite
def mutated(draw, value):
    """``value`` with one structural change at some depth."""
    keys = list(value) if isinstance(value, dict) else []
    if isinstance(value, list):
        keys = list(range(len(value)))
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(mutated(value[key]))
        return copy
    how = draw(st.sampled_from(["replace", "nest", "drop", "extend"]))
    odd = draw(st.sampled_from(ODD_VALUES))
    if how == "nest":
        return [value]
    if how == "drop" and keys:
        key = draw(st.sampled_from(keys))
        if isinstance(value, dict):
            return {k: v for k, v in value.items() if k != key}
        return value[:key] + value[key + 1 :]  # a ragged row, or one generator fewer
    if how == "extend" and isinstance(value, dict):
        return {**value, draw(st.sampled_from(EXTRA_KEYS)): odd}
    if how == "extend" and isinstance(value, list):
        return [*value, odd]
    return odd


def _flag(name, values):
    """No ``--name``, or ``--name=value`` (so that values such as -inf parse)."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [f"--{name}={v}"]))


TOL = _flag("tol", ["nan", "inf", "0", "-1", "1e-20", "1e-3"])
SPEC = st.sampled_from([["{spec}"], ["{scaled}"]])
ACTIVATIONS = ["relu", "tanh", "identity", "gelu", "eta:{profile}", "eta:{signed}", "eta:{none}"]
GRID = ["nan", "inf", "-inf", "-2", "0", "1", "2", "1e308", "-1e308"]
COMMANDS = st.one_of(
    st.tuples(st.sampled_from([["classify"], ["normalize"]]), SPEC, TOL),
    st.tuples(
        st.just(["verify"]),
        SPEC,
        _flag("activation", ACTIVATIONS),
        _flag("trials", ["0", "1", "2"]),
        _flag("seed", ["-1", "0", "5"]),
        TOL,
    ),
    st.tuples(
        st.just(["export-activation"]),
        st.sampled_from([["--eta-file={profile}"], ["--eta-file={signed}"]]),
        _flag("grid-min", GRID),
        _flag("grid-max", GRID),
        _flag("grid-count", ["0", "1", "3"]),
        _flag("grid-spacing", ["linear", "log"]),
        _flag("b", ["nan", "inf", "2", "3"]),
        st.sampled_from([[], ["--signed"]]),
        TOL,
    ),
    st.tuples(
        st.just(["basis"]),
        _flag("n", ["-1", "0", "1", "2", "3"]),
        _flag("k-in", ["0", "1", "2"]),
        _flag("k-out", ["0", "1", "2"]),
        _flag("group", ["sym", "cyclic", "{action}", "{spec}"]),
    ),
)
# the flags a command cannot run without, added when the draw left them out
REQUIRED = {
    "verify": ["--activation=relu"],
    "export-activation": ["--grid-min=1", "--grid-max=2", "--grid-count=3"],
    "basis": ["--n=3", "--k-in=1", "--k-out=1", "--group=sym"],
}
FUZZ_FILE_STRATEGY = st.fixed_dictionaries(
    {
        stem: st.one_of(st.just(v), mutated(v), mutated(v).flatmap(mutated))
        for stem, v in FUZZ_FILES.items()
    }
)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    files=FUZZ_FILE_STRATEGY,
    parts=COMMANDS,
    out=st.sampled_from([[], ["--out={dir}/report"], ["--out={spec}/report"]]),
)
def test_fuzzed_inputs_get_a_report_or_one_error_line(files, parts, out, tmp_path):
    paths = {"dir": str(tmp_path), "none": str(tmp_path / "missing.json")}
    for stem, data in files.items():
        paths[stem] = str(tmp_path / f"{stem}.json")
        Path(paths[stem]).write_text(json.dumps(data))
    report_file = tmp_path / "report"
    report_file.unlink(missing_ok=True)
    argv = [arg for part in parts for arg in part] + out
    given_flags = {arg.split("=")[0] for arg in argv}
    argv += [f for f in REQUIRED.get(argv[0], []) if f.split("=")[0] not in given_flags]
    argv = [arg.format(**paths) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in range(7), argv
    if code in (2, 3, 5, 6):
        assert stdout.getvalue() == "", argv
        assert stderr.getvalue().startswith("error: "), argv
        assert stderr.getvalue().count("\n") == 1, argv
        assert not report_file.exists()
    else:  # a report: 0 or 1 from verify, or 4 with the cycle that blocks a rescaling
        assert stdout.getvalue() and stderr.getvalue() == "", argv
        if out == ["--out={dir}/report"]:
            assert report_file.read_text() == stdout.getvalue()


# ---------------------------------------------------------------------------
# rendering: the array renderer against the one-value-at-a-time oracle

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())  # st.floats() draws nan, inf
SHAPES = st.one_of(st.sampled_from([(), (0,), (2, 0), (0, 3)]), hnp.array_shapes(min_dims=1))
# (dtype, elements) of one dtype kind, for lists of arrays that stack but for their first axis
STACK_KINDS = [
    (np.float64, FLOATS),
    (np.float32, st.floats(width=32)),
    (np.int64, st.integers(-(2**63), 2**63 - 1)),
    (np.int64, st.integers(-5, 5)),
    (np.int8, st.integers(-128, 127)),
    (np.uint64, st.integers(2**63, 2**64 - 1)),
    (np.bool_, st.booleans()),
]


@st.composite
def stacking_lists(draw):
    """Arrays of one dtype that differ in their first axis only, as a list or a tuple."""
    dtype, elements = draw(st.sampled_from(STACK_KINDS))
    rest = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    firsts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    arrays = [draw(hnp.arrays(dtype, (m, *rest), elements=elements)) for m in firsts]
    return draw(st.sampled_from([arrays, tuple(arrays)]))


ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FLOATS),
    hnp.arrays(np.float32, SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.int64, SHAPES),
    hnp.arrays(np.int32, SHAPES),
    hnp.arrays(np.uint64, SHAPES, elements=st.integers(2**63, 2**64 - 1)),
    hnp.arrays(np.uint8, SHAPES),
    hnp.arrays(np.bool_, SHAPES),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(-3, 3)),  # small spans, negative values
    hnp.arrays(np.int16, SHAPES, elements=st.integers(-(2**15), 2**15 - 1)),  # wide spans
    # what ``basis`` passes: each element's (k, 2) support coordinates
    st.lists(hnp.arrays(np.intp, st.tuples(st.integers(1, 6), st.just(2))), max_size=4),
    stacking_lists(),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)
REPORT_VALUES = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), REPORT_VALUES, max_size=4))
@example({"v": [np.array([1, 2]), np.array(5)]})  # shape () past axis 0, but no axis 0
@example({"v": [np.array([0.0, -0.0, np.nan]), np.array([np.inf, -np.inf, -0.0])]})
@example({"v": (np.array([[0.0], [-0.0]]), np.array([[np.nan]], np.float32))})
@example({"v": np.array([-7, 40, -7]), "w": np.array([[-2, -1], [0, -2]])})  # span 47 > 2 x 3
@example({"v": [np.array([2**63, 2**64 - 1], np.uint64), np.array([2**63 + 1], np.uint64)]})
@example({"v": np.array([2**63 + 2, 2**63], np.uint64), "w": np.array([-99, 99] * 99, np.int8)})
@example({"v": [np.array([1, 2]), np.array([1.0, 2.0])]})  # kinds differ
@example({"v": [np.array([1, -2]), np.array([3], np.uint8)]})  # signed and unsigned
@example({"v": [np.array([[1, 2]]), np.array([[1, 2, 3]])]})  # shapes past axis 0 differ
@example({"v": [np.array([1, 2]), np.array([], int)], "w": [np.zeros((2, 0)), np.ones((1, 0))]})
@example({"v": [np.array([True]), np.array([[False]])], "w": [np.array([1]), 2]})
def test_render_report_matches_the_oracle(report):
    assert cli.render_report(report) == _oracles.render_oracle(report, 0) + "\n"


def test_render_keeps_negative_zero_apart_and_writes_non_finite_as_null():
    values = np.array([[0.0, -0.0], [np.nan, -np.inf]])
    lines = ["{", '  "v": [', "    [", "      0,", "      -0", "    ],", "    [", "      null,"]
    lines += ["      null", "    ]", "  ]", "}", ""]
    assert cli.render_report({"v": values}) == "\n".join(lines)
