import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles
from _profiles import random_eta_profile
from equichar import (
    ActivationFamily,
    EndpointViolationError,
    EtaProfile,
    FamilyKind,
    NonPositiveInputError,
    build_eta_activation,
    check_family_membership,
    custom,
    decompose_scale,
    export_activation_csv,
    identity,
    relu,
    sample_grid,
    tanh,
    verify_pointwise_equivariance,
)
from equichar.activations import _CSV_BLOCK


class TestDecomposeScale:
    def test_examples(self):
        assert decompose_scale(3.0, 2.0) == (1, 1.5)
        assert decompose_scale(1.0, 2.0) == (0, 1.0)
        assert decompose_scale(0.5, 2.0) == (-1, 1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveInputError):
            decompose_scale(0.0, 2.0)
        with pytest.raises(NonPositiveInputError):
            decompose_scale(-3.0, 2.0)

    def test_snaps_to_unit_near_powers(self):
        n, y = decompose_scale(2.0**10 * (1 + 1e-13), 2.0)
        assert (n, y) == (10, 1.0)
        n, y = decompose_scale(2.0**10 * (1 - 1e-13), 2.0)
        assert (n, y) == (10, 1.0)

    def test_exponent_one_too_high_is_corrected_down(self):
        # log(x) / log(2) rounds up to 3 for the float just below 8
        assert decompose_scale(np.nextafter(8.0, 0.0), 2.0, tol=1e-20) == (2, 1.9999999999999998)

    def test_subnormal_input_decomposes_without_a_warning(self):
        b = 2.779554061750642  # the first guess of b**n rounds to 0 for x = 5e-324
        n, y = decompose_scale(5e-324, b)
        assert 1.0 <= y < b

    @settings(max_examples=200)
    @given(
        x=st.floats(min_value=1e-6, max_value=1e6),
        b=st.floats(min_value=1.1, max_value=10.0),
    )
    def test_reconstruction_and_range(self, x, b):
        n, y = decompose_scale(x, b)
        assert 1.0 <= y < b
        assert b**n * y == pytest.approx(x, rel=1e-12)


class TestEtaProfile:
    def test_endpoint_violation_raises(self):
        xs = np.linspace(1.0, 2.0, 5)
        with pytest.raises(EndpointViolationError):
            EtaProfile(2.0, xs, np.ones_like(xs))  # constant cannot satisfy eta(2) = 2*eta(1)

    def test_linear_profile_satisfies_endpoint(self):
        profile = EtaProfile.linear(2.0, slope=3.0)
        assert profile(1.0) == 3.0
        assert profile(2.0) == 6.0
        assert profile.lipschitz() == pytest.approx(3.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            EtaProfile(2.0, np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.5, 2.0]))
        with pytest.raises(ValueError):
            EtaProfile(2.0, np.array([1.2, 2.0]), np.array([1.0, 2.0]))


class TestBuildEtaActivation:
    def test_two_profile_construction_is_semilinear_mirror(self):
        # eta+(x) = x and eta-(x) = 2x give f(x) = x on positives and
        # f(x) = -2x on negatives: f(-1) = 2, f(-2) = 4.
        f = build_eta_activation(2.0, EtaProfile.linear(2.0, 1.0), EtaProfile.linear(2.0, 2.0))
        assert f(3.0) == pytest.approx(3.0)
        assert f(-1.0) == pytest.approx(2.0)
        assert f(-2.0) == pytest.approx(4.0)
        # multiplicative identity at a negative point: f(2 * -1) = 2 * f(-1)
        assert f(-2.0) == pytest.approx(2.0 * f(-1.0))

    def test_signed_identity_profile_is_identity(self):
        f = build_eta_activation(2.0, EtaProfile.linear(2.0), signed=True)
        xs = np.array([-7.5, -1.0, -0.03125, 0.0, 0.5, 1.0, 3.75, 2048.0])
        np.testing.assert_allclose(f(xs), xs, atol=0.0)

    def test_quadratic_bump_value(self):
        # eta(x) = x * (1 + (x-1)(2-x)) meets the endpoints; sampled at 17
        # uniform points the knot 1.5 is exact, so f(3) = 2 * eta(1.5) = 3.75.
        profile = EtaProfile.from_callable(2.0, lambda x: x * (1 + (x - 1) * (2 - x)))
        f = build_eta_activation(2.0, profile, signed=True)
        assert f(3.0) == 3.75

    @pytest.mark.parametrize(
        "eta_minus, signed, limits",
        [
            (None, True, [np.inf, -np.inf]),  # x -> x
            (None, False, [np.inf, np.inf]),  # x -> |x|: eta_minus defaults to eta_plus
            (EtaProfile.linear(2.0, -1.0), False, [np.inf, -np.inf]),  # x -> x
            (EtaProfile.from_samples(2.0, [[1, 1], [1.5, -1], [2, 2]]), False, [np.inf, np.nan]),
        ],
    )
    def test_infinities_map_to_the_limit_without_warnings(self, eta_minus, signed, limits):
        # the limit along each half-line exists only where its profile keeps
        # one strict sign; filterwarnings=error turns any RuntimeWarning into a failure
        f = build_eta_activation(2.0, EtaProfile.linear(2.0), eta_minus, signed=signed)
        np.testing.assert_array_equal(f(np.array([np.inf, -np.inf])), limits)
        assert f(np.inf) == np.inf

    def test_zero_is_exact_fixed_point(self):
        f = build_eta_activation(2.0, EtaProfile.linear(2.0, 0.7), signed=True)
        assert f(0.0) == 0.0

    def test_signed_rejects_negative_profile(self):
        with pytest.raises(ValueError):
            build_eta_activation(
                2.0, EtaProfile.linear(2.0), EtaProfile.linear(2.0), signed=True
            )

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_eta_activation(3.0, EtaProfile.linear(2.0))

    @pytest.mark.parametrize("b", [2.0, 1.5, 3.0])
    def test_multiplicative_identity_on_random_points(self, b):
        rng = np.random.default_rng(7)
        profile = random_eta_profile(b, rng)
        f = build_eta_activation(b, profile, random_eta_profile(b, rng))
        x = rng.uniform(-100.0, 100.0, size=1000)
        x = x[x != 0.0]
        residual = np.abs(f(b * x) - b * f(x)).max()
        assert residual <= 1e-9

    @pytest.mark.parametrize("b", [2.0, 1.5, 3.0])
    def test_continuity_at_scale_boundaries(self, b):
        # two-sided variation across b**n is bounded by 2 * b**n * L * eps
        # for the multiplicative probe b**n * (1 +- eps)
        rng = np.random.default_rng(11)
        profile = random_eta_profile(b, rng)
        f = build_eta_activation(b, profile, signed=True)
        lip = profile.lipschitz()
        eps = 1e-6
        for n in range(-8, 9):
            gap = abs(f(b**n * (1 + eps)) - f(b**n * (1 - eps)))
            assert gap <= 2.0 * b ** abs(n) * lip * eps + 1e-12

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(13)
        profile = random_eta_profile(2.0, rng)
        f = build_eta_activation(2.0, profile, signed=True)
        bound = 1e-10 * profile.max_abs()
        assert abs(f(1e-12)) <= bound
        assert abs(f(-1e-12)) <= bound


class TestFamilyMembership:
    def test_relu_is_semilinear(self):
        assert check_family_membership(relu(), ActivationFamily(FamilyKind.SEMILINEAR)).passed

    def test_tanh_is_odd_but_not_semilinear(self):
        assert check_family_membership(tanh(), ActivationFamily(FamilyKind.ODD_CONTINUOUS)).passed
        report = check_family_membership(tanh(), ActivationFamily(FamilyKind.SEMILINEAR))
        assert not report.passed
        assert report.worst_residual > 1e-2

    def test_relu_is_2_multiplicative_but_not_odd(self):
        assert check_family_membership(
            relu(), ActivationFamily(FamilyKind.B_MULTIPLICATIVE, 2.0)
        ).passed
        assert not check_family_membership(
            relu(), ActivationFamily(FamilyKind.PM_B_MULTIPLICATIVE, 2.0)
        ).passed

    def test_identity_is_linear_and_affine(self):
        assert check_family_membership(identity(), ActivationFamily(FamilyKind.LINEAR_ONLY)).passed
        assert check_family_membership(identity(), ActivationFamily(FamilyKind.AFFINE_ONLY)).passed

    def test_shifted_identity_is_affine_not_linear(self):
        shifted = custom("x+1", lambda x: x + 1.0)
        assert check_family_membership(shifted, ActivationFamily(FamilyKind.AFFINE_ONLY)).passed
        assert not check_family_membership(
            shifted, ActivationFamily(FamilyKind.LINEAR_ONLY)
        ).passed

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: np.where(x > 0, 2 * x, np.nan),
            lambda x: np.where(x > 0, np.nan, x),
            lambda x: x * 1e308 * 10,  # the fit residual is inf - inf
        ],
        ids=["nan-on-negatives", "nan-on-positives", "overflow"],
    )
    def test_nan_residual_fails_semilinear(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_family_membership(
                custom("f", fn), ActivationFamily(FamilyKind.SEMILINEAR)
            )
        assert not report.passed
        assert np.isnan(report.worst_residual)

    def test_everything_is_continuous(self):
        for f in (relu(), tanh(), identity()):
            assert check_family_membership(f, ActivationFamily(FamilyKind.CONTINUOUS)).passed

    def test_duality_roundtrip_for_constructed_activations(self):
        rng = np.random.default_rng(17)
        for b in (2.0, 3.0):
            plus, minus = random_eta_profile(b, rng), random_eta_profile(b, rng)
            two_branch = build_eta_activation(b, plus, minus)
            assert check_family_membership(
                two_branch, ActivationFamily(FamilyKind.B_MULTIPLICATIVE, b), tol=1e-9
            ).passed
            odd_branch = build_eta_activation(b, plus, signed=True)
            assert check_family_membership(
                odd_branch, ActivationFamily(FamilyKind.PM_B_MULTIPLICATIVE, b), tol=1e-9
            ).passed


class TestPointwiseEquivariance:
    def test_permutation_commutes_with_any_pointwise_map(self, p_matrix):
        report = verify_pointwise_equivariance(
            tanh(), [p_matrix], trials=200, tol=1e-10, seed=3
        )
        assert report.passed
        assert report.counterexample is None

    def test_relu_fails_on_signed_permutation(self, s_matrix):
        report = verify_pointwise_equivariance(relu(), [s_matrix], trials=200, tol=1e-8, seed=3)
        assert not report.passed
        ce = report.counterexample
        assert ce is not None and ce.residual > 1e-8
        # the -1 coefficient moves coordinate 2; the recorded vector must
        # reproduce the residual
        x = ce.x
        lhs = relu()(s_matrix @ x)
        rhs = s_matrix @ relu()(x)
        assert np.abs(lhs - rhs).max() == pytest.approx(ce.residual)

    def test_nan_residual_fails_without_warnings(self):
        # 1e308 * x overflows, so f(Mx) - M f(x) is inf - inf = NaN for relu and identity
        huge = np.array([[0.0, 1e308], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_pointwise_equivariance(relu(), [huge], trials=5, seed=0)
        assert not report.passed
        assert np.isnan(report.worst_residual) and np.isnan(report.counterexample.residual)

    def test_identity_commutes_with_anything(self, p_matrix, s_matrix, m_matrix):
        report = verify_pointwise_equivariance(
            identity(), [p_matrix, s_matrix, m_matrix], trials=50, tol=1e-12, seed=5
        )
        assert report.passed

    def test_constructed_activation_commutes_with_matching_monomials(self, z2_matrix, m_matrix):
        rng = np.random.default_rng(23)
        two_mult = build_eta_activation(
            2.0, random_eta_profile(2.0, rng), random_eta_profile(2.0, rng)
        )
        assert verify_pointwise_equivariance(
            two_mult, [z2_matrix], trials=300, tol=1e-8, seed=23
        ).passed
        signed_mult = build_eta_activation(2.0, random_eta_profile(2.0, rng), signed=True)
        assert verify_pointwise_equivariance(
            signed_mult, [m_matrix], trials=300, tol=1e-8, seed=23
        ).passed

    def test_same_seed_same_counterexample(self, s_matrix):
        a = verify_pointwise_equivariance(relu(), [s_matrix], trials=100, tol=1e-8, seed=9)
        b = verify_pointwise_equivariance(relu(), [s_matrix], trials=100, tol=1e-8, seed=9)
        assert a.counterexample.trial == b.counterexample.trial
        np.testing.assert_array_equal(a.counterexample.x, b.counterexample.x)

    def test_tanh_fails_on_scaled_swap(self, z2_matrix):
        assert not verify_pointwise_equivariance(
            tanh(), [z2_matrix], trials=100, tol=1e-8, seed=1
        ).passed


# ---------------------------------------------------------------------------
# verify: one activation call per trial against one call per vector


_VERIFY_ACTIVATIONS = {
    "relu": relu(),
    "tanh": tanh(),
    "eta-plain": build_eta_activation(
        2.0, random_eta_profile(2.0, np.random.default_rng(41)),
        random_eta_profile(2.0, np.random.default_rng(42)),
    ),
    "eta-signed": build_eta_activation(
        2.0, random_eta_profile(2.0, np.random.default_rng(43)), signed=True
    ),
}
_DENSE = np.random.default_rng(44).standard_normal((3, 3))
_VERIFY_GENERATORS = {
    # monomial: a swap scaled by 2, a +-2 cycle, and a signed and a plain 3-cycle
    "z2": [np.array([[0.0, 2.0], [0.5, 0.0]])],
    "pm2-cycle": [np.array([[0.0, -0.5, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])],
    "cycles": [np.eye(3)[[2, 0, 1]], np.eye(3)[[2, 0, 1]] * [[1.0], [1.0], [-1.0]]],
    "cycle-then-scaled": [np.eye(3)[[2, 0, 1]], np.diag([2.0, 2.0, 2.0])],
    "rot60": [np.array([[0.5, -np.sqrt(0.75)], [np.sqrt(0.75), 0.5]])],
    "dense": [np.eye(3)[[1, 2, 0]], _DENSE],
    # residuals near tol: a counterexample after some passing trials
    "near-identity-2e-9": [np.eye(3)[[1, 2, 0]], np.eye(3) + 2e-9 * _DENSE],
    "near-identity-5e-9": [np.eye(3)[[1, 2, 0]], np.eye(3) + 5e-9 * _DENSE],
    # 1e308 * x overflows: the residual is inf - inf = NaN
    "nan": [np.array([[0.0, 1e308], [1.0, 0.0]])],
}


@pytest.mark.parametrize("gens", sorted(_VERIFY_GENERATORS))
@pytest.mark.parametrize("name", sorted(_VERIFY_ACTIVATIONS))
def test_verify_matches_one_call_per_vector_with_one_call_per_trial(name, gens):
    f, mats = _VERIFY_ACTIVATIONS[name], _VERIFY_GENERATORS[gens]
    calls = []
    counted = custom(name, lambda x: calls.append(x.shape) or f(x))
    report = verify_pointwise_equivariance(counted, mats, trials=40, tol=1e-8, seed=7)
    passed, worst, ce = _oracles.verify_one_vector_at_a_time(f, mats, 40, 1e-8, 7)
    assert report.passed is passed
    assert np.float64(report.worst_residual).tobytes() == np.float64(worst).tobytes()
    if passed:
        assert report.counterexample is None
    else:
        got = report.counterexample
        assert (got.trial, got.generator) == ce[:2]
        assert got.x.tobytes() == ce[2].tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(ce[3]).tobytes()
    n = mats[0].shape[0]
    trials = 40 if passed else ce[0] + 1
    assert calls == [(1 + len(mats), n)] * trials


class TestGridAndExport:
    def test_linear_grid_straddling_zero_contains_exact_zero(self):
        grid = sample_grid(-1.0, 1.0, 10)  # even count: no natural 0.0 point
        assert 0.0 in grid.tolist()
        assert len(grid) == 10

    @pytest.mark.parametrize("lo, hi", [(1.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308)])
    def test_grid_refuses_non_finite_bounds_or_span(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            sample_grid(lo, hi, 3)

    def test_log_grid_requires_positive_bounds(self):
        with pytest.raises(ValueError):
            sample_grid(-1.0, 1.0, 5, spacing="log")
        grid = sample_grid(0.1, 10.0, 3, spacing="log")
        np.testing.assert_allclose(grid, [0.1, 1.0, 10.0], rtol=1e-12)

    def test_csv_contains_exact_zero_row(self):
        f = build_eta_activation(2.0, EtaProfile.linear(2.0), signed=True)
        text = export_activation_csv(f, sample_grid(-2.0, 2.0, 9))
        lines = text.strip().splitlines()
        assert lines[0] == "x,f_x"
        assert "0,0" in lines
        assert len(lines) == 10

    def test_csv_identity_rows(self):
        f = build_eta_activation(2.0, EtaProfile.linear(2.0), signed=True)
        text = export_activation_csv(f, np.array([-1.5, 3.0]))
        assert text.splitlines()[1:] == ["-1.5,-1.5", "3,3"]


# ---------------------------------------------------------------------------
# CSV export: the array kernel against the one-row-at-a-time oracle


def _eta(seed: int, signed: bool):
    rng = np.random.default_rng(seed)
    b = rng.uniform(1.5, 4.0)
    minus = None if signed else random_eta_profile(b, rng)
    return build_eta_activation(b, random_eta_profile(b, rng), minus, signed=signed)


SPECIAL_VALUES = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324]
SPECIALS = custom("specials", lambda x: np.resize(SPECIAL_VALUES, x.shape))
CSV_ACTIVATIONS = st.one_of(
    st.sampled_from([relu(), tanh(), identity()]),
    st.just(SPECIALS),
    st.builds(_eta, st.integers(0, 2**32 - 1), st.booleans()),
)


@st.composite
def csv_grids(draw):
    """Linear and log grids from ``sample_grid``, or any values, non-finite and -0.0 included."""
    spacing = draw(st.sampled_from(["linear", "log", "any"]))
    if spacing == "any":
        values = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(SPECIAL_VALUES))
        return draw(hnp.arrays(np.float64, st.integers(0, 40), elements=values))
    lo = draw(st.floats(-1e6, 1e6) if spacing == "linear" else st.floats(1e-6, 1e6))
    hi = lo + draw(st.floats(1e-3, 1e6))
    return sample_grid(lo, hi, draw(st.integers(1, 200)), spacing)


@settings(max_examples=200, deadline=None)
@given(CSV_ACTIVATIONS, csv_grids())
# past two blocks: a block length that is no multiple of 6 puts SPECIAL_VALUES
# out of step with the oracle unless f is called once on the whole grid
@example(SPECIALS, sample_grid(-3.0, 3.0, 2 * _CSV_BLOCK + 7))
@example(SPECIALS, sample_grid(1e-300, 1e300, 2 * _CSV_BLOCK + 1, "log"))
def test_export_activation_csv_matches_the_oracle(f, grid):
    assert export_activation_csv(f, grid) == _oracles.csv_oracle(f, grid)


def _edge_values() -> np.ndarray:
    """Values at every switch of the CSV kernel and of ``%.17g`` itself."""
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    values = [
        [0.0, -0.0, tiny, 2 * tiny, np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0),
         1e-310, huge, np.nextafter(huge, 0.0), np.inf, -np.inf, np.nan],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        2.0**49 + 0.125 + np.arange(64.0),  # exact ties at the 17th digit, odd and even
        2.0**-25 * np.arange(1.0, 64.0, 2.0),  # ties where 10**(16 - e) is inexact
        np.array([9.99999999999999e-5, 1e-4, 1.5e-5, 9.5e-5, 1.2345e16, 9.99e16, 1.2345e17]),
        np.array([99999999999999999.0, 12345678901234567.0, 1e16 + 2, 1e17 - 16]),
    ]
    values = np.concatenate(values)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("kind", ["edges", "bits"])
def test_export_activation_csv_matches_float_format(kind):
    """The array kernel against ``FLOAT_FORMAT %`` on every edge and 10**5 random bit patterns."""
    rng = np.random.default_rng(21)
    if kind == "edges":
        grid = _edge_values()
        values = grid[rng.permutation(len(grid))]
    else:
        grid, values = rng.integers(0, 2**64, (2, 50_000), dtype=np.uint64).view(np.float64)
    fixed = custom("fixed", lambda x: values)
    assert export_activation_csv(fixed, grid) == _oracles.csv_oracle(fixed, grid)


def test_export_activation_csv_memory_stays_within_three_outputs():
    f = build_eta_activation(2.0, EtaProfile.linear(2.0), signed=True)
    grid = sample_grid(-50.0, 50.0, 200_000)
    tracemalloc.start()
    try:
        text = export_activation_csv(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
