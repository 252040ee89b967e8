import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
