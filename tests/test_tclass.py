import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import rotation, spec_of
from equichar import (
    ActivationFamily,
    DimensionTooLargeError,
    FamilyKind,
    GroupClassification,
    SubgroupClass,
    SubgroupKind,
    TGenerators,
    classify_group,
    classify_group_detailed,
    classify_subgroup,
    close_group,
    family_contains,
    maximal_family,
    maximal_group_label,
    subset_sum_generators,
    tclass,
)

ALL_LABELS = (
    ActivationFamily(FamilyKind.CONTINUOUS),
    ActivationFamily(FamilyKind.ODD_CONTINUOUS),
    ActivationFamily(FamilyKind.SEMILINEAR),
    ActivationFamily(FamilyKind.B_MULTIPLICATIVE, 2.0),
    ActivationFamily(FamilyKind.PM_B_MULTIPLICATIVE, 2.0),
    ActivationFamily(FamilyKind.AFFINE_ONLY),
    ActivationFamily(FamilyKind.LINEAR_ONLY),
)


class TestSubsetSumGenerators:
    def test_swap_matrix(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert subset_sum_generators([swap]).values == (1.0,)

    def test_scaled_swap(self, z2_matrix):
        assert subset_sum_generators([z2_matrix]).values == (0.5, 2.0)

    def test_signed_scaled_cycle(self, m_matrix):
        assert subset_sum_generators([m_matrix]).values == (-0.5, 2.0)

    def test_non_monomial_upper_triangular(self):
        mat = np.array([[1.0, 1.0], [0.0, 1.0]])
        got = subset_sum_generators([mat])
        assert got.values == (1.0, 2.0)
        # cross-check against direct enumeration of all row subsets
        assert set(got.values) == _oracles.row_subset_sums(mat, 1e-9)

    def test_non_monomial_rotation_matches_oracle(self, rot60):
        got = sorted(subset_sum_generators([rot60]).values)
        expected = sorted(_oracles.row_subset_sums(rot60, 1e-9))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_cap_for_non_monomial(self):
        big = np.eye(21)
        big[0, 1] = 1.0
        with pytest.raises(DimensionTooLargeError):
            subset_sum_generators([big])

    def test_values_are_deduplicated_and_sorted(self, p_matrix):
        assert subset_sum_generators([p_matrix, np.eye(3)]).values == (1.0,)


class TestClassifySubgroup:
    def test_trivial(self):
        assert classify_subgroup(TGenerators((1.0,))).kind is SubgroupKind.TRIVIAL

    def test_plus_minus_one(self):
        assert classify_subgroup(TGenerators((-1.0,))).kind is SubgroupKind.PLUS_MINUS_ONE
        assert classify_subgroup(TGenerators((1.0, -1.0))).kind is SubgroupKind.PLUS_MINUS_ONE

    def test_powers_of_two(self):
        got = classify_subgroup(TGenerators((2.0, 0.5)))
        assert got.kind is SubgroupKind.POWERS_OF_B
        assert got.b == pytest.approx(2.0, abs=1e-12)

    def test_signed_powers_of_two(self):
        got = classify_subgroup(TGenerators((2.0, -0.5)))
        assert got.kind is SubgroupKind.SIGNED_POWERS_OF_B
        assert got.b == pytest.approx(2.0, abs=1e-12)

    def test_two_and_three_are_dense(self):
        # log 2 / log 3 is irrational, so <2, 3> is dense in the positive reals
        assert classify_subgroup(TGenerators((2.0, 3.0))).kind is SubgroupKind.DENSE_POSITIVE

    def test_dense_with_negatives(self):
        assert classify_subgroup(TGenerators((-2.0, 3.0))).kind is SubgroupKind.DENSE

    def test_gcd_floor_holds_below_machine_epsilon(self):
        # g = 1.1e-16 clears 1000 * 1e-20 but exp(g) == 1.0: no base can be named
        got = classify_subgroup(TGenerators((0.9999999999999999,)), tol=1e-20)
        assert got.kind is SubgroupKind.DENSE_POSITIVE

    def test_iteration_budget_exhaustion_falls_back_to_dense(self):
        got = classify_subgroup(TGenerators((2.0, 3.0)), max_iter=1)
        assert got.kind is SubgroupKind.DENSE_POSITIVE

    @pytest.mark.parametrize("b", [2.0, 3.0, 10.0])
    def test_scale_consistency_on_powers(self, b):
        got = classify_subgroup(TGenerators((b, b * b, 1.0 / b)))
        assert got.kind is SubgroupKind.POWERS_OF_B
        assert got.b == pytest.approx(b, rel=1e-12)

    @settings(max_examples=50)
    @given(
        b=st.floats(min_value=1.2, max_value=8.0),
        exponents=st.lists(
            st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0),
            min_size=1,
            max_size=4,
        ),
    )
    def test_power_sets_classify_to_their_base(self, b, exponents):
        values = tuple(b**e for e in exponents)
        got = classify_subgroup(TGenerators(values))
        assert got.kind is SubgroupKind.POWERS_OF_B
        # the recovered base is b**g for g = gcd of the exponents
        g = np.gcd.reduce([abs(e) for e in exponents])
        assert got.b == pytest.approx(b**g, rel=1e-7)


class TestClassifyGroup:
    def test_permutation_cycle(self, p_matrix):
        c = classify_group(spec_of("p", p_matrix))
        assert (c.monomial, c.non_negative, c.unit_row) == (True, True, True)
        assert c.tclass.kind is SubgroupKind.TRIVIAL

    def test_signed_permutation(self, s_matrix):
        c = classify_group(spec_of("s", s_matrix))
        assert c.monomial and not c.non_negative
        assert c.tclass.kind is SubgroupKind.PLUS_MINUS_ONE

    def test_rotation_is_not_monomial(self, rot60):
        c = classify_group(spec_of("c6", rot60))
        assert not c.monomial and not c.unit_row and not c.non_negative
        assert c.tclass.kind is SubgroupKind.DENSE

    def test_non_monomial_finite_group_uses_closure(self, rot60):
        _, notes = classify_group_detailed(spec_of("c6", rot60))
        assert notes == []  # closure of an order-6 group stabilizes

    def test_non_monomial_incomplete_closure_notes_approximation(self):
        irrational_rotation = spec_of(
            "irr", np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        )
        _, notes = classify_group_detailed(irrational_rotation, cap=50)
        assert any("generators only" in n for n in notes)

    def test_trivial_group_from_no_generators(self):
        from equichar import GroupSpec

        c = classify_group(GroupSpec("trivial", 3, ()))
        assert maximal_family(c).kind is FamilyKind.CONTINUOUS

    def test_closure_invariance_for_monomial_generators(self, s_matrix, z2_matrix):
        for spec in (spec_of("s", s_matrix), spec_of("z2", z2_matrix)):
            closure = close_group(spec)
            assert closure.complete
            from_gens = classify_subgroup(subset_sum_generators(spec.generators))
            from_closure = classify_subgroup(subset_sum_generators(closure.elements))
            assert from_gens.kind == from_closure.kind
            if from_gens.b is not None:
                assert from_gens.b == pytest.approx(from_closure.b, rel=1e-9)


class TestMaximalFamily:
    def test_examples(self, p_matrix, s_matrix, m_matrix, z2_matrix, rot60):
        cases = [
            (spec_of("p", p_matrix), FamilyKind.CONTINUOUS, None),
            (spec_of("s", s_matrix), FamilyKind.ODD_CONTINUOUS, None),
            (spec_of("m", m_matrix), FamilyKind.PM_B_MULTIPLICATIVE, 2.0),
            (spec_of("z2", z2_matrix), FamilyKind.B_MULTIPLICATIVE, 2.0),
            (spec_of("c6", rot60), FamilyKind.LINEAR_ONLY, None),
        ]
        for spec, kind, b in cases:
            fam = maximal_family(classify_group(spec))
            assert fam.kind is kind
            if b is not None:
                assert fam.b == pytest.approx(b, abs=1e-12)

    def test_semilinear_for_dense_positive_monomial(self, z2_matrix):
        c = classify_group(spec_of("dense-pos", z2_matrix, 3.0 * np.eye(2)))
        assert c.tclass.kind is SubgroupKind.DENSE_POSITIVE
        assert maximal_family(c).kind is FamilyKind.SEMILINEAR

    def test_unit_row_non_monomial_is_affine_only(self):
        c = classify_group(spec_of("stoch", np.array([[0.5, 0.5], [0.25, 0.75]])))
        assert not c.monomial and c.unit_row
        assert maximal_family(c).kind is FamilyKind.AFFINE_ONLY

    def test_monomial_with_dense_signed_scalars_is_linear_only(self):
        c = classify_group(spec_of("dense-mono", np.diag([-2.0, 1.0]), np.diag([3.0, 1.0])))
        assert c.monomial and c.tclass.kind is SubgroupKind.DENSE
        assert maximal_family(c).kind is FamilyKind.LINEAR_ONLY


# (monomial, non_negative, subgroup kind) -> maximal family for unit_row False, True
EXPECTED_FAMILY = {
    (True, True, "Trivial"): ("Continuous", "Continuous"),
    (True, False, "Trivial"): ("Continuous", "Continuous"),
    (True, True, "PlusMinusOne"): ("OddContinuous", "OddContinuous"),
    (True, False, "PlusMinusOne"): ("OddContinuous", "OddContinuous"),
    (True, True, "PowersOfB"): ("BMultiplicative", "BMultiplicative"),
    (True, False, "PowersOfB"): ("BMultiplicative", "BMultiplicative"),
    (True, True, "SignedPowersOfB"): ("PMBMultiplicative", "PMBMultiplicative"),
    (True, False, "SignedPowersOfB"): ("PMBMultiplicative", "PMBMultiplicative"),
    (True, True, "DensePositive"): ("Semilinear", "Semilinear"),
    (True, False, "DensePositive"): ("LinearOnly", "AffineOnly"),
    (True, True, "Dense"): ("LinearOnly", "AffineOnly"),
    (True, False, "Dense"): ("LinearOnly", "AffineOnly"),
    (False, False, "Trivial"): ("LinearOnly", "AffineOnly"),
    (False, False, "PlusMinusOne"): ("LinearOnly", "AffineOnly"),
    (False, False, "PowersOfB"): ("LinearOnly", "AffineOnly"),
    (False, False, "SignedPowersOfB"): ("LinearOnly", "AffineOnly"),
    (False, False, "DensePositive"): ("LinearOnly", "AffineOnly"),
    (False, False, "Dense"): ("LinearOnly", "AffineOnly"),
}
# the theorem's table: family -> (monomial, non_negative, unit_row, subgroup kind)
EXPECTED_GROUP = {
    "Continuous": (True, True, True, "Trivial"),
    "OddContinuous": (True, False, False, "PlusMinusOne"),
    "Semilinear": (True, True, False, "DensePositive"),
    "BMultiplicative": (True, True, False, "PowersOfB"),
    "PMBMultiplicative": (True, False, False, "SignedPowersOfB"),
    "AffineOnly": (False, False, True, "Dense"),
    "LinearOnly": (False, False, False, "Dense"),
}
WITH_BASE = ("PowersOfB", "SignedPowersOfB", "BMultiplicative", "PMBMultiplicative")


@pytest.mark.parametrize("key", sorted(EXPECTED_FAMILY), ids=str)
@pytest.mark.parametrize("unit_row", [False, True])
def test_maximal_family_table(key, unit_row):
    monomial, non_negative, kind = key
    expected = EXPECTED_FAMILY[key][unit_row]
    for b in (2.0, 3.5):
        tclass_ = SubgroupClass(SubgroupKind(kind), b if kind in WITH_BASE else None)
        c = GroupClassification(monomial, non_negative, unit_row, tclass_)
        family_b = b if expected in WITH_BASE else None
        assert maximal_family(c) == ActivationFamily(FamilyKind(expected), family_b)


@pytest.mark.parametrize("family", sorted(EXPECTED_GROUP))
def test_maximal_group_label_table(family):
    b = 2.5 if family in WITH_BASE else None
    c = maximal_group_label(ActivationFamily(FamilyKind(family), b), 3)
    monomial, non_negative, unit_row, kind = EXPECTED_GROUP[family]
    tclass_ = SubgroupClass(SubgroupKind(kind), b)
    assert c == GroupClassification(monomial, non_negative, unit_row, tclass_)


class TestExactInvariants:
    @pytest.mark.parametrize(
        "make",
        [
            lambda b: SubgroupClass(SubgroupKind.POWERS_OF_B, b),
            lambda b: SubgroupClass(SubgroupKind.SIGNED_POWERS_OF_B, b),
            lambda b: ActivationFamily(FamilyKind.B_MULTIPLICATIVE, b),
            lambda b: ActivationFamily(FamilyKind.PM_B_MULTIPLICATIVE, b),
        ],
        ids=["PowersOfB", "SignedPowersOfB", "BMultiplicative", "PMBMultiplicative"],
    )
    def test_base_must_exceed_one_exactly(self, make):
        assert make(1.0 + 1e-12).b == 1.0 + 1e-12
        for bad in (1.0, 0.5, float("nan"), None):
            with pytest.raises(ValueError, match="requires a base b > 1"):
                make(bad)

    def test_generators_refuse_only_exact_zero(self):
        assert TGenerators((1e-12, -1e-300)).values == (1e-12, -1e-300)
        with pytest.raises(ValueError, match="nonzero"):
            TGenerators((2.0, 0.0))


_SKEW = np.array([[1.0, 0.3], [0.2, 1.0]])
OFF_UNIT_CIRCLE = {
    # powers converge to 0 within tol, so a closure would stop at a "finite" group
    "half-rot60": 0.5 * rotation(np.pi / 3),
    "half-rot1": 0.5 * rotation(1.0),
    # det 0.45 but eigenvalue 1.5: a closure would run to the cap and overflow
    "mixed": _SKEW @ np.diag([1.5, 0.3]) @ np.linalg.inv(_SKEW),
}


@pytest.mark.parametrize("name", sorted(OFF_UNIT_CIRCLE))
def test_generator_off_unit_circle_gets_note_without_closure(name, monkeypatch):
    monkeypatch.setattr(tclass, "close_group", lambda *a: pytest.fail("closure was run"))
    _, notes = classify_group_detailed(spec_of(name, OFF_UNIT_CIRCLE[name]))
    assert len(notes) == 1 and "generators only" in notes[0]


class TestMaximalGroupLabel:
    def test_continuous_maps_to_permutations(self):
        c = maximal_group_label(ActivationFamily(FamilyKind.CONTINUOUS), 3)
        assert (c.monomial, c.non_negative, c.unit_row) == (True, True, True)
        assert c.tclass.kind is SubgroupKind.TRIVIAL

    def test_odd_maps_to_signed_permutations(self):
        c = maximal_group_label(ActivationFamily(FamilyKind.ODD_CONTINUOUS), 2)
        assert c.monomial and not c.non_negative and not c.unit_row
        assert c.tclass.kind is SubgroupKind.PLUS_MINUS_ONE

    def test_b_multiplicative_maps_to_b_monomial(self):
        c = maximal_group_label(ActivationFamily(FamilyKind.B_MULTIPLICATIVE, 2.0), 2)
        assert c.monomial and c.non_negative
        assert c.tclass == SubgroupClass(SubgroupKind.POWERS_OF_B, 2.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            maximal_group_label(ActivationFamily(FamilyKind.CONTINUOUS), 0)

    @pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.kind.value)
    def test_stabilization_fixed_point(self, label):
        assert maximal_family(maximal_group_label(label, 4)) == label

    @settings(max_examples=100)
    @given(
        monomial=st.booleans(),
        non_negative=st.booleans(),
        unit_row=st.booleans(),
        kind=st.sampled_from(list(SubgroupKind)),
        b=st.floats(min_value=1.5, max_value=9.0),
    )
    def test_stabilization_from_arbitrary_classifications(
        self, monomial, non_negative, unit_row, kind, b
    ):
        base = b if kind in (SubgroupKind.POWERS_OF_B, SubgroupKind.SIGNED_POWERS_OF_B) else None
        c = GroupClassification(
            monomial, non_negative and monomial, unit_row, SubgroupClass(kind, base)
        )
        once = maximal_family(c)
        assert maximal_family(maximal_group_label(once, 3)) == once


class TestFamilyContainment:
    def test_frozen_ordering_table(self):
        cont = ActivationFamily(FamilyKind.CONTINUOUS)
        odd = ActivationFamily(FamilyKind.ODD_CONTINUOUS)
        semi = ActivationFamily(FamilyKind.SEMILINEAR)
        b2 = ActivationFamily(FamilyKind.B_MULTIPLICATIVE, 2.0)
        b4 = ActivationFamily(FamilyKind.B_MULTIPLICATIVE, 4.0)
        pm2 = ActivationFamily(FamilyKind.PM_B_MULTIPLICATIVE, 2.0)
        aff = ActivationFamily(FamilyKind.AFFINE_ONLY)
        lin = ActivationFamily(FamilyKind.LINEAR_ONLY)

        # continuous functions contain every family
        for inner in (cont, odd, semi, b2, pm2, aff, lin):
            assert family_contains(cont, inner)
        # odd continuous functions contain the +-b-multiplicative ones
        assert family_contains(odd, pm2)
        assert not family_contains(odd, semi)
        assert not family_contains(odd, aff)
        # every b-multiplicative family contains the semilinear functions
        assert family_contains(b2, semi)
        assert family_contains(b4, semi)
        # fewer constraints = larger family: the b^2 family contains the b family
        assert family_contains(b4, b2)
        assert not family_contains(b2, b4)
        # +-b-multiplicative sits inside b-multiplicative, not conversely
        assert family_contains(b2, pm2)
        assert not family_contains(pm2, b2)
        assert not family_contains(pm2, semi)
        # degenerate families
        assert family_contains(aff, lin)
        assert not family_contains(aff, semi)
        for outer in (odd, semi, b2, pm2, aff, lin):
            assert family_contains(outer, lin)
            assert not family_contains(outer, cont)

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivationFamily(FamilyKind.B_MULTIPLICATIVE)  # base required
        with pytest.raises(ValueError):
            ActivationFamily(FamilyKind.CONTINUOUS, 2.0)  # base forbidden
        with pytest.raises(ValueError):
            SubgroupClass(SubgroupKind.POWERS_OF_B, 1.0)
        with pytest.raises(ValueError):
            GroupClassification(False, True, False, SubgroupClass(SubgroupKind.DENSE))
