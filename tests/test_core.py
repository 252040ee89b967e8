import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import rotation, s4_at_scale, spec_of
from equichar import (
    FamilyKind,
    GroupSpec,
    MonomialForm,
    ShapeMismatchError,
    classify_group,
    close_group,
    is_unit_row,
    maximal_family,
    monomial_decompose,
)


class TestMonomialDecompose:
    def test_three_cycle_permutation(self, p_matrix):
        form = monomial_decompose(p_matrix)
        assert form.perm == (1, 2, 0)
        assert form.coeffs == (1.0, 1.0, 1.0)

    def test_identity(self):
        form = monomial_decompose(np.eye(3))
        assert form.perm == (0, 1, 2)
        assert form.coeffs == (1.0, 1.0, 1.0)

    def test_two_nonzeros_in_a_row_is_not_monomial(self):
        assert monomial_decompose(np.array([[1.0, 1.0], [0.0, 1.0]])) is None

    def test_signed_and_scaled_cycles(self, s_matrix, m_matrix):
        s_form = monomial_decompose(s_matrix)
        assert s_form.perm == (1, 2, 0)
        assert s_form.coeffs == (1.0, -1.0, 1.0)
        m_form = monomial_decompose(m_matrix)
        assert m_form.perm == (2, 0, 1)
        assert m_form.coeffs == (2.0, -0.5, 2.0)

    def test_entries_below_tolerance_count_as_zero(self):
        near_swap = np.array([[1e-12, 1.0], [1.0, 1e-12]])
        form = monomial_decompose(near_swap)
        assert form.perm == (1, 0)

    def test_rotation_is_not_monomial(self, rot60):
        assert monomial_decompose(rot60) is None

    def test_dense_roundtrip_on_examples(self, p_matrix, s_matrix, m_matrix):
        for m in (p_matrix, s_matrix, m_matrix):
            form = monomial_decompose(m)
            np.testing.assert_allclose(form.dense(), m, atol=1e-12)

    @given(
        perm=st.permutations(range(4)),
        mags=st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=4, max_size=4),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
    )
    def test_dense_roundtrip_random(self, perm, mags, signs):
        coeffs = tuple(s * m for s, m in zip(signs, mags))
        form = MonomialForm(tuple(perm), coeffs)
        recovered = monomial_decompose(form.dense())
        assert recovered == form

    def test_invalid_forms_rejected(self):
        with pytest.raises(ValueError):
            MonomialForm((0, 0), (1.0, 1.0))
        with pytest.raises(ValueError):
            MonomialForm((0, 1), (1.0, 0.0))


class TestGroupSpec:
    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            GroupSpec("bad", 2, (np.ones((2, 3)),))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ShapeMismatchError):
            GroupSpec("bad", 3, (np.eye(2),))

    def test_rejects_singular_generator(self):
        with pytest.raises(ValueError):
            GroupSpec("bad", 2, (np.zeros((2, 2)),))

    @pytest.mark.parametrize(
        "mat, b",
        [
            (0.5 * np.roll(np.eye(40), 1, axis=0), 2.0),
            (0.1 * np.eye(10), 10.0),
            (0.5 * np.eye(40)[np.random.default_rng(0).permutation(40)], 2.0),
        ],
        ids=["half-40-cycle", "tenth-identity-10", "half-permutation-40"],
    )
    def test_accepts_scaled_monomials_with_tiny_determinant(self, mat, b):
        # |det| is 0.5**40 or 0.1**10, far below DEFAULT_TOL, yet the matrix
        # is perfectly conditioned.
        family = maximal_family(classify_group(GroupSpec("scaled", mat.shape[0], (mat,))))
        assert family.kind == FamilyKind.B_MULTIPLICATIVE
        assert family.b == pytest.approx(b)

    @pytest.mark.parametrize("mat", [np.array([[1e-10]]), 1e-10 * np.eye(3)], ids=["1x1", "3x3"])
    def test_rejects_matrices_below_the_tolerance(self, mat):
        # monomial_decompose would read every entry as zero.
        with pytest.raises(ValueError, match="not invertible"):
            GroupSpec("tiny", mat.shape[0], (mat,))

    def test_accepts_badly_scaled_invertible_swap(self):
        # det -1 and order 2, although the coefficients span ten orders of magnitude.
        mat = np.array([[0.0, 1e5], [1e-5, 0.0]])
        family = maximal_family(classify_group(GroupSpec("swap", 2, (mat,))))
        assert family.kind == FamilyKind.B_MULTIPLICATIVE
        assert family.b == pytest.approx(1e5)

    def test_rejects_row_sums_past_the_float_range(self):
        # its row subset sums would be inf, and their logs break the real GCD
        with pytest.raises(ValueError, match="float range"):
            GroupSpec("huge", 2, (np.array([[1e308, 1e308], [0.0, 1.0]]),))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GroupSpec("bad", 2, (np.array([[np.nan, 0.0], [0.0, 1.0]]),))


def _as_key_set(mats, decimals=9):
    return {tuple(np.round(m, decimals).ravel()) for m in mats}


class TestCloseGroup:
    def test_swap_generates_two_elements(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = close_group(spec_of("swap", swap))
        assert result.complete
        assert len(result) == 2

    def test_s3_from_transposition_and_cycle(self):
        # Oracle: the six permutation matrices of S3, listed by hand.
        t = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        c = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        expected = [
            np.eye(3),
            t,
            c,
            c @ c,
            t @ c,
            t @ c @ c,
        ]
        result = close_group(spec_of("s3", t, c))
        assert result.complete
        assert len(result) == 6
        assert _as_key_set(result.elements) == _as_key_set(expected)

    def test_scaled_cycle_generates_infinite_group(self, m_matrix):
        # m^3 = -2I, so powers of m scale without bound.
        np.testing.assert_allclose(
            np.linalg.matrix_power(m_matrix, 3), -2.0 * np.eye(3), atol=1e-12
        )
        result = close_group(spec_of("m", m_matrix), cap=100)
        assert not result.complete
        assert len(result) == 100

    def test_contains_identity_and_is_closed(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        flip = np.diag([-1.0, 1.0])
        result = close_group(spec_of("signed-swap", swap, flip))
        assert result.complete
        keys = _as_key_set(result.elements)
        assert tuple(np.eye(2).ravel()) in keys
        for a in result.elements:
            assert _as_key_set([np.linalg.inv(a)]) <= keys
            for b in result.elements:
                assert _as_key_set([a @ b]) <= keys

    def test_idempotent(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        flip = np.diag([-1.0, 1.0])
        first = close_group(spec_of("g", swap, flip))
        second = close_group(spec_of("g2", *first.elements))
        assert _as_key_set(first.elements) == _as_key_set(second.elements)

    def test_monomial_generators_give_monomial_closure(self, s_matrix):
        result = close_group(spec_of("s", s_matrix))
        assert result.complete
        assert all(monomial_decompose(m) is not None for m in result.elements)

    def test_deterministic_order(self, s_matrix):
        a = close_group(spec_of("s", s_matrix))
        b = close_group(spec_of("s", s_matrix))
        for x, y in zip(a.elements, b.elements):
            np.testing.assert_array_equal(x, y)


def _closure_corpus():
    """Seeded generator lists with caps: conjugated S_k, rational and irrational rotations.

    Besides these: S_4 conjugated at matrix scales 1e2 to 3e3, where near-
    duplicates survive the tol test (67 elements at 3e3), a generator whose
    powers overflow to inf and then NaN, an irrational rotation run to a cap
    of 2,000, and two generators within tol of each other whose entries near
    1e8 make their projections round apart by more than tol*|r|_1.
    """
    rng = np.random.default_rng(8)
    corpus = []
    for k in (2, 3, 4, 5):
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        perms = [np.eye(k)[:, [1, 0, *range(2, k)]], np.eye(k)[:, np.roll(np.arange(k), 1)]]
        corpus += [([q @ p @ q.T for p in perms], cap) for cap in (7, 200)]
    for angle in (2 * np.pi / 5, 2 * np.pi / 12, 1.0, rng.uniform(0.5, 2.5)):
        a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        corpus += [([a @ rotation(angle) @ np.linalg.inv(a)], cap) for cap in (7, 50)]
    corpus += [(s4_at_scale(scale), 10_000) for scale in (1e2, 1e3, 3e3)]
    corpus.append(([3.0 * rotation(1.0)], 1000))
    a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    corpus.append(([a @ rotation(rng.uniform(0.5, 2.5)) @ np.linalg.inv(a)], 2000))
    big = np.array([[1e8, 1e8], [1e8, 0.4265]])
    corpus.append(([big, big + np.diag([0.0, 0.9e-9])], 3))
    return corpus


@pytest.mark.parametrize("case", range(len(_closure_corpus())))
def test_close_group_matches_reference_bfs(case):
    gens, cap = _closure_corpus()[case]
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing generator
        result = close_group(spec_of("corpus", *gens), cap=cap)
        elements, complete = _oracles.bfs_matrix_closure(gens, gens[0].shape[0], cap, 1e-9)
    assert result.complete == complete
    assert len(result) == len(elements)
    for got, want in zip(result.elements, elements):
        np.testing.assert_array_equal(got, want)


class TestIsUnitRow:
    def test_permutation_matrices(self, p_matrix):
        assert is_unit_row(p_matrix)
        assert is_unit_row(np.eye(4))

    def test_rotation_by_60_degrees(self, rot60):
        # first row sums to cos(60) - sin(60), about -0.366
        assert abs(rot60[0].sum() - (0.5 - np.sqrt(3) / 2)) < 1e-12
        assert not is_unit_row(rot60)

    def test_stochastic_matrix(self):
        assert is_unit_row(np.array([[0.5, 0.5], [0.25, 0.75]]))

    @settings(max_examples=30)
    @given(data=st.data())
    def test_products_of_unit_row_matrices_are_unit_row(self, data):
        entries = data.draw(
            st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=8, max_size=8)
        )
        rows = np.array(entries).reshape(2, 2, 2)
        # force each row to sum to one by fixing the last column
        mats = []
        for m in rows:
            m = m.copy()
            m[:, -1] = 1.0 - m[:, :-1].sum(axis=1)
            mats.append(m)
        assert is_unit_row(mats[0] @ mats[1], tol=1e-9)
