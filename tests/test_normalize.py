import numpy as np
import pytest

import _oracles
from conftest import spec_of
from equichar import (
    FamilyKind,
    GroupSpec,
    NotMonomialError,
    UnboundedGroupError,
    classify_group,
    close_group,
    maximal_family,
    monomial_decompose,
    positive_scaling,
    signed_normalize,
)


def _random_signed_monomial(rng, n):
    perm = rng.permutation(n)
    mags = rng.uniform(0.5, 2.0, n)
    signs = rng.choice([-1.0, 1.0], n)
    mat = np.zeros((n, n))
    for i in range(n):
        mat[perm[i], i] = signs[i] * mags[i]
    return mat


def _random_scalable_group(rng, n, count):
    """Signed permutation generators conjugated by one random positive diagonal."""
    d = rng.uniform(0.25, 4.0, n)
    gens = []
    for _ in range(count):
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], n)
        g = np.zeros((n, n))
        for i in range(n):
            g[perm[i], i] = signs[i]
        gens.append(np.diag(1.0 / d) @ g @ np.diag(d))
    return gens


class TestPositiveScaling:
    def test_scaled_swap_normalizes_to_swap(self, z2_matrix):
        result = positive_scaling(spec_of("z2", z2_matrix))
        np.testing.assert_allclose(result.d, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            result.normalized_generators[0], [[0.0, 1.0], [1.0, 0.0]], atol=1e-12
        )

    def test_permutation_generators_are_untouched(self, p_matrix):
        result = positive_scaling(spec_of("p", p_matrix))
        np.testing.assert_allclose(result.d, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(result.normalized_generators[0], p_matrix, atol=1e-12)

    def test_diagonal_self_loop_is_unbounded(self):
        with pytest.raises(UnboundedGroupError) as exc_info:
            positive_scaling(spec_of("d", np.diag([2.0, 0.5])))
        err = exc_info.value
        assert "self-loop at index 1" in err.description
        assert err.log_weight == pytest.approx(np.log(2.0))

    def test_scaled_cycle_is_unbounded(self, m_matrix):
        # magnitude product around the 3-cycle is |2 * (-1/2) * 2| = 2 != 1
        with pytest.raises(UnboundedGroupError):
            positive_scaling(spec_of("m", m_matrix))

    def test_one_dimensional_doubling_is_unbounded(self):
        with pytest.raises(UnboundedGroupError):
            positive_scaling(spec_of("double", np.array([[2.0]])))

    def test_rejects_non_monomial(self, rot60):
        with pytest.raises(NotMonomialError):
            positive_scaling(spec_of("c6", rot60))

    def test_disconnected_components_scale_independently(self):
        block = np.zeros((3, 3))
        block[1, 0], block[0, 1] = 0.5, 2.0  # scaled swap on {0, 1}
        block[2, 2] = 1.0  # fixed point on {2}
        result = positive_scaling(spec_of("block", block))
        assert result.d[0] == pytest.approx(1.0)
        assert result.d[2] == pytest.approx(1.0)  # own component, own gauge


class TestSignedNormalize:
    def test_signed_permutation_unchanged(self, s_matrix):
        result = signed_normalize(spec_of("s", s_matrix))
        np.testing.assert_allclose(result.d, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(result.normalized_generators[0], s_matrix, atol=1e-12)

    def test_sign_carried_through_scaling(self):
        gen = np.array([[0.0, -2.0], [0.5, 0.0]])
        result = signed_normalize(spec_of("neg", gen))
        np.testing.assert_allclose(result.d, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            result.normalized_generators[0], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12
        )

    def test_scaled_cycle_still_unbounded(self, m_matrix):
        with pytest.raises(UnboundedGroupError):
            signed_normalize(spec_of("m", m_matrix))

    def test_invertible_non_monomial_is_not_monomial(self):
        # |g| = [[1, 1], [1, 1]] is singular, but only g itself is the input.
        with pytest.raises(NotMonomialError):
            signed_normalize(spec_of("h", np.array([[1.0, 1.0], [1.0, -1.0]])))

    def test_soundness_on_random_scalable_groups(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            gens = _random_scalable_group(rng, n, int(rng.integers(1, 4)))
            spec = spec_of(f"rand{trial}", *gens)
            result = signed_normalize(spec)
            assert np.all(result.d > 0)
            b = np.diag(result.d)
            b_inv = np.diag(1.0 / result.d)
            for original, normalized in zip(spec.generators, result.normalized_generators):
                form = monomial_decompose(normalized)
                assert form is not None
                assert all(abs(abs(c) - 1.0) <= 1e-9 for c in form.coeffs)
                np.testing.assert_allclose(b_inv @ normalized @ b, original, atol=1e-9)

    def test_classification_upgrades_after_normalization(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            gens = _random_scalable_group(rng, n, 2)
            result = signed_normalize(spec_of(f"up{trial}", *gens))
            family = maximal_family(
                classify_group(spec_of(f"up{trial}n", *result.normalized_generators))
            )
            assert family.kind in (FamilyKind.CONTINUOUS, FamilyKind.ODD_CONTINUOUS)

    def test_gauge_invariance_of_conjugates(self, z2_matrix):
        result = signed_normalize(spec_of("z2", z2_matrix))
        scaled = 3.0 * result.d  # any global positive rescaling of d
        conj = (scaled[:, None] * z2_matrix) / scaled[None, :]
        np.testing.assert_allclose(conj, result.normalized_generators[0], atol=1e-12)


class TestBoundednessCrossCheck:
    """Scaling succeeds exactly on the generator sets whose products stay bounded."""

    def test_bounded_groups_scale(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            gens = _random_scalable_group(rng, n, 2)
            closure = close_group(spec_of(f"b{trial}", *gens), cap=10_000)
            assert closure.complete
            assert max(np.abs(m).max() for m in closure.elements) < 1e3
            signed_normalize(spec_of(f"b{trial}x", *gens))  # must not raise

    @pytest.mark.parametrize(
        "mats",
        [
            [np.diag([2.0, 0.5])],
            [np.array([[0.0, -0.5, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])],
            [np.array([[2.0]])],
        ],
        ids=["diag", "scaled-cycle", "doubling"],
    )
    def test_unbounded_groups_grow_and_fail(self, mats):
        growth = _oracles.max_entry_growth([np.abs(m) for m in mats], steps=40)
        assert growth[-1] > 1e3  # the product walk escapes any bound
        with pytest.raises(UnboundedGroupError):
            signed_normalize(spec_of("grow", *mats))


def _scaling_outcome(scale, spec):
    """What ``scale(spec)`` gives, with every float as its bits."""
    try:
        result = scale(spec)
    except UnboundedGroupError as err:
        return ("unbounded", err.description, err.generator, err.source, err.target,
                float(err.log_weight).hex(), float(err.mismatch).hex())
    except NotMonomialError as err:
        return ("not monomial", str(err))
    return ("scaled", result.d.tobytes(), [g.tobytes() for g in result.normalized_generators])


def _random_monomial_list(rng, n, count):
    """Signed permutations of blocks of indices (so several components, and fixed points
    as self-loops) under one random positive diagonal, with identities and repeats; in
    some lists one coefficient is scaled by a factor from 1 + 1e-12 to 3."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 3))),
                              replace=False)) if n > 1 else []
    blocks = np.split(np.arange(n), cuts)
    d = rng.uniform(0.25, 4.0, n)
    gens = []
    for _ in range(count):
        roll = rng.random()
        if gens and roll < 0.15:
            gens.append(gens[int(rng.integers(len(gens)))].copy())
        elif roll < 0.25:
            gens.append(np.eye(n))
        else:
            g = np.zeros((n, n))
            perm = np.concatenate([rng.permutation(b) for b in blocks])
            g[perm, np.arange(n)] = rng.choice([-1.0, 1.0], n)
            gens.append(np.diag(1.0 / d) @ g @ np.diag(d))
    if gens and rng.random() < 0.4:
        g = gens[int(rng.integers(len(gens)))]
        i = int(rng.integers(n))
        g[np.argmax(np.abs(g[:, i])), i] *= 10.0 ** rng.uniform(-12, np.log10(2.0)) + 1.0
    return gens


def test_scaling_matches_the_edge_list_walk_bitwise():
    rng = np.random.default_rng(2024)
    kinds = set()
    for trial in range(240):
        n, count = int(rng.integers(1, 13)), int(rng.integers(0, 5))
        spec = GroupSpec(f"t{trial}", n, tuple(_random_monomial_list(rng, n, count)))
        expected = _scaling_outcome(lambda s: _oracles.positive_scaling_by_edges(s, 1e-9), spec)
        assert _scaling_outcome(positive_scaling, spec) == expected, trial
        kinds.add(expected[0])
    assert kinds == {"scaled", "unbounded"}
