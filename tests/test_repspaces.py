import warnings

import numpy as np
import pytest

import _oracles
from equichar import (
    Activation,
    CountMismatchError,
    GeneratorCountMismatchError,
    PermAction,
    ShapeMismatchError,
    SizeExceededError,
    build_affine_layer,
    equivariant_basis,
    identity,
    invariant_basis,
    is_trivial_rep,
    orbits,
    perm_matrix,
    relu,
    tanh,
    tensor_action,
    validate_network,
)
from equichar.catalog import cyclic_action_generators, symmetric_action_generators
from equichar.repspaces import MAX_BASIS_PAIRS, _coordinate_arrays

S3_GENS = ((1, 0, 2), (1, 2, 0))
S4_GENS = ((1, 0, 2, 3), (1, 2, 3, 0))
S5_GENS = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))


def s_n(n):
    gens = {3: S3_GENS, 4: S4_GENS, 5: S5_GENS}[n]
    return PermAction(n, gens, label=f"sym{n}")


class TestPermAction:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            PermAction(3, ((0, 0, 2),))

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            PermAction(0, ())

    @pytest.mark.parametrize(
        "generators",
        [
            ((True, False),),
            ((True, 0),),
            ((1.0, 0.0),),
            ((1, 0), (0,)),
            ((0, 1, 2),),
            (("1", "0"),),
        ],
        ids=["bool", "bool-int", "float", "ragged", "too-long", "str"],
    )
    def test_rejects_non_integer_or_misshapen_images(self, generators):
        with pytest.raises(ValueError):
            PermAction(2, generators)

    def test_stores_one_read_only_image_array(self):
        action = PermAction(3, [[1, 0, 2], (1, 2, 0)])
        assert action.images.shape == (2, 3)
        assert np.issubdtype(action.images.dtype, np.integer)
        assert not action.images.flags.writeable
        assert action.size == 3
        assert action.generators == S3_GENS
        assert PermAction(4, ()).images.shape == (0, 4)

    def test_equality_compares_images_and_label(self):
        action = PermAction(2, ((1, 0),))
        assert action == PermAction(2, [[1, 0]])
        assert action != PermAction(2, ((1, 0),), label="swap")
        assert action != PermAction(2, ((0, 1),))
        assert action != PermAction(3, ())
        assert PermAction(3, ()) != PermAction(4, ())
        with pytest.raises(TypeError):
            hash(action)


class TestOrbits:
    def test_natural_symmetric_action_is_transitive(self):
        decomposition = orbits(s_n(3))
        assert decomposition.blocks == ((0, 1, 2),)

    def test_single_transposition_on_four_points(self):
        decomposition = orbits(PermAction(4, ((1, 0, 2, 3),)))
        assert decomposition.blocks == ((0, 1), (2,), (3,))
        assert decomposition.sizes == (2, 1, 1)

    def test_diagonal_action_on_pairs(self):
        pairs = tensor_action(3, 2, S3_GENS)
        decomposition = orbits(pairs)
        assert sorted(decomposition.sizes) == [3, 6]
        # oracle: sweep all 9 pairs directly
        oracle = _oracles.brute_force_pair_orbits(
            [(g, g) for g in S3_GENS], 3, 3
        )
        assert sorted(len(o) for o in oracle) == [3, 6]

    def test_orbit_count_matches_burnside_average(self):
        cases = [
            s_n(3),
            s_n(5),
            PermAction(6, ((1, 2, 3, 4, 5, 0),)),
            PermAction(4, ((1, 0, 2, 3),)),
            tensor_action(3, 2, S3_GENS),
            tensor_action(4, 2, S4_GENS),
        ]
        for action in cases:
            expected = _oracles.burnside_orbit_count(action.generators, action.size)
            assert len(orbits(action)) == expected

    def test_orbit_sizes_divide_group_order(self):
        for action in (s_n(3), s_n(4), PermAction(6, ((1, 2, 3, 4, 5, 0),))):
            order = len(_oracles.close_permutations(action.generators, action.size))
            for size in orbits(action).sizes:
                assert order % size == 0


class TestTensorAction:
    def test_order_one_is_the_natural_action(self):
        action = tensor_action(3, 1, S3_GENS)
        assert action.size == 3
        assert action.generators == S3_GENS

    def test_swap_on_two_by_two_tuples(self):
        # little-endian encoding: index = i0 + 2*i1 for the tuple (i0, i1)
        action = tensor_action(2, 2, ((1, 0),))
        assert action.generators[0] == (3, 2, 1, 0)

    def test_pair_action_orbit_count(self):
        assert len(orbits(tensor_action(3, 2, S3_GENS))) == 2

    def test_size_cap(self):
        with pytest.raises(SizeExceededError):
            tensor_action(10, 7, ((1, 0) + tuple(range(2, 10)),))

    def test_rejects_boolean_generators(self):
        with pytest.raises(ValueError):
            tensor_action(2, 2, ((True, False),))

    def test_lifts_an_action_like_its_images(self):
        base = PermAction(3, S3_GENS)
        for k in (1, 2, 3):
            assert tensor_action(3, k, base) == tensor_action(3, k, S3_GENS)

    def test_rejects_an_action_of_another_size(self):
        with pytest.raises(ValueError):
            tensor_action(3, 2, PermAction(4, ()))


class TestEquivariantBasis:
    def test_deepsets_basis(self):
        basis = equivariant_basis(s_n(3), s_n(3))
        assert len(basis) == 2
        np.testing.assert_array_equal(basis.elements[0], np.eye(3, dtype=np.int64))
        np.testing.assert_array_equal(
            basis.elements[1], np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
        )

    def test_counts_match_burnside_hom_dimension(self):
        t2_3 = tensor_action(3, 2, S3_GENS)
        t2_4 = tensor_action(4, 2, S4_GENS)
        cases = [
            (s_n(3), s_n(3), 2),
            (t2_3, s_n(3), 5),
            (s_n(3), t2_3, 5),
            (t2_4, t2_4, 15),
            (s_n(5), s_n(5), 2),
        ]
        for a_in, a_out, expected in cases:
            basis = equivariant_basis(a_in, a_out)
            assert len(basis) == expected
            oracle = _oracles.burnside_hom_dim(
                a_out.generators, a_in.generators, a_out.size, a_in.size
            )
            assert len(basis) == oracle

    def test_bell_number_ladder_at_minimal_n(self):
        # dim Hom((R^n)^(tensor k), (R^n)^(tensor h)) = Bell(k + h) for n >= k + h
        two = tensor_action(2, 1, ((1, 0),))
        assert len(equivariant_basis(two, two)) == 2  # Bell(2)
        t2 = tensor_action(3, 2, S3_GENS)
        assert len(equivariant_basis(t2, s_n(3))) == 5  # Bell(3)
        t22 = tensor_action(4, 2, S4_GENS)
        assert len(equivariant_basis(t22, t22)) == 15  # Bell(4)

    def test_trivial_group_has_full_basis(self):
        free = PermAction(2, ())
        basis = equivariant_basis(free, free)
        assert len(basis) == 4
        np.testing.assert_array_equal(basis.elements[0], [[1, 0], [0, 0]])

    def test_supports_partition_the_matrix(self):
        basis = equivariant_basis(tensor_action(3, 2, S3_GENS), s_n(3))
        total = sum(basis.elements)
        np.testing.assert_array_equal(total, np.ones((3, 9), dtype=np.int64))

    def test_elements_are_exactly_invariant_under_conjugation(self):
        a_in = tensor_action(4, 2, S4_GENS)
        basis = equivariant_basis(a_in, s_n(4))
        for element in basis.elements:
            for g_out, g_in in zip(s_n(4).generators, a_in.generators):
                p_out = perm_matrix(g_out, dtype=np.int64)
                p_in = perm_matrix(g_in, dtype=np.int64)
                np.testing.assert_array_equal(p_out @ element @ p_in.T, element)

    def test_generator_count_mismatch(self):
        with pytest.raises(GeneratorCountMismatchError):
            equivariant_basis(PermAction(2, ((1, 0),)), PermAction(2, ()))

    def test_pair_limit_raises_before_allocating(self):
        # 2,501 x 4,000 pairs exceed MAX_BASIS_PAIRS; without generators the
        # actions themselves are tiny, so only the pair arrays could be large.
        assert 2_501 * 4_000 > MAX_BASIS_PAIRS
        with pytest.raises(SizeExceededError):
            equivariant_basis(PermAction(2_501, ()), PermAction(4_000, ()))


def bell(m):
    """Bell number B(m) from the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


class TestOrbitLabels:
    def test_pair_orbits_match_brute_force_on_random_generators(self):
        rng = np.random.default_rng(20240117)
        for _ in range(60):
            size_out, size_in = (int(v) for v in rng.integers(1, 8, size=2))
            gens = [
                (
                    tuple(rng.permutation(size_out).tolist()),
                    tuple(rng.permutation(size_in).tolist()),
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            a_out = PermAction(size_out, tuple(g for g, _ in gens))
            a_in = PermAction(size_in, tuple(g for _, g in gens))
            expected = _oracles.brute_force_pair_orbits(gens, size_out, size_in)
            assert equivariant_basis(a_in, a_out).sparse_coordinates() == expected

    @pytest.mark.parametrize("group", ["sym", "cyclic", "random"])
    def test_coordinate_arrays_are_separate_and_match_brute_force(self, group):
        builders = {"sym": symmetric_action_generators, "cyclic": cyclic_action_generators}
        rng = np.random.default_rng(11)
        for n, k_in, k_out in [(1, 1, 1), (3, 2, 1), (4, 1, 2), (5, 2, 2)]:
            if group == "random":
                gens = [rng.permutation(n).tolist() for _ in range(int(rng.integers(0, 3)))]
            else:
                gens = builders[group](n)
            a_in, a_out = tensor_action(n, k_in, gens), tensor_action(n, k_out, gens)
            basis = equivariant_basis(a_in, a_out)
            arrays = _coordinate_arrays(basis)
            pairs = [list(map(tuple, a.tolist())) for a in arrays]
            assert pairs == basis.sparse_coordinates()
            gen_pairs = list(zip(a_out.generators, a_in.generators))
            assert pairs == _oracles.brute_force_pair_orbits(gen_pairs, a_out.size, a_in.size)
            assert all(a.dtype.kind == "i" and a.shape[1:] == (2,) for a in arrays)
            assert all(a.flags.owndata for a in arrays)  # no view of a shared buffer

    @pytest.mark.parametrize(
        "n, k_in, k_out", [(2, 1, 1), (3, 2, 1), (4, 1, 3), (4, 2, 2), (5, 2, 3), (6, 3, 3)]
    )
    def test_symmetric_tensor_basis_size_is_bell_number(self, n, k_in, k_out):
        gens = symmetric_action_generators(n)
        basis = equivariant_basis(tensor_action(n, k_in, gens), tensor_action(n, k_out, gens))
        assert len(basis) == bell(k_in + k_out)

    def test_long_random_cycle_is_one_orbit(self):
        size = 200_000
        cycle = np.random.default_rng(5).permutation(size)
        images = np.empty(size, dtype=np.int64)
        images[cycle] = np.roll(cycle, -1)
        assert orbits(PermAction(size, (images.tolist(),))).blocks == (tuple(range(size)),)

    def test_cyclic_pair_basis_has_n_cubed_elements(self):
        action = tensor_action(31, 2, cyclic_action_generators(31))
        basis = equivariant_basis(action, action)
        assert len(basis) == 31**3
        assert basis.labels.shape == (31**2, 31**2)

    def test_layer_matrix_is_the_weighted_sum_of_elements(self):
        basis = equivariant_basis(tensor_action(3, 2, S3_GENS), s_n(3))
        weights = np.random.default_rng(8).standard_normal(len(basis))
        expected = sum(w * el for w, el in zip(weights, basis.elements))
        np.testing.assert_array_equal(build_affine_layer(basis, weights).matrix, expected)


class TestInvariantBasis:
    def test_transitive_action_has_all_ones(self):
        vectors = invariant_basis(s_n(3))
        assert len(vectors) == 1
        np.testing.assert_array_equal(vectors[0], [1, 1, 1])

    def test_transposition_on_three_points(self):
        vectors = invariant_basis(PermAction(3, ((1, 0, 2),)))
        assert len(vectors) == 2
        np.testing.assert_array_equal(vectors[0], [1, 1, 0])
        np.testing.assert_array_equal(vectors[1], [0, 0, 1])

    def test_pair_action_indicators(self):
        vectors = invariant_basis(tensor_action(3, 2, S3_GENS))
        assert len(vectors) == 2
        assert [int(v.sum()) for v in vectors] == [3, 6]

    def test_invariance(self):
        action = tensor_action(3, 2, S3_GENS)
        for v in invariant_basis(action):
            for g in action.generators:
                np.testing.assert_array_equal(perm_matrix(g, dtype=np.int64) @ v, v)


class TestIsTrivialRep:
    def test_no_generators_is_trivial(self):
        assert is_trivial_rep(PermAction(5, ()))

    def test_identity_generators_are_trivial(self):
        assert is_trivial_rep(PermAction(3, ((0, 1, 2),)))

    def test_transposition_is_not(self):
        assert not is_trivial_rep(PermAction(2, ((1, 0),)))
        assert not is_trivial_rep(s_n(3))


class TestBuildAffineLayer:
    def test_deepsets_pattern(self):
        basis = equivariant_basis(s_n(3), s_n(3))
        layer = build_affine_layer(basis, (2.0, 0.5))
        expected = 2.0 * np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(layer.matrix, expected)
        np.testing.assert_allclose(layer.bias, np.zeros(3))

    def test_zero_weights_give_zero_map(self):
        basis = equivariant_basis(s_n(3), s_n(3))
        layer = build_affine_layer(basis, (0.0, 0.0), invariant_basis(s_n(3)), (0.0,))
        np.testing.assert_allclose(layer.apply(np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_trivial_group_elementary_matrix(self):
        free = PermAction(2, ())
        layer = build_affine_layer(equivariant_basis(free, free), (1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(layer.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_count_mismatch(self):
        basis = equivariant_basis(s_n(3), s_n(3))
        with pytest.raises(CountMismatchError):
            build_affine_layer(basis, (1.0,))
        with pytest.raises(CountMismatchError):
            build_affine_layer(basis, (1.0, 2.0), invariant_basis(s_n(3)), ())

    def test_realized_map_is_equivariant(self):
        basis = equivariant_basis(s_n(4), s_n(4))
        layer = build_affine_layer(basis, (1.5, -0.25), invariant_basis(s_n(4)), (0.3,))
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, 4)
        for g in S4_GENS:
            p = perm_matrix(g)
            np.testing.assert_allclose(layer.apply(p @ x), p @ layer.apply(x), atol=1e-12)


def _deepsets_stack(n, action, weights_list, bias_weight=0.1):
    basis = equivariant_basis(action, action)
    bias_basis = invariant_basis(action)
    return [
        build_affine_layer(basis, weights, bias_basis, (bias_weight,))
        for weights in weights_list
    ]


class TestValidateNetwork:
    def test_deepsets_with_relu_passes(self):
        action = s_n(5)
        layers = _deepsets_stack(5, action, [(1.0, 0.5), (0.7, -0.2), (0.3, 0.1)])
        report = validate_network(
            layers, [relu(), relu()], [action] * 4, trials=100, tol=1e-9, seed=4
        )
        assert report.passed
        assert report.failure is None

    def test_corrupted_weight_fails_at_first_stage(self):
        action = s_n(5)
        layers = _deepsets_stack(5, action, [(1.0, 0.5), (0.7, -0.2), (0.3, 0.1)])
        layers[0].matrix[0, 1] += 0.25  # leave the equivariant span
        report = validate_network(
            layers, [relu(), relu()], [action] * 4, trials=100, tol=1e-8, seed=4
        )
        assert not report.passed
        assert report.failure.stage == 1
        assert report.failure.kind == "affine"

    def test_nan_residual_fails_without_warnings(self):
        action = s_n(3)
        layers = _deepsets_stack(3, action, [(1e308, 0.0)])  # inf - inf where 1e308 * x overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_network(layers, [], [action] * 2, trials=5, seed=0)
        assert not report.passed
        assert report.failure.stage == 1 and np.isnan(report.failure.residual)
        assert np.isnan(report.worst_residual)

    def test_corrupted_second_layer_fails_at_stage_three(self):
        action = s_n(3)
        layers = _deepsets_stack(3, action, [(1.0, 0.5), (0.7, -0.2)])
        layers[1].matrix[0, 1] += 0.25
        report = validate_network(
            layers, [tanh()], [action] * 3, trials=50, tol=1e-8, seed=4
        )
        assert not report.passed
        assert report.failure.stage == 3

    def test_identity_layers_pass(self):
        free = PermAction(2, ((1, 0),))
        basis = equivariant_basis(free, free)
        layers = [build_affine_layer(basis, (1.0, 0.0)) for _ in range(2)]
        report = validate_network(
            layers, [identity()], [free] * 3, trials=20, tol=1e-12, seed=0
        )
        assert report.passed

    def test_any_weights_from_basis_are_sound(self):
        rng = np.random.default_rng(31)
        action = s_n(4)
        for _ in range(5):
            weights_list = [tuple(rng.uniform(-2, 2, 2)) for _ in range(3)]
            layers = _deepsets_stack(4, action, weights_list, bias_weight=rng.uniform(-1, 1))
            report = validate_network(
                layers, [relu(), tanh()], [action] * 4, trials=30, tol=1e-8, seed=6
            )
            assert report.passed

    def test_shape_validation(self):
        action = s_n(3)
        layers = _deepsets_stack(3, action, [(1.0, 0.5)])
        with pytest.raises(ShapeMismatchError):
            validate_network(layers, [], [action], trials=1, tol=1e-9, seed=0)
        with pytest.raises(ShapeMismatchError):
            validate_network(layers, [relu()], [action, action], trials=1, tol=1e-9, seed=0)
        with pytest.raises(GeneratorCountMismatchError):
            validate_network(
                layers, [], [action, PermAction(3, ())], trials=1, tol=1e-9, seed=0
            )


def _seeded_network(rng):
    """Layers, activations and actions of a random network on S_n or C_n, n = 3-5.

    Two in three networks are corrupted: one weight leaves the equivariant
    span, or a diagonal that commutes with the transposition (0 1) but not
    with the n-cycle is added, so that on S_n the second generator fails first.
    """
    n = int(rng.integers(3, 6))
    images = symmetric_action_generators(n) if rng.random() < 0.7 else cyclic_action_generators(n)
    if rng.random() < 0.3:
        images = [*images, images[0]]  # a repeated generator: three passes per trial
    action = PermAction(n, images)
    depth = int(rng.integers(1, 4))
    count = len(equivariant_basis(action, action))
    weights = [tuple(rng.uniform(-2, 2, count)) for _ in range(depth)]
    layers = _deepsets_stack(n, action, weights, bias_weight=rng.uniform(-1, 1))
    corrupt = rng.integers(3)
    if corrupt == 1:
        layers[rng.integers(depth)].matrix[rng.integers(n), rng.integers(n)] += 0.25
    elif corrupt == 2:
        layers[rng.integers(depth)].matrix[np.arange(2, n), np.arange(2, n)] += 0.25
    choices = [relu(), tanh(), identity(), Activation("sqrt", np.sqrt)]  # sqrt: NaN below 0
    activations = [choices[rng.integers(len(choices))] for _ in range(depth - 1)]
    return layers, activations, [action] * (depth + 1)


def test_validate_network_matches_the_per_generator_oracle():
    rng = np.random.default_rng(44)
    outcomes = set()
    for case in range(150):
        layers, activations, actions = _seeded_network(rng)
        trials, tol, seed = int(rng.integers(1, 20)), float(rng.choice([1e-12, 1e-9])), case
        got = validate_network(layers, activations, actions, trials=trials, tol=tol, seed=seed)
        want = _oracles.validate_network_per_generator(
            layers, activations, actions, trials, tol, seed
        )
        assert (got.passed, got.trials) == (want.passed, want.trials)
        np.testing.assert_array_equal(got.worst_residual, want.worst_residual)  # NaN == NaN
        assert (got.failure is None) == (want.failure is None)
        if want.failure is not None:
            g, w = got.failure, want.failure
            assert (g.stage, g.kind, g.trial) == (w.stage, w.kind, w.trial)
            assert g.generator == w.generator
            np.testing.assert_array_equal(g.residual, w.residual)
            np.testing.assert_array_equal(g.x, w.x)
            outcomes.add((g.kind, g.generator > 0, bool(np.isnan(g.residual))))
        else:
            outcomes.add("passed")
    # passing networks, affine failures at both generators, NaN failures at an activation
    assert {"passed", ("affine", False, False), ("affine", True, False)} <= outcomes
    assert ("activation", False, True) in outcomes
