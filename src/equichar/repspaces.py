"""Permutation actions, orbit bases of equivariant maps, and network validation.

A permutation action on a finite index set induces a representation on the
standard basis.  Orbits of the action partition the set; orbits of the
simultaneous action on (output, input) pairs yield the 0/1 indicator matrices
spanning the equivariant linear maps between two such representations, and
orbits of a single action yield the indicator vectors spanning the invariant
(bias) subspace.  Both kinds of orbit come from one labelling routine, and a
layer basis is stored as its array of pair labels.  Tensor-power actions act
coordinatewise on index tuples.

Generators of two actions are matched positionally: the i-th generator of
each action must represent the same abstract group element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activations import Activation, _nonzero_uniform
from .core import DEFAULT_TOL
from .errors import (
    CountMismatchError,
    GeneratorCountMismatchError,
    ShapeMismatchError,
    SizeExceededError,
)

MAX_TENSOR_POINTS = 1_000_000
MAX_BASIS_PAIRS = 10_000_000


def _image_row(k: int, images, size: int) -> np.ndarray:
    """Generator ``k``'s images as one integer array of length ``size``."""
    try:
        row = np.asarray(images)
    except ValueError:  # a ragged nesting inside the generator
        row = None
    if row is None or row.shape != (size,):
        raise ValueError(f"generator {k} must list {size} images")
    if not np.issubdtype(row.dtype, np.integer):
        raise ValueError(f"generator {k} images must be integers, got {row.dtype}")
    # numpy reads [True, 0] as integers, so a list is searched for booleans itself
    if not isinstance(images, np.ndarray) and bool in map(type, images):
        raise ValueError(f"generator {k} images must be integers, got a boolean")
    return row


@dataclass(init=False, eq=False)
class PermAction:
    """An action on ``range(size)`` given by generator bijections (0-based images).

    ``images`` is the one stored form: a read-only integer array of shape
    (generators, size) whose row k lists the images of generator k.  The
    constructor checks it once; every row must be an integer bijection of
    ``range(size)``, so booleans and floats are rejected.
    """

    images: np.ndarray
    label: str

    def __init__(self, size: int, generators: Sequence[Sequence[int]], label: str = "") -> None:
        if size < 1:
            raise ValueError("action needs at least one point")
        rows = [_image_row(k, g, size) for k, g in enumerate(generators)]
        images = np.array(rows, np.intp) if rows else np.empty((0, size), np.intp)
        bad = np.flatnonzero((np.sort(images, axis=1) != np.arange(size)).any(axis=1))
        if bad.size:
            raise ValueError(f"generator {bad[0]} is not a bijection of range({size})")
        images.flags.writeable = False
        self.images = images
        self.label = label

    @classmethod
    def _vetted(cls, images: np.ndarray, label: str) -> "PermAction":
        """Wrap an index array already known to hold bijections, without re-checking."""
        action = cls.__new__(cls)
        images.flags.writeable = False
        action.images, action.label = images, label
        return action

    def __eq__(self, other: object) -> bool:  # defining it leaves instances unhashable
        same = isinstance(other, PermAction) and self.label == other.label
        return same and np.array_equal(self.images, other.images)

    @property
    def size(self) -> int:
        return self.images.shape[1]

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """The images as tuples of ints, kept for API compatibility."""
        return tuple(map(tuple, self.images.tolist()))


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of the index set into generator-closed blocks, sorted by least element."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def _orbit_labels(images: np.ndarray) -> np.ndarray:
    """Label each point by the rank of its orbit's least point.

    ``images`` holds one row of point images per generator.  Hook and
    compress: each round hangs the larger root of every edge p -- g[p] under
    the smaller one, then flattens the forest by pointer jumping.  Pointers
    only go to smaller points, so each root is the least point of its tree,
    and the rounds grow with log(size) rather than with orbit diameter.
    """
    count, size = images.shape
    points = np.arange(size)
    src, dst = np.tile(points, count), images.ravel()
    root = points.copy()
    while True:
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            break
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return (np.cumsum(root == points) - 1)[root]


def _blocks(labels: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Flat indices sorted by label (ascending within a label) and each label's slice."""
    members = np.argsort(labels, axis=None, kind="stable")
    ends = np.cumsum(np.bincount(labels.ravel())).tolist()
    return members, list(zip([0, *ends], ends))


def _indicators(labels: np.ndarray) -> list[np.ndarray]:
    """One dense 0/1 integer array per label."""
    return [(labels == j).astype(np.int64) for j in range(int(labels.max()) + 1)]


def orbits(action: PermAction) -> OrbitDecomposition:
    """Orbit partition of the index set under all generators."""
    members, bounds = _blocks(_orbit_labels(action.images))
    points = members.tolist()
    return OrbitDecomposition(tuple(tuple(points[a:b]) for a, b in bounds))


def _power_at_most(n: int, k: int, limit: int, what: str, unit: str) -> int:
    """n**k for n, k >= 1, refused with ``SizeExceededError`` above ``limit``.

    A base of 2 or more with k past ``limit``'s bit length is refused before
    the power is formed, so a huge k costs no time.
    """
    if (n > 1 and k >= limit.bit_length()) or n**k > limit:
        raise SizeExceededError(f"{what} would need {n}^{k} {unit} (limit {limit})")
    return n**k


def check_basis_size(n: int, k_in: int, k_out: int) -> None:
    """Refuse a basis between order-k_in and order-k_out tensor actions on n points that
    would pass ``MAX_TENSOR_POINTS`` or ``MAX_BASIS_PAIRS``, before anything is built."""
    for k in (k_in, k_out):
        _power_at_most(n, k, MAX_TENSOR_POINTS, "tensor action", "points")
    _power_at_most(n, k_in + k_out, MAX_BASIS_PAIRS, "layer basis", "pairs")


def tensor_action(n: int, k: int, gens: PermAction | Sequence[Sequence[int]]) -> PermAction:
    """Coordinatewise action on k-tuples over ``range(n)``.

    ``gens`` is an action on ``range(n)``, lifted without a second check, or its images.

    Tuples map to integers by little-endian mixed radix: the first tuple
    coordinate is the least significant base-n digit.  This encoding is part
    of the serialized interface and must not change.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    points = _power_at_most(n, k, MAX_TENSOR_POINTS, "tensor action", "points")
    base = gens if isinstance(gens, PermAction) else PermAction(n, gens)
    if base.size != n:
        raise ValueError(f"generators act on {base.size} points, expected {n}")
    # one point has one k-tuple, which lifts like a 1-tuple: no k-long arrays at n = 1
    powers = n ** np.arange(k if n > 1 else 1, dtype=np.intp)
    digits = np.arange(points)[:, None] // powers % n
    # A coordinatewise lift of bijections is a bijection: no second check.
    return PermAction._vetted(base.images[:, digits] @ powers, f"tensor(n={n},k={k})")


@dataclass
class LayerBasis:
    """Orbit-indicator basis of the equivariant linear maps between two actions.

    ``labels[o, i]`` is the index of the basis element whose support holds
    the pair (o, i).  Elements are numbered by each orbit's least (row-major)
    pair, so their supports are disjoint and cover all of dim_out x dim_in.
    """

    labels: np.ndarray

    @property
    def dim_out(self) -> int:
        return self.labels.shape[0]

    @property
    def dim_in(self) -> int:
        return self.labels.shape[1]

    def __len__(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def elements(self) -> list[np.ndarray]:
        """Each element as a dense 0/1 integer matrix."""
        return _indicators(self.labels)

    def sparse_coordinates(self) -> list[list[tuple[int, int]]]:
        """Each element as its sorted list of (row, col) support coordinates."""
        return [list(map(tuple, c.tolist())) for c in _coordinate_arrays(self)]


def _coordinate_arrays(basis: LayerBasis) -> list[np.ndarray]:
    """Each element's sorted (row, col) support coordinates as its own (k, 2) integer array."""
    members, bounds = _blocks(basis.labels)
    coords = np.stack(np.divmod(members, basis.dim_in), axis=1)
    # copies, not views of one buffer: views raised the peak RSS of repeated basis reports
    return [coords[a:b].copy() for a, b in bounds]


def equivariant_basis(a_in: PermAction, a_out: PermAction) -> LayerBasis:
    """Basis of equivariant maps from the span of ``a_in`` to the span of ``a_out``.

    Orbits of the simultaneous generator action on (output point, input
    point) pairs; the basis size equals the dimension of the space of
    equivariant linear maps.
    """
    g_out, g_in = a_out.images, a_in.images
    if len(g_in) != len(g_out):
        raise GeneratorCountMismatchError(
            f"parallel actions need equal generator counts ({len(g_out)} != {len(g_in)})"
        )
    pairs = a_out.size * a_in.size
    if pairs > MAX_BASIS_PAIRS:
        raise SizeExceededError(f"layer basis would need {pairs} pairs (limit {MAX_BASIS_PAIRS})")
    pair_images = g_out[:, :, None] * a_in.size + g_in[:, None, :]
    labels = _orbit_labels(pair_images.reshape(len(g_out), pairs))
    return LayerBasis(labels.reshape(a_out.size, a_in.size))


def invariant_basis(action: PermAction) -> list[np.ndarray]:
    """Orbit-indicator vectors spanning the subspace fixed by the action."""
    return _indicators(_orbit_labels(action.images))


def is_trivial_rep(action: PermAction) -> bool:
    """True iff every generator fixes every point (all orbits are singletons)."""
    return bool((action.images == np.arange(action.size)).all())


def perm_matrix(gen: Sequence[int], dtype=float) -> np.ndarray:
    """Column-convention permutation matrix: column i carries e_{gen[i]}."""
    images = np.asarray(gen, dtype=np.intp)
    out = np.zeros((images.size, images.size), dtype=dtype)
    out[images, np.arange(images.size)] = 1
    return out


@dataclass
class AffineEquivariantLayer:
    """Realized affine map x -> W x + v with W in the basis span and v invariant."""

    matrix: np.ndarray
    bias: np.ndarray
    weights: tuple[float, ...]
    bias_weights: tuple[float, ...]

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.bias


def build_affine_layer(
    basis: LayerBasis,
    weights: Sequence[float],
    bias_basis: Sequence[np.ndarray] = (),
    bias_weights: Sequence[float] = (),
) -> AffineEquivariantLayer:
    """Materialize W = sum w_i B_i and v = sum c_j u_j from basis coefficients."""
    if len(weights) != len(basis):
        raise CountMismatchError(f"{len(weights)} weights for {len(basis)} basis elements")
    if len(bias_weights) != len(bias_basis):
        raise CountMismatchError(
            f"{len(bias_weights)} bias weights for {len(bias_basis)} bias vectors"
        )
    matrix = np.asarray(weights, dtype=float)[basis.labels]
    bias = np.zeros(basis.dim_out)
    for c, u in zip(bias_weights, bias_basis):
        u = np.asarray(u, dtype=float)
        if u.shape != (basis.dim_out,):
            raise ShapeMismatchError("bias vectors must live in the output space")
        bias += float(c) * u
    return AffineEquivariantLayer(
        matrix, bias, tuple(float(w) for w in weights), tuple(float(c) for c in bias_weights)
    )


@dataclass(frozen=True)
class StageFailure:
    stage: int  # 1-based position in the composed sequence
    kind: str  # "affine" or "activation"
    trial: int
    generator: int
    residual: float
    x: np.ndarray


@dataclass(frozen=True)
class NetworkReport:
    """Outcome of the end-to-end network equivariance check."""

    passed: bool
    trials: int
    worst_residual: float
    failure: StageFailure | None

    def __bool__(self) -> bool:
        return self.passed


def validate_network(
    layers: Sequence[AffineEquivariantLayer],
    activations: Sequence[Activation],
    actions: Sequence[PermAction],
    *,
    trials: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int,
) -> NetworkReport:
    """Check that the composed network commutes with every generator.

    ``actions`` lists one permutation action per representation space, so it
    must be one longer than ``layers``; activations sit between consecutive
    layers.  For each seeded random input the transformed and untransformed
    forward passes are compared after every stage, and the first stage where
    they disagree beyond ``tol`` is reported.
    """
    if len(actions) != len(layers) + 1:
        raise ShapeMismatchError("need one action per representation space (layers + 1)")
    if len(activations) != max(len(layers) - 1, 0):
        raise ShapeMismatchError("activations must sit between consecutive layers")
    for k, layer in enumerate(layers):
        if layer.dim_in != actions[k].size or layer.dim_out != actions[k + 1].size:
            raise ShapeMismatchError(f"layer {k} does not chain with its actions")
    gen_count = len(actions[0].images)
    if any(len(a.images) != gen_count for a in actions):
        raise GeneratorCountMismatchError("all actions must list the same abstract generators")

    # (P_g v)[g[i]] = v[i], so P_g v is v gathered through the inverse of g.
    inverses = [np.argsort(a.images, axis=1) for a in actions]
    # Each stage is (kind, map, index of the action on its output space).
    stages = []
    for k, layer in enumerate(layers):
        stages.append(("affine", layer.apply, k + 1))
        if k < len(activations):
            stages.append(("activation", activations[k], k + 1))
    rng = np.random.default_rng(seed)
    worst = 0.0
    # an overflow makes a residual inf or NaN: no warning, and the check fails
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            x = _nonzero_uniform(rng, actions[0].size)
            plain = [x.copy()]  # the untransformed pass after each stage, shared by the generators
            for _, f, _ in stages:
                plain.append(f(plain[-1]))
            for gi in range(gen_count):
                transformed = x[inverses[0][gi]]
                for stage, (kind, f, space) in enumerate(stages, 1):
                    transformed = f(transformed)
                    residual = float(np.abs(transformed - plain[stage][inverses[space][gi]]).max())
                    worst = max(residual, worst)  # residual first, so that NaN is kept
                    if not residual <= tol:
                        failure = StageFailure(stage, kind, t, gi, residual, x)
                        return NetworkReport(False, trials, worst, failure)
    return NetworkReport(True, trials, worst, None)
