"""Classify matrix groups by the scalars they mix and map them to activation families.

The pipeline is: collect the multiplicative generators produced by row subset
sums of the group's matrices, classify the multiplicative subgroup of R* they
generate (trivial, {+-1}, powers of a base, or dense), and combine that with
the structural predicates (monomial, non-negative, unit-row) to name the
maximal family of point-wise activations the group admits.  The inverse map
from a family label back to its maximal matrix-group class is also provided,
and composing the two stabilizes at the label level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_TOL,
    GroupSpec,
    close_group,
    is_unit_row,
    monomial_decompose,
)
from .errors import DimensionTooLargeError, ShapeMismatchError

# 2**20 subset sums per row is the largest exhaustive enumeration we allow.
MAX_SUBSET_DIM = 20
DEFAULT_GCD_ITER = 64
# how far a complete closure's character averages may sit from integers
CHARACTER_TOL = 1e-6


class SubgroupKind(str, Enum):
    TRIVIAL = "Trivial"
    PLUS_MINUS_ONE = "PlusMinusOne"
    POWERS_OF_B = "PowersOfB"
    SIGNED_POWERS_OF_B = "SignedPowersOfB"
    DENSE_POSITIVE = "DensePositive"
    DENSE = "Dense"


_KINDS_WITH_BASE = (SubgroupKind.POWERS_OF_B, SubgroupKind.SIGNED_POWERS_OF_B)


def _check_base(kind: Enum, b: float | None, needs_base: bool) -> None:
    """A kind with a base needs a real b > 1 (NaN is refused); any other kind none."""
    if needs_base and not (b is not None and b > 1.0):
        raise ValueError(f"{kind.value} requires a base b > 1")
    if not needs_base and b is not None:
        raise ValueError(f"{kind.value} does not carry a base")


@dataclass(frozen=True)
class SubgroupClass:
    """A multiplicative subgroup of R* up to the discrete/dense dichotomy."""

    kind: SubgroupKind
    b: float | None = None

    def __post_init__(self) -> None:
        _check_base(self.kind, self.b, self.kind in _KINDS_WITH_BASE)


class FamilyKind(str, Enum):
    CONTINUOUS = "Continuous"
    ODD_CONTINUOUS = "OddContinuous"
    SEMILINEAR = "Semilinear"
    B_MULTIPLICATIVE = "BMultiplicative"
    PM_B_MULTIPLICATIVE = "PMBMultiplicative"
    AFFINE_ONLY = "AffineOnly"
    LINEAR_ONLY = "LinearOnly"


# The theorem's seven maximal pairs: each family maps to its maximal matrix
# group's (monomial, non_negative, unit_row, scalar subgroup kind).
_PAIRS = {
    FamilyKind.CONTINUOUS: (True, True, True, SubgroupKind.TRIVIAL),
    FamilyKind.ODD_CONTINUOUS: (True, False, False, SubgroupKind.PLUS_MINUS_ONE),
    FamilyKind.SEMILINEAR: (True, True, False, SubgroupKind.DENSE_POSITIVE),
    FamilyKind.B_MULTIPLICATIVE: (True, True, False, SubgroupKind.POWERS_OF_B),
    FamilyKind.PM_B_MULTIPLICATIVE: (True, False, False, SubgroupKind.SIGNED_POWERS_OF_B),
    FamilyKind.AFFINE_ONLY: (False, False, True, SubgroupKind.DENSE),
    FamilyKind.LINEAR_ONLY: (False, False, False, SubgroupKind.DENSE),
}
_FAMILIES_WITH_BASE = tuple(f for f, row in _PAIRS.items() if row[3] in _KINDS_WITH_BASE)
# the table inverted: monomial rows by subgroup kind, the others by unit_row
_MONOMIAL_FAMILY = {row[3]: f for f, row in _PAIRS.items() if row[0]}
_GENERAL_FAMILY = {row[2]: f for f, row in _PAIRS.items() if not row[0]}


@dataclass(frozen=True)
class ActivationFamily:
    """One of the seven maximal family labels, with base ``b`` when multiplicative."""

    kind: FamilyKind
    b: float | None = None

    def __post_init__(self) -> None:
        _check_base(self.kind, self.b, self.kind in _FAMILIES_WITH_BASE)


@dataclass(frozen=True)
class TGenerators:
    """Nonzero scalars generating the multiplicative group mixed by a matrix set."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("generator set must be nonempty")
        if 0.0 in self.values:
            raise ValueError("generator values must be nonzero")


@dataclass(frozen=True)
class GroupClassification:
    """Structural summary of a matrix group: predicates plus its scalar subgroup."""

    monomial: bool
    non_negative: bool
    unit_row: bool
    tclass: SubgroupClass

    def __post_init__(self) -> None:
        if self.non_negative and not self.monomial:
            raise ValueError("non_negative is only tracked for monomial groups")


def _dedup_with_tol(v: np.ndarray, tol: float) -> tuple[float, ...]:
    """Thin sorted ``v``: keep a value iff it exceeds the last kept one by more than ``tol``.

    A gap above ``tol`` always starts a kept value, so the rule runs per
    cluster of values joined by gaps of at most ``tol``.  A cluster that spans
    at most ``tol`` keeps its first value alone; a wider one is thinned one
    value at a time.
    """
    if v.size == 0:
        return ()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(v) > tol) + 1))
    ends = np.append(starts[1:], v.size)
    keep = np.zeros(v.size, dtype=bool)
    keep[starts] = True
    wide = v[ends - 1] - v[starts] > tol
    for s, e in zip(starts[wide].tolist(), ends[wide].tolist()):
        segment = v[s:e].tolist()
        last = segment[0]
        for j, x in enumerate(segment[1:], s + 1):
            if x - last > tol:
                keep[j], last = True, x
    return tuple(v[keep].tolist())


def subset_sum_generators(mats: Sequence, tol: float = DEFAULT_TOL) -> TGenerators:
    """All nonzero row subset sums over the given matrices, of one dimension.

    For a monomial matrix every row holds a single nonzero entry, so its
    subset sums reduce to that entry set.  Non-monomial matrices are
    enumerated exhaustively (2^n sums per row, all matrices in one product),
    which is refused above dimension 20.
    """
    return TGenerators(_dedup_with_tol(_sorted_subset_sums(mats, tol), tol))


def _sorted_subset_sums(mats: Sequence, tol: float) -> np.ndarray:
    """The values above ``tol`` in magnitude that ``subset_sum_generators`` thins, sorted.

    Its arrays are freed on return, before the thinned values become floats.
    """
    if len(mats) == 0:
        raise ValueError("mats must be nonempty")
    stack = np.asarray(mats, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ShapeMismatchError(f"expected square matrices of one shape, got {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    n = stack.shape[1]
    big = (stack > tol) | (stack < -tol)  # |stack| > tol: the counts of monomial_decompose
    monomial = (big.sum(axis=1) == 1).all(axis=1) & (big.sum(axis=2) == 1).all(axis=1)
    parts = [stack[big & monomial[:, None, None]]]
    rest = stack[~monomial]
    if len(rest):
        if n > MAX_SUBSET_DIM:
            raise DimensionTooLargeError(
                f"subset-sum enumeration needs 2^{n} sums per row; limit is 2^{MAX_SUBSET_DIM}"
            )
        masks = np.arange(2**n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1  # (2^n, n)
        sums = np.matmul(rest, bits.T)  # (k, n, 2^n), row i holds all subset sums of row i
        parts.append(sums[(sums > tol) | (sums < -tol)])
    values = np.concatenate(parts)
    values.sort()
    return values


def _real_gcd(a: float, b: float, tol: float, max_iter: int) -> float:
    """Euclidean GCD on positive reals; 0.0 when the iteration budget runs out."""
    for _ in range(max_iter):
        if b <= tol:
            return a
        a, b = b, math.fmod(a, b)
    return 0.0


def _log_magnitudes(values: Sequence[float], tol: float):
    """``|log|v||`` of each value off the unit circle by more than ``tol``, lazily.

    ``math.log`` and not ``np.log``: one ulp of difference can move the base.
    """
    return (abs(math.log(abs(v))) for v in values if abs(abs(v) - 1.0) > tol)


def classify_subgroup(
    gens: TGenerators,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_GCD_ITER,
) -> SubgroupClass:
    """Classify the multiplicative subgroup of R* generated by ``gens``.

    Magnitudes decide discreteness via a tolerance-based real GCD of
    ``|log|v||``; signs decide the +- variants.  A collapsed GCD (or an
    exhausted iteration budget) is classified as dense -- a heuristic, since
    genuine density is undecidable from finite float data.

    The GCD must clear a floor of ``1000 * tol`` to count as discrete: a
    Euclidean chain on incommensurate logs bottoms out at tolerance scale,
    where any value passes the integer-multiple check vacuously (quotients of
    order 1/tol), so a result that close to the floor certifies nothing.  The
    floor never drops below ``1000 * eps``, so that ``exp(g)`` stays above 1.
    """
    has_negative = min(gens.values) < 0
    logs = _log_magnitudes(gens.values, tol)
    g = next(logs, None)
    if g is None:
        kind = SubgroupKind.PLUS_MINUS_ONE if has_negative else SubgroupKind.TRIVIAL
        return SubgroupClass(kind)
    floor = 1000.0 * max(tol, sys.float_info.epsilon)
    for x in logs:
        g = _real_gcd(g, x, tol, max_iter)
        if g <= floor:
            break
    if g > floor:
        for x in _log_magnitudes(gens.values, tol):
            if abs(x - round(x / g) * g) > tol:
                g = 0.0
                break
    if g <= floor:
        kind = SubgroupKind.DENSE if has_negative else SubgroupKind.DENSE_POSITIVE
        return SubgroupClass(kind)
    b = math.exp(g)
    kind = SubgroupKind.SIGNED_POWERS_OF_B if has_negative else SubgroupKind.POWERS_OF_B
    return SubgroupClass(kind, b)


def _character_defect(elements: Sequence[np.ndarray]) -> str | None:
    """The first character average of a closure that is off an integer, or None.

    Over a finite group G, (1/|G|) sum tr h is the dimension of the fixed
    space and (1/|G|) sum tr(h)^2 is <chi, chi>, the sum of the squared
    multiplicities of the irreducible constituents (the matrices are real);
    both are integers (Serre, section 2.3).  A closure that kept spurious
    near-duplicates at large matrix scale misses them.
    """
    traces = np.trace(np.asarray(elements), axis1=1, axis2=2)
    for name, mean in (("mean trace", traces.mean()), ("mean squared trace", (traces**2).mean())):
        if abs(mean - round(mean)) > CHARACTER_TOL:
            return f"{name} {float(mean)!r} is not an integer"
    return None


def classify_group_detailed(
    spec: GroupSpec,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> tuple[GroupClassification, list[str]]:
    """Classify a generated matrix group, returning (classification, notes).

    Notes record the approximations taken.  For monomial generators the
    scalar subgroup is computed from the generator entries, which generate
    the entry set of the whole group multiplicatively.  For non-monomial
    generators the subset sums run over the finite closure when it
    stabilizes and passes the character check (``_character_defect``), else
    over the generators alone.
    """
    notes: list[str] = []
    forms = [monomial_decompose(g, tol) for g in spec.generators]
    monomial = all(f is not None for f in forms)
    unit_row = all(is_unit_row(g, tol) for g in spec.generators)
    if monomial:
        non_negative = all(c > 0 for f in forms for c in f.coeffs)
        mats: Sequence = spec.generators or (np.eye(spec.n),)  # the identity for no generators
    else:
        if spec.n > MAX_SUBSET_DIM:
            # subset sums are infeasible already for the generators, so do
            # not bother enumerating the closure first
            raise DimensionTooLargeError(
                f"non-monomial generators of dimension {spec.n} exceed the "
                f"subset-sum limit of {MAX_SUBSET_DIM}"
            )
        non_negative = False
        # Every element of a finite group has its eigenvalues on the unit
        # circle.  Off it (|log|lambda|| > n*tol), a generator's powers grow
        # or shrink without bound: the closure would run to the cap, or
        # converge within tol and stop early at a wrong "finite" group.
        finite = all(
            np.abs(np.log(np.abs(np.linalg.eigvals(g)))).max() <= spec.n * tol
            for g in spec.generators
        )
        mats = spec.generators
        fallback = "scalar subgroup computed from generators only (approximation)"
        if not (finite and (closure := close_group(spec, cap, tol)).complete):
            notes.append(f"closure did not stabilize below the element cap; {fallback}")
        elif (defect := _character_defect(closure.elements)) is not None:
            notes.append(f"closure failed the character check ({defect}); {fallback}")
        else:
            mats = closure.elements
    tclass = classify_subgroup(subset_sum_generators(mats, tol), tol)
    return GroupClassification(monomial, non_negative, unit_row, tclass), notes


def classify_group(
    spec: GroupSpec,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> GroupClassification:
    """Classify a generated matrix group (see ``classify_group_detailed``)."""
    return classify_group_detailed(spec, tol, cap)[0]


def maximal_family(c: GroupClassification) -> ActivationFamily:
    """The maximal family of point-wise activations commuting with the class ``c``.

    Monomial groups map through their scalar subgroup; a dense scalar
    subgroup forces linearity, so those groups collapse to the affine/linear
    pairs together with the non-monomial ones.
    """
    family = _MONOMIAL_FAMILY.get(c.tclass.kind) if c.monomial else None
    if family is None or (family is FamilyKind.SEMILINEAR and not c.non_negative):
        return ActivationFamily(_GENERAL_FAMILY[c.unit_row])
    return ActivationFamily(family, c.tclass.b)


def maximal_group_label(f: ActivationFamily, n: int) -> GroupClassification:
    """The classification of the maximal n-by-n matrix group admitting family ``f``.

    This is the dual direction of the pairing: continuous functions pair with
    permutation matrices, odd ones with signed permutations, semilinear with
    non-negative monomial, (+-)b-multiplicative with (+-)b-monomial, and the
    degenerate affine/linear families with unit-row and general invertible
    matrices respectively.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    monomial, non_negative, unit_row, kind = _PAIRS[f.kind]
    return GroupClassification(monomial, non_negative, unit_row, SubgroupClass(kind, f.b))


def _is_integer_power(outer_b: float, inner_b: float, tol: float) -> bool:
    """True iff outer_b == inner_b**k for an integer k >= 1 (within tol)."""
    k = round(math.log(outer_b) / math.log(inner_b))
    if k < 1:
        return False
    return abs(inner_b**k - outer_b) <= tol * max(1.0, outer_b)


def family_contains(
    outer: ActivationFamily, inner: ActivationFamily, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the ``outer`` family of functions contains the ``inner`` one.

    Fewer multiplicative constraints mean a bigger family, so for the
    multiplicative kinds containment runs along integer powers of the base:
    the b^k-multiplicative family contains the b-multiplicative one.
    """
    if outer.kind is FamilyKind.CONTINUOUS:
        return True
    if inner.kind is FamilyKind.LINEAR_ONLY:
        return True
    if outer.kind is inner.kind:
        if outer.b is None:
            return True
        return abs(outer.b - inner.b) <= tol * max(1.0, outer.b) or _is_integer_power(
            outer.b, inner.b, tol
        )
    if outer.kind is FamilyKind.ODD_CONTINUOUS:
        return inner.kind is FamilyKind.PM_B_MULTIPLICATIVE
    if outer.kind is FamilyKind.B_MULTIPLICATIVE:
        if inner.kind is FamilyKind.SEMILINEAR:
            return True
        if inner.kind is FamilyKind.PM_B_MULTIPLICATIVE:
            return _is_integer_power(outer.b, inner.b, tol) or abs(outer.b - inner.b) <= tol
        return False
    # Semilinear, PMB, AffineOnly, LinearOnly contain nothing else beyond
    # themselves and the linear functions handled above.
    return False
