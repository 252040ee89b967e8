"""Dense matrix and finite matrix-group primitives.

Matrices are plain ``numpy`` float arrays.  This module provides the monomial
factorization (one nonzero entry per row and column), breadth-first closure of
a finitely generated matrix group, and the unit-row predicate.  Everything is
pure and deterministic: closure order is fixed by the generator list, and all
comparisons use a single absolute tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError

DEFAULT_TOL = 1e-9
DEFAULT_CLOSURE_CAP = 10_000


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square float matrix, rejecting NaN/Inf."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class MonomialForm:
    """Factorization of a monomial matrix: ``m @ e_i == coeffs[i] * e_{perm[i]}``.

    Indices are 0-based; ``perm`` is a bijection of ``range(n)`` and every
    coefficient is nonzero.
    """

    perm: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a bijection of range(n)")
        if len(self.coeffs) != n:
            raise ValueError("coeffs length must match perm length")
        if any(c == 0.0 for c in self.coeffs):
            raise ValueError("monomial coefficients must be nonzero")

    @property
    def n(self) -> int:
        return len(self.perm)

    def dense(self) -> np.ndarray:
        """Rebuild the dense matrix from the (perm, coeffs) factorization."""
        out = np.zeros((self.n, self.n))
        out[self.perm, np.arange(self.n)] = self.coeffs
        return out


def monomial_decompose(m, tol: float = DEFAULT_TOL) -> MonomialForm | None:
    """Factor ``m`` as permutation plus per-column coefficients.

    Returns ``None`` when some row or column does not have exactly one entry
    of magnitude above ``tol`` (a classification outcome, not an error).
    """
    a = as_matrix(m)
    n = a.shape[0]
    big = np.abs(a) > tol
    if not np.all(big.sum(axis=0) == 1) or not np.all(big.sum(axis=1) == 1):
        return None
    rows = np.argmax(big, axis=0)
    perm = tuple(int(r) for r in rows)
    coeffs = tuple(float(a[perm[i], i]) for i in range(n))
    return MonomialForm(perm, coeffs)


@dataclass
class GroupSpec:
    """A matrix group given by name, dimension, and a generator list.

    Generators must be square of dimension ``n`` with smallest singular value
    above ``DEFAULT_TOL``; for a monomial matrix that is its least coefficient
    magnitude, so the test agrees with ``monomial_decompose``.  Each row's
    magnitudes must sum inside the float range, so every row subset sum is
    finite.  An empty generator list denotes the trivial group.
    """

    name: str
    n: int
    generators: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be positive")
        mats = []
        for k, g in enumerate(self.generators):
            a = as_matrix(g)
            if a.shape[0] != self.n:
                raise ShapeMismatchError(
                    f"generator {k} has dimension {a.shape[0]}, expected {self.n}"
                )
            with np.errstate(over="ignore"):
                if not np.isfinite(np.abs(a).sum(axis=1)).all():
                    raise ValueError(f"generator {k} has a row summing past the float range")
            check_invertible(k, a, DEFAULT_TOL)
            mats.append(a)
        self.generators = tuple(mats)


def check_invertible(k: int, a: np.ndarray, tol: float) -> None:
    """Refuse generator ``k`` when its smallest singular value is at or below ``tol``."""
    if np.linalg.norm(a, -2) <= tol:
        raise ValueError(f"generator {k} is not invertible")


@dataclass
class ClosureResult:
    """Elements found by breadth-first closure; ``complete`` iff it stabilized."""

    elements: list[np.ndarray]
    complete: bool

    def __len__(self) -> int:
        return len(self.elements)


def close_group(
    spec: GroupSpec,
    cap: int = DEFAULT_CLOSURE_CAP,
    tol: float = DEFAULT_TOL,
) -> ClosureResult:
    """Enumerate the generated matrix group by breadth-first multiplication.

    Starts from the identity and right-multiplies by generators in list
    order, deduplicating within ``tol``.  ``complete=False`` means the search
    hit ``cap`` and the group may be infinite.  For invertible matrices a
    stabilized closure under products is automatically closed under inverses,
    since every element then has finite order.

    The elements live in one growing (m, n, n) array in discovery order; the
    breadth-first queue is the part of it after ``head``.  A candidate is
    compared only with the elements whose projections onto one fixed random
    vector ``r`` lie in its window, which holds every element within ``tol``
    of it, so the answer is the full scan's.  A candidate with an infinite or
    NaN entry is within ``tol`` of no element, so it is always new.
    """
    r = np.random.default_rng(0).standard_normal(spec.n * spec.n)
    r /= 2.0 * np.abs(r).sum()  # |r|_1 = 1/2: no finite matrix projects past the float range
    # Two matrices within tol in every entry project within tol*|r|_1 of each
    # other.  A float dot product of length N = n*n is off by at most about
    # N*eps/2*reach*|r|_1, where reach bounds every entry involved.  The
    # window doubles both terms, which also covers the rounding of its bounds.
    rounding = (r.size + 1) * np.finfo(float).eps
    r1 = float(np.abs(r).sum())
    gens = np.array(spec.generators).reshape(-1, spec.n, spec.n)
    found = np.empty((16, spec.n, spec.n))
    found[0] = np.eye(spec.n)
    keys = [float(found[0].ravel() @ r)]  # projections of the finite elements, sorted
    order = [0]  # index into found of each key
    reach = 1.0  # largest |entry| of a finite candidate so far
    size, head, complete = 1, 0, True
    while head < size and complete:
        products = found[head] @ gens
        head += 1
        peaks = np.abs(products).max(axis=(1, 2)).tolist()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite key goes unused
            projections = (products.reshape(len(gens), -1) @ r).tolist()
        for candidate, peak, key in zip(products, peaks, projections):
            finite = math.isfinite(peak)  # a non-finite candidate is within tol of nothing
            if finite:
                reach = max(reach, peak)
                half = 2.0 * r1 * (tol + rounding * reach)
                near = order[bisect_left(keys, key - half):bisect_right(keys, key + half)]
                if len(near) == 1:  # the usual case, compared without a fancy-index copy
                    if np.abs(found[near[0]] - candidate).max() <= tol:
                        continue
                elif near and np.abs(found[near] - candidate).max(axis=(1, 2)).min() <= tol:
                    continue
            if size >= cap:
                complete = False
                break
            if size == len(found):
                found = np.concatenate([found, np.empty_like(found)])
            found[size] = candidate
            if finite:
                at = bisect_left(keys, key)
                keys.insert(at, key)
                order.insert(at, size)
            size += 1
    return ClosureResult(list(found[:size]), complete)


def is_unit_row(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row of ``m`` sums to 1 within ``tol`` (``m @ ones == ones``)."""
    a = as_matrix(m)
    return bool(np.abs(a.sum(axis=1) - 1.0).max() <= tol)
