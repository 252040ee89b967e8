"""Dense matrix and finite matrix-group primitives.

Matrices are plain ``numpy`` float arrays.  This module provides the monomial
factorization (one nonzero entry per row and column), breadth-first closure of
a finitely generated matrix group, and the unit-row predicate.  Everything is
pure and deterministic: closure order is fixed by the generator list, and all
comparisons use a single absolute tolerance.
"""

from __future__ import annotations

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


def monomial_arrays(stack, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """Factor every matrix of a (k, n, n) stack as permutation plus per-column coefficients.

    Returns ``(monomial, perm, coeffs)`` of shapes (k,), (k, n) and (k, n).
    Matrix j is monomial iff every row and column has exactly one entry of
    magnitude above ``tol``; then ``m[j] @ e_i == coeffs[j, i] * e_{perm[j, i]}``.
    The rows of ``perm`` and ``coeffs`` for the other matrices mean nothing.
    """
    stack = np.asarray(stack, dtype=float)
    big = (stack > tol) | (stack < -tol)  # |stack| > tol without a float temporary
    monomial = (big.sum(axis=1) == 1).all(axis=1) & (big.sum(axis=2) == 1).all(axis=1)
    perm = np.argmax(big, axis=1)  # the row of each column's entry
    return monomial, perm, np.take_along_axis(stack, perm[:, None], axis=1)[:, 0]


def monomial_decompose(m, tol: float = DEFAULT_TOL) -> MonomialForm | None:
    """Factor ``m`` as permutation plus per-column coefficients (see ``monomial_arrays``).

    Returns ``None`` when some row or column does not have exactly one entry
    of magnitude above ``tol`` (a classification outcome, not an error).
    """
    monomial, perm, coeffs = monomial_arrays(as_matrix(m)[None], tol)
    if not monomial[0]:
        return None
    return MonomialForm(tuple(perm[0].tolist()), tuple(coeffs[0].tolist()))


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
    """Refuse generator ``k`` when its smallest singular value is at or below ``tol``:
    for a monomial matrix, its least coefficient magnitude, found without an SVD."""
    monomial, coeffs = [False], None
    if np.count_nonzero(a) == len(a):
        monomial, _, coeffs = monomial_arrays(a[None], 0.0)
    if (np.abs(coeffs[0]).min() if monomial[0] else np.linalg.norm(a, -2)) <= tol:
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
    hit ``cap`` (at least 1) and the group may be infinite.  For invertible
    matrices a stabilized closure under products is automatically closed
    under inverses, since every element then has finite order.

    The elements live in one growing (m, n, n) array in discovery order; the
    breadth-first queue is the part of it after ``head``.  Each step forms a
    block of candidates: the queue's next elements (at most ``cap`` products,
    or one element) times every generator, in (element, generator) order.
    With one generator it is the next run of powers instead, as many as there
    are elements, up to the first repeat.  A candidate is new unless it lies
    within ``tol`` of an element or of a kept earlier candidate of its block.
    Only pairs whose projections onto one fixed random vector ``r`` lie within
    a window that holds every pair within ``tol`` are compared, so the answer
    is the full scan's; a candidate with an inf or NaN entry is always new.
    """
    if cap < 1:
        raise ValueError(f"closure cap must be at least 1, got {cap}")
    n = spec.n
    r = np.random.default_rng(0).standard_normal(n * n)
    r /= 2.0 * np.abs(r).sum()  # |r|_1 = 1/2: no finite matrix projects past the float range
    # Two matrices within tol in every entry project within tol*|r|_1 of each
    # other.  A float dot product of length N = n*n is off by at most about
    # N*eps/2*reach*|r|_1, where reach bounds every entry involved: for such a
    # pair, the later candidate's largest |entry| plus tol, and N times its mean
    # |entry| bounds the largest.  The window doubles both terms, which also
    # covers the rounding of the mean and of the window's bounds.
    rounding, uniform = (r.size + 1) * np.finfo(float).eps, np.full(r.size, 1.0 / r.size)
    r1 = float(np.abs(r).sum())
    slack, per_mean = 2.0 * r1 * tol * (1.0 + rounding), 2.0 * r1 * rounding * r.size
    gens = np.array(spec.generators, dtype=float).reshape(-1, n, n)
    found = np.empty((16, n, n))
    found[0] = np.eye(n)
    # sorted projections of the finite elements, and their indices in found
    keys, rows = found[:1].reshape(1, -1) @ r, np.zeros(1, int)
    size, head, complete, one = 1, 0, True, len(gens) == 1
    while len(gens) and head < size and complete:
        stop = size if one else min(size, head + max(1, cap // len(gens)))
        k = min(size, cap - size + 1) if one else (stop - head) * len(gens)
        if size + k > len(found):
            found = np.concatenate([found, np.empty((size + k, n, n))])
        if one:  # the queue is the newest element: form the next run of its powers
            run = list(found[size - 1:size + k])
            for last, power in zip(run, run[1:]):
                last.dot(gens[0], out=power)  # matmul's product, with less call overhead
        else:
            out = found[size:size + k].reshape(-1, len(gens), n, n)
            np.matmul(found[head:stop, None], gens, out=out)
        head, flat = stop, found.reshape(len(found), -1)
        means = np.abs(flat[size:size + k]) @ uniform  # inf or NaN just for a non-finite candidate
        own = size + np.flatnonzero(means < np.inf)
        proj, half = flat.take(own, axis=0) @ r, slack + per_mean * means[own - size]
        # Merge the live candidates into the sorted keys: each one's window then
        # spans the elements and the other candidates it may lie within tol of.
        keys, rows = np.concatenate([keys, proj]), np.concatenate([rows, own])
        by_key = np.argsort(keys, kind="stable")
        keys, rows = keys[by_key], rows[by_key]
        lo, hi = np.searchsorted(keys, proj - half), np.searchsorted(keys, proj + half, "right")
        counts, keep = hi - lo, np.ones(size + k, bool)  # elements count as kept
        ends = np.cumsum(counts)
        # runs [i, e) of candidates with < 2 * len(found) pairs: a window holds <= len(found)
        cuts = np.searchsorted(ends, np.arange(0, ends[-1:].sum(), len(found)), "right").tolist()
        for i, e in zip(cuts, cuts[1:] + [len(own)]):
            a = own[i:e].repeat(counts[i:e])
            b = rows.take(np.arange(ends[i] - counts[i], ends[e - 1])
                          + (hi - ends)[i:e].repeat(counts[i:e]))
            later = b < a  # each pair once, from the later candidate's window
            a, b = a[later], b[later]
            close = (np.abs(flat.take(a, axis=0) - flat.take(b, axis=0)) > tol) @ uniform == 0
            # in queue order of the later candidate x, so keep[y] is final when read
            for x, y in zip(a[close].tolist(), b[close].tolist()):
                if y < size or keep[y]:
                    keep[x] = False
        if one and not keep[size:].all():  # a repeated power completes the cyclic group
            head = size + int(np.argmin(keep[size:]))
            keep[head:] = False
        rank = np.cumsum(keep)  # 1 + the index in found of each kept element or candidate
        keep &= rank <= cap
        found[size:min(int(rank[-1]), cap)] = found[size:size + k][keep[size:]]
        stay, complete = keep[rows], int(rank[-1]) <= cap
        keys, rows, size = keys[stay], rank[rows[stay]] - 1, min(int(rank[-1]), cap)
    return ClosureResult(list(found[:size].copy()), complete)  # no view keeps the slack alive


def is_unit_row(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row of ``m`` sums to 1 within ``tol`` (``m @ ones == ones``)."""
    a = as_matrix(m)
    return bool(np.abs(a.sum(axis=1) - 1.0).max() <= tol)
