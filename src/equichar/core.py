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
    # pair, the candidate's largest |entry| plus tol.  The window doubles both
    # terms, which also covers the rounding of its bounds.
    rounding = (r.size + 1) * np.finfo(float).eps
    r1 = float(np.abs(r).sum())
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
            for j in range(size, size + k):
                np.matmul(found[j - 1], gens[0], out=found[j])
        else:
            out = found[size:size + k].reshape(-1, len(gens), n, n)
            np.matmul(found[head:stop, None], gens, out=out)
        head, block = stop, found[size:size + k]
        peaks = np.abs(block).max(axis=(1, 2))
        live = np.flatnonzero(np.isfinite(peaks))  # a non-finite candidate is within tol of nothing
        proj = block[live].reshape(len(live), -1) @ r
        by_proj = np.argsort(proj, kind="stable")
        s, own = proj[by_proj], size + live[by_proj]
        half = 2.0 * r1 * (tol + rounding * (peaks[own - size] + tol))
        # Pair each live candidate with the elements in its window, then with the block's
        # later candidates in its window: both are spans [starts, stops) of pool.
        pool, owner = np.concatenate([rows, own]), np.concatenate([own, own])
        starts = np.concatenate([np.searchsorted(keys, s - half),
                                 len(keys) + 1 + np.arange(len(s))])
        stops = np.concatenate([np.searchsorted(keys, s + half, "right"),
                                len(keys) + np.searchsorted(s, s + half, "right")])
        ends, near = np.cumsum(stops - starts), [np.empty((2, 0), int)]
        for q in range(0, int(ends[-1:].sum()), len(found)):  # at most len(found) pairs at a time
            q = np.arange(q, min(q + len(found), ends[-1]))
            j = np.searchsorted(ends, q, "right")
            pair = np.sort([owner[j], pool[stops[j] - ends[j] + q]], axis=0)
            near.append(pair[:, np.abs(found[pair[0]] - found[pair[1]]).max(axis=(1, 2)) <= tol])
        near, keep = np.concatenate(near, axis=1), [True] * k
        for a, b in near[:, np.argsort(near[1], kind="stable")].T.tolist():
            if a < size or keep[a - size]:  # the queue meets a before b, and a was kept
                keep[b - size] = False
        if one and not all(keep):  # a repeated power completes the cyclic group
            head = size + keep.index(False)
            keep[head - size:] = [False] * (size + k - head)
        rank = np.cumsum(keep)
        complete, keep = size + int(rank[-1]) <= cap, np.array(keep) & (rank <= cap - size)
        new, kept = np.flatnonzero(keep), keep[live]
        found[size:size + len(new)] = found[size + new]
        keys = np.concatenate([keys, proj[kept]])
        rows = np.concatenate([rows, size + rank[live[kept]] - 1])
        by_key = np.argsort(keys, kind="stable")
        keys, rows, size = keys[by_key], rows[by_key], size + len(new)
    return ClosureResult(list(found[:size].copy()), complete)  # no view keeps the slack alive


def is_unit_row(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row of ``m`` sums to 1 within ``tol`` (``m @ ones == ones``)."""
    a = as_matrix(m)
    return bool(np.abs(a.sum(axis=1) - 1.0).max() <= tol)
