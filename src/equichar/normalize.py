"""Positive diagonal rescaling of monomial groups to (signed) permutation form.

A monomial generator set is bounded exactly when the coefficient magnitudes
multiply to one around every cycle of the index graph (edges i -> perm(i) per
generator, weighted by log|coeff|).  When they do, solving the potential
equations log d[perm(i)] - log d[i] = -log|coeff[i]| over a spanning forest
yields the diagonal matrix B = diag(d) with B g B^-1 a (signed) permutation
matrix for every generator g; any inconsistent edge certifies unboundedness.
This decides the question from generators alone, including for infinite
groups where closure enumeration cannot terminate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, GroupSpec, monomial_decompose
from .errors import NotMonomialError, UnboundedGroupError


@dataclass
class ScalingResult:
    """Diagonal rescaling d (least index of each orbit fixed to 1) and conjugates."""

    d: np.ndarray
    normalized_generators: list[np.ndarray]


def _edge_description(gen: int, i: int, j: int, w: float, mismatch: float) -> str:
    # 1-based indices for reporting.
    if i == j:
        return (
            f"self-loop at index {i + 1}, log-weight {w:.6g} "
            f"(generator {gen + 1}): a diagonal coefficient has magnitude != 1"
        )
    return (
        f"inconsistent cycle through indices {i + 1} -> {j + 1} "
        f"(generator {gen + 1}): edge requires log d[{j + 1}] - log d[{i + 1}] = {-w:.6g}, "
        f"assigned potentials differ by {mismatch:.6g}"
    )


def positive_scaling(spec: GroupSpec, tol: float = DEFAULT_TOL) -> ScalingResult:
    """Find B = diag(d) > 0 with every B g B^-1 of coefficient magnitude 1.

    Raises ``NotMonomialError`` if a generator is not monomial and
    ``UnboundedGroupError`` (carrying the violating cycle) when no rescaling
    exists.  Each connected component of the index graph is scaled
    independently with its least index gauged to d = 1; the conjugates are
    invariant under that gauge choice.
    """
    n = spec.n
    forms = []
    for k, g in enumerate(spec.generators):
        form = monomial_decompose(g, tol)
        if form is None:
            raise NotMonomialError(f"generator {k + 1} is not monomial")
        forms.append(form)

    # edges: (generator, i, perm(i), log|coeff(i)|)
    edges = [
        (gi, i, form.perm[i], math.log(abs(form.coeffs[i])))
        for gi, form in enumerate(forms)
        for i in range(n)
    ]
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for _, i, j, w in edges:
        adjacency[i].append((j, -w))  # log d[j] = log d[i] - w
        adjacency[j].append((i, +w))

    log_d = np.full(n, np.nan)
    for root in range(n):
        if not np.isnan(log_d[root]):
            continue
        log_d[root] = 0.0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for other, delta in adjacency[v]:
                if np.isnan(log_d[other]):
                    log_d[other] = log_d[v] + delta
                    queue.append(other)

    for gi, i, j, w in edges:
        mismatch = abs(log_d[j] - log_d[i] + w)
        if mismatch > tol:
            raise UnboundedGroupError(
                _edge_description(gi, i, j, w, mismatch),
                generator=gi,
                source=i,
                target=j,
                log_weight=w,
                mismatch=mismatch,
            )

    d = np.exp(log_d)
    normalized = [(d[:, None] * g) / d[None, :] for g in spec.generators]
    return ScalingResult(d, normalized)


def signed_normalize(spec: GroupSpec, tol: float = DEFAULT_TOL) -> ScalingResult:
    """Rescale a signed monomial group so all conjugate entries lie in {0, +-1}.

    The same computation as ``positive_scaling``: the rescaling depends only
    on coefficient magnitudes, and the conjugates keep each generator's signs.
    """
    return positive_scaling(spec, tol)
