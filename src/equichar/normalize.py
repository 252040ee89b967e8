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
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, GroupSpec, monomial_arrays
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
    monomial, perm, coeffs = monomial_arrays(np.reshape(spec.generators, (-1, n, n)), tol)
    if not monomial.all():
        raise NotMonomialError(f"generator {int(np.argmin(monomial)) + 1} is not monomial")
    # each generator's edges i -> perm(i), w = log|coeff(i)|: log d[perm(i)] = log d[i] - w
    w = np.array([math.log(abs(c)) for c in coeffs.ravel().tolist()]).reshape(perm.shape)
    walks = list(zip(perm.tolist(), np.argsort(perm, axis=1).tolist(), w.tolist()))
    log_d = [None] * n
    for root in range(n):  # breadth-first over each component, edges in (generator, index) order
        if log_d[root] is None:
            log_d[root], queue = 0.0, [root]
            for v in queue:
                for p, q, wg in walks:  # v's edges v -> p[v] and q[v] -> v, by index
                    steps = [(p[v], log_d[v] - wg[v]), (q[v], log_d[v] + wg[q[v]])]
                    for other, value in steps if v <= q[v] else steps[::-1]:
                        if log_d[other] is None:
                            log_d[other] = value
                            queue.append(other)
    log_d = np.array(log_d)
    mismatch = np.abs(log_d[perm] - log_d + w)
    bad = np.flatnonzero(mismatch > tol)
    if len(bad):  # the first inconsistent edge in (generator, index) order
        gi, i = divmod(int(bad[0]), n)
        j, wi = int(perm[gi, i]), float(w[gi, i])
        raise UnboundedGroupError(
            _edge_description(gi, i, j, wi, mismatch[gi, i]),
            generator=gi,
            source=i,
            target=j,
            log_weight=wi,
            mismatch=mismatch[gi, i],
        )
    d = np.exp(log_d)
    return ScalingResult(d, [(d[:, None] * g) / d[None, :] for g in spec.generators])


# The rescaling reads only coefficient magnitudes and the conjugates keep each
# generator's signs, so signed groups need no computation of their own.
signed_normalize = positive_scaling
