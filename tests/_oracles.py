"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's orbit-labelling and BFS code paths:
permutation groups are enumerated as tuples under composition, orbit and
fixed-space counts come from explicit averaging over the enumerated group,
matrix products are walked directly when probing boundedness, row subset
sums are taken one matrix at a time and thinned one value at a time,
reports and CSV tables are rendered one value at a time, a group's scalar
subgroup is always computed from the subset sums of its whole closure, an
equivariance check evaluates the activation on one vector at a time, a
positive rescaling walks an explicit edge list with adjacency lists and a
deque, a network check runs the untransformed forward pass again for
every generator, and family containment is a case analysis over the seven
families rather than a reading of the pairing table.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque

import numpy as np

from equichar.activations import _nonzero_uniform
from equichar.core import close_group, is_unit_row, monomial_decompose
from equichar.errors import NotMonomialError, UnboundedGroupError
from equichar.normalize import ScalingResult, _edge_description
from equichar.repspaces import NetworkReport, StageFailure
from equichar.tclass import (
    FamilyKind,
    GroupClassification,
    _character_defect,
    classify_subgroup,
    subset_sum_generators,
)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def close_permutations(generators, size: int) -> list[tuple[int, ...]]:
    """All elements of the group generated by the given permutation tuples."""
    identity = tuple(range(size))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for element in frontier:
            for g in generators:
                candidate = compose(g, element)
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return sorted(seen)


def close_parallel_permutations(gen_pairs, size_a: int, size_b: int):
    """Group elements as pairs (perm on A, perm on B) composed componentwise."""
    identity = (tuple(range(size_a)), tuple(range(size_b)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for pa, pb in frontier:
            for ga, gb in gen_pairs:
                candidate = (compose(ga, pa), compose(gb, pb))
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return sorted(seen)


def fixed_points(p: tuple[int, ...]) -> int:
    return sum(1 for i, image in enumerate(p) if image == i)


def burnside_orbit_count(generators, size: int) -> int:
    """Average number of fixed points over the enumerated group."""
    elements = close_permutations(generators, size)
    total = sum(fixed_points(p) for p in elements)
    assert total % len(elements) == 0
    return total // len(elements)


def burnside_hom_dim(out_generators, in_generators, size_out: int, size_in: int) -> int:
    """dim of the equivariant maps: average of fix(out) * fix(in) over the group."""
    elements = close_parallel_permutations(
        list(zip(out_generators, in_generators)), size_out, size_in
    )
    total = sum(fixed_points(po) * fixed_points(pi) for po, pi in elements)
    assert total % len(elements) == 0
    return total // len(elements)


def brute_force_pair_orbits(generators, size_out: int, size_in: int):
    """Orbits of the simultaneous action on (out, in) pairs, by direct sweeping."""
    pairs = list(itertools.product(range(size_out), range(size_in)))
    remaining = set(pairs)
    orbits = []
    while remaining:
        start = min(remaining)
        block = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for o, i in frontier:
                for go, gi in generators:
                    image = (go[o], gi[i])
                    if image not in block:
                        block.add(image)
                        nxt.append(image)
            frontier = nxt
        orbits.append(sorted(block))
        remaining -= block
    return orbits


def row_subset_sums(matrix: np.ndarray, tol: float) -> set[float]:
    """All nonzero subset sums of each row, by direct enumeration."""
    n = matrix.shape[0]
    values = set()
    for i in range(n):
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                s = float(sum(matrix[i, j] for j in subset))
                if abs(s) > tol:
                    values.add(s)
    return values


def dedup_with_tol(values, tol: float) -> tuple[float, ...]:
    """Sorted values, keeping each one that exceeds the last kept one by more than ``tol``."""
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def subset_sum_values(mats, tol: float) -> tuple[float, ...]:
    """``subset_sum_generators(mats, tol).values``, one matrix at a time.

    Every entry at or below ``tol`` in magnitude is set to zero; then all row
    subset sums above ``tol`` come from one product with the (n, 2^n) table
    of subset indicators.
    """
    values: list[float] = []
    for m in mats:
        a = np.asarray(m, dtype=float)
        a = np.where(np.abs(a) > tol, a, 0.0)
        n = a.shape[0]
        masks = np.arange(2**n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        flat = (a @ bits.T).ravel()
        values.extend(float(v) for v in flat[np.abs(flat) > tol])
    return dedup_with_tol(values, tol)


def max_entry_growth(generators, steps: int) -> list[float]:
    """Largest |entry| seen after each breadth level of the product walk."""
    n = generators[0].shape[0]
    frontier = [np.eye(n)]
    growth = []
    for _ in range(steps):
        frontier = [f @ g for f in frontier for g in generators]
        growth.append(max(float(np.abs(f).max()) for f in frontier))
        # keep the walk small: one representative per distinct rounded matrix
        unique = {}
        for f in frontier:
            unique[tuple(np.round(f, 9).ravel())] = f
        frontier = list(unique.values())[:64]
    return growth


def bfs_matrix_closure(generators, n: int, cap: int, tol: float):
    """(elements, complete): breadth-first closure with a FIFO queue and a full scan.

    The quadratic reference for ``close_group``: start from the identity,
    right-multiply by each generator in order, and keep a product unless some
    element found so far is within ``tol`` of it in every entry.  Every
    product is compared with every element found, in one array expression.
    """
    found = np.empty((cap, n, n))
    found[0] = np.eye(n)
    size = 1
    queue = [np.eye(n)]
    while queue:
        current = queue.pop(0)
        for g in generators:
            candidate = current @ g
            if (np.abs(found[:size] - candidate).max(axis=(1, 2)) <= tol).any():
                continue
            if size >= cap:
                return list(found[:size]), False
            found[size] = candidate
            size += 1
            queue.append(candidate)
    return list(found[:size]), True


def render_oracle(obj, indent: int) -> str:
    """A report value as deterministic JSON, recursing one value at a time.

    Two-space indent, one leaf per line, floats at 17 significant digits
    (``-0.0`` as ``-0``), non-finite floats as ``null``, and arrays as their
    nested lists.
    """
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{child}{json.dumps(str(k))}: {render_oracle(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{child}{render_oracle(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return render_oracle(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}" if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r} in a report")


def csv_oracle(f, grid) -> str:
    """``export_activation_csv(f, grid)``, one formatted row at a time."""
    values = f(np.asarray(grid, dtype=float))
    lines = ["x,f_x"]
    lines.extend(f"{float(x):.17g},{float(v):.17g}" for x, v in zip(grid, values))
    return "\n".join(lines) + "\n"


def classify_over_closure(spec, tol: float, cap: int):
    """``classify_group_detailed(spec, tol, cap)`` with the subset sums always
    taken over the whole closure when it is complete and passes the character
    check, whatever class the generators alone give."""
    notes = []
    forms = [monomial_decompose(g, tol) for g in spec.generators]
    monomial = all(f is not None for f in forms)
    unit_row = all(is_unit_row(g, tol) for g in spec.generators)
    mats = spec.generators
    non_negative = False
    if monomial:
        non_negative = all(c > 0 for f in forms for c in f.coeffs)
        mats = spec.generators or (np.eye(spec.n),)
    else:
        finite = all(
            np.abs(np.log(np.abs(np.linalg.eigvals(g)))).max() <= spec.n * tol
            for g in spec.generators
        )
        fallback = "scalar subgroup computed from generators only (approximation)"
        closure = close_group(spec, cap, tol) if finite else None
        if closure is None or not closure.complete:
            notes.append(f"closure did not stabilize below the element cap; {fallback}")
        elif (defect := _character_defect(closure.elements)) is not None:
            notes.append(f"closure failed the character check ({defect}); {fallback}")
        else:
            mats = closure.elements
    tclass = classify_subgroup(subset_sum_generators(mats, tol), tol)
    return GroupClassification(monomial, non_negative, unit_row, tclass), notes


def verify_one_vector_at_a_time(f, mats, trials: int, tol: float, seed: int):
    """(passed, worst residual, counterexample as (trial, generator, x, residual) or None)
    of ``verify_pointwise_equivariance``, calling ``f`` on x and on each M x alone."""
    rng = np.random.default_rng(seed)
    n = mats[0].shape[0]
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            x = rng.uniform(-10.0, 10.0, size=n)
            while np.any(x == 0.0):
                zeros = x == 0.0
                x[zeros] = rng.uniform(-10.0, 10.0, size=int(zeros.sum()))
            fx = f(x)
            for gi, m in enumerate(mats):
                residual = float(np.abs(f(m @ x) - m @ fx).max())
                worst = max(residual, worst)
                if not residual <= tol:
                    return False, worst, (t, gi, x, residual)
    return True, worst, None


def positive_scaling_by_edges(spec, tol: float):
    """``positive_scaling(spec, tol)`` from an explicit edge list.

    One ``MonomialForm`` per generator; the edges (generator, i, perm(i),
    log|coeff(i)|) in (generator, index) order fill adjacency lists, a
    deque walks each component breadth-first from its least index, and the
    first edge whose potentials differ by more than ``tol`` is reported.
    """
    n = spec.n
    forms = []
    for k, g in enumerate(spec.generators):
        form = monomial_decompose(g, tol)
        if form is None:
            raise NotMonomialError(f"generator {k + 1} is not monomial")
        forms.append(form)
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
    return ScalingResult(d, [(d[:, None] * g) / d[None, :] for g in spec.generators])


def validate_network_per_generator(
    layers, activations, actions, trials: int, tol: float, seed: int
):
    """``validate_network`` with both forward passes redone for every generator.

    Each trial draws one input; for each generator the transformed and the
    untransformed passes run stage by stage side by side, and the first stage
    whose residual is above ``tol`` or not a number is reported.
    """
    gen_count = len(actions[0].images)
    inverses = [np.argsort(a.images, axis=1) for a in actions]
    stages = []
    for k, layer in enumerate(layers):
        stages.append(("affine", layer.apply, k + 1))
        if k < len(activations):
            stages.append(("activation", activations[k], k + 1))
    rng = np.random.default_rng(seed)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            x = _nonzero_uniform(rng, actions[0].size)
            for gi in range(gen_count):
                transformed, plain = x[inverses[0][gi]], x.copy()
                for stage, (kind, f, space) in enumerate(stages, 1):
                    transformed, plain = f(transformed), f(plain)
                    residual = float(np.abs(transformed - plain[inverses[space][gi]]).max())
                    worst = max(residual, worst)
                    if not residual <= tol:
                        failure = StageFailure(stage, kind, t, gi, residual, x)
                        return NetworkReport(False, trials, worst, failure)
    return NetworkReport(True, trials, worst, None)


def family_contains_by_cases(outer, inner, tol: float) -> bool:
    """``family_contains(outer, inner, tol)``, family by family."""

    def integer_power(outer_b: float, inner_b: float) -> bool:
        k = round(math.log(outer_b) / math.log(inner_b))
        return k >= 1 and abs(inner_b**k - outer_b) <= tol * max(1.0, outer_b)

    if outer.kind is FamilyKind.CONTINUOUS or inner.kind is FamilyKind.LINEAR_ONLY:
        return True
    if outer.kind is inner.kind:
        if outer.b is None:
            return True
        return abs(outer.b - inner.b) <= tol * max(1.0, outer.b) or integer_power(outer.b, inner.b)
    if outer.kind is FamilyKind.ODD_CONTINUOUS:
        return inner.kind is FamilyKind.PM_B_MULTIPLICATIVE
    if outer.kind is FamilyKind.B_MULTIPLICATIVE:
        if inner.kind is FamilyKind.SEMILINEAR:
            return True
        if inner.kind is FamilyKind.PM_B_MULTIPLICATIVE:
            return integer_power(outer.b, inner.b) or abs(outer.b - inner.b) <= tol
        return False
    # Semilinear, PMB, AffineOnly and LinearOnly contain nothing beyond
    # themselves and the linear functions handled above.
    return False
