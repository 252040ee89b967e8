"""Standard generators of the symmetric and cyclic permutation actions."""

from __future__ import annotations


def cycle_perm(n: int) -> tuple[int, ...]:
    """The n-cycle sending i to i+1 mod n."""
    return tuple((i + 1) % n for i in range(n))


def transposition_perm(n: int, a: int = 0, b: int = 1) -> tuple[int, ...]:
    images = list(range(n))
    images[a], images[b] = images[b], images[a]
    return tuple(images)


def symmetric_action_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Standard generators of the full symmetric group on n points."""
    if n < 2:
        return ()
    if n == 2:
        return (transposition_perm(2),)
    return (transposition_perm(n), cycle_perm(n))


def cyclic_action_generators(n: int) -> tuple[tuple[int, ...], ...]:
    if n < 2:
        return ()
    return (cycle_perm(n),)
