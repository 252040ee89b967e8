"""Standard generators of the symmetric and cyclic permutation actions."""

from __future__ import annotations


def cycle_perm(n: int) -> tuple[int, ...]:
    """The n-cycle sending i to i+1 mod n."""
    return tuple((i + 1) % n for i in range(n))


def transposition_perm(n: int) -> tuple[int, ...]:
    return (1, 0, *range(2, n))


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
