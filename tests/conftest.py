import numpy as np
import pytest

from equichar import GroupSpec


@pytest.fixture
def p_matrix():
    """3-cycle permutation matrix: e1 -> e2 -> e3 -> e1."""
    return np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.fixture
def s_matrix():
    """Signed permutation: same cycle with one -1 coefficient."""
    return np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@pytest.fixture
def m_matrix():
    """+-2-monomial 3-cycle with coefficients (2, -1/2, 2); cubes to -2I."""
    return np.array([[0.0, -0.5, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])


@pytest.fixture
def z2_matrix():
    """Order-2 generator [[0, 2], [1/2, 0]]; rescales to the 2x2 swap."""
    return np.array([[0.0, 2.0], [0.5, 0.0]])


def rotation(angle_radians: float) -> np.ndarray:
    c, s = np.cos(angle_radians), np.sin(angle_radians)
    return np.array([[c, -s], [s, c]])


def s4_at_scale(scale: float) -> list[np.ndarray]:
    """S_4 generators conjugated by diag(scale, 1, 1, 1/scale) @ Q for a seeded orthogonal Q.

    From scale 2e3 on, near-duplicates survive the tol test and the closure
    stabilizes at the wrong order.
    """
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
    t = np.diag([scale, 1.0, 1.0, 1.0 / scale]) @ q
    perms = [np.eye(4)[:, [1, 0, 2, 3]], np.eye(4)[:, np.roll(np.arange(4), 1)]]
    return [t @ p @ np.linalg.inv(t) for p in perms]


@pytest.fixture
def rot60():
    return rotation(np.pi / 3)


@pytest.fixture
def rot90():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def spec_of(name: str, *mats) -> GroupSpec:
    mats = [np.asarray(m, dtype=float) for m in mats]
    return GroupSpec(name, mats[0].shape[0], tuple(mats))
