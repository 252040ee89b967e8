"""Scalar activations: standard maps, multiplicative construction, verification.

A continuous function satisfying f(b^n x) = b^n f(x) is determined by its
values on [1, b] (one profile per half-line), subject to the boundary
identity eta(b) = b * eta(1).  Profiles here are piecewise-linear sample
tables, which keeps the boundary identity exact under evaluation and makes
Lipschitz constants directly computable.  The signed variant uses a single
profile and the odd extension f(-x) = -f(x), which is what the +-b
multiplicative identity forces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_TOL, as_matrix
from .errors import EndpointViolationError, NonPositiveInputError
from .tclass import FamilyKind

DEFAULT_PROFILE_SAMPLES = 17
FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double round-trips


@dataclass
class EtaProfile:
    """Piecewise-linear profile on [1, b] with eta(b) = b * eta(1).

    ``xs`` must be strictly increasing from 1 to b.  Violating the boundary
    identity raises ``EndpointViolationError``: such a profile cannot extend
    to a continuous multiplicative function.
    """

    b: float
    xs: np.ndarray
    ys: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.b <= 1.0 + self.tol:
            raise ValueError("profile base b must exceed 1")
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape or self.xs.size < 2:
            raise ValueError("profile needs matching 1-d sample arrays with >= 2 points")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if abs(self.xs[0] - 1.0) > self.tol or abs(self.xs[-1] - self.b) > self.tol:
            raise ValueError("samples must span [1, b]")
        if abs(self.ys[-1] - self.b * self.ys[0]) > self.tol:
            raise EndpointViolationError(
                f"eta(b) = {self.ys[-1]!r} but b * eta(1) = {self.b * self.ys[0]!r}"
            )

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def lipschitz(self) -> float:
        """Largest absolute slope of the piecewise-linear interpolant."""
        return float(np.abs(np.diff(self.ys) / np.diff(self.xs)).max())

    def max_abs(self) -> float:
        return float(np.abs(self.ys).max())

    @classmethod
    def from_samples(cls, b: float, pairs: Sequence, tol: float = DEFAULT_TOL) -> "EtaProfile":
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be a sequence of (x, eta(x)) tuples")
        return cls(b, arr[:, 0], arr[:, 1], tol)

    @classmethod
    def from_callable(
        cls,
        b: float,
        fn: Callable[[np.ndarray], np.ndarray],
        samples: int = DEFAULT_PROFILE_SAMPLES,
        tol: float = DEFAULT_TOL,
    ) -> "EtaProfile":
        xs = np.linspace(1.0, b, samples)
        return cls(b, xs, np.asarray(fn(xs), dtype=float), tol)

    @classmethod
    def linear(cls, b: float, slope: float = 1.0) -> "EtaProfile":
        """The profile eta(x) = slope * x, whose activation is x -> slope * x."""
        return cls.from_callable(b, lambda xs: slope * xs)


def _decompose_positive(x: np.ndarray, b: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized x = b**n * y with y in [1, b), for strictly positive x.

    The exponent from the float logarithm is corrected so that y always lands
    in [1, b); values within relative ``tol`` of a power of b snap to y = 1,
    avoiding off-by-one exponents from float noise at cell boundaries.
    """
    n = np.floor(np.log(x) / np.log(b))
    with np.errstate(divide="ignore"):  # subnormal x: b**n may round to 0; the y >= b step fixes y
        y = x / np.power(b, n)
        low = y < 1.0
        if low.any():
            n = np.where(low, n - 1, n)
            y = x / np.power(b, n)
        high = y >= b
        if high.any():
            n = np.where(high, n + 1, n)
            y = x / np.power(b, n)
    snap_high = (b - y) <= tol * b
    if snap_high.any():
        n = np.where(snap_high, n + 1, n)
        y = np.where(snap_high, 1.0, y)
    y = np.where(y - 1.0 <= tol, 1.0, y)
    return n, y


def decompose_scale(x: float, b: float, tol: float = DEFAULT_TOL) -> tuple[int, float]:
    """Unique factorization x = b**n * y with y in [1, b), for x > 0 and b > 1."""
    if not x > 0:
        raise NonPositiveInputError(f"x must be strictly positive, got {x!r}")
    if b <= 1.0 + tol:
        raise ValueError("base b must exceed 1")
    n, y = _decompose_positive(np.asarray([float(x)]), b, tol)
    return int(n[0]), float(y[0])


@dataclass
class Activation:
    """A scalar map applied coordinate-wise in the standard basis.

    Calling with an array applies the map elementwise; scalars come back as
    floats.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out


def identity() -> Activation:
    return Activation("identity", lambda x: np.asarray(x, dtype=float))


def relu() -> Activation:
    return Activation("relu", lambda x: np.maximum(x, 0.0))


def tanh() -> Activation:
    return Activation("tanh", np.tanh)


def custom(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> Activation:
    return Activation(name, fn)


def _end_limit(ys: np.ndarray) -> float:
    """The limit of b**n * eta(y) as n grows, for a profile sampled at ``ys``.

    It is +-inf when the piecewise-linear profile keeps one strict sign on
    [1, b]; otherwise the map keeps returning to 0 or crossing it, and the
    limit does not exist (NaN).
    """
    if (ys > 0).all():
        return np.inf
    if (ys < 0).all():
        return -np.inf
    return np.nan


def build_eta_activation(
    b: float,
    eta_plus: EtaProfile,
    eta_minus: EtaProfile | None = None,
    signed: bool = False,
    tol: float = DEFAULT_TOL,
) -> Activation:
    """Assemble the multiplicative activation determined by profiles on [1, b].

    Positive inputs evaluate as b**n * eta_plus(x / b**n).  With
    ``signed=False`` the negative half-line gets its own independent branch
    through ``eta_minus`` (defaulting to ``eta_plus``), yielding a
    b-multiplicative function; with ``signed=True`` the odd extension is used
    instead (``eta_minus`` must be absent), yielding a +-b-multiplicative
    function.  f(0) = 0 exactly in both cases, and f(+-inf) is the limit of f
    along that half-line (see ``_end_limit``).
    """
    if b <= 1.0 + tol:
        raise ValueError("base b must exceed 1")
    if abs(eta_plus.b - b) > tol:
        raise ValueError("eta_plus was sampled for a different base")
    if signed and eta_minus is not None:
        raise ValueError("signed construction determines the negative branch; omit eta_minus")
    if eta_minus is not None and abs(eta_minus.b - b) > tol:
        raise ValueError("eta_minus was sampled for a different base")
    plus_end = _end_limit(eta_plus.ys)
    if signed:
        def minus(y):  # the odd extension
            return -eta_plus(y)
        minus_end = -plus_end
    else:
        minus = eta_plus if eta_minus is None else eta_minus
        minus_end = _end_limit(minus.ys)

    def evaluate(x: np.ndarray) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(arr)
        live = np.isfinite(arr) & (arr != 0)  # zeros and NaN map to 0
        if live.any():
            v = arr[live]
            n, y = _decompose_positive(np.abs(v), b, tol)
            with np.errstate(over="ignore"):  # past the float range the value is +-inf
                out[live] = np.power(b, n) * np.where(v > 0, eta_plus(y), minus(y))
        infinite = np.isinf(arr)
        if infinite.any():
            out[infinite] = np.where(arr[infinite] > 0, plus_end, minus_end)
        return out.reshape(np.shape(x))

    suffix = ",signed" if signed else ""
    return Activation(f"eta[b={b:g}{suffix}]", evaluate)


def default_membership_grid() -> np.ndarray:
    """Positive magnitudes covering four decades, used by membership checks."""
    return np.geomspace(1e-2, 1e2, 61)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a numeric family-membership test."""

    passed: bool
    worst_residual: float
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x, y) / np.dot(x, x))


def check_family_membership(
    f: Activation,
    label,
    grid: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> MembershipReport:
    """Numerically test whether ``f`` satisfies the defining identity of ``label``.

    ``grid`` is a set of positive magnitudes; both half-lines are probed.
    Identities are checked pointwise; the semilinear/affine/linear labels use
    a least-squares fit and report the worst fit residual.  A NaN residual
    fails, as in ``verify_pointwise_equivariance``.
    """
    xs = default_membership_grid() if grid is None else np.asarray(grid, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("grid must contain positive magnitudes")
    both = np.concatenate([xs, -xs])

    def odd():
        return f(xs) + f(-xs)

    def mult():
        return f(label.b * both) - label.b * f(both)

    def fit(side):
        vals = f(side)
        return vals - _fit_slope(side, vals) * side

    def affine():
        vals = f(both)
        return vals - np.polyval(np.polyfit(both, vals, 1), both)

    # family -> (residual pieces, detail)
    rules = {
        FamilyKind.CONTINUOUS: ((lambda: 0.0,), "all continuous functions qualify"),
        FamilyKind.ODD_CONTINUOUS: ((odd,), "odd symmetry residual"),
        FamilyKind.SEMILINEAR: ((lambda: fit(xs), lambda: fit(-xs)),
                                "per-half-line linear fit residual"),
        FamilyKind.B_MULTIPLICATIVE: ((mult,), "multiplicative identity residual"),
        FamilyKind.PM_B_MULTIPLICATIVE: ((mult, odd), "multiplicative and odd residual"),
        FamilyKind.AFFINE_ONLY: ((affine,), "affine fit residual"),
        FamilyKind.LINEAR_ONLY: ((lambda: fit(both),), "linear fit residual"),
    }
    pieces, detail = rules[label.kind]
    # an overflow makes a residual inf or NaN: no warning, and np.max keeps a NaN
    with np.errstate(over="ignore", invalid="ignore"):
        worst = float(np.max([np.abs(piece()).max() for piece in pieces]))
    return MembershipReport(worst <= tol, worst, detail)


@dataclass(frozen=True)
class Counterexample:
    trial: int
    generator: int
    x: np.ndarray
    residual: float


@dataclass(frozen=True)
class EquivarianceReport:
    """Outcome of the point-wise equivariance check f(Mx) == M f(x)."""

    passed: bool
    trials: int
    worst_residual: float
    counterexample: Counterexample | None

    def __bool__(self) -> bool:
        return self.passed


def _nonzero_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform components in [-10, 10] with exact zeros resampled away."""
    x = rng.uniform(-10.0, 10.0, size=n)
    while np.any(x == 0.0):
        zeros = x == 0.0
        x[zeros] = rng.uniform(-10.0, 10.0, size=int(zeros.sum()))
    return x


def verify_pointwise_equivariance(
    f: Activation,
    mats: Sequence,
    *,
    trials: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int,
) -> EquivarianceReport:
    """Check ||f(Mx) - M f(x)||_inf <= tol on seeded random vectors.

    Checking the generators suffices: equivariance is preserved under matrix
    products, so it extends to the whole generated group.  The first failing
    (trial, generator) pair is returned as the counterexample.  ``f`` is
    called once per trial, on x stacked above every M x; it acts per
    coordinate, so each row comes out as a call on that row alone would.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    matrices = [as_matrix(m) for m in mats]
    if not matrices:
        raise ValueError("mats must be nonempty")
    n = matrices[0].shape[0]
    if any(m.shape[0] != n for m in matrices):
        raise ValueError("all matrices must share one dimension")
    rng = np.random.default_rng(seed)
    worst = 0.0
    # an overflow makes a residual inf or NaN: no warning, and the check fails
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            x = _nonzero_uniform(rng, n)
            fx, *fmxs = f(np.stack([x] + [m @ x for m in matrices]))
            for gi, (m, fmx) in enumerate(zip(matrices, fmxs)):
                residual = float(np.abs(fmx - m @ fx).max())
                worst = max(residual, worst)  # residual first, so that NaN is kept
                if not residual <= tol:
                    ce = Counterexample(t, gi, x, residual)
                    return EquivarianceReport(False, trials, worst, ce)
    return EquivarianceReport(True, trials, worst, None)


def sample_grid(lo: float, hi: float, count: int, spacing: str = "linear") -> np.ndarray:
    """Evaluation grid for CSV export.

    Linear grids straddling zero have their point closest to zero replaced by
    an exact 0.0 so exported tables always contain the fixed point f(0) = 0.
    Log spacing requires 0 < lo < hi.  The bounds and their span must be
    finite, so that every grid point is.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not np.isfinite(hi - lo):
        raise ValueError(f"grid bounds and their span must be finite, got [{lo!r}, {hi!r}]")
    if not hi > lo:
        raise ValueError("grid needs hi > lo")
    if spacing == "linear":
        grid = np.linspace(lo, hi, count)
        if lo < 0.0 < hi and not np.any(grid == 0.0):
            grid[np.abs(grid).argmin()] = 0.0
        return grid
    if spacing == "log":
        if lo <= 0:
            raise ValueError("log spacing requires lo > 0")
        return np.geomspace(lo, hi, count)
    raise ValueError(f"unknown spacing {spacing!r}")


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (full double round-trip)."""
    return FLOAT_FORMAT % float(x)


def export_activation_csv(f: Activation, grid: np.ndarray) -> str:
    """Sampled activation table with header ``x,f_x``, filled in one ``%`` operation."""
    grid = np.asarray(grid, dtype=float)
    rows = np.column_stack((grid, f(grid))).ravel().tolist()
    return "x,f_x\n" + f"{FLOAT_FORMAT},{FLOAT_FORMAT}\n" * len(grid) % tuple(rows)
