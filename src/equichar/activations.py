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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_TOL, as_matrix
from .errors import EndpointViolationError, NonPositiveInputError

DEFAULT_PROFILE_SAMPLES = 17


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
        xs = np.linspace(1.0, b, DEFAULT_PROFILE_SAMPLES)
        return cls(b, xs, slope * xs)


def _decompose_positive(x: np.ndarray, b: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized x = b**n * y with y in [1, b), for strictly positive x.

    The exponent from the float logarithm is corrected so that y always lands
    in [1, b); values within relative ``tol`` of a power of b snap to y = 1,
    avoiding off-by-one exponents from float noise at cell boundaries.
    """
    n = np.floor(np.log(x) / np.log(b))
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
    floats.  Multiplicative activations carry their construction data.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    b: float | None = None
    eta_plus: EtaProfile | None = field(default=None, repr=False)
    eta_minus: EtaProfile | None = field(default=None, repr=False)
    signed: bool = False

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
    function.  f(0) = 0 exactly in both cases.
    """
    if b <= 1.0 + tol:
        raise ValueError("base b must exceed 1")
    if abs(eta_plus.b - b) > tol:
        raise ValueError("eta_plus was sampled for a different base")
    if signed:
        if eta_minus is not None:
            raise ValueError("signed construction determines the negative branch; omit eta_minus")
    else:
        if eta_minus is None:
            eta_minus = eta_plus
        elif abs(eta_minus.b - b) > tol:
            raise ValueError("eta_minus was sampled for a different base")

    def evaluate(x: np.ndarray) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(arr)
        pos = arr > 0
        neg = arr < 0
        if pos.any():
            n, y = _decompose_positive(arr[pos], b, tol)
            out[pos] = np.power(b, n) * eta_plus(y)
        if neg.any():
            n, y = _decompose_positive(-arr[neg], b, tol)
            if signed:
                out[neg] = -(np.power(b, n) * eta_plus(y))
            else:
                out[neg] = np.power(b, n) * eta_minus(y)
        return out.reshape(np.shape(x))

    suffix = ",signed" if signed else ""
    return Activation(
        f"eta[b={b:g}{suffix}]",
        evaluate,
        b=b,
        eta_plus=eta_plus,
        eta_minus=None if signed else eta_minus,
        signed=signed,
    )


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
    a least-squares fit and report the worst fit residual.
    """
    from .tclass import FamilyKind  # local import to avoid a module cycle

    xs = default_membership_grid() if grid is None else np.asarray(grid, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("grid must contain positive magnitudes")
    both = np.concatenate([xs, -xs])
    kind = label.kind
    if kind is FamilyKind.CONTINUOUS:
        return MembershipReport(True, 0.0, "all continuous functions qualify")
    if kind is FamilyKind.ODD_CONTINUOUS:
        worst = float(np.abs(f(xs) + f(-xs)).max())
        return MembershipReport(worst <= tol, worst, "odd symmetry residual")
    if kind is FamilyKind.SEMILINEAR:
        worst = 0.0
        for side in (xs, -xs):
            vals = f(side)
            slope = _fit_slope(side, vals)
            worst = max(worst, float(np.abs(vals - slope * side).max()))
        return MembershipReport(worst <= tol, worst, "per-half-line linear fit residual")
    if kind is FamilyKind.B_MULTIPLICATIVE:
        worst = float(np.abs(f(label.b * both) - label.b * f(both)).max())
        return MembershipReport(worst <= tol, worst, "multiplicative identity residual")
    if kind is FamilyKind.PM_B_MULTIPLICATIVE:
        mult = float(np.abs(f(label.b * both) - label.b * f(both)).max())
        odd = float(np.abs(f(xs) + f(-xs)).max())
        worst = max(mult, odd)
        return MembershipReport(worst <= tol, worst, "multiplicative and odd residual")
    if kind is FamilyKind.AFFINE_ONLY:
        vals = f(both)
        coeffs = np.polyfit(both, vals, 1)
        worst = float(np.abs(vals - np.polyval(coeffs, both)).max())
        return MembershipReport(worst <= tol, worst, "affine fit residual")
    vals = f(both)
    slope = _fit_slope(both, vals)
    worst = float(np.abs(vals - slope * both).max())
    return MembershipReport(worst <= tol, worst, "linear fit residual")


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
    (trial, generator) pair is returned as the counterexample.
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
            fx = f(x)
            for gi, m in enumerate(matrices):
                residual = float(np.abs(f(m @ x) - m @ fx).max())
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
    return f"{float(x):.17g}"


def export_activation_csv(f: Activation, grid: np.ndarray) -> str:
    """Sampled activation table with header ``x,f_x``."""
    values = f(np.asarray(grid, dtype=float))
    lines = ["x,f_x"]
    lines.extend(f"{format_float(x)},{format_float(v)}" for x, v in zip(grid, values))
    return "\n".join(lines) + "\n"
