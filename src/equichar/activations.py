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

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DEFAULT_TOL, as_matrix
from .errors import EndpointViolationError, NonPositiveInputError
from .tclass import FamilyKind

DEFAULT_PROFILE_SAMPLES = 17
FLOAT_FORMAT = "%.17g"  # 17 significant digits: every double round-trips
_E_MIN, _E_MAX = -283, 299  # CSV kernel's decimal exponents: |x|, 10**(16 - e) split finitely
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: a * _SPLIT splits a into two 26-bit halves
_CSV_BLOCK = 4096  # rows formatted at once


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


@functools.cache
def _csv_tables() -> tuple[np.ndarray, ...]:
    """10**k, k in [_E_MIN, _E_MAX], as hi + lo and hi's Veltkamp halves; for m = 0..4,
    0000..9999 as 8 bytes of digits and NUL point slots with the trailing zeros
    past the m-th digit as NULs, and the digits each shows; "e-330".."e+309"."""
    hi, lo = [], []
    for num, den in [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(_E_MIN, _E_MAX + 1)]:
        hi.append(num / den)  # int / int rounds correctly
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, digits = np.array(hi), np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    shown = np.maximum(np.arange(5)[:, None], 4 - np.cumprod(digits[:, ::-1] == 0, 1).sum(1))
    groups = np.zeros((50_000, 8), np.uint8)
    groups[:, ::2] = np.where(np.arange(4) < shown.reshape(-1, 1), np.tile(digits, (5, 1)) + 48, 0)
    top, exponents = hi * _SPLIT - (hi * _SPLIT - hi), [b"e%+03d" % j for j in range(-330, 310)]
    return (hi, np.array(lo), top, hi - top, groups.view("<u8")[:, 0], shown.ravel(),
            np.array(exponents, "S5").view(np.uint8).reshape(-1, 5))


def _csv_rows(v: np.ndarray) -> str:
    """``FLOAT_FORMAT`` of the values v, paired into rows by ``,`` and newlines.

    |x| * 10**(16 - e), e = floor(log10|x|), is the integer-valued double s
    plus r (Dekker's exact product with hi, plus the product with lo), within
    1e-14, and exact where lo = 0.  Rounded half to even, it gives 17 digits,
    laid out in fixed byte slots (sign, "0.000", digit and point pairs, "e+ddd",
    separator) whose NULs are dropped.  ``FLOAT_FORMAT % x`` overwrites what
    that cannot settle: inf, NaN, e out of range, s within 64 of 10**16 or
    10**17 (|r| < 20: no carry), an inexact r within 1e-6 of a half-integer.
    A zero is written as ``0`` or ``-0``, its sign from ``np.signbit``.
    """
    hi, lo, hi_top, hi_low, groups_8, shown, exponents = _csv_tables()
    a = np.abs(v)
    zero = a == 0
    ok = np.isfinite(a) & ~zero
    e = np.floor(np.log10(np.where(ok, a, 1.0))).astype(np.intp)
    ok &= (e >= _E_MIN) & (e <= _E_MAX)
    a, k = np.where(ok, a, 1.0), np.where(ok, 16 - e, 16) - _E_MIN
    if ok.any():  # else skip straight to the fallback
        a_top = a * _SPLIT - (a * _SPLIT - a)
        a_low, b_top, b_low, s = a - a_top, hi_top[k], hi_low[k], a * hi[k]
        r = ((a_top * b_top - s) + a_top * b_low + a_low * b_top) + a_low * b_low + a * lo[k]
        tie = np.abs(np.abs(r - np.rint(r)) - 0.5) < 1e-6  # undecided unless the product is exact
        ok &= (s >= 1e16 + 64) & (s <= 1e17 - 64) & ~(tie & (lo[k] != 0))
    if not ok.any():
        return f"{FLOAT_FORMAT},{FLOAT_FORMAT}\n" * (len(v) // 2) % tuple(v.tolist())
    d = s.astype(np.int64) + np.rint(r).astype(np.int64)  # 17 digits where ok; s is even
    d[zero] = 0  # with e = 0: the digit 0 alone
    groups = [d // 10**16, d // 10**12 % 10**4, d // 10**8 % 10**4, d // 10**4 % 10**4, d % 10**4]
    fixed = (e >= -4) & (e < 17)  # %g's choice of 0.000ddd or ddd.dd over d.ddde+xx
    point = np.where(fixed, e, 0)  # the digit that the decimal point follows
    out = np.zeros((len(v), 48), np.uint8)  # 48: aligned 8-byte groups in bytes 8..39
    out[:, 0], out[:, 6] = np.where(np.signbit(v), 45, 0), groups[0] + 48  # sign, first digit
    last, tail = 0, True  # last: the last digit shown; tail: every later group is 0
    for i in range(4, 0, -1):  # group i, digits 4i-3..4i, shows its integer part at least
        pick = groups[i] + 10_000 * np.where(tail, np.clip(point + 4 - 4 * i, 0, 4), 4)
        out[:, 8 * i:8 * i + 8].view("<u8")[:, 0] = groups_8[pick]
        last, tail = last + shown[pick], tail & (groups[i] == 0)
    dot = np.flatnonzero((last > point) & (point >= 0))
    out[dot, 7 + 2 * point[dot]] = 46
    small = np.flatnonzero(fixed & (e < 0))
    out[small, 1:6] = np.where(np.arange(5) < 1 - e[small, None], [48, 46, 48, 48, 48], 0)
    out[~fixed, 40:45] = exponents[e[~fixed] + 330]  # no carry: the printed exponent is e
    rest = np.flatnonzero(~(ok | zero))  # at most 24 bytes each: sign, 17 digits, point, "e-308"
    text = (f"{FLOAT_FORMAT}\0" * len(rest) % tuple(v[rest].tolist())).encode()
    out[rest, :45] = np.array(text.split(b"\0")[:-1], "S45").view(np.uint8).reshape(-1, 45)
    out.reshape(-1, 2, 48)[:, :, 47] = 44, 10  # "," and newline
    return out.tobytes().translate(None, b"\0").decode("ascii")


def export_activation_csv(f: Activation, grid: np.ndarray) -> str:
    """Sampled activation table with header ``x,f_x`` and ``FLOAT_FORMAT`` values.

    ``f`` is called once on the whole grid; ``_csv_rows``, an array kernel with
    ``%`` as its fallback, writes the bytes of ``_CSV_BLOCK`` rows at a time.
    """
    grid = np.asarray(grid, dtype=float)
    cuts = range(_CSV_BLOCK, len(grid), _CSV_BLOCK)
    pairs = zip(np.split(grid, cuts), np.split(f(grid), cuts))
    return "".join(["x,f_x\n"] + [_csv_rows(np.column_stack(pair).ravel()) for pair in pairs])
