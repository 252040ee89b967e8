"""Workloads of the equichar benchmark: seeded inputs, jobs and answer checks.

Each pass over a workload gets fresh inputs that are equivalent to the last
ones: relabelled by a seeded permutation, or conjugated by a seeded diagonal
or orthogonal matrix.  Every pass therefore does the same work and has the
same answers, and no in-process cache can serve a later pass from an
earlier one.  The expected answers come from how each input was built, by
the theorem's table; the checks recompute them with numpy and never ask the
program.

A job is one CLI command run in-process through ``equichar.cli.main`` with
stdout captured, or one sequence of library calls.  Library calls go through
the module attribute (``repspaces.tensor_action``), so that the traced run
can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from equichar import cli, core, repspaces, tclass
from equichar.core import DEFAULT_TOL


class Mismatch(Exception):
    """An operation's exit code or report disagrees with the known answer."""


@dataclass
class Outcome:
    code: int | None  # exit code of a CLI job, None for a library job
    text: str = ""  # captured stdout of a CLI job
    err: str = ""  # captured stderr of a CLI job
    value: object = None  # return value of a library job


@dataclass
class Job:
    name: str  # the same in every pass and for every seed
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]  # raises Mismatch
    # for a job kept to show a known program fault: raises Mismatch unless a
    # failed outcome is exactly that fault
    known_fault: Callable[[Outcome], None] | None = None
    closure: tuple[int, bool] | None = None  # (size, complete) close_group must give


# ---------------------------------------------------------------------------
# running


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, out.getvalue(), err.getvalue())


def cli_job(name: str, argv: list[str], check, **kw) -> Job:
    return Job(name, lambda: run_cli(argv), check, **kw)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _spec_file(pdir: Path, name: str, gens) -> str:
    mats = [np.asarray(g, dtype=float) for g in gens]
    return _write_json(
        pdir / f"{name}.json",
        {"name": name, "dimension": mats[0].shape[0], "generators": [m.tolist() for m in mats]},
    )


# ---------------------------------------------------------------------------
# constructions


def perm_matrix(images) -> np.ndarray:
    """Column convention: column i carries e_{images[i]}."""
    images = np.asarray(images)
    m = np.zeros((images.size, images.size))
    m[images, np.arange(images.size)] = 1.0
    return m


def relabel(images: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The image list of sigma g sigma^-1."""
    out = np.empty_like(images)
    out[sigma] = sigma[images]
    return out


def sym_images(n: int) -> list[np.ndarray]:
    """Transposition (0 1) and the n-cycle: they generate S_n."""
    t = np.arange(n)
    t[[0, 1]] = [1, 0]
    return [t, (np.arange(n) + 1) % n]


def cyclic_images(n: int) -> list[np.ndarray]:
    return [(np.arange(n) + 1) % n]


def relabelled(rng, images: list[np.ndarray]) -> list[np.ndarray]:
    sigma = rng.permutation(images[0].size)
    return [relabel(g, sigma) for g in images]


def haar_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def ones_fixing_orthogonal(rng, n: int) -> np.ndarray:
    """A seeded orthogonal Q with Q @ ones == ones."""
    v = np.ones(n) / math.sqrt(n)
    v[0] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)  # swaps ones/sqrt(n) and e_0
    block = np.eye(n)
    block[1:, 1:] = haar_orthogonal(rng, n - 1)
    return h @ block @ h


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def skewed_rotation(rng, theta: float) -> np.ndarray:
    """A R(theta) A^-1 for a seeded A of condition number at most 2."""
    a = rotation(rng.uniform(0, 2 * math.pi)) @ np.diag([1.0, rng.uniform(1.2, 2.0)])
    a = a @ rotation(rng.uniform(0, 2 * math.pi))
    return a @ rotation(theta) @ np.linalg.inv(a)


def monomial(images, coeffs) -> np.ndarray:
    """m @ e_i == coeffs[i] * e_{images[i]}."""
    return perm_matrix(images) * np.asarray(coeffs, dtype=float)[None, :]


def b_exponents(rng, n: int, fixed_point: int) -> np.ndarray:
    """Exponents in {-2..2} with gcd 1, sum 0, and exponent 1 at ``fixed_point``.

    The zero sum makes |det| = 1: GroupSpec's fixed |det| <= 1e-9 test would
    otherwise reject a seed-dependent share of these valid generators.
    """
    half = rng.integers(-2, 3, size=n // 2)
    half[0] = 1
    e = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2, dtype=half.dtype)]))
    one = int(np.flatnonzero(e == 1)[0])
    e[[fixed_point, one]] = e[[one, fixed_point]]
    return e


def b_monomial_gens(rng, n: int, b: float, signed: bool) -> list[np.ndarray]:
    """Relabelled S_n generators with coefficients (+-)b^e.

    The transposition fixes a point whose coefficient is b, a self-loop of
    the index graph with weight log b, so no rescaling exists.
    """
    t, c = relabelled(rng, sym_images(n))
    fixed = int(np.flatnonzero(t == np.arange(n))[0])
    gens = []
    for g in (t, c):
        coeffs = np.power(b, b_exponents(rng, n, fixed).astype(float))
        if signed:
            coeffs *= rng.choice([-1.0, 1.0], size=n)
        gens.append(monomial(g, coeffs))
    if signed:
        gens[1][c[0], 0] = -abs(gens[1][c[0], 0])  # at least one negative entry
    return gens


def signed_perm_gens(rng, n: int) -> list[np.ndarray]:
    gens = [perm_matrix(g) for g in relabelled(rng, sym_images(n))]
    flip = np.eye(n)
    flip[rng.integers(n), :] *= -1.0
    return gens + [flip]


def eta_profile(rng, b: float, samples: int) -> list[list[float]]:
    """Piecewise-linear samples on [1, b] with eta(b) == b * eta(1)."""
    xs = np.linspace(1.0, b, samples)
    ys = rng.uniform(0.2, 2.0, size=samples)
    ys[-1] = b * ys[0]
    return [[float(x), float(y)] for x, y in zip(xs, ys)]


def bell(k: int) -> int:
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def tensor_images(g: np.ndarray, k: int) -> np.ndarray:
    """Coordinatewise action on k-tuples, first coordinate least significant."""
    n = g.size
    index = np.arange(n**k)
    out = np.zeros_like(index)
    for t in range(k):
        out += g[(index // n**t) % n] * n**t
    return out


# ---------------------------------------------------------------------------
# checks


def _report(o: Outcome, code: int) -> dict:
    if o.code != code:
        raise Mismatch(f"exit code {o.code}, expected {code}")
    try:
        return json.loads(o.text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"report is not JSON: {exc}") from exc


def expect_family(kind: str, b: float | None = None):
    def check(o: Outcome) -> None:
        fam = _report(o, 0)["family"]
        if fam["kind"] != kind:
            raise Mismatch(f"family {fam['kind']}, expected {kind}")
        if (b is None) != ("b" not in fam) or (b is not None and abs(fam["b"] - b) > 1e-6 * b):
            raise Mismatch(f"family base {fam.get('b')}, expected {b}")

    return check


def expect_signed_permutations(gens: list[np.ndarray]):
    """normalize succeeded and d g d^-1, recomputed here, is a signed permutation."""

    def check(o: Outcome) -> None:
        scaling = _report(o, 0)["scaling"]
        d = np.asarray(scaling["d"])
        if d.shape != (gens[0].shape[0],) or not np.all(d > 0):
            raise Mismatch("d is not a positive vector of the right length")
        for g, reported in zip(gens, scaling["normalizedGenerators"], strict=True):
            h = d[:, None] * g / d[None, :]
            if not np.allclose(h, reported, rtol=0, atol=DEFAULT_TOL):
                raise Mismatch("reported conjugate differs from d g d^-1")
            r = np.round(h)
            if np.abs(h - r).max() > DEFAULT_TOL or np.abs(r).max() > 1:
                raise Mismatch("d g d^-1 has an entry outside {0, +-1}")
            nz = r != 0
            if not (np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)):
                raise Mismatch("d g d^-1 is not a signed permutation")

    return check


def expect_not_invertible(o: Outcome) -> None:
    """The known fault: GroupSpec calls a tiny but nonzero determinant singular."""
    if o.code != 2 or "generator 0 is not invertible" not in o.err:
        raise Mismatch(f"not the known det fault: exit {o.code}, stderr {o.err.strip()!r}")


def expect_unbounded_cycle(o: Outcome) -> None:
    cycle = _report(o, 4)["unboundedCycle"]
    if not cycle["mismatch"] > DEFAULT_TOL:
        raise Mismatch("unbounded cycle reports no mismatch")
    if cycle["generator"] not in (1, 2):
        raise Mismatch(f"unbounded cycle names generator {cycle['generator']}")


def expect_verify_pass(trials: int):
    def check(o: Outcome) -> None:
        v = _report(o, 0)["verification"]
        if (v["pass"] is not True or v["trials"] != trials
                or not v["worstResidual"] <= DEFAULT_TOL):
            raise Mismatch(f"verification {v['pass']}, worst residual {v['worstResidual']}")

    return check


def expect_relu_counterexample(gens: list[np.ndarray]):
    """verify fails, and the counterexample re-evaluated here really fails."""

    def check(o: Outcome) -> None:
        ce = _report(o, 1)["verification"]["counterexample"]
        m = gens[ce["generator"] - 1]
        x = np.asarray(ce["x"])
        residual = np.abs(np.maximum(m @ x, 0.0) - m @ np.maximum(x, 0.0)).max()
        off = abs(residual - ce["residual"])
        if not residual > DEFAULT_TOL or off > DEFAULT_TOL * max(1.0, residual):
            raise Mismatch(f"counterexample residual {residual}, reported {ce['residual']}")

    return check


def expect_csv(pairs, b: int, signed: bool, half: int):
    """Rows satisfy f(0) = 0, f(b x) = b f(x), oddness when signed, and eta on [1, b]."""

    def check(o: Outcome) -> None:
        if o.code != 0:
            raise Mismatch(f"exit code {o.code}, expected 0")
        lines = o.text.splitlines()
        if lines[0] != "x,f_x" or len(lines) != 2 * half + 2:
            raise Mismatch("CSV header or row count is wrong")
        x, f = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        if x[half] != 0.0 or f[half] != 0.0:
            raise Mismatch("f(0) != 0")
        j = np.arange(-(half // b), half // b + 1)
        scale = np.maximum(1.0, np.abs(f[half + b * j]))
        if np.any(np.abs(f[half + b * j] - b * f[half + j]) > 1e-9 * scale):
            raise Mismatch("f(b x) != b f(x)")
        if signed and np.any(np.abs(f + f[::-1]) > 1e-9 * np.maximum(1.0, np.abs(f))):
            raise Mismatch("signed activation is not odd")
        cell = (x >= 1.0) & (x <= b)
        xs, ys = np.asarray(pairs).T
        if np.any(np.abs(f[cell] - np.interp(x[cell], xs, ys)) > 1e-9):
            raise Mismatch("f differs from eta_plus on [1, b]")

    return check


def expect_basis(count: int, images_out: list[np.ndarray], images_in: list[np.ndarray]):
    """Count, partition of all (out, in) pairs, invariance under the generators."""
    dim_out, dim_in = images_out[0].size, images_in[0].size

    def check(o: Outcome) -> None:
        basis = _report(o, 0)["basis"]
        if basis["count"] != count or len(basis["elements"]) != count:
            raise Mismatch(f"basis count {basis['count']}, expected {count}")
        if (basis["dimOut"], basis["dimIn"]) != (dim_out, dim_in):
            raise Mismatch("basis dimensions are wrong")
        label = np.full((dim_out, dim_in), -1)
        hits = np.zeros((dim_out, dim_in), dtype=int)
        for k, coords in enumerate(basis["elements"]):
            rc = np.asarray(coords).reshape(-1, 2)
            label[rc[:, 0], rc[:, 1]] = k
            np.add.at(hits, (rc[:, 0], rc[:, 1]), 1)
        if np.any(hits != 1):
            raise Mismatch("basis elements do not partition the (out, in) pairs")
        for g_out, g_in in zip(images_out, images_in):
            if np.any(label[np.ix_(g_out, g_in)] != label):
                raise Mismatch("a basis element is not invariant under a generator")

    return check


def _invariant_layer(w: np.ndarray, images_out, images_in, count: int) -> bool:
    return all(
        np.array_equal(w[np.ix_(go, gi)], w) for go, gi in zip(images_out, images_in)
    ) and np.unique(w).size == count


# ---------------------------------------------------------------------------
# classify-finite


S_N = (4, 5, 6)
ROTATION_ORDERS = (7, 60, 360)
INFINITE_CAP = 2000


def classify_finite(rng, fault_rng, pdir: Path) -> list[Job]:
    jobs = []
    for n in S_N:
        for fixes, q in (
            (True, ones_fixing_orthogonal(rng, n)),
            (False, haar_orthogonal(rng, n)),
        ):
            gens = [q @ perm_matrix(g) @ q.T for g in relabelled(rng, sym_images(n))]
            label = f"S{n}-{'fixes' if fixes else 'moves'}-ones"
            path = _spec_file(pdir, label, gens)
            kind = "AffineOnly" if fixes else "LinearOnly"
            jobs.append(cli_job(f"classify/{label}", ["classify", path],
                                expect_family(kind), closure=(math.factorial(n), True)))
    for m in ROTATION_ORDERS:
        j = int(rng.choice([j for j in range(1, m) if math.gcd(j, m) == 1]))
        path = _spec_file(pdir, f"C{m}", [skewed_rotation(rng, 2 * math.pi * j / m)])
        jobs.append(cli_job(f"classify/C{m}-rotation", ["classify", path],
                            expect_family("LinearOnly"), closure=(m, True)))
    theta = rng.uniform(0.5, 2.5)  # an irrational multiple of pi with probability 1
    gen = skewed_rotation(rng, theta)

    def infinite() -> Outcome:
        spec = core.GroupSpec("infinite-rotation", 2, (gen,))
        return Outcome(None, value=tclass.classify_group(spec, cap=INFINITE_CAP))

    def infinite_check(o: Outcome) -> None:
        c = o.value
        if c.monomial or c.unit_row:  # neither, so the table gives LinearOnly
            raise Mismatch("infinite rotation group classified as monomial or unit-row")

    jobs.append(Job("classify_group/infinite-rotation", infinite, infinite_check,
                    closure=(INFINITE_CAP, False)))
    return jobs


# ---------------------------------------------------------------------------
# monomial-pipeline


N_BIG = 160
N_MID = 100
VERIFY_TRIALS = 100
EXPORT_HALF = 20000  # rows on each side of zero
PROFILE_SAMPLES = 33


def monomial_pipeline(rng, fault_rng, pdir: Path) -> list[Job]:
    b = int(rng.choice([2, 3]))
    jobs = []

    gens = [perm_matrix(g) for g in relabelled(rng, sym_images(N_BIG))]
    path = _spec_file(pdir, "perm", gens)
    jobs.append(cli_job("classify/permutation", ["classify", path], expect_family("Continuous")))
    path = _spec_file(pdir, "signed-perm", signed_perm_gens(rng, N_BIG))
    jobs.append(cli_job("classify/signed-permutation", ["classify", path],
                        expect_family("OddContinuous")))
    for signed, kind in ((False, "BMultiplicative"), (True, "PMBMultiplicative")):
        gens = b_monomial_gens(rng, N_MID, b, signed)
        path = _spec_file(pdir, f"{kind}-classify", gens)
        jobs.append(cli_job(f"classify/{kind}", ["classify", path], expect_family(kind, b)))

    # 0.5 * (40-cycle) generates a 2-monomial group, but GroupSpec's fixed
    # |det| <= 1e-9 test rejects it (det = 0.5**40) and the CLI exits 2.
    cycle = relabelled(fault_rng, cyclic_images(40))[0]
    path = _spec_file(pdir, "half-40-cycle", [0.5 * perm_matrix(cycle)])
    jobs.append(cli_job("classify/half-40-cycle", ["classify", path],
                        expect_family("BMultiplicative", 2.0),
                        known_fault=expect_not_invertible))

    for name, n, base in (("signed", N_BIG, signed_perm_gens(rng, N_BIG)),
                          ("perm", N_MID, [perm_matrix(g) for g in
                                           relabelled(rng, sym_images(N_MID))])):
        d = np.exp(rng.uniform(-2.0, 2.0, size=n))
        gens = [(d[:, None] * g) / d[None, :] for g in base]
        path = _spec_file(pdir, f"bounded-{name}", gens)
        jobs.append(cli_job(f"normalize/bounded-{name}", ["normalize", path],
                            expect_signed_permutations(gens)))
    gens = b_monomial_gens(rng, N_MID, b, False)
    path = _spec_file(pdir, "unbounded", gens)
    jobs.append(cli_job("normalize/unbounded", ["normalize", path], expect_unbounded_cycle))

    gens = signed_perm_gens(rng, N_BIG)
    path = _spec_file(pdir, "verify-tanh", gens)
    jobs.append(cli_job("verify/tanh-signed", ["verify", path, "--activation", "tanh",
                        "--seed", str(rng.integers(1 << 30))], expect_verify_pass(VERIFY_TRIALS)))
    gens = signed_perm_gens(rng, N_BIG)
    path = _spec_file(pdir, "verify-relu", gens)
    jobs.append(cli_job("verify/relu-signed", ["verify", path, "--activation", "relu",
                        "--seed", str(rng.integers(1 << 30))], expect_relu_counterexample(gens)))

    for signed in (False, True):
        plus = eta_profile(rng, b, PROFILE_SAMPLES)
        profile = {"b": b, "etaPlus": plus, "signed": signed}
        if not signed:
            profile["etaMinus"] = eta_profile(rng, b, PROFILE_SAMPLES)
        tag = "signed" if signed else "plain"
        eta_path = _write_json(pdir / f"eta-{tag}.json", profile)
        gens = b_monomial_gens(rng, N_MID, b, signed)
        path = _spec_file(pdir, f"verify-eta-{tag}", gens)
        jobs.append(cli_job(f"verify/eta-{tag}", ["verify", path, "--activation",
                            f"eta:{eta_path}", "--seed", str(rng.integers(1 << 30))],
                            expect_verify_pass(VERIFY_TRIALS)))
        reach = float(b**4 * rng.uniform(1.0, 2.0))
        argv = ["export-activation", "--eta-file", eta_path, "--grid-min", repr(-reach),
                "--grid-max", repr(reach), "--grid-count", str(2 * EXPORT_HALF + 1)]
        jobs.append(cli_job(f"export-activation/{tag}", argv,
                            expect_csv(plus, b, signed, EXPORT_HALF)))
    return jobs


# ---------------------------------------------------------------------------
# layer-bases

# (group, n, k_in, k_out) rendered through the CLI
BASES = (("sym", 6, 3, 3), ("sym", 7, 2, 2), ("sym", 5, 1, 3),
         ("cyclic", 4, 3, 3), ("cyclic", 9, 2, 2))
# (group, n, tensor orders of the three spaces) of a two-layer network
NETWORKS = (("sym", 6, (2, 2, 1)), ("cyclic", 7, (2, 2, 1)))
NETWORK_TRIALS = 50


def _basis_count(group: str, n: int, k: int) -> int:
    return bell(k) if group == "sym" else n ** (k - 1)


def _base_images(group: str, n: int) -> list[np.ndarray]:
    return sym_images(n) if group == "sym" else cyclic_images(n)


def layer_bases(rng, fault_rng, pdir: Path) -> list[Job]:
    jobs = []
    for group, n, k_in, k_out in BASES:
        images = relabelled(rng, _base_images(group, n))
        label = f"{group}{n}-k{k_in}{k_out}"
        path = _write_json(pdir / f"{label}.json", {
            "name": label, "points": n, "generators": [g.tolist() for g in images]})
        argv = ["basis", "--n", str(n), "--k-in", str(k_in), "--k-out", str(k_out),
                "--group", path]
        check = expect_basis(_basis_count(group, n, k_in + k_out),
                             [tensor_images(g, k_out) for g in images],
                             [tensor_images(g, k_in) for g in images])
        jobs.append(cli_job(f"basis/{label}", argv, check))
    for group, n, orders in NETWORKS:
        jobs.append(_network_job(rng, group, n, orders))
    return jobs


def _network_job(rng, group: str, n: int, orders: tuple[int, int, int]) -> Job:
    images = [g.tolist() for g in relabelled(rng, _base_images(group, n))]
    seed = int(rng.integers(1 << 30))
    weights = np.random.default_rng(seed)

    def run() -> Outcome:
        actions = [repspaces.tensor_action(n, k, images) for k in orders]
        layers = []
        for a_in, a_out in zip(actions, actions[1:]):
            basis = repspaces.equivariant_basis(a_in, a_out)
            bias = repspaces.invariant_basis(a_out)
            layers.append(repspaces.build_affine_layer(
                basis, weights.standard_normal(len(basis)), bias,
                weights.standard_normal(len(bias))))
        relu = [_relu]
        plain = repspaces.validate_network(layers, relu, actions,
                                           trials=NETWORK_TRIALS, seed=seed)
        dense = repspaces.AffineEquivariantLayer(
            weights.standard_normal(layers[0].matrix.shape), layers[0].bias, (), ())
        broken = repspaces.validate_network([dense, layers[1]], relu, actions,
                                            trials=NETWORK_TRIALS, seed=seed)
        return Outcome(None, value=(layers, plain, broken))

    def check(o: Outcome) -> None:
        layers, plain, broken = o.value
        base = [np.asarray(g) for g in images]
        for k_in, k_out, layer in zip(orders, orders[1:], layers):
            count = _basis_count(group, n, k_in + k_out)
            if not _invariant_layer(layer.matrix, [tensor_images(g, k_out) for g in base],
                                    [tensor_images(g, k_in) for g in base], count):
                raise Mismatch("layer matrix is not an invariant combination of the basis")
        if not plain.passed:
            raise Mismatch("validate_network fails a network built from bases")
        if broken.passed or broken.failure.stage != 1 or broken.failure.kind != "affine":
            raise Mismatch("validate_network passes a dense random layer")

    return Job(f"network/{group}{n}-k{''.join(map(str, orders))}", run, check)


def _relu(x):
    return np.maximum(x, 0.0)


BUILDERS = {
    "classify-finite": classify_finite,
    "monomial-pipeline": monomial_pipeline,
    "layer-bases": layer_bases,
}


def build_pass(workload: str, seed: int, index: int, pdir: Path) -> list[Job]:
    """Fresh inputs for pass ``index``; the known-fault input ignores the seed."""
    pdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2**64, index])  # numpy seeds are non-negative
    return BUILDERS[workload](rng, np.random.default_rng([index]), pdir)
