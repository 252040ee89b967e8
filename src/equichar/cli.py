"""Command-line surface: classification, normalization, bases, verification, export.

All structured output is JSON rendered deterministically (stable key order,
floats at 17 significant digits, non-finite floats as null), so identical
inputs and seeds produce byte-identical reports.  Sampled activations are
exported as CSV.  Command handlers return their text and exit code; ``main``
alone writes the text, to the ``--out`` file first (one write, after the
command has succeeded), then to stdout.  A refused input, an unwritable
``--out`` or a flag argparse rejects included, gets one ``error:`` line on
stderr and nothing on stdout.

Exit codes: 0 success / verification passed, 1 verification failed, 2 parse
error, 3 dimension or size limit exceeded, 4 unbounded group (the violating
cycle is included in the report), 5 non-monomial input to normalize,
6 profile endpoint violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from pathlib import Path

import numpy as np

from .activations import (
    Activation,
    EtaProfile,
    build_eta_activation,
    export_activation_csv,
    format_float,
    identity,
    relu,
    sample_grid,
    tanh,
    verify_pointwise_equivariance,
)
from .catalog import cyclic_action_generators, symmetric_action_generators
from .core import DEFAULT_TOL, GroupSpec, check_invertible
from .errors import (
    DimensionTooLargeError,
    EndpointViolationError,
    NotMonomialError,
    ShapeMismatchError,
    SizeExceededError,
    UnboundedGroupError,
)
from .normalize import signed_normalize
from .repspaces import PermAction, _coordinate_arrays, check_basis_size
from .repspaces import equivariant_basis, tensor_action
from .tclass import SubgroupKind, classify_group_detailed, maximal_family

SCHEMA_VERSION = "equichar-report-v1"
MAX_GRID_POINTS = 1_000_000  # export-activation rows
# verify counts a trial's vectors x and M x as dimension + 200 points each, a generator's M x
# and M f(x) as dimension^2 // 80: largest runs take 4-9 s of CPU (1 BLAS thread, 2-vCPU Xeon)
MAX_VERIFY_POINTS = 150_000_000

DENSITY_WARNING = (
    "density classification is a tolerance-based heuristic: the real GCD of "
    "log-magnitudes collapsed below tolerance, and genuine density cannot be "
    "decided from finite floating-point data"
)
SIGN_STRUCTURE_NOTE = (
    "coefficient magnitudes are normalized exactly via cycle consistency; "
    "sign patterns are taken from the generators as given"
)


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # no usage text and exit: main reports one error: line
        raise ParseError(message)


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _render(obj, indent: int, out: list[str]) -> None:
    """Append the JSON text of ``obj``, its first line at ``indent``, to ``out`` piece by piece."""
    child = " " * (indent + 2)
    if isinstance(obj, dict):
        sep = "{\n" + child
        for k, v in obj.items():
            out.append(f"{sep}{_json_string(str(k))}: ")
            _render(v, indent + 2, out)
            sep = ",\n" + child
        out.append("\n" + " " * indent + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)) and _stackable(obj):
        _render_arrays(obj, True, indent, out)
    elif isinstance(obj, (list, tuple)):
        sep = "[\n" + child
        for v in obj:
            out.append(sep)
            _render(v, indent + 2, out)
            sep = ",\n" + child
        out.append("\n" + " " * indent + "]" if obj else "[]")
    elif isinstance(obj, np.ndarray) and obj.size and obj.dtype.kind in "biuf":
        _render_arrays((obj,), False, indent, out)
    elif isinstance(obj, np.ndarray):  # empty or unusual arrays as nested lists
        _render(obj.tolist(), indent, out)
    else:
        out.append(_leaf(obj))


def _leaf(obj) -> str:
    """A number, boolean, string or None as JSON text."""
    if isinstance(obj, (float, np.floating)):  # first: most leaves are floats
        return format_float(obj) if math.isfinite(obj) else "null"  # JSON has no NaN or inf
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return _json_string(obj)
    raise TypeError(f"cannot render {type(obj)!r} in a report")


def _stackable(items) -> bool:
    """True for nonempty numeric or bool arrays of one dtype kind and one shape past axis 0."""
    head = items[0] if items else None
    return isinstance(head, np.ndarray) and head.dtype.kind in "biuf" and all(
        isinstance(a, np.ndarray) and a.size and a.ndim and a.dtype.kind == head.dtype.kind
        and a.shape[1:] == head.shape[1:] for a in items
    )


def _render_arrays(arrays, listed: bool, indent: int, out: list[str]) -> None:
    """Append the JSON text of ``arrays[0]``, or of the list ``arrays`` when ``listed``: each
    leaf's text and the separator after it, from one table keyed by (distinct value, number
    of bracket levels that close after the leaf), gathered once and joined with the report."""
    first, levels = arrays[0], arrays[0].ndim + listed
    flat = np.concatenate(arrays, axis=None) if listed else first.ravel()
    kind = flat.dtype.kind
    if kind == "b":
        key, values = flat.astype(np.intp), (False, True)
    elif kind in "iu" and int(hi := flat.max()) - int(lo := flat.min()) < 2 * flat.size:
        key = np.subtract(flat, lo, dtype=np.intp, casting="unsafe")  # offsets from the least
        values = range(int(lo), int(hi) + 1)
    else:  # sorted; floats keyed on their bits, so -0.0 stays apart from 0.0
        flat = flat.astype(float, copy=False).view(np.int64) if kind == "f" else flat
        values = np.sort(flat)
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        key = values.searchsorted(flat)
        values = (values.view(float) if kind == "f" else values).tolist()
    del flat  # of the arrays, only the key lives through the gather
    width = levels + 1
    key *= width  # the closing levels c are added in place: key = value * width + c
    key[-1] += bool(levels)  # the outermost level, if there is one
    inner = first.shape[1:]  # the levels that close at fixed strides
    if listed and all(a.shape == first.shape for a in arrays):
        inner = first.shape  # equal arrays close like their stack
    elif listed:
        key[[end - 1 for end in accumulate(a.size for a in arrays)]] += 1  # each array
    for stride in (math.prod(inner[axis:]) for axis in range(len(inner))):
        key[stride - 1 :: stride] += 1
    close, prefix, seps = "", "", []  # after a leaf: c closes, a comma and c opens, or the end
    for pad in (" " * (indent + 2 * (levels - c)) for c in range(levels)):
        seps.append(close + ",\n" + pad + prefix)
        close, prefix = close + "\n" + pad[2:] + "]", "[\n" + pad + prefix
    seps.append(close)
    texts = [_leaf(v) for v in values]
    if len(texts) * width > key.size + 64:  # a sparse table: only the keys that occur
        used, key = np.unique(key, return_inverse=True)
        table = [texts[k // width] + seps[k % width] for k in used.tolist()]
    else:
        table = [text + sep for text in texts for sep in seps]
    pieces = np.array(table, dtype=object)[key]
    del key
    out.append(prefix)
    out += pieces.tolist()


def render_report(report: dict) -> str:
    """The report as JSON text.  Each array, and each list of arrays that stack but for their
    first axis, is written in one pass: a table of every (distinct value, closing brackets)
    pair's text, one gather from it, and the one join of the whole report."""
    out: list[str] = []
    _render(report, 0, out)
    out.append("\n")
    return "".join(out)


def _report(args, input: dict, warnings: list[str], **body) -> str:
    """The rendered report: schema, command and input, then ``body``, then warnings."""
    return render_report({
        "schemaVersion": SCHEMA_VERSION,
        "command": args.command,
        "input": input,
        **body,
        "warnings": warnings,
    })


# ---------------------------------------------------------------------------
# input loading


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed in input files")


def _load_object(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # bad UTF-8, bad JSON, integers past Python's digit limit, too deep a nesting
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _is_int(value) -> bool:
    """True for JSON integers; bool is an int subclass but not one of them."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A JSON number as a float: booleans, strings, infinities and huge integers are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} must be a number")
    if not abs(value) <= sys.float_info.max:  # also NaN, without converting a huge int
        raise ParseError(f"{what} must be finite, got {value!r:.40}")
    return float(value)


def _rows(value, what: str) -> np.ndarray:
    """A list of equal-length rows of JSON numbers as a float array."""
    try:
        if {int, float}.issuperset(map(type, chain.from_iterable(value))):
            return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not rows, ragged rows, huge integers
        pass
    raise ParseError(f"{what} must be a list of equal-length rows of numbers")


def _check_tol(tol: float, source: str) -> float:
    if not math.isfinite(tol) or tol <= 0:
        raise ParseError(f"{source} must be a finite positive number, got {tol!r}")
    return tol


def _load_group_spec(path: str, flag_tol: float | None) -> tuple[GroupSpec, float]:
    """The spec in ``path`` and the resolved tolerance, which every generator must clear."""
    data = _load_object(path)
    name = data.get("name")
    dimension = data.get("dimension")
    generators = data.get("generators")
    if not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    if not _is_int(dimension) or dimension < 1:
        raise ParseError(f"{path}: 'dimension' must be a positive integer")
    if not isinstance(generators, list):
        raise ParseError(f"{path}: 'generators' must be a list of matrices")
    file_tol = data.get("tolerance")
    if file_tol is not None:
        file_tol = _check_tol(_number(file_tol, f"{path}: 'tolerance'"), f"{path}: 'tolerance'")
    mats = tuple(_rows(g, f"{path}: generator {k}") for k, g in enumerate(generators))
    try:
        spec = GroupSpec(name, dimension, mats)
        tol = _resolve_tol(flag_tol, file_tol)
        if tol > DEFAULT_TOL:  # GroupSpec has checked up to DEFAULT_TOL
            for k, g in enumerate(spec.generators):
                check_invertible(k, g, tol)
    except (ValueError, ShapeMismatchError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return spec, tol


def _resolve_tol(flag_tol: float | None, file_tol: float | None) -> float:
    if flag_tol is not None:
        return _check_tol(flag_tol, "--tol")
    if file_tol is not None:
        return file_tol
    env = os.environ.get("EQUICHAR_TOL")
    if env:
        try:
            tol = float(env)
        except ValueError as exc:
            raise ParseError(f"EQUICHAR_TOL is not a number: {env!r}") from exc
        return _check_tol(tol, "EQUICHAR_TOL")
    return DEFAULT_TOL


def _load_eta_activation(
    path: str, b_flag: float | None, signed_flag: bool, tol: float
) -> Activation:
    if b_flag is not None:
        b_flag = _number(b_flag, "--b")
    data = _load_object(path)
    b = data.get("b", b_flag)
    if b is None:
        raise ParseError(f"{path}: base 'b' missing (provide it in the file or via --b)")
    b = _number(b, f"{path}: base 'b'")
    if b_flag is not None and "b" in data and abs(b - b_flag) > tol:
        raise ParseError(f"{path}: file base b={data['b']} conflicts with --b {b_flag}")
    signed = data.get("signed", False)
    if not isinstance(signed, bool):
        raise ParseError(f"{path}: 'signed' must be true or false")
    signed = signed or signed_flag
    if "etaPlus" not in data:
        raise ParseError(f"{path}: 'etaPlus' samples missing")
    try:
        eta_plus = EtaProfile.from_samples(b, _rows(data["etaPlus"], f"{path}: 'etaPlus'"), tol)
        eta_minus = None
        if "etaMinus" in data:
            if signed:
                raise ParseError(f"{path}: signed profiles must not carry 'etaMinus'")
            samples = _rows(data["etaMinus"], f"{path}: 'etaMinus'")
            eta_minus = EtaProfile.from_samples(b, samples, tol)
        return build_eta_activation(b, eta_plus, eta_minus, signed, tol)
    except EndpointViolationError:
        raise
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


_ACTIVATIONS = {"relu": relu, "tanh": tanh, "identity": identity}


def _builtin_activation(token: str, tol: float) -> Activation:
    if token.startswith("eta:"):
        return _load_eta_activation(token[4:], None, False, tol)
    if token not in _ACTIVATIONS:
        raise ParseError(f"unknown activation {token!r}; expected relu, tanh, identity, eta:FILE")
    return _ACTIVATIONS[token]()


def _load_action(path: str, n: int) -> PermAction:
    data = _load_object(path)
    points = data.get("points")
    generators = data.get("generators")
    if not _is_int(points) or points != n:
        raise ParseError(f"{path}: 'points' must equal --n ({n})")
    if not isinstance(generators, list):
        raise ParseError(f"{path}: 'generators' must be a list of 0-based image lists")
    try:
        return PermAction(n, generators)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization of domain values


def _kind_dict(value) -> dict:
    """A subgroup class or activation family as its kind and, when set, its base b."""
    out = {"kind": value.kind.value}
    if value.b is not None:
        out["b"] = value.b
    return out


def _classification_dict(c) -> dict:
    return {
        "monomial": c.monomial,
        "nonNegative": c.non_negative,
        "unitRow": c.unit_row,
        "tclass": _kind_dict(c.tclass),
    }


def _spec_input_dict(spec: GroupSpec, tol: float, **extra) -> dict:
    return {
        "name": spec.name,
        "dimension": spec.n,
        "generators": spec.generators,
        "tolerance": tol,
        **extra,
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (text, exit code) and writes nothing


def _cmd_classify(args) -> tuple[str, int]:
    spec, tol = _load_group_spec(args.spec, args.tol)
    classification, warnings = classify_group_detailed(spec, tol)
    if classification.tclass.kind in (SubgroupKind.DENSE, SubgroupKind.DENSE_POSITIVE):
        warnings.append(DENSITY_WARNING)
    body = _classification_dict(classification)
    family = _kind_dict(maximal_family(classification))
    text = _report(args, _spec_input_dict(spec, tol), warnings, classification=body, family=family)
    return text, 0


def _cmd_normalize(args) -> tuple[str, int]:
    spec, tol = _load_group_spec(args.spec, args.tol)
    input = _spec_input_dict(spec, tol)
    try:
        scaling = signed_normalize(spec, tol)
    except UnboundedGroupError as exc:
        cycle = {
            "description": exc.description,
            "generator": exc.generator + 1,
            "source": exc.source + 1,
            "target": exc.target + 1,
            "logWeight": exc.log_weight,
            "mismatch": exc.mismatch,
        }
        return _report(args, input, [SIGN_STRUCTURE_NOTE], unboundedCycle=cycle), 4
    body = {"d": scaling.d, "normalizedGenerators": scaling.normalized_generators}
    return _report(args, input, [SIGN_STRUCTURE_NOTE], scaling=body), 0


_GROUPS = {"sym": symmetric_action_generators, "cyclic": cyclic_action_generators}


def _cmd_basis(args) -> tuple[str, int]:
    if min(args.n, args.k_in, args.k_out) < 1:
        raise ParseError("--n, --k-in and --k-out must be at least 1")
    check_basis_size(args.n, args.k_in, args.k_out)  # before any generator or array
    images = _GROUPS.get(args.group)
    base = PermAction(args.n, images(args.n)) if images else _load_action(args.group, args.n)
    a_in = tensor_action(args.n, args.k_in, base)
    a_out = tensor_action(args.n, args.k_out, base)
    basis = equivariant_basis(a_in, a_out)
    input = {"n": args.n, "kIn": args.k_in, "kOut": args.k_out, "group": args.group}
    body = {"dimIn": basis.dim_in, "dimOut": basis.dim_out, "count": len(basis)}
    body["elements"] = _coordinate_arrays(basis)
    return _report(args, input, [], basis=body), 0


def _cmd_verify(args) -> tuple[str, int]:
    if args.trials < 1:
        raise ParseError("--trials must be at least 1")
    if args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    spec, tol = _load_group_spec(args.spec, args.tol)
    if not spec.generators:
        raise ParseError(f"{args.spec}: verify needs at least one generator")
    gens, n = len(spec.generators), spec.n
    if args.trials * ((gens + 1) * (n + 200) + gens * n * n // 80) > MAX_VERIFY_POINTS:
        raise SizeExceededError(
            f"{args.trials} trials x ({gens + 1} vectors x (dimension {n} + 200)"
            f" + {gens} generators x {n}^2 // 80) > {MAX_VERIFY_POINTS}"
        )
    activation = _builtin_activation(args.activation, tol)
    result = verify_pointwise_equivariance(
        activation, spec.generators, trials=args.trials, tol=tol, seed=args.seed
    )
    verification = {
        "pass": result.passed,
        "trials": result.trials,
        "worstResidual": result.worst_residual,
    }
    if result.counterexample is not None:
        ce = result.counterexample
        verification["counterexample"] = {
            "trial": ce.trial,
            "generator": ce.generator + 1,
            "x": ce.x,
            "residual": ce.residual,
        }
    input = _spec_input_dict(
        spec, tol, activation=activation.name, trials=args.trials, seed=args.seed
    )
    return _report(args, input, [], verification=verification), 0 if result.passed else 1


def _cmd_export_activation(args) -> tuple[str, int]:
    tol = _resolve_tol(args.tol, None)
    activation = _load_eta_activation(args.eta_file, args.b, args.signed, tol)
    if args.grid_count > MAX_GRID_POINTS:
        raise SizeExceededError(f"grid has {args.grid_count} points (limit {MAX_GRID_POINTS})")
    try:
        grid = sample_grid(args.grid_min, args.grid_max, args.grid_count, args.grid_spacing)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return export_activation_csv(activation, grid), 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first call and then shared: do not change it."""
    parser = _Parser(
        prog="equichar",
        description=(
            "Classify matrix groups by admissible point-wise activations, "
            "normalize monomial groups, build equivariant layer bases, and "
            "verify equivariance numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # shared arguments: every command takes --out, all but basis --tol, and
    # classify, normalize and verify a spec file
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    tol = argparse.ArgumentParser(add_help=False, parents=[out])
    tol.add_argument("--tol", type=float, default=None)
    spec = argparse.ArgumentParser(add_help=False, parents=[tol])
    spec.add_argument("spec", help="group spec JSON file")

    def command(name, handler, parent, help):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(handler=handler)
        return p

    command("classify", _cmd_classify, spec, "classify a generated matrix group")
    command("normalize", _cmd_normalize, spec, "rescale a monomial group to signed permutations")

    p = command("basis", _cmd_basis, out, "equivariant layer basis between tensor-power actions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-in", type=int, required=True)
    p.add_argument("--k-out", type=int, required=True)
    p.add_argument("--group", required=True, help="sym, cyclic, or a JSON action file")

    p = command("verify", _cmd_verify, spec, "check point-wise equivariance on random vectors")
    p.add_argument("--activation", required=True, help="relu, tanh, identity, or eta:<file>")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = command("export-activation", _cmd_export_activation, tol, "sample an activation to CSV")
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--eta-file", required=True)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--grid-min", type=float, required=True)
    p.add_argument("--grid-max", type=float, required=True)
    p.add_argument("--grid-count", type=int, required=True)
    p.add_argument("--grid-spacing", choices=("linear", "log"), default="linear")
    return parser


# refused inputs and their exit codes; each gets one ``error:`` line on stderr
_EXIT_CODES = {
    ParseError: 2,
    DimensionTooLargeError: 3,
    SizeExceededError: 3,
    NotMonomialError: 5,
    EndpointViolationError: 6,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, code = args.handler(args)
        if args.out:
            try:
                Path(args.out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc}") from exc
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
