"""Command-line surface: classification, normalization, bases, verification, export.

All structured output is JSON rendered deterministically (stable key order,
floats at 17 significant digits), so identical inputs and seeds produce
byte-identical reports.  Sampled activations are exported as CSV.  Output
goes to stdout and, when ``--out`` is given, to that file in a single write
after the command has fully succeeded.

Exit codes: 0 success / verification passed, 1 verification failed, 2 parse
error, 3 dimension or size limit exceeded, 4 unbounded group (the violating
cycle is included in the report), 5 non-monomial input to normalize,
6 profile endpoint violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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
from .repspaces import PermAction, equivariant_basis, tensor_action
from .tclass import SubgroupKind, classify_group_detailed, maximal_family

SCHEMA_VERSION = "equichar-report-v1"

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


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _render(obj, indent: int) -> str:
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{child}{json.dumps(str(k))}: {_render(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{child}{_render(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r} in a report")


def render_report(report: dict) -> str:
    return _render(report, 0) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# input loading


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed in input files")


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _is_int(value) -> bool:
    """True for JSON integers; bool is an int subclass but not one of them."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_tol(tol: float, source: str) -> float:
    if not math.isfinite(tol) or tol <= 0:
        raise ParseError(f"{source} must be a finite positive number, got {tol!r}")
    return tol


def _load_group_spec(path: str, flag_tol: float | None) -> tuple[GroupSpec, float]:
    """The spec in ``path`` and the resolved tolerance, which every generator must clear."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
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
        if isinstance(file_tol, bool) or not isinstance(file_tol, (int, float)):
            raise ParseError(f"{path}: 'tolerance' must be a number")
        file_tol = _check_tol(float(file_tol), f"{path}: 'tolerance'")
    try:
        spec = GroupSpec(name, dimension, tuple(np.asarray(g, dtype=float) for g in generators))
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
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    b = data.get("b", b_flag)
    if b is None:
        raise ParseError(f"{path}: base 'b' missing (provide it in the file or via --b)")
    if isinstance(b, bool) or not isinstance(b, (int, float)):
        raise ParseError(f"{path}: base 'b' must be a number")
    b = float(b)
    if b_flag is not None and "b" in data and abs(b - b_flag) > tol:
        raise ParseError(f"{path}: file base b={data['b']} conflicts with --b {b_flag}")
    signed = bool(data.get("signed", False)) or signed_flag
    if "etaPlus" not in data:
        raise ParseError(f"{path}: 'etaPlus' samples missing")
    try:
        eta_plus = EtaProfile.from_samples(b, data["etaPlus"], tol)
        eta_minus = None
        if "etaMinus" in data:
            if signed:
                raise ParseError(f"{path}: signed profiles must not carry 'etaMinus'")
            eta_minus = EtaProfile.from_samples(b, data["etaMinus"], tol)
        return build_eta_activation(b, eta_plus, eta_minus, signed, tol)
    except EndpointViolationError:
        raise
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _builtin_activation(token: str, tol: float) -> Activation:
    if token == "relu":
        return relu()
    if token == "tanh":
        return tanh()
    if token == "identity":
        return identity()
    if token.startswith("eta:"):
        return _load_eta_activation(token[4:], None, False, tol)
    raise ParseError(
        f"unknown activation {token!r}; expected relu, tanh, identity, or eta:<profile-file>"
    )


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


def _spec_input_dict(spec: GroupSpec, tol: float) -> dict:
    return {
        "name": spec.name,
        "dimension": spec.n,
        "generators": [g.tolist() for g in spec.generators],
        "tolerance": tol,
    }


# ---------------------------------------------------------------------------
# command handlers


def _cmd_classify(args) -> int:
    spec, tol = _load_group_spec(args.spec, args.tol)
    classification, notes = classify_group_detailed(spec, tol)
    family = maximal_family(classification)
    warnings = list(notes)
    if classification.tclass.kind in (SubgroupKind.DENSE, SubgroupKind.DENSE_POSITIVE):
        warnings.append(DENSITY_WARNING)
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "classify",
        "input": _spec_input_dict(spec, tol),
        "classification": _classification_dict(classification),
        "family": _kind_dict(family),
        "warnings": warnings,
    }
    _emit(render_report(report), args.out)
    return 0


def _cmd_normalize(args) -> int:
    spec, tol = _load_group_spec(args.spec, args.tol)
    base = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "normalize",
        "input": _spec_input_dict(spec, tol),
    }
    try:
        scaling = signed_normalize(spec, tol)
    except UnboundedGroupError as exc:
        report = dict(base)
        report["unboundedCycle"] = {
            "description": exc.description,
            "generator": exc.generator + 1,
            "source": exc.source + 1,
            "target": exc.target + 1,
            "logWeight": exc.log_weight,
            "mismatch": exc.mismatch,
        }
        report["warnings"] = [SIGN_STRUCTURE_NOTE]
        _emit(render_report(report), args.out)
        return 4
    report = dict(base)
    report["scaling"] = {
        "d": scaling.d.tolist(),
        "normalizedGenerators": [g.tolist() for g in scaling.normalized_generators],
    }
    report["warnings"] = [SIGN_STRUCTURE_NOTE]
    _emit(render_report(report), args.out)
    return 0


def _load_action(path: str, n: int) -> PermAction:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
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


def _cmd_basis(args) -> int:
    if min(args.n, args.k_in, args.k_out) < 1:
        raise ParseError("--n, --k-in and --k-out must be at least 1")
    if args.group == "sym":
        base = PermAction(args.n, symmetric_action_generators(args.n))
    elif args.group == "cyclic":
        base = PermAction(args.n, cyclic_action_generators(args.n))
    else:
        base = _load_action(args.group, args.n)
    a_in = tensor_action(args.n, args.k_in, base)
    a_out = tensor_action(args.n, args.k_out, base)
    basis = equivariant_basis(a_in, a_out)
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "basis",
        "input": {"n": args.n, "kIn": args.k_in, "kOut": args.k_out, "group": args.group},
        "basis": {
            "dimIn": basis.dim_in,
            "dimOut": basis.dim_out,
            "count": len(basis),
            "elements": basis.sparse_coordinates(),
        },
        "warnings": [],
    }
    _emit(render_report(report), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ParseError("--trials must be at least 1")
    spec, tol = _load_group_spec(args.spec, args.tol)
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
            "x": ce.x.tolist(),
            "residual": ce.residual,
        }
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": "verify",
        "input": {
            **_spec_input_dict(spec, tol),
            "activation": activation.name,
            "trials": args.trials,
            "seed": args.seed,
        },
        "verification": verification,
        "warnings": [],
    }
    _emit(render_report(report), args.out)
    return 0 if result.passed else 1


def _cmd_export_activation(args) -> int:
    tol = _resolve_tol(args.tol, None)
    activation = _load_eta_activation(args.eta_file, args.b, args.signed, tol)
    try:
        grid = sample_grid(args.grid_min, args.grid_max, args.grid_count, args.grid_spacing)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _emit(export_activation_csv(activation, grid), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equichar",
        description=(
            "Classify matrix groups by admissible point-wise activations, "
            "normalize monomial groups, build equivariant layer bases, and "
            "verify equivariance numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a generated matrix group")
    p.add_argument("spec", help="group spec JSON file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("normalize", help="rescale a monomial group to signed permutations")
    p.add_argument("spec", help="group spec JSON file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("basis", help="equivariant layer basis between tensor-power actions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-in", dest="k_in", type=int, required=True)
    p.add_argument("--k-out", dest="k_out", type=int, required=True)
    p.add_argument(
        "--group",
        required=True,
        help="'sym', 'cyclic', or a JSON action file with 0-based generators",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("verify", help="check point-wise equivariance on random vectors")
    p.add_argument("spec", help="group spec JSON file")
    p.add_argument(
        "--activation",
        required=True,
        help="relu, tanh, identity, or eta:<profile-file>",
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export-activation", help="sample a profile-built activation to CSV")
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--eta-file", dest="eta_file", required=True)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--grid-min", dest="grid_min", type=float, required=True)
    p.add_argument("--grid-max", dest="grid_max", type=float, required=True)
    p.add_argument("--grid-count", dest="grid_count", type=int, required=True)
    p.add_argument(
        "--grid-spacing", dest="grid_spacing", choices=("linear", "log"), default="linear"
    )
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_export_activation)

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
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
