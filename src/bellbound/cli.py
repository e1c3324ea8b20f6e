"""Command-line surface.

Every subcommand reads the JSON formats documented on the owning
module, accepts built-in inequality names where a file is expected, and
emits json, csv, or a plain table.  Floats are printed with 12
significant digits so tolerances can be audited from the output alone;
json prints a non-finite float as null, csv and table as inf or nan.
Exit codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .enumeration import DEFAULT_GUARD, walk_memo
from .errors import BellboundError, ParameterError
from .inequalities import (
    MODE_COMPLETE,
    CutInequality,
    PairwiseInequality,
    chsh,
    classical_bound,
    embed_in_complete,
    to_cut_form,
    triangle,
)
from .noise import noise_quantity, noisy_violation, partitioned_threshold
from .optimize import FAMILY_BOUQUET12, FAMILY_BOUQUET2K1, gram_ratio, scan_theta
from .polytopes import (
    VERTEX_GUARD,
    PolytopeSpec,
    ambient_coefficients,
    facet_check,
    membership,
)
from .quantum import UnitVectorConfig, bouquet, quantum_value
from .reproduce import run_claims
from .tsirelson import GENERATOR_GUARD, realize, verify_realization
from .webs import WebSpec, antiweb_edges, clique_web_inequality, web_edges

_POLYTOPE_COMPACT = re.compile(r"^(bell|cut|cor)(\d+)$")
_POLYTOPE_EXPLICIT = re.compile(r"^(bell|cut|cor):(\d+)(?:,(\d+))?$")
_CLIQUEWEB_NAME = re.compile(r"^cliqueweb:(\d+),(\d+),(\d+)$")


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _rounded(obj):
    """Copy a payload with every float cut to 12 significant digits, and
    a non-finite one set to None: strict JSON has no Infinity or NaN."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _round12(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _load_json_source(source: str):
    """Parse inline JSON (starts with '[' or '{') or read it from a file."""
    text = source.strip()
    if not text.startswith(("[", "{")):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise BellboundError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BellboundError(f"invalid JSON in {source}: {exc}") from exc


def load_inequality(spec: str) -> PairwiseInequality:
    """Resolve a named inequality or a JSON file/string."""
    if spec == "chsh":
        return chsh()
    if spec == "triangle":
        return triangle()
    named = _CLIQUEWEB_NAME.match(spec)
    if named:
        p, q, r = (int(g) for g in named.groups())
        return clique_web_inequality(WebSpec(p, q, r))
    if spec.startswith("cliqueweb:"):
        raise ParameterError(f"malformed name {spec!r}; expected cliqueweb:p,q,r")
    return PairwiseInequality.from_json_dict(_load_json_source(spec))


def load_vectors(spec: str) -> UnitVectorConfig:
    data = _load_json_source(spec)
    if isinstance(data, dict):
        return UnitVectorConfig.from_json_dict(data)
    return UnitVectorConfig(data)


def load_point(spec: str) -> list:
    data = _load_json_source(spec)
    if isinstance(data, dict):
        data = data.get("point")
    if not isinstance(data, list):
        raise BellboundError("point must be a JSON array of numbers")
    return data


def parse_polytope(name: str) -> PolytopeSpec:
    """Accept bell3 / bell22 / cut4 / cor3 and bell:N / bell:N,M forms.

    In the compact form two digits after 'bell' are read as the two
    party sizes (bell22 is the 2x2 polytope); use bell:12 for twelve
    variables on one side.
    """
    # the names bell, cut and cor are the one-sided PolytopeSpec kinds
    m = _POLYTOPE_EXPLICIT.match(name)
    if m:
        kind, a, b = m.group(1), int(m.group(2)), m.group(3)
        if b is None:
            return PolytopeSpec(kind, a)
        if kind == "bell":
            return PolytopeSpec.bell_bipartite(a, int(b))
        raise ParameterError(f"{kind} polytopes take a single size")
    m = _POLYTOPE_COMPACT.match(name)
    if m:
        kind, digits = m.group(1), m.group(2)
        if kind == "bell" and len(digits) == 2:
            return PolytopeSpec.bell_bipartite(int(digits[0]), int(digits[1]))
        return PolytopeSpec(kind, int(digits))
    raise ParameterError(
        f"unknown polytope {name!r}: use bell3, bell22, cut4, cor3, bell:N or bell:N,M"
    )


def _emit(
    args,
    payload: dict,
    rows: list[dict] | None = None,
    rows_in_json: str | None = None,
    columns: tuple[str, ...] = (),
) -> None:
    """Render one result: json is the payload, csv prefers the row set.

    rows_in_json names a payload key for the row set when the rows are
    not already part of the documented JSON shape.  columns heads the
    csv or table of a row set that can be empty, which has no row to
    name them.
    """
    fmt = args.format
    if fmt == "json":
        out = dict(payload)
        if rows is not None and rows_in_json is not None:
            out[rows_in_json] = rows
        print(json.dumps(_rounded(out), sort_keys=True))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if rows is not None:
            header = list(rows[0].keys()) if rows else list(columns)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(row[k]) for k in header])
        else:
            writer.writerow(["key", "value"])
            for key, value in payload.items():
                if isinstance(value, (str, int, float, bool)) or value is None:
                    writer.writerow([key, _cell(value)])
        return
    for key, value in payload.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            print(f"{key}: {_cell(value)}")
        else:
            print(f"{key}: {json.dumps(_rounded(value), sort_keys=True)}")
    if rows or (rows is not None and columns):
        keys = list(rows[0].keys()) if rows else list(columns)
        print("  ".join(keys))
        for row in rows:
            print("  ".join(_cell(row[k]) for k in keys))


def _cmd_web(args) -> int:
    spec = WebSpec(args.p, args.q, args.r)
    edges = antiweb_edges(spec) if args.antiweb else web_edges(spec)
    payload = edges.to_json_dict()
    rows = [{"i": i, "j": j} for i, j in edges.edges]
    _emit(args, payload, rows, columns=("i", "j"))
    return 0


def _cmd_cliqueweb(args) -> int:
    payload = clique_web_inequality(WebSpec(args.p, args.q, args.r)).to_json_dict()
    _emit(args, payload, payload["coefficients"])
    return 0


def _cmd_bouquet(args) -> int:
    if (args.theta is None) == (args.theta_pi is None):
        raise ParameterError("give exactly one of --theta or --theta-pi")
    theta = args.theta if args.theta is not None else args.theta_pi * math.pi
    config = bouquet(args.p, args.q, theta, phase=args.phase)
    rows = [
        {"x": v[0], "y": v[1], "z": v[2]} for v in config.vectors
    ]
    _emit(args, config.to_json_dict(), rows)
    return 0


def _cmd_qvalue(args) -> int:
    ineq = load_inequality(args.ineq)
    config = load_vectors(args.vectors)
    report = quantum_value(ineq, config, transported=not args.raw_singlet)
    payload = {
        "value": report.value,
        "raw_sum": report.raw_sum,
        "rhs": report.rhs,
        "transported": report.transported,
        "violated": report.violated,
    }
    _emit(args, payload)
    return 0


def _cmd_classical_bound(args) -> int:
    ineq = load_inequality(args.ineq)
    result = classical_bound(ineq, guard=args.guard)
    payload = {
        "max_value": result.max_value,
        "argmax": list(result.argmax.values),
        "evaluations": result.evaluations,
    }
    _emit(args, payload)
    return 0


def _cmd_member(args) -> int:
    spec = parse_polytope(args.polytope)
    cert = membership(spec, load_point(args.point), guard=args.guard)
    _emit(args, cert.to_json_dict())
    return 0


def _cmd_facet_check(args) -> int:
    spec = parse_polytope(args.polytope)
    ineq: PairwiseInequality | CutInequality = load_inequality(args.ineq)
    if args.cut_form:
        ineq = to_cut_form(ineq)
    coefficients, rhs = ambient_coefficients(spec, ineq)
    report = facet_check(spec, coefficients, rhs, guard=args.guard)
    payload = {
        "valid": report.valid,
        "tight_count": report.tight_count,
        "affine_rank": report.affine_rank,
        "ambient_dim": report.ambient_dim,
        "is_facet": report.is_facet,
    }
    _emit(args, payload)
    return 0


def _complex_json(m: np.ndarray) -> list:
    """A complex array as nested [re, im] pairs; _emit rounds them."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _cmd_tsirelson(args) -> int:
    config = load_vectors(args.vectors)
    realization = realize(config, guard=args.guard)
    report = verify_realization(realization, config)
    payload = {
        "dimension": realization.dimension,
        "passed": report.passed,
        "tolerance": report.tolerance,
        "hermiticity": report.hermiticity,
        "involution": report.involution,
        "tracelessness": report.tracelessness,
        "marginals": report.marginals,
        "correlation": report.correlation,
        "anticommutator": report.anticommutator,
    }
    if args.dump_operators:
        payload["operators"] = {
            "a": [_complex_json(m) for m in realization.a_operators],
            "b": [_complex_json(m) for m in realization.b_operators],
            "state": _complex_json(realization.state),
        }
    _emit(args, payload)
    return 0


def _normalized_to_unit_bound(ineq: PairwiseInequality, guard: int) -> PairwiseInequality:
    """Rescale coefficients by the enumerated bound so the bound is 1."""
    bound = classical_bound(ineq, guard=guard).max_value
    if bound <= 0:
        raise ParameterError("classical bound must be positive to normalize")
    return dataclasses.replace(
        ineq, coefficients={k: v / bound for k, v in ineq.coefficients.items()}, rhs=1.0
    )


def _cmd_werner(args) -> int:
    if args.eta is None and args.points < 1:
        raise ParameterError(f"need at least 1 table point, got --points {args.points}")
    ineq = _normalized_to_unit_bound(load_inequality(args.ineq), args.guard)
    config = load_vectors(args.vectors)
    report = partitioned_threshold(ineq, config, guard=args.guard)
    if args.eta is not None:
        etas = [args.eta]
    else:
        etas = [i / args.points for i in range(1, args.points + 1)]
    rows = [
        {"eta": eta, "violation": noisy_violation(ineq, config, eta, guard=args.guard)}
        for eta in etas
    ]
    payload = {
        "eta_threshold": report.eta_threshold,
        "violation_possible": report.violation_possible,
        "quantum_sum": report.quantum_sum,
        "noise_quantity": report.noise_quantity,
    }
    _emit(args, payload, rows, rows_in_json="table")
    return 0


def _cmd_maxcut(args) -> int:
    result = noise_quantity(load_inequality(args.ineq), guard=args.guard)
    payload = {
        "value": result.value,
        "partition": list(result.partition.values),
        "total_weight": result.total_weight,
        "max_cut": result.max_cut,
        "evaluations": result.evaluations,
    }
    _emit(args, payload)
    return 0


def _cmd_scan_theta(args) -> int:
    family = FAMILY_BOUQUET12 if args.family == "b12" else FAMILY_BOUQUET2K1
    result = scan_theta(family, k=args.k, grid_points=args.points)
    payload = {
        "family": result.family,
        "k": result.k,
        "best_theta": result.best_theta,
        "best_value": result.best_value,
        "violation_interval": list(result.violation_interval)
        if result.violation_interval
        else None,
    }
    rows = [{"theta": t, "value": v} for t, v in result.grid]
    _emit(args, payload, rows, rows_in_json="grid")
    return 0


def _cmd_gram(args) -> int:
    ineq = load_inequality(args.ineq)
    if ineq.mode != MODE_COMPLETE:
        ineq = embed_in_complete(ineq)
    n = ineq.variable_count
    dim = args.dim if args.dim is not None else n
    result, bound = gram_ratio(
        ineq.coefficients, n, dim, restarts=args.restarts, seed=args.seed, guard=args.guard
    )
    payload = {
        "objective": result.objective,
        "ratio": result.objective / bound,
        "classical_bound": bound,
        "converged": result.converged,
        "sweeps": result.sweeps,
        "restarts": len(result.restart_objectives),
        "vectors": [list(map(float, v)) for v in result.vectors],
    }
    _emit(args, payload)
    return 0


def _cmd_reproduce(args) -> int:
    selected = args.claims.split(",") if args.claims else None
    rows = run_claims(selected)
    records = [r.to_json_dict() for r in rows]
    if args.format == "json":
        print(json.dumps(_rounded(records), sort_keys=True))
    elif args.format == "csv":
        _emit(args, {}, records)
    else:
        width = max(len(r.claim_id) for r in rows) if rows else 8
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            computed = "error" if r.computed is None else f"{r.computed:.12g}"
            line = (
                f"{status}  {r.claim_id:<{width}}  [{r.source:>7}]  "
                f"expected {r.expected:.12g}  computed {computed}  tol {r.tolerance:g}"
            )
            if r.error:
                line += f"  ({r.error})"
            print(line)
        passed = sum(1 for r in rows if r.passed)
        print(f"{passed}/{len(rows)} claims pass")
    return 0 if all(r.passed for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="table",
        help="output format (default table)",
    )
    guarded = argparse.ArgumentParser(add_help=False, parents=[formatted])
    guarded.add_argument(
        "--guard",
        type=int,
        help=(
            f"variables allowed before a computation is refused (default {DEFAULT_GUARD}, "
            f"{VERTEX_GUARD} for member and facet-check, {GENERATOR_GUARD} generators "
            "for tsirelson; env BELLBOUND_GUARD overrides)"
        ),
    )

    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Correlation inequalities, their exact bounds, and singlet violations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("web", parents=[formatted], help="emit web or antiweb edges")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--antiweb", action="store_true", help="emit the complement instead")
    p.set_defaults(fn=_cmd_web)

    p = sub.add_parser("cliqueweb", parents=[formatted], help="emit a clique-web inequality")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_cliqueweb)

    p = sub.add_parser("bouquet", parents=[formatted], help="emit a bouquet configuration")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--theta", type=float, help="opening angle in radians")
    p.add_argument("--theta-pi", type=float, help="opening angle as a multiple of pi")
    p.add_argument("--phase", type=float, default=0.0, help="ring rotation in radians")
    p.set_defaults(fn=_cmd_bouquet)

    p = sub.add_parser("qvalue", parents=[formatted], help="normalized quantum value")
    p.add_argument("--ineq", required=True, help="chsh, triangle, cliqueweb:p,q,r, or JSON")
    p.add_argument("--vectors", required=True, help="vector-config JSON file or string")
    p.add_argument(
        "--raw-singlet",
        action="store_true",
        help="score complete-mode pairs with raw singlet correlations instead",
    )
    p.set_defaults(fn=_cmd_qvalue)

    p = sub.add_parser("classical-bound", parents=[guarded], help="exact bound by enumeration")
    p.add_argument("--ineq", required=True)
    p.set_defaults(fn=_cmd_classical_bound, default_guard=DEFAULT_GUARD)

    p = sub.add_parser("member", parents=[guarded], help="polytope membership certificate")
    p.add_argument("--polytope", required=True, help="bell3, bell22, cut4, cor3, bell:N,M")
    p.add_argument("--point", required=True, help="JSON array file or string")
    p.set_defaults(fn=_cmd_member, default_guard=VERTEX_GUARD)

    p = sub.add_parser("facet-check", parents=[guarded], help="exact validity and facet test")
    p.add_argument("--polytope", required=True)
    p.add_argument("--ineq", required=True)
    p.add_argument(
        "--cut-form",
        action="store_true",
        help="convert a complete-mode inequality to its 0/1 cut form first",
    )
    p.set_defaults(fn=_cmd_facet_check, default_guard=VERTEX_GUARD)

    p = sub.add_parser("tsirelson", parents=[guarded], help="operator realization report")
    p.add_argument("--vectors", required=True)
    p.add_argument(
        "--dump-operators",
        action="store_true",
        help="include operator matrices as [re, im] arrays",
    )
    p.set_defaults(fn=_cmd_tsirelson, default_guard=GENERATOR_GUARD)

    p = sub.add_parser("werner", parents=[guarded], help="noise threshold and violation table")
    p.add_argument("--ineq", required=True)
    p.add_argument("--vectors", required=True)
    p.add_argument("--eta", type=float, help="evaluate a single visibility instead of a table")
    p.add_argument("--points", type=int, default=20, help="table rows when --eta is absent")
    p.set_defaults(fn=_cmd_werner, default_guard=DEFAULT_GUARD)

    p = sub.add_parser("maxcut", parents=[guarded], help="worst-case noise quantity")
    p.add_argument("--ineq", required=True)
    p.set_defaults(fn=_cmd_maxcut, default_guard=DEFAULT_GUARD)

    p = sub.add_parser("scan-theta", parents=[formatted], help="scan a bouquet value curve")
    p.add_argument("--family", choices=("b12", "b2k1"), required=True)
    p.add_argument("--k", type=int, help="ring parameter for the b2k1 family")
    p.add_argument("--points", type=int, default=1024, help="grid points")
    p.set_defaults(fn=_cmd_scan_theta)

    p = sub.add_parser("gram", parents=[guarded], help="block-coordinate vector ascent")
    p.add_argument("--ineq", required=True)
    p.add_argument("--dim", type=int, help="vector dimension (default: variable count)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0, help="seed for the random restarts (default 0)")
    p.set_defaults(fn=_cmd_gram, default_guard=DEFAULT_GUARD)

    p = sub.add_parser(
        "reproduce-paper",
        parents=[formatted],
        help="recompute every recorded claim as a pass/fail table",
    )
    p.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p.set_defaults(fn=_cmd_reproduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # the flag wins, then BELLBOUND_GUARD as it is at this call, then the command's
    # default, which is smaller for the commands that build whole tables
    if "guard" in args and args.guard is None:
        guard_env = os.environ.get("BELLBOUND_GUARD")
        try:
            args.guard = args.default_guard if guard_env is None else int(guard_env)
        except ValueError:
            parser.error(f"BELLBOUND_GUARD must be an integer, got {guard_env!r}")
    try:
        # one memo per command: werner reads the same few forms on every row
        with walk_memo():
            return args.fn(args)
    except BellboundError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
